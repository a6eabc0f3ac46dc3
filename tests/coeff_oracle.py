"""Rational-sum reference for the exact coupling coefficients.

These are Racah's single sums for the Clebsch-Gordan coefficient and the
6-j symbol, each term a ``Fraction``, as ``spinsqueeze.angular``
evaluated them before it moved to integer binomial sums; with them, the
T^k_q stack as ``spinsqueeze.tensor_ops`` built it. They are kept
verbatim so the tests can require the integer route to return the same
``(sign, square)`` pairs and the same stack bits. A 2s = 40 stack costs
about 3 s here, so use large spins sparingly.

:func:`little_d_sum` is Wigner's sum for the reduced rotation matrix, as
``spinsqueeze.angular`` evaluated it before it moved to the spectral form
of exp(-i beta S_y). Its terms cancel, so it loses digits as 2k grows
(about 1.7e-14 at 2k = 20 and 1.8e-11 at 2k = 40); it is an independent
reference only at small ranks.
"""

import math
from fractions import Fraction

import numpy as np

from spinsqueeze.errors import AngularMomentumError


def _fact2(twice: int) -> int:
    """(twice/2)! for an even non-negative twice-value."""
    if twice < 0 or twice % 2 != 0:
        raise AngularMomentumError(f"factorial argument {twice}/2 invalid")
    return math.factorial(twice // 2)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (abs(ta - tb) <= tc <= ta + tb) and (ta + tb + tc) % 2 == 0


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient, exact."""
    return Fraction(
        _fact2(ta + tb - tc) * _fact2(ta - tb + tc) * _fact2(-ta + tb + tc),
        _fact2(ta + tb + tc + 2),
    )


def cg_exact(tj1: int, tj2: int, tj: int, tm1: int, tm2: int, tm: int):
    """(sign, square) of C(j1 j2 j; m1 m2 m), exact. Assumes valid parities."""
    if tm1 + tm2 != tm or not _triangle_ok(tj1, tj2, tj):
        return 0, Fraction(0)
    pre = Fraction(tj + 1) * _delta_sq(tj1, tj2, tj)
    pre *= (_fact2(tj1 + tm1) * _fact2(tj1 - tm1) * _fact2(tj2 + tm2)
            * _fact2(tj2 - tm2) * _fact2(tj + tm) * _fact2(tj - tm))
    kmin = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    kmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (math.factorial(k)
               * _fact2(tj1 + tj2 - tj - 2 * k)
               * _fact2(tj1 - tm1 - 2 * k)
               * _fact2(tj2 + tm2 - 2 * k)
               * _fact2(tj - tj2 + tm1 + 2 * k)
               * _fact2(tj - tj1 - tm2 + 2 * k))
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0, Fraction(0)
    sign = 1 if total > 0 else -1
    return sign, pre * total * total


def six_j_exact(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int):
    """(sign, square) of the 6-j symbol {j1 j2 j3; j4 j5 j6}, exact."""
    if not (_triangle_ok(tj1, tj2, tj3) and _triangle_ok(tj4, tj5, tj3)
            and _triangle_ok(tj4, tj2, tj6) and _triangle_ok(tj1, tj5, tj6)):
        return 0, Fraction(0)
    pre = (_delta_sq(tj1, tj2, tj3) * _delta_sq(tj4, tj5, tj3)
           * _delta_sq(tj1, tj5, tj6) * _delta_sq(tj4, tj2, tj6))
    zmin = max(tj1 + tj2 + tj3, tj4 + tj5 + tj3, tj1 + tj5 + tj6, tj4 + tj2 + tj6) // 2
    zmax = min(tj1 + tj2 + tj4 + tj5, tj1 + tj3 + tj4 + tj6, tj2 + tj3 + tj5 + tj6) // 2
    total = Fraction(0)
    for z in range(zmin, zmax + 1):
        den = (_fact2(2 * z - tj1 - tj2 - tj3) * _fact2(2 * z - tj4 - tj5 - tj3)
               * _fact2(2 * z - tj1 - tj5 - tj6) * _fact2(2 * z - tj4 - tj2 - tj6)
               * _fact2(tj1 + tj2 + tj4 + tj5 - 2 * z)
               * _fact2(tj1 + tj3 + tj4 + tj6 - 2 * z)
               * _fact2(tj2 + tj3 + tj5 + tj6 - 2 * z))
        total += Fraction((-1) ** z * math.factorial(z + 1), den)
    if total == 0:
        return 0, Fraction(0)
    sign = 1 if total > 0 else -1
    return sign, pre * total * total


def tau_stack(ts: int) -> np.ndarray:
    """Every T^k_q of spin ts/2, k = 0..2s and q = -k..k, stacked in that
    order: T^k_q is entry k*k + k + q. Read-only."""
    n = ts + 1
    out = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        root = math.sqrt(2 * k + 1)
        for q in range(-k, k + 1):
            tau = out[k * k + k + q]
            for i, tmp in enumerate(range(ts, -ts - 1, -2)):  # row: m'
                tm = tmp - 2 * q         # the one column m that couples
                if abs(tm) > ts:
                    continue
                sign, square = cg_exact(ts, 2 * k, ts, tm, 2 * q, tmp)
                if sign:
                    tau[i, (ts - tm) // 2] = sign * root * math.sqrt(square)
    out.flags.writeable = False
    return out


def little_d_sum(tk: int, beta: float) -> np.ndarray:
    """d^k(beta) with rows q' = k..-k and columns q = k..-k, from Wigner's sum

        d^k_{q'q} = sqrt((k+q)! (k-q)! (k+q')! (k-q')!)
            sum_n (-1)^(n-q+q') c^(2k-2n+q-q') s^(2n-q+q')
                  / ((k+q-n)! n! (k-q'-n)! (n-q+q')!),

    with c = cos(beta/2) and s = sin(beta/2). Each term is filed under its
    power p = 2k - 2n + q - q' of c in a (2k+1)^3 table, which is then
    contracted with c^p s^(2k-p)."""
    size = tk + 1
    table = np.zeros((size, size, size))
    for i, tqp in enumerate(range(tk, -tk - 1, -2)):
        for j, tq in enumerate(range(tk, -tk - 1, -2)):
            pre = math.sqrt(_fact2(tk + tq) * _fact2(tk - tq)
                            * _fact2(tk + tqp) * _fact2(tk - tqp))
            shift = (tq - tqp) // 2                  # q - q'
            for n in range(max(0, shift), min(tk + tq, tk - tqp) // 2 + 1):
                den = (_fact2(tk + tq - 2 * n) * math.factorial(n)
                       * _fact2(tk - tqp - 2 * n) * math.factorial(n - shift))
                sign = -1.0 if (n - shift) % 2 else 1.0
                table[i, j, tk - 2 * n + shift] = sign * pre / den
    p = np.arange(tk + 1)
    return table @ (math.cos(beta / 2.0) ** p * math.sin(beta / 2.0) ** (tk - p))
