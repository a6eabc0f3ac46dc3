"""Exact angular-momentum coupling coefficients and rotation matrix elements.

Each coupling coefficient is one single sum of products of binomial
coefficients, evaluated in integer arithmetic (Johansson & Forssen,
SIAM J. Sci. Comput. 38, A376 (2016)); its square is then one ratio of
integers. Coefficients squared are rational, so the exact value is
carried as ``(sign, square: Fraction)`` pairs;
:func:`clebsch_gordan_exact` and :func:`wigner_6j_exact` expose this
form. Values are converted to floating point only at the API boundary;
the float Clebsch-Gordan routes divide the two integers instead of
building a ``Fraction``.

Conventions, fixed package-wide:

* Clebsch-Gordan coefficients in the Condon-Shortley phase convention.
* ``racah_w(a, b, c, d, e, f) = (-1)^(a+b+c+d) {a b e; d c f}``.
* Active z-y-z Euler rotations,
  ``D^k_{q'q}(alpha, beta, gamma) = exp(-i q' alpha) d^k_{q'q}(beta) exp(-i q gamma)``,
  with ``d^k(beta) = exp(-i beta S_y)`` from one cached eigendecomposition
  of S_y per rank.

Every function is pure. Coefficients are computed on each call, not
memoized; only per-spin arrays are (``SPIN_CACHE_SIZE`` spins), in
caches that are safe for concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _lapack
from .errors import AngularMomentumError
from .halfint import HalfInt, check_magnitude, check_projection

__all__ = [
    "EulerAngles",
    "clebsch_gordan",
    "clebsch_gordan_exact",
    "racah_w",
    "wigner_6j",
    "wigner_6j_exact",
    "wigner_9j",
    "wigner_d",
    "wigner_d_matrix",
    "little_d",
]

_TWO_PI = 2.0 * math.pi


def _record(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose ``__dict__`` is
    ``fields``, one keyword per field.

    It skips the generated ``__init__``, which stores each field through
    ``object.__setattr__``, and any ``__post_init__``. That is safe for a
    record without a ``__post_init__``, or one whose rule the caller has
    applied, built from values the library has just computed: the
    instance holds what ``cls(**fields)`` would, so ``==``, ``repr``,
    ``dataclasses.replace`` and a ``cached_property`` behave the same.
    """
    out = object.__new__(cls)
    object.__setattr__(out, "__dict__", fields)
    return out


def _record_eq(self, other) -> bool:
    """``==`` for a dataclass record with array fields: the compared
    fields in turn, arrays by value (``np.array_equal``), every other
    field as the generated ``__eq__`` compares it. The generated one puts
    the arrays in a tuple, whose comparison raises unless both records
    hold the same array object. Assigned as ``__eq__`` in the class body,
    which the dataclass then keeps."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif not (a is b or a == b):
                return False
    return True


def _record_hash(self) -> int:
    """``hash`` to go with :func:`_record_eq`: the hash of the compared
    fields that are not arrays. Equal records have equal such fields, so
    they hash equal. Assigned as ``__hash__`` in the class body, which the
    frozen dataclass then keeps in place of its generated one, which
    hashes the arrays and raises."""
    values = (getattr(self, f.name) for f in fields(self) if f.compare)
    return hash(tuple(v for v in values if not isinstance(v, np.ndarray)))


def _euler_normalized(a: float, b: float, g: float) -> tuple[float, float, float]:
    """The rule of :class:`EulerAngles` on three floats: each must be
    finite; beta is taken mod 2*pi and, above pi, folded to 2*pi - beta
    with alpha + pi and gamma - pi (the same rotation); then alpha and
    gamma are taken mod 2*pi. A tiny negative angle mod 2*pi rounds to
    2*pi itself, which is read as 0.0, so every result lies in [0, 2*pi)
    and the rule gives back the angles it returns."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
        raise ValueError("Euler angles must be finite")
    b = b % _TWO_PI
    if b > math.pi:
        a += math.pi
        g -= math.pi
        b = _TWO_PI - b
    a %= _TWO_PI
    g %= _TWO_PI
    return (0.0 if a == _TWO_PI else a), b, (0.0 if g == _TWO_PI else g)


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles of an active rotation, in radians.

    Normalized on construction to alpha, gamma in [0, 2*pi) and
    beta in [0, pi] (the same classical rotation; note that for
    half-integer ranks the 2*pi wrapping selects one sheet of SU(2)).
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = _euler_normalized(float(self.alpha), float(self.beta), float(self.gamma))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    @classmethod
    def _of_floats(cls, alpha: float, beta: float, gamma: float) -> "EulerAngles":
        """The angles from three Python floats by the same rule, without
        the dataclass ``__init__``."""
        a, b, g = _euler_normalized(alpha, beta, gamma)
        return _record(cls, alpha=a, beta=b, gamma=g)

    @staticmethod
    def identity() -> "EulerAngles":
        return EulerAngles(0.0, 0.0, 0.0)


def _fact2(twice: int) -> int:
    """(twice/2)! for an even non-negative twice-value."""
    if twice < 0 or twice % 2 != 0:
        raise AngularMomentumError(f"factorial argument {twice}/2 invalid")
    return math.factorial(twice // 2)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (abs(ta - tb) <= tc <= ta + tb) and (ta + tb + tc) % 2 == 0


# Spins kept by each per-spin array cache (the spin matrices and the S_y
# eigenvectors here, tensor_ops' moment stack, density's Cholesky shift),
# so that their memory does not grow with the number of distinct spins
# asked for. Every rank the CLI takes fits, 2k <= 80: the largest costs
# 420 kB here (four (2k+1)^2 complex arrays), all 80 together 11.5 MB.
SPIN_CACHE_SIZE = 128


def _cg_ratio(tj1: int, tj2: int, tj: int, tm1: int, tm2: int, tm: int):
    """(sign, num, den) with C(j1 j2 j; m1 m2 m)^2 = num / den, exact, and
    (0, 0, 1) where it vanishes. Assumes valid parities.

    With a = j1+j2-j, x = j1-j2+j, y = -j1+j2+j, b = j1-m1 and c = j2+m2,
    Racah's sum is B / (a! x! y!) for the integer
    B = sum_k (-1)^k C(a, k) C(x, b-k) C(y, c-k), so that
    C^2 = (2j+1) prod (j+-m)! B^2 / ((j1+j2+j+1)! a! x! y!). The float
    routes take sqrt(num / den): Python's int division is correctly
    rounded, as float(Fraction(num, den)) is, so no Fraction is needed.
    """
    if tm1 + tm2 != tm or not _triangle_ok(tj1, tj2, tj):
        return 0, 0, 1
    a, x, y = (tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2, (tj2 - tj1 + tj) // 2
    b, c = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    total = 0
    for k in range(max(0, b - x, c - y), min(a, b, c) + 1):
        term = math.comb(a, k) * math.comb(x, b - k) * math.comb(y, c - k)
        total += -term if k & 1 else term
    if total == 0:
        return 0, 0, 1
    num = ((tj + 1) * _fact2(tj1 + tm1) * _fact2(tj1 - tm1) * _fact2(tj2 + tm2)
           * _fact2(tj2 - tm2) * _fact2(tj + tm) * _fact2(tj - tm) * total * total)
    den = (math.factorial(a + x + y + 1) * math.factorial(a)
           * math.factorial(x) * math.factorial(y))
    return (1 if total > 0 else -1), num, den


def _cg_exact(tj1: int, tj2: int, tj: int, tm1: int, tm2: int, tm: int):
    """(sign, square) of C(j1 j2 j; m1 m2 m), exact. Assumes valid parities."""
    sign, num, den = _cg_ratio(tj1, tj2, tj, tm1, tm2, tm)
    return sign, Fraction(num, den)


def _coerce_pair(j, m, names: str) -> tuple[HalfInt, HalfInt]:
    jh, mh = HalfInt.of(j), HalfInt.of(m)
    check_magnitude(jh, names[1])
    check_projection(jh, mh, names)
    return jh, mh


def _cg_twice(j1, j2, j, m1, m2, m) -> tuple[int, int, int, int, int, int]:
    """Twice each argument of a Clebsch-Gordan coefficient, each (j, m)
    pair checked."""
    j1h, m1h = _coerce_pair(j1, m1, "(j1, m1)")
    j2h, m2h = _coerce_pair(j2, m2, "(j2, m2)")
    jh, mh = _coerce_pair(j, m, "(j, m)")
    return j1h.twice, j2h.twice, jh.twice, m1h.twice, m2h.twice, mh.twice


def clebsch_gordan_exact(j1, j2, j, m1, m2, m):
    """Exact Clebsch-Gordan coefficient as ``(sign, square: Fraction)``.

    The coefficient itself is ``sign * sqrt(square)``. Selection-rule
    failures give ``(0, Fraction(0))``; invalid (j, m) parities raise
    :class:`AngularMomentumError`.
    """
    return _cg_exact(*_cg_twice(j1, j2, j, m1, m2, m))


def clebsch_gordan(j1, j2, j, m1, m2, m) -> float:
    """C(j1 j2 j; m1 m2 m) in the Condon-Shortley convention.

    Zero when m1 + m2 != m or the triangle rule fails.
    """
    sign, num, den = _cg_ratio(*_cg_twice(j1, j2, j, m1, m2, m))
    return sign * math.sqrt(num / den)


def _six_j_exact(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int):
    """(sign, square) of the 6-j symbol {j1 j2 j3; j4 j5 j6}, exact.

    Racah's sum over z, with triad sums a1..a4 (a1 = j1+j2+j3) and the
    three sums b1..b3 of four j, is (a1+1)! B / (n2! n3! n4!) for the
    integer B = sum_z (-1)^z C(z+1, z-a1) C(n2, z-a2) C(n3, z-a3)
    C(n4, z-a4), where n2 = b1-a2, n3 = b2-a3 and n4 = b3-a4.
    """
    triads = ((tj1, tj2, tj3), (tj4, tj5, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6))
    if not all(_triangle_ok(*t) for t in triads):
        return 0, Fraction(0)
    a1, a2, a3, a4 = (sum(t) // 2 for t in triads)
    n2 = (tj1 + tj2 - tj3) // 2                 # b1 - a2
    n3 = (tj3 + tj4 - tj5) // 2                 # b2 - a3
    n4 = (tj3 + tj5 - tj4) // 2                 # b3 - a4
    total = 0
    for z in range(max(a1, a2, a3, a4), min(n2 + a2, n3 + a3, n4 + a4) + 1):
        term = (math.comb(z + 1, z - a1) * math.comb(n2, z - a2)
                * math.comb(n3, z - a3) * math.comb(n4, z - a4))
        total += -term if z & 1 else term
    if total == 0:
        return 0, Fraction(0)
    # Delta^2 of each triad times ((a1+1)! / (n2! n3! n4!))^2, one (a1+1)!
    # cancelled against the first triad's Delta^2
    num = math.factorial(a1 + 1) * total * total
    for ta, tb, tc in triads:
        num *= _fact2(ta + tb - tc) * _fact2(ta - tb + tc) * _fact2(tb + tc - ta)
    den = (math.factorial(a2 + 1) * math.factorial(a3 + 1) * math.factorial(a4 + 1)
           * (math.factorial(n2) * math.factorial(n3) * math.factorial(n4)) ** 2)
    return (1 if total > 0 else -1), Fraction(num, den)


def _twice_magnitudes(names: str, *values) -> list[int]:
    """Twice each value, each checked non-negative under its name."""
    return [check_magnitude(HalfInt.of(j), name).twice
            for name, j in zip(names.split(), values)]


def wigner_6j_exact(j1, j2, j3, j4, j5, j6):
    """Exact 6-j symbol {j1 j2 j3; j4 j5 j6} as ``(sign, square: Fraction)``."""
    return _six_j_exact(*_twice_magnitudes("j1 j2 j3 j4 j5 j6", j1, j2, j3, j4, j5, j6))


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """The 6-j symbol {j1 j2 j3; j4 j5 j6}; zero when a triad fails."""
    sign, square = wigner_6j_exact(j1, j2, j3, j4, j5, j6)
    return sign * math.sqrt(square)


def racah_w(a, b, c, d, e, f) -> float:
    """Racah coefficient W(abcd; ef) = (-1)^(a+b+c+d) {a b e; d c f}, checked as
    the 6-j symbol; a half-integral a+b+c+d fails a triad (phase +1, so 0.0)."""
    phase_twice = sum(HalfInt.of(j).twice for j in (a, b, c, d))
    phase = -1.0 if phase_twice % 4 == 2 else 1.0
    return phase * wigner_6j(a, b, e, d, c, f)


def wigner_9j(j11, j12, j13, j21, j22, j23, j31, j32, j33) -> float:
    """The 9-j symbol, via the single sum over three 6-j symbols.

    Zero when any row or column triad violates the triangle rules. Each
    term is +-(2x+1) sqrt(Q) with Q = q1 q2 q3, the three 6-j squares, and
    the sum is exact: terms whose Q share a square-free part (whose ratio
    is the square of a rational) add their rational multiples of one
    sqrt(Q), so surds that cancel give exactly 0, and each group becomes a
    float only at the end. (The triads that hold x enter Q squared, so all
    terms form one group.)
    """
    a, b, c, d, e, f, g, h, i = _twice_magnitudes(
        "j11 j12 j13 j21 j22 j23 j31 j32 j33", j11, j12, j13, j21, j22, j23, j31, j32, j33)
    txmin = max(abs(a - i), abs(b - f), abs(d - h))
    txmax = min(a + i, b + f, d + h)
    groups = []    # [Q, coefficient of sqrt(Q)]
    for tx in range(txmin, txmax + 2, 2):
        s1, q1 = _six_j_exact(a, b, c, f, i, tx)
        if s1 == 0:
            continue
        s2, q2 = _six_j_exact(d, e, f, b, tx, h)
        if s2 == 0:
            continue
        s3, q3 = _six_j_exact(g, h, i, tx, a, d)
        if s3 == 0:
            continue
        weight = (-1 if tx % 2 else 1) * (tx + 1) * s1 * s2 * s3
        square = q1 * q2 * q3
        for group in groups:
            root = _rational_sqrt(square / group[0])
            if root is not None:
                group[1] += weight * root
                break
        else:
            groups.append([square, Fraction(weight)])
    total = sum(math.copysign(math.sqrt(coef * coef * square), coef)
                for square, coef in groups if coef)
    return total or 0.0


def _rational_sqrt(x: Fraction):
    """sqrt(x) as a Fraction where x is the square of one, else None."""
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


@lru_cache(maxsize=SPIN_CACHE_SIZE)
def _spin_cached(ts: int) -> np.ndarray:
    """(S_x, S_y, S_z) of spin ts/2 as one (3, ts+1, ts+1) array, rows and
    columns m = s..-s, from the ladder-operator matrix elements: the
    package's one copy of a spin's matrices while it is cached. Read-only."""
    s = ts / 2.0
    ms = np.arange(ts, -ts - 1, -2) / 2.0
    sz = np.diag(ms).astype(complex)
    # <m+1|S_+|m> on the superdiagonal
    sp = np.diag(np.sqrt(s * (s + 1) - ms[1:] * (ms[1:] + 1)), 1).astype(complex)
    out = np.array([(sp + sp.conj().T) / 2.0, (sp - sp.conj().T) / 2j, sz])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=SPIN_CACHE_SIZE)
def _sy_eigvecs(tk: int) -> np.ndarray:
    """Eigenvectors of S_y for rank tk/2, as columns in the order of their
    eigenvalues m = -k..k. Read-only."""
    vecs = _lapack.eigh(_spin_cached(tk)[1])[1]
    vecs.flags.writeable = False
    return vecs


def _little_d(tk: int, beta: float) -> np.ndarray:
    """d^k(beta) = exp(-i beta S_y), which is real: V exp(-i beta m) V^dagger
    with the eigenvectors V of S_y and their exact eigenvalues m. At
    beta = 0 and pi, where it is a signed permutation, it is written
    exactly: the identity, and d^k_{q'q}(pi) = (-1)^(k-q) delta_{q',-q}."""
    if beta == 0.0:
        return np.eye(tk + 1)
    if beta == math.pi:
        # column q = k - c holds (-1)^c in row q' = -q; np.diag leaves +0
        # everywhere else
        return np.diag((-1.0) ** np.arange(tk + 1))[::-1]
    vecs = _sy_eigvecs(tk)
    phase = np.exp(-0.5j * beta * np.arange(-tk, tk + 1, 2))
    return ((vecs * phase) @ vecs.conj().T).real


def _entry(k, qp, q) -> tuple[int, int, int]:
    """(2k, row, column) of the (q', q) element in a rank-k matrix with
    rows q' = k..-k and columns q = k..-k."""
    kh, qph = _coerce_pair(k, qp, "(k, q')")
    _, qh = _coerce_pair(k, q, "(k, q)")
    tk = kh.twice
    return tk, (tk - qph.twice) // 2, (tk - qh.twice) // 2


def little_d(k, qp, q, beta: float) -> float:
    """Reduced rotation matrix element d^k_{q'q}(beta)."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("rotation angle beta must be finite")
    tk, row, col = _entry(k, qp, q)
    return float(_little_d(tk, beta)[row, col])


def wigner_d(k, qp, q, angles: EulerAngles) -> complex:
    """Rotation matrix element D^k_{q'q}(alpha, beta, gamma).

    ``D = exp(-i q' alpha) d^k_{q'q}(beta) exp(-i q gamma)``; as a matrix in
    (q', q) this is unitary and represents the active z-y-z rotation.
    """
    tk, row, col = _entry(k, qp, q)
    return complex(wigner_d_matrix(HalfInt(tk), angles)[row, col])


def wigner_d_matrix(k, angles: EulerAngles) -> np.ndarray:
    """Full D^k matrix with rows q' = k..-k and columns q = k..-k."""
    tk = check_magnitude(HalfInt.of(k), "k").twice
    proj = np.arange(tk, -tk - 1, -2) / 2.0
    return (np.exp(-1j * proj * angles.alpha)[:, None] * _little_d(tk, angles.beta)
            * np.exp(-1j * proj * angles.gamma)[None, :])
