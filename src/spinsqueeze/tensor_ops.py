"""Irreducible spherical tensor operators and spin matrices.

Basis ordering is fixed throughout the package: row/column 0 corresponds
to m = s, descending to m = -s. With that ordering S_z = diag(s, ..., -s)
and the rank-1 operators reduce to the spherical Pauli matrices at
s = 1/2.

Matrix elements follow the Madison normalization,
``<s m'|T^k_q|s m> = sqrt(2k+1) C(s k s; m q m')`` so that
``Tr(T^k_q^dagger T^k'_q') = (2s+1) delta_kk' delta_qq'``.

Construction is lazy and memoized per spin; (S_x, S_y, S_z) are the one
(3, n, n) array of ``angular``. Both operator tables here store each
operator M as one row, M transposed and flattened, so that a table times
rho.ravel() gives every Tr(rho M) at once: one holds every T^k_q of a
spin, the other the nine distinct spin-moment operators, S_a and
(S_a S_b + S_b S_a)/2 for a <= b, which ``density._moments`` reads.
Cached arrays are frozen (non-writeable), so they are safe to share
between threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .angular import SPIN_CACHE_SIZE, _cg_exact, _spin_cached
from .errors import AngularMomentumError
from .halfint import HalfInt, check_magnitude

__all__ = ["build_tau", "spin_matrices"]

# Largest spin whose T^k_q stack is built: the stack holds (2s+1)^4
# complex numbers, 45 MB at s = 20 and 26 GB at s = 100.
MAX_STATE_SPIN = 20


def _check_stack_spin(ts: int):
    if ts > 2 * MAX_STATE_SPIN:
        raise ValueError(f"spin {HalfInt(ts)} exceeds the limit of {MAX_STATE_SPIN} "
                         "for the T^k_q stack")


@lru_cache(maxsize=None)
def _tau_stack(ts: int) -> np.ndarray:
    """Every T^k_q of spin ts/2, k = 0..2s and q = -k..k, as one
    ((ts+1)^2, (ts+1)^2) table in that order: row k*k + k + q is
    (T^k_q)^T flattened. Read-only."""
    _check_stack_spin(ts)
    n = ts + 1
    out = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        root = math.sqrt(2 * k + 1)
        for q in range(-k, k + 1):
            tau_t = out[k * k + k + q].reshape(n, n)     # a view: (T^k_q)^T
            for i, tmp in enumerate(range(ts, -ts - 1, -2)):  # row of T: m'
                tm = tmp - 2 * q         # the one column m that couples
                if abs(tm) > ts:
                    continue
                sign, square = _cg_exact(ts, 2 * k, ts, tm, 2 * q, tmp)
                if sign:
                    tau_t[(ts - tm) // 2, i] = sign * root * math.sqrt(square)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _stack_order(ts: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The order of the T^k_q stack of spin ts/2: the (k, q) of each entry,
    for each entry the entry of (k, -q) and the sign (-1)^q, and the
    entries with q < 0, ascending. The sign is complex, the type of the
    tensor vectors it multiplies, so that no product casts it."""
    _check_stack_spin(ts)
    keys = tuple((k, q) for k in range(ts + 1) for q in range(-k, k + 1))
    partner = np.array([k * k + k - q for k, q in keys])
    sign = np.array([(-1.0) ** q for _, q in keys], dtype=complex)
    negative = np.array([i for i, (_, q) in enumerate(keys) if q < 0], dtype=np.intp)
    partner.flags.writeable = sign.flags.writeable = negative.flags.writeable = False
    return keys, partner, sign, negative


# A read-only view into _tau_stack, not a copy. Memoized so that the
# benchmark in perfbench/ can read its cache_info().
@lru_cache(maxsize=None)
def _tau_cached(ts: int, k: int, q: int) -> np.ndarray:
    return _tau_stack(ts)[k * k + k + q].reshape(ts + 1, ts + 1).T


def build_tau(s, k, q) -> np.ndarray:
    """The (2s+1)x(2s+1) matrix of the spherical tensor operator T^k_q.

    Requires integer rank 0 <= k <= 2s and |q| <= k. The k = 0 operator is
    the identity. The returned array is read-only and shared; copy before
    mutating.
    """
    sh = check_magnitude(HalfInt.of(s), "s")
    kh = HalfInt.of(k)
    qh = HalfInt.of(q)
    if not kh.is_integer or not qh.is_integer:
        raise AngularMomentumError(f"tensor rank indices must be integers, got k={kh}, q={qh}")
    ki, qi = kh.twice // 2, qh.twice // 2
    if ki < 0 or ki > sh.twice:
        raise AngularMomentumError(f"rank k={ki} outside 0..2s for s={sh}")
    if abs(qi) > ki:
        raise AngularMomentumError(f"|q|={abs(qi)} exceeds k={ki}")
    return _tau_cached(sh.twice, ki, qi)


def spin_matrices(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) from the ladder-operator matrix elements.

    Satisfies S x S = iS; the spherical components equal
    sqrt(s(s+1)/3) T^1_q. Read-only views of one shared array.
    """
    sh = check_magnitude(HalfInt.of(s), "s")
    if sh.twice == 0:
        raise AngularMomentumError("spin matrices need s >= 1/2")
    return tuple(_spin_cached(sh.twice))


@lru_cache(maxsize=SPIN_CACHE_SIZE)
def _moment_stack(ts: int) -> np.ndarray:
    """The nine distinct operators of the first and second spin moments of
    spin ts/2 as one (9, (ts+1)^2) table, each transposed and flattened:
    S_x, S_y, S_z, then (S_a S_b + S_b S_a)/2 for ab = xx, xy, xz, yy, yz,
    zz. Read-only."""
    spins = _spin_cached(ts)
    sym = [(spins[a] @ spins[b] + spins[b] @ spins[a]) / 2.0
           for a in range(3) for b in range(a, 3)]
    out = np.array([m.T.ravel() for m in (*spins, *sym)])
    out.flags.writeable = False
    return out
