"""Irreducible spherical tensor operators and spin matrices.

Basis ordering is fixed throughout the package: row/column 0 corresponds
to m = s, descending to m = -s. With that ordering S_z = diag(s, ..., -s)
and the rank-1 operators reduce to the spherical Pauli matrices at
s = 1/2.

Matrix elements follow the Madison normalization,
``<s m'|T^k_q|s m> = sqrt(2k+1) C(s k s; m q m')`` so that
``Tr(T^k_q^dagger T^k'_q') = (2s+1) delta_kk' delta_qq'``.

Construction is lazy and memoized per spin: the first request builds
every T^k_q of that spin as one stack. S_a and every (S_a S_b + S_b S_a)/2
form a second, much smaller stack per spin. The returned arrays are
frozen (non-writeable) so cached values are safe to share between
threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .angular import _cg_exact, _spin_cached
from .errors import AngularMomentumError
from .halfint import HalfInt, check_magnitude

__all__ = ["build_tau", "spin_matrices", "projection_values"]


def projection_values(s) -> list[HalfInt]:
    """Projections m = s, s-1, ..., -s in basis order."""
    ts = HalfInt.of(s).twice
    return [HalfInt(tm) for tm in range(ts, -ts - 1, -2)]


@lru_cache(maxsize=None)
def _tau_stack(ts: int) -> np.ndarray:
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
                sign, square = _cg_exact(ts, 2 * k, ts, tm, 2 * q, tmp)
                if sign:
                    tau[i, (ts - tm) // 2] = sign * root * math.sqrt(square)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _stack_order(ts: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The order of the T^k_q stack of spin ts/2: the (k, q) of each entry,
    and for each entry the entry of (k, -q) and the sign (-1)^q."""
    keys = tuple((k, q) for k in range(ts + 1) for q in range(-k, k + 1))
    partner = np.array([k * k + k - q for k, q in keys])
    sign = np.array([(-1.0) ** q for _, q in keys])
    partner.flags.writeable = sign.flags.writeable = False
    return keys, partner, sign


# A read-only view into _tau_stack, not a copy. Memoized so that the
# benchmark in perfbench/ can read its cache_info().
@lru_cache(maxsize=None)
def _tau_cached(ts: int, k: int, q: int) -> np.ndarray:
    return _tau_stack(ts)[k * k + k + q]


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
    sqrt(s(s+1)/3) T^1_q. Read-only shared arrays.
    """
    sh = check_magnitude(HalfInt.of(s), "s")
    if sh.twice == 0:
        raise AngularMomentumError("spin matrices need s >= 1/2")
    return _spin_cached(sh.twice)


@lru_cache(maxsize=None)
def _moment_stack(ts: int) -> np.ndarray:
    """The operators of the first and second spin moments of spin ts/2
    as one (12, (ts+1)^2) stack: S_x, S_y, S_z, then (S_a S_b + S_b S_a)/2
    for a, b = x, y, z in row-major order, each flattened. Read-only."""
    spins = spin_matrices(HalfInt(ts))
    sym = [(a @ b + b @ a) / 2.0 for a in spins for b in spins]
    out = np.array([m.ravel() for m in (*spins, *sym)])
    out.flags.writeable = False
    return out
