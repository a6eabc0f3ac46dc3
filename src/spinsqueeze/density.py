"""Spin-state data model: density matrices and statistical tensor parameters.

A spin-s state is carried either as a density matrix (:class:`SpinDensity`)
or as its expansion coefficients in the spherical tensor operator basis
(:class:`TensorParams`), related by

    rho = (Tr rho / (2s+1)) * sum_kq (-1)^q t^k_{-q} T^k_q,
    t^k_q = Tr(rho T^k_q) / Tr(rho).

Each direction is one product with the T^k_q stack of ``tensor_ops``,
whose rows are the flattened (T^k_q)^T = (-1)^q T^k_{-q}; the spin
moments are one product with its moment stack.

Unnormalized traces are allowed everywhere; every derived quantity divides
by the trace. Tensor entries are always stored trace-normalized, with
t^0_0 = 1 implicit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

# clebsch_gordan, racah_w and build_tau are unused here; they stay as
# attributes of this module because perfbench/spans.py patches them here.
from .angular import (SPIN_CACHE_SIZE, _spin_cached, clebsch_gordan,  # noqa: F401
                      racah_w)
from .errors import (AngularMomentumError, HermiticityError, SchemaError,
                     UnphysicalStateError)
from .halfint import HalfInt, check_magnitude
from .tensor_ops import _moment_stack, _stack_order, _tau_stack, build_tau  # noqa: F401

__all__ = [
    "TensorParams",
    "SpinDensity",
    "PositivityReport",
    "Spin1Bound",
    "OrientationReport",
    "from_tensors",
    "to_tensors",
    "polarization",
    "variance",
    "check_positivity",
    "purity_residual",
    "classify_orientation",
    "spin_scale_rank1",
    "spin_scale_rank2",
    "tensor_params_from_dict",
    "state_from_dict",
    "state_to_dict",
    "load_state_file",
]

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10


def spin_scale_rank1(s) -> float:
    """sqrt(s(s+1)/3), s >= 0: converts rank-1 tensors to spin components."""
    sv = check_magnitude(HalfInt.of(s), "s").value
    return math.sqrt(sv * (sv + 1) / 3.0)


def spin_scale_rank2(s) -> float:
    """sqrt(s(s+1)(2s-1)(2s+3)/30): the rank-2 weight in second moments.

    Vanishes at s = 1/2, where no rank-2 tensors exist; s < 0 raises.
    """
    sv = check_magnitude(HalfInt.of(s), "s").value
    return math.sqrt(sv * (sv + 1) * (2 * sv - 1) * (2 * sv + 3) / 30.0)


def _is_integral(value) -> bool:
    """An int (numpy's included), or a float with an integer value: never
    a bool or a string."""
    return (isinstance(value, float) and value.is_integer()
            or isinstance(value, (int, np.integer)) and not isinstance(value, bool))


class TensorParams:
    """Trace-normalized spherical tensor parameters t^k_q of a spin-s state.

    ``vector`` holds every t^k_q, k = 0..2s and q = -k..k, in the order of
    the T^k_q stack (t^k_q is entry k*k + k + q), with t^0_0 = 1 at entry
    0; it is read-only. ``entries`` is either such a vector (its entry 0
    is replaced by 1) or a mapping (k, q) -> complex with integral
    0 <= k <= 2s and |q| <= k, whose omitted entries are zero; a bool, a
    string or a non-integral float is no index. The
    conjugation pairing t^k_q* = (-1)^q t^k_{-q} is enforced on
    construction: a mapping's omitted partners are completed from it, and
    given entries that contradict it by more than HERMITICITY_TOL *
    max(1, max|t^k_q|) are rejected. Parameters the library computes
    itself (:func:`to_tensors`, ``channel.couple_spin1``) are paired by
    construction instead, see :meth:`_paired`.
    """

    __slots__ = ("spin", "trace", "vector")

    def __init__(self, spin, entries, trace: float = 1.0):
        sh = check_magnitude(HalfInt.of(spin), "spin")
        trace = float(trace)
        if not math.isfinite(trace) or trace <= 0:
            raise ValueError(f"trace must be positive and finite, got {trace}")
        ts = sh.twice
        keys, partner, sign, _ = _stack_order(ts)
        given = None
        # the array test first: it is the common case, and much cheaper
        if isinstance(entries, np.ndarray) or not isinstance(entries, Mapping):
            vec = np.array(entries, dtype=complex)
            if vec.shape != (len(keys),):
                raise ValueError(f"tensor vector shape {vec.shape} != ({len(keys)},)")
        else:
            vec = np.zeros(len(keys), dtype=complex)
            given = np.zeros(len(keys), dtype=bool)
            for (k, q), val in entries.items():
                if not (_is_integral(k) and _is_integral(q)):
                    raise AngularMomentumError(
                        f"tensor indices must be integers, got k={k!r}, q={q!r}")
                k, q = int(k), int(q)
                if k < 0 or k > ts:
                    raise AngularMomentumError(
                        f"rank k={k} outside 0..2s for spin {sh}")
                if abs(q) > k:
                    raise AngularMomentumError(f"|q|={abs(q)} exceeds k={k}")
                vec[k * k + k + q] = complex(val)
                given[k * k + k + q] = True
        _check_finite(vec, keys)
        if given is not None:
            if given[0] and abs(vec[0] - 1.0) > 1e-9:
                raise ValueError(
                    f"t^0_0 must equal 1 after trace normalization, got {vec[0]}")
            fill = ~given & given[partner]
            vec[fill] = _partners(vec, fill, partner, sign)
        vec[0] = 1.0
        defect = np.abs(vec.conj() - sign * vec[partner])
        if np.maximum.reduce(defect) > HERMITICITY_TOL:
            # relative to the largest entry, the scale SpinDensity tests at
            bad = np.flatnonzero(defect > HERMITICITY_TOL * max(1.0, np.abs(vec).max()))
            if len(bad):
                raise HermiticityError("conjugation pairing violated at (k, q) = "
                                       + ", ".join(str(keys[i]) for i in bad))
        vec.flags.writeable = False
        self.spin = sh
        self.trace = trace
        self.vector = vec

    @classmethod
    def _paired(cls, spin: HalfInt, vec: np.ndarray, trace: float = 1.0) -> "TensorParams":
        """Parameters the library computed itself, paired by construction.

        ``vec`` is a writable complex vector in stack order, which the
        result takes over. Each t^k_{-q}, q > 0, is set to (-1)^q
        conj(t^k_q) and t^0_0 to 1, so the pairing holds exactly and is
        not tested again; a non-finite entry raises ValueError as in the
        constructor. ``spin`` is a HalfInt within the stack limit and
        ``trace`` a positive finite float: neither is checked.
        """
        keys, partner, sign, negative = _stack_order(spin.twice)
        _check_finite(vec, keys)
        # adding zero turns a -0 part of the signed product into +0, the
        # sign that the closed forms of channel.couple_spin1 give it
        vec[negative] = _partners(vec, negative, partner, sign) + 0.0
        vec[0] = 1.0
        vec.flags.writeable = False
        out = cls.__new__(cls)
        out.spin = spin
        out.trace = trace
        out.vector = vec
        return out

    def get(self, k: int, q: int) -> complex:
        if 0 <= k <= self.spin.twice and abs(q) <= k:
            return complex(self.vector[k * k + k + q])
        return 0j

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        """Every k >= 1 entry, zeros included, in (k, q) order."""
        return zip(_stack_order(self.spin.twice)[0][1:], self.vector[1:].tolist())

    @property
    def max_rank(self) -> int:
        return self.spin.twice

    def __repr__(self):
        body = ", ".join(f"t({k},{q})={v:.6g}" for (k, q), v in self.items() if v)
        return f"TensorParams(spin={self.spin}, trace={self.trace:.6g}, {body or 'unpolarized'})"


def _check_finite(vec: np.ndarray, keys: tuple) -> None:
    """Raise ValueError naming each (k, q) whose entry of ``vec`` is not
    finite. Tested before any arithmetic on the entries, which would warn
    on an infinite one."""
    finite = np.isfinite(vec)
    if np.count_nonzero(finite) < len(keys):
        raise ValueError("non-finite tensor parameter at (k, q) = "
                         + ", ".join(str(keys[i]) for i in np.flatnonzero(~finite)))


def _partners(vec: np.ndarray, targets, partner: np.ndarray,
              sign: np.ndarray) -> np.ndarray:
    """The entries ``targets`` (indices or a mask) of ``vec`` as the
    pairing t^k_{-q} = (-1)^q conj(t^k_q) gives them from their partners."""
    return sign[targets] * vec[partner[targets]].conj()


@dataclass(frozen=True)
class SpinDensity:
    """A (2s+1) x (2s+1) Hermitian matrix with positive trace.

    ``matrix`` is a read-only, C-ordered copy of the input, exactly
    Hermitian: an anti-Hermitian part within the tolerance is dropped.
    ``trace`` (real) and ``normalized_matrix()`` (matrix / trace) are computed
    once, at validation, with the largest |entry| of the normalized matrix
    to rounding (``_peak``). A normalized matrix that is not finite raises
    ValueError, as every trace below about 5.6e-309 does (numpy multiplies by 1/trace).
    """

    spin: HalfInt
    matrix: np.ndarray = field(repr=False)
    trace: float = field(init=False, repr=False, compare=False)
    _normalized: np.ndarray = field(init=False, repr=False, compare=False)
    _peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sh = check_magnitude(HalfInt.of(self.spin), "spin")
        mat = np.array(self.matrix, dtype=complex, order="C")
        n = sh.twice + 1
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} != ({n}, {n}) for spin {sh}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        peak = float(np.abs(mat).max())
        scale = max(1.0, peak)
        skew = float(np.abs(mat - mat.conj().T).max())
        if skew > HERMITICITY_TOL * scale:
            raise HermiticityError("density matrix is not Hermitian")
        if skew:
            # keep the Hermitian part, which halves before it adds so that
            # no entry overflows; an exactly Hermitian input keeps its bits
            mat = 0.5 * mat + 0.5 * mat.conj().T
        tr = np.trace(mat)
        if abs(tr.imag) > HERMITICITY_TOL * scale or tr.real <= 0:
            raise ValueError(f"trace must be real and positive, got {tr}")
        tr = float(tr.real)
        with np.errstate(over="ignore", invalid="ignore"):
            unit = mat / tr
        if not np.isfinite(unit).all():
            raise ValueError(f"density matrix divided by its trace {tr:g} is not finite")
        mat.flags.writeable = unit.flags.writeable = False
        object.__setattr__(self, "spin", sh)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "trace", tr)
        object.__setattr__(self, "_normalized", unit)
        object.__setattr__(self, "_peak", peak / tr)

    @property
    def dim(self) -> int:
        return self.spin.twice + 1

    def normalized_matrix(self) -> np.ndarray:
        """matrix / trace, computed once; read-only and shared."""
        return self._normalized


def _unit_trace_matrix(t: TensorParams) -> np.ndarray:
    """(1/(2s+1)) sum_kq (-1)^q t^k_{-q} T^k_q, the state with trace 1, as
    (1/(2s+1)) sum_kq t^k_q (T^k_q)^T: the T^k_q are real with
    (T^k_q)^T = (-1)^q T^k_{-q}, the rows of the stack."""
    n = t.spin.twice + 1
    return (t.vector @ _tau_stack(n - 1)).reshape(n, n) / n


def from_tensors(t: TensorParams) -> SpinDensity:
    """Assemble the density matrix from tensor parameters (exact inverse
    of :func:`to_tensors`)."""
    return SpinDensity(t.spin, _unit_trace_matrix(t) * t.trace)


def to_tensors(rho: SpinDensity) -> TensorParams:
    """Project a density matrix onto the tensor operator basis: the
    t^k_q, q >= 0, are Tr(rho T^k_q) / Tr(rho), and each t^k_{-q} their
    conjugation partner, which rounding would leave off by an ulp."""
    tr = rho.trace
    t = _tau_stack(rho.spin.twice) @ rho.matrix.ravel() / tr
    return TensorParams._paired(rho.spin, t, trace=tr)


def _moments(rho: SpinDensity) -> tuple[tuple, tuple]:
    """<S_a> and <(S_a S_b + S_b S_a)/2> per unit trace, as Python floats:
    ``(x, y, z)`` and ``(xx, xy, xz, yy, yz, zz)``. One product of the
    moment stack with the flattened matrix, then each value divided by
    the trace. The one reader of the spin moments: the polarization, the
    variances, the alignment tensor and both frames take theirs from it."""
    tr = rho.trace
    x, y, z, xx, xy, xz, yy, yz, zz = (
        _moment_stack(rho.spin.twice) @ rho.matrix.ravel()).real.tolist()
    return ((x / tr, y / tr, z / tr),
            (xx / tr, xy / tr, xz / tr, yy / tr, yz / tr, zz / tr))


def polarization(rho: SpinDensity) -> np.ndarray:
    """Vector polarization <S> / Tr(rho) as a Cartesian 3-vector."""
    return np.array(_moments(rho)[0])


def variance(rho: SpinDensity, direction) -> float:
    """Variance of the spin component along a direction (normalized internally)."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("direction must be finite")
    norm = np.linalg.norm(d)
    if norm < 1e-300:
        raise ValueError("direction must be a non-zero vector")
    d = d / norm
    mean, (xx, xy, xz, yy, yz, zz) = _moments(rho)
    second = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    return float(d @ second @ d - (d @ mean) ** 2)


@dataclass(frozen=True)
class Spin1Bound:
    name: str
    value: float
    lower: float
    upper: float

    @property
    def satisfied(self) -> bool:
        return self.lower - PSD_TOL <= self.value <= self.upper + PSD_TOL


@dataclass(frozen=True)
class PositivityReport:
    psd: bool
    eigenvalues: np.ndarray          # ascending, trace-normalized
    state: SpinDensity = field(repr=False, compare=False)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def spin1_bounds(self) -> Optional[list]:
        """The published spin-1 boundary conditions, built when first
        read (``analyze`` never reads them); None for other spins."""
        if self.state.spin.twice != 2:
            return None
        rho = self.state
        t = to_tensors(rho)
        t10 = t.get(1, 0).real
        t20 = t.get(2, 0).real
        t21 = abs(t.get(2, 1))
        t22 = abs(t.get(2, 2))
        r32 = math.sqrt(1.5)
        return [
            Spin1Bound("occupation m=+1", (1 + r32 * t10 + t20 / math.sqrt(2)) / 3, 0.0, 1.0),
            Spin1Bound("occupation m=-1", (1 - r32 * t10 + t20 / math.sqrt(2)) / 3, 0.0, 1.0),
            Spin1Bound("occupation m=0", (1 - math.sqrt(2) * t20) / 3, 0.0, 1.0),
            Spin1Bound("parameter norm", t10 ** 2 + 2 * t22 ** 2 + 2 * t21 ** 2 + t20 ** 2, 0.0, 2.0),
            Spin1Bound("determinant", float(np.linalg.det(rho.normalized_matrix()).real), 0.0, 1.0 / 27.0),
        ]


def check_positivity(rho: SpinDensity) -> PositivityReport:
    """Eigenvalue PSD test, plus the published spin-1 boundary conditions.

    The spin-1 conditions are necessary constraints on the tensor
    parameters: the three diagonal occupations (1 +- sqrt(3/2) t^1_0 +
    t^2_0/sqrt(2))/3 and (1 - sqrt(2) t^2_0)/3 lie in [0, 1], the squared
    parameter norm t^1_0^2 + 2|t^2_2|^2 + 2|t^2_1|^2 + t^2_0^2 stays
    below 2, and 0 <= det(rho) <= 1/27. The report evaluates them when
    its ``spin1_bounds`` is first read.
    """
    eigs = np.linalg.eigvalsh(rho.normalized_matrix())
    return PositivityReport(psd=bool(eigs[0] >= -PSD_TOL), eigenvalues=eigs,
                            state=rho)


# check_positivity's PSD_TOL is narrowed by this much in _certainly_psd
_CHOLESKY_MARGIN = 1e-12


def _certainly_psd(rho: SpinDensity) -> bool:
    """A sufficient test for ``check_positivity(rho).psd``: True only where
    that is True, from one Cholesky factorization and no eigenvalues.

    The factorization is of H = A + (PSD_TOL - delta) I, A = rho / Tr rho,
    delta = _CHOLESKY_MARGIN, formed by adding a shifted identity (a zero
    of A may change its sign; no other entry of H depends on how it is
    formed). If it runs to completion with no overflow, its factor R
    satisfies R^H R = H + E with |E| <= gamma_{n+1} |R^H| |R| entrywise
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3;
    complex arithmetic changes the constant by a small factor),
    gamma_m = m u / (1 - m u), u = 2^-53, so
    ||E||_2 <= gamma_{n+1} ||R||_F^2 = gamma_{n+1} Tr(H + E), about
    (n + 1) u: 4.7e-15 at n = 41, with the rounding of the shifted
    diagonal included. Hence lambda_min(A) >= -PSD_TOL + delta - ||E||.
    eigvalsh is backward stable too, and its smallest eigenvalue of A is
    off by a few n u ||A||_2 at most, with ||A||_2 <= Tr(H + E) + ||E||
    close to 1. Both errors stay far below delta = 1e-12 for n up to
    thousands, so eigvalsh gives lambda_min >= -PSD_TOL wherever this
    returns True. Both read the lower triangle of the same A. An entry of
    A past about 1e154 overflows when squared and leaves a NaN pivot:
    LAPACK stops there, OpenBLAS divides the rest of its column by it and
    goes on, so the NaN reaches the last pivot, which must be > 0. A False
    is no verdict: the caller asks check_positivity.
    """
    try:
        factor = np.linalg.cholesky(rho.normalized_matrix() + _psd_shift(rho.spin.twice))
    except np.linalg.LinAlgError:
        return False
    return bool(factor[-1, -1].real > 0.0)


@lru_cache(maxsize=SPIN_CACHE_SIZE)
def _psd_shift(ts: int) -> np.ndarray:
    """(PSD_TOL - _CHOLESKY_MARGIN) I of spin ts/2, complex so that the sum
    in _certainly_psd casts nothing: (2s+1)^2 complex numbers, 27 KB at
    s = 20. Read-only."""
    out = np.eye(ts + 1, dtype=complex) * (PSD_TOL - _CHOLESKY_MARGIN)
    out.flags.writeable = False
    return out


# The largest |entry| of a normalized matrix that purity_residual and
# classify_orientation take. A positive semi-definite matrix of trace 1
# has no entry above 1 in magnitude, so a state past the limit is
# unphysical; up to it their products stay finite at 2s <= 40: rho @ rho,
# and classify_orientation's Gram products, of degree six in the entries
# with a factor below 1e22.
_ENTRY_LIMIT = 1e30


def _check_entry_scale(peak: float) -> None:
    """Raise UnphysicalStateError where ``peak``, the largest |entry| of
    a normalized matrix, exceeds _ENTRY_LIMIT: the products that follow
    would overflow."""
    if not peak <= _ENTRY_LIMIT:
        raise UnphysicalStateError(
            "state is not positive semi-definite: its normalized matrix has "
            f"an entry of magnitude {peak:.6g}, above 1")


def purity_residual(t: TensorParams) -> float:
    """How far the tensor parameters are from describing a pure state.

    rho^2 = rho translates into one constraint per (k, q):

        sum_{k1,k2} [k1][k2] W(s k1 s k2; s k) (t^{k1} x t^{k2})^k_q
            = sqrt(2s+1) t^k_q,

    with [k] = sqrt(2k+1). The left side is sqrt(2s+1) Tr(rho^2 T^k_q)
    for the trace-1 rho, so the violation of each constraint is
    sqrt(2s+1) |Tr((rho^2 - rho) T^k_q)|, which is what is evaluated.
    Returns the largest absolute violation; zero (to rounding) exactly
    for pure states. Raises :class:`UnphysicalStateError` where an entry
    of the trace-1 matrix exceeds 1e30, before rho^2 can overflow.
    """
    ts = t.spin.twice
    rho = _unit_trace_matrix(t)
    _check_entry_scale(float(np.abs(rho).max()))
    excess = _tau_stack(ts) @ (rho @ rho - rho).ravel()
    return math.sqrt(ts + 1) * float(np.abs(excess).max())


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its largest component positive: the one
    sign rule for an axis that is fixed only up to sign."""
    lead = np.argmax(np.abs(v))
    return -v if v[lead] < 0 else v


def _commutator_rows(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The (3, 2 n^2) real matrix whose row a holds the real and imaginary
    parts of [rho, S_a], interleaved, for the Hermitian n x n ``mat`` and
    the (3, n, n) spin array ``stack``; the order of the columns changes
    neither the singular values nor V. From one (3n, n) product X = S rho:
    both factors are Hermitian, so rho S_a = X_a^H and [rho, S_a] =
    X_a^H - X_a. That is rho S_a - S_a rho taken as two products, bit for
    bit but for the sign of a zero entry; the tests hold the reports of
    classify_orientation from the two forms to the same bytes."""
    n = len(mat)
    prod = (stack.reshape(3 * n, n) @ mat).reshape(3, n, n)
    return (prod.conj().transpose(0, 2, 1) - prod).reshape(3, -1).view(float)


@dataclass(frozen=True)
class OrientationReport:
    oriented: bool
    axis: Optional[np.ndarray]
    populations: Optional[np.ndarray]   # along the axis, ordered m = s..-s


def classify_orientation(rho: SpinDensity) -> OrientationReport:
    """Decide whether the state is diagonal in some |s m> basis.

    Solves the linear system [rho, S.n] = 0 for a real axis n (three
    unknowns, 2n^2 real equations, the matrix A); when a non-trivial
    solution exists the state is written in the eigenbasis of S.n and
    diagonality is confirmed there. A state proportional to the identity
    is reported oriented along z by convention.

    The smallest singular value sigma_3 of A decides, against
    1e-10 max(1, sigma_1). The 3x3 Gram matrix G = A^T A settles most
    states without the SVD:
    - a bound on det G rejects most non-oriented states, exactly where
      the SVD would reject them;
    - the largest cross product of two rows of G, a column of its
      adjugate, is a candidate axis n. Its residual r = ||A n|| bounds
      sigma_3, and sqrt(max_a G_aa) <= sigma_1, so r <= 1e-12 max(1,
      sqrt(max_a G_aa)) proves that sigma_3 passes the test, with room
      for the rounding of r and of the SVD's sigma_3 (a few u sigma_1).
      The off-diagonal entries of rho along n are then at most r, far
      below the 1e-8 checked, so the SVD's own axis would pass the same
      checks: the verdict is the SVD's.
    Every other state takes the thin SVD, whose last right singular vector
    is the axis. A certified axis is not the SVD's bit for bit: on
    oriented states the two, and the populations along them, agree to
    1e-14.

    Raises :class:`UnphysicalStateError` where an entry of the normalized
    matrix exceeds 1e30, before the Gram products can overflow; the test
    reads the largest |entry| that :class:`SpinDensity` keeps.
    """
    _check_entry_scale(rho._peak)
    n = rho.dim
    mat = rho.normalized_matrix()
    # the first entry is a necessary test that rejects most states at once
    if abs(mat[0, 0] - 1.0 / n) < 1e-12 and np.abs(mat - np.eye(n) / n).max() < 1e-12:
        return OrientationReport(True, np.array([0.0, 0.0, 1.0]), np.full(n, 1.0 / n))
    stack = _spin_cached(rho.spin.twice)
    rows = _commutator_rows(mat, stack)
    # Gram certificate. With G = rows rows^T = A^T A for A = rows^T and
    # sigma_1 >= sigma_2 >= sigma_3 the singular values of A,
    # det G = (sigma_1 sigma_2 sigma_3)^2 and sigma_1^2 sigma_2^2 <=
    # (Tr G)^2, so det G > 1e-9 (Tr G)^2 max(1, Tr G) proves
    # sigma_3 > 3e-5 max(1, sigma_1): far outside the SVD test below
    # (1e-10), with room for the rounding of G and of its determinant
    # (relative 1e-12 at n = 41). Such a state is not oriented.
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = (rows @ rows.T).tolist()
    a0 = g11 * g22 - g12 * g12
    a1 = g01 * g22 - g12 * g02
    a2 = g01 * g12 - g11 * g02
    tr = g00 + g11 + g22
    det = g00 * a0 - g01 * a1 + g02 * a2
    if det > 1e-9 * tr * tr * max(1.0, tr):
        return OrientationReport(False, None, None)
    # candidate axis: the largest column of G's adjugate, whose columns
    # are the rows of G crossed pairwise; certified by ||A n||^2 <=
    # (1e-12)^2 max(1, max_a G_aa), see the docstring
    cols = ((a0, -a1, a2),
            (-a1, g00 * g22 - g02 * g02, g01 * g02 - g00 * g12),
            (a2, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01))
    col = max(cols, key=lambda c: math.hypot(*c))
    size = math.hypot(*col)
    axis = None
    if size > 0.0:
        unit = [c / size for c in col]
        # _canonical_sign's rule on the floats: the first largest |entry|
        if max(unit, key=abs) < 0.0:
            unit = [-c for c in unit]
        axis = np.array(unit)
        res = axis @ rows
        if res @ res > 1e-24 * max(1.0, g00, g11, g22):
            axis = None
    if axis is None:
        _, svals, vt = np.linalg.svd(rows.T, full_matrices=False)
        if svals[-1] > 1e-10 * max(1.0, svals[0]):
            return OrientationReport(False, None, None)
        axis = _canonical_sign(vt[-1] / np.linalg.norm(vt[-1]))
    # eigh orders the eigenvalues m of S.n ascending; reversed, the columns
    # are the |s m> states along the axis, m = s..-s
    u = np.linalg.eigh((axis @ stack.reshape(3, -1)).reshape(n, n))[1][:, ::-1]
    rotated = u.conj().T @ mat @ u
    off = np.abs(rotated)
    off.flat[::n + 1] = 0.0
    if off.max() > 1e-8:
        return OrientationReport(False, None, None)
    return OrientationReport(True, axis, rotated.diagonal().real)


# ---------------------------------------------------------------------------
# JSON state schema
# ---------------------------------------------------------------------------

def tensor_params_from_dict(data: Mapping) -> TensorParams:
    """Parse the JSON state schema.

    ``{"spin": "1" | "3/2" | 1.5, "trace": 1.0,
       "tensors": [{"k": 2, "q": 0, "re": 0.5, "im": 0.0}, ...]}``

    Omitted (k, q) entries are zero; omitted Hermitian partners are filled
    from the pairing. Violations raise :class:`SchemaError`.
    """
    if not isinstance(data, Mapping):
        raise SchemaError("state file must contain a JSON object")
    if "spin" not in data:
        raise SchemaError("missing required key 'spin'")
    try:
        spin = HalfInt.of(data["spin"])
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid spin value {data['spin']!r}: {exc}") from None
    trace = data.get("trace", 1.0)
    if not isinstance(trace, (int, float)) or isinstance(trace, bool):
        raise SchemaError(f"trace must be a number, got {trace!r}")
    tensors = data.get("tensors", [])
    if not isinstance(tensors, (list, tuple)):
        raise SchemaError("'tensors' must be an array")
    entries: dict[tuple[int, int], complex] = {}
    for i, item in enumerate(tensors):
        if not isinstance(item, Mapping):
            raise SchemaError(f"tensors[{i}] must be an object")
        k, q = item.get("k"), item.get("q")
        if not (_is_integral(k) and _is_integral(q)):
            raise SchemaError(f"tensors[{i}] needs integer 'k' and 'q'")
        k, q = int(k), int(q)
        re = item.get("re", 0.0)
        im = item.get("im", 0.0)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise SchemaError(f"tensors[{i}] 're'/'im' must be numbers")
        if (k, q) in entries:
            raise SchemaError(f"duplicate tensor entry (k={k}, q={q})")
        try:
            entries[(k, q)] = complex(re, im)
        except OverflowError:
            raise SchemaError(
                f"tensor entry (k={k}, q={q}) exceeds the float range") from None
    try:
        return TensorParams(spin, entries, trace=float(trace))
    except OverflowError:
        raise SchemaError("trace exceeds the float range") from None
    except (AngularMomentumError, HermiticityError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def state_from_dict(data: Mapping) -> SpinDensity:
    return from_tensors(tensor_params_from_dict(data))


def state_to_dict(t: TensorParams) -> dict:
    """Serialize tensor parameters into the JSON state schema.

    Only the entries with q >= 0 are written. The loader fills each t^k_-q
    from t^k_q by the pairing rule, so a loaded state is paired exactly,
    and its matrix is exactly Hermitian.
    """
    tensors = [{"k": k, "q": q, "re": val.real, "im": val.imag}
               for (k, q), val in t.items() if q >= 0]
    return {"spin": str(t.spin), "trace": t.trace, "tensors": tensors}


def load_state_file(path) -> tuple[TensorParams, SpinDensity]:
    """Read a state file; returns both tensor and matrix forms. A file that
    cannot be read, like one that breaks the schema, is a SchemaError."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read state file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    params = tensor_params_from_dict(data)
    return params, from_tensors(params)
