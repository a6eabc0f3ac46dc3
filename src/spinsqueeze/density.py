"""Spin-state data model: density matrices and statistical tensor parameters.

A spin-s state is carried either as a density matrix (:class:`SpinDensity`)
or as its expansion coefficients in the spherical tensor operator basis
(:class:`TensorParams`), related by

    rho = (Tr rho / (2s+1)) * sum_kq (-1)^q t^k_{-q} T^k_q,
    t^k_q = Tr(rho T^k_q) / Tr(rho).

Unnormalized traces are allowed everywhere; every derived quantity divides
by the trace. Tensor entries are always stored trace-normalized, with
t^0_0 = 1 implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional

import numpy as np

# clebsch_gordan, racah_w and build_tau are unused here; they stay as
# attributes of this module because perfbench/spans.py patches them here.
from .angular import clebsch_gordan, racah_w  # noqa: F401
from .errors import AngularMomentumError, HermiticityError, SchemaError
from .halfint import HalfInt, check_magnitude
from .tensor_ops import (_moment_stack, _stack_order, _tau_stack,  # noqa: F401
                         build_tau, spin_matrices)

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

# Largest spin a state file may name: the stack of every T^k_q of a spin
# holds (2s+1)^4 complex numbers, 45 MB at s = 20.
MAX_STATE_SPIN = 20


def spin_scale_rank1(s) -> float:
    """sqrt(s(s+1)/3): converts rank-1 tensors to spin spherical components."""
    sv = HalfInt.of(s).value
    return math.sqrt(sv * (sv + 1) / 3.0)


def spin_scale_rank2(s) -> float:
    """sqrt(s(s+1)(2s-1)(2s+3)/30): the rank-2 weight in second moments.

    Vanishes at s = 1/2, where no rank-2 tensors exist.
    """
    sv = HalfInt.of(s).value
    return math.sqrt(sv * (sv + 1) * (2 * sv - 1) * (2 * sv + 3) / 30.0)


class TensorParams:
    """Trace-normalized spherical tensor parameters t^k_q of a spin-s state.

    ``vector`` holds every t^k_q, k = 0..2s and q = -k..k, in the order of
    the T^k_q stack (t^k_q is entry k*k + k + q), with t^0_0 = 1 at entry
    0; it is read-only. ``entries`` is either such a vector (its entry 0
    is replaced by 1) or a mapping (k, q) -> complex with integer
    0 <= k <= 2s and |q| <= k, whose omitted entries are zero. The
    conjugation pairing t^k_q* = (-1)^q t^k_{-q} is enforced on
    construction (``fill_partners=True`` completes the missing partners
    of a mapping instead of rejecting them).
    """

    __slots__ = ("spin", "trace", "vector")

    def __init__(self, spin, entries, trace: float = 1.0,
                 fill_partners: bool = False):
        sh = check_magnitude(HalfInt.of(spin), "spin")
        trace = float(trace)
        if not math.isfinite(trace) or trace <= 0:
            raise ValueError(f"trace must be positive and finite, got {trace}")
        ts = sh.twice
        keys, partner, sign = _stack_order(ts)
        mapping = isinstance(entries, Mapping)
        if mapping:
            vec = np.zeros(len(keys), dtype=complex)
            given = np.zeros(len(keys), dtype=bool)
            for (k, q), val in entries.items():
                k, q = int(k), int(q)
                if k < 0 or k > ts:
                    raise AngularMomentumError(
                        f"rank k={k} outside 0..2s for spin {sh}")
                if abs(q) > k:
                    raise AngularMomentumError(f"|q|={abs(q)} exceeds k={k}")
                vec[k * k + k + q] = complex(val)
                given[k * k + k + q] = True
        else:
            vec = np.array(entries, dtype=complex)
            if vec.shape != (len(keys),):
                raise ValueError(f"tensor vector shape {vec.shape} != ({len(keys)},)")
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ValueError("non-finite tensor parameter at (k, q) = "
                             + ", ".join(str(keys[i]) for i in bad))
        if mapping and given[0] and abs(vec[0] - 1.0) > 1e-9:
            raise ValueError(
                f"t^0_0 must equal 1 after trace normalization, got {vec[0]}")
        if mapping and fill_partners:
            fill = ~given & given[partner]
            vec[fill] = sign[fill] * vec[partner[fill]].conj()
        vec[0] = 1.0
        bad = np.flatnonzero(np.abs(vec.conj() - sign * vec[partner]) > HERMITICITY_TOL)
        if bad.size:
            raise HermiticityError("conjugation pairing violated at (k, q) = "
                                   + ", ".join(str(keys[i]) for i in bad))
        vec.flags.writeable = False
        self.spin = sh
        self.trace = trace
        self.vector = vec

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


@dataclass(frozen=True)
class SpinDensity:
    """A (2s+1) x (2s+1) Hermitian matrix with positive trace."""

    spin: HalfInt
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        sh = check_magnitude(HalfInt.of(self.spin), "spin")
        mat = np.array(self.matrix, dtype=complex)
        n = sh.twice + 1
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} != ({n}, {n}) for spin {sh}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL * scale:
            raise HermiticityError("density matrix is not Hermitian")
        tr = np.trace(mat)
        if abs(tr.imag) > HERMITICITY_TOL * scale or tr.real <= 0:
            raise ValueError(f"trace must be real and positive, got {tr}")
        mat.flags.writeable = False
        object.__setattr__(self, "spin", sh)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.spin.twice + 1

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized_matrix(self) -> np.ndarray:
        return self.matrix / self.trace


def _unit_trace_matrix(t: TensorParams) -> np.ndarray:
    """(1/(2s+1)) sum_kq (-1)^q t^k_{-q} T^k_q: the state with trace 1."""
    ts = t.spin.twice
    _, partner, sign = _stack_order(ts)
    # T^k_q is multiplied by (-1)^q t^k_{-q}
    coeffs = sign * t.vector[partner]
    return np.tensordot(coeffs, _tau_stack(ts), axes=1) / (ts + 1)


def _project(matrix: np.ndarray, ts: int) -> np.ndarray:
    """Tr(matrix T^k_q) = sum_ij matrix_ij (T^k_q)_ji for every (k, q), in
    the order of the T^k_q stack: one matrix-vector product."""
    stack = _tau_stack(ts)
    return stack.reshape(len(stack), -1) @ matrix.T.ravel()


def from_tensors(t: TensorParams) -> SpinDensity:
    """Assemble the density matrix from tensor parameters (exact inverse
    of :func:`to_tensors`)."""
    return SpinDensity(t.spin, _unit_trace_matrix(t) * t.trace)


def to_tensors(rho: SpinDensity) -> TensorParams:
    """Project a density matrix onto the tensor operator basis."""
    tr = np.trace(rho.matrix)
    if abs(tr) < 1e-300:
        raise ValueError("zero-trace density matrix has no tensor parameters")
    return TensorParams(rho.spin, _project(rho.matrix, rho.spin.twice) / tr,
                        trace=float(tr.real))


def _moments(rho: SpinDensity) -> tuple[np.ndarray, np.ndarray]:
    """<S_a> and <(S_a S_b + S_b S_a)/2> per unit trace, as a 3-vector and
    a symmetric 3x3 matrix: one matrix-vector product with the moment
    stack, Tr(matrix M) = sum_ij matrix_ij M_ji."""
    vals = (_moment_stack(rho.spin.twice) @ rho.matrix.T.ravel()).real / rho.trace
    return vals[:3], vals[3:].reshape(3, 3)


def polarization(rho: SpinDensity) -> np.ndarray:
    """Vector polarization <S> / Tr(rho) as a Cartesian 3-vector."""
    return _moments(rho)[0]


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
    mean, second = _moments(rho)
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


def purity_residual(t: TensorParams) -> float:
    """How far the tensor parameters are from describing a pure state.

    rho^2 = rho translates into one constraint per (k, q):

        sum_{k1,k2} [k1][k2] W(s k1 s k2; s k) (t^{k1} x t^{k2})^k_q
            = sqrt(2s+1) t^k_q,

    with [k] = sqrt(2k+1). The left side is sqrt(2s+1) Tr(rho^2 T^k_q)
    for the trace-1 rho, so the violation of each constraint is
    sqrt(2s+1) |Tr((rho^2 - rho) T^k_q)|, which is what is evaluated.
    Returns the largest absolute violation; zero (to rounding) exactly
    for pure states.
    """
    ts = t.spin.twice
    rho = _unit_trace_matrix(t)
    excess = _project(rho @ rho - rho, ts)
    return math.sqrt(ts + 1) * float(np.abs(excess).max())


@dataclass(frozen=True)
class OrientationReport:
    oriented: bool
    axis: Optional[np.ndarray]
    populations: Optional[np.ndarray]   # along the axis, ordered m = s..-s


def classify_orientation(rho: SpinDensity) -> OrientationReport:
    """Decide whether the state is diagonal in some |s m> basis.

    Solves the linear system [rho, S.n] = 0 for a real axis n (three
    unknowns); when a non-trivial solution exists the state is written in
    the eigenbasis of S.n and diagonality is confirmed there. A state
    proportional to the identity is reported oriented along z by
    convention.
    """
    n = rho.dim
    mat = rho.normalized_matrix()
    if np.abs(mat - np.eye(n) / n).max() < 1e-12:
        return OrientationReport(True, np.array([0.0, 0.0, 1.0]), np.full(n, 1.0 / n))
    spins = spin_matrices(rho.spin)
    cols = []
    for sa in spins:
        comm = mat @ sa - sa @ mat
        cols.append(np.concatenate([comm.real.ravel(), comm.imag.ravel()]))
    a = np.column_stack(cols)
    _, svals, vt = np.linalg.svd(a)
    if svals[-1] > 1e-10 * max(1.0, svals[0]):
        return OrientationReport(False, None, None)
    axis = vt[-1]
    axis = axis / np.linalg.norm(axis)
    # deterministic sign: largest component positive
    lead = np.argmax(np.abs(axis))
    if axis[lead] < 0:
        axis = -axis
    # eigh orders the eigenvalues m of S.n ascending; reversed, the columns
    # are the |s m> states along the axis, m = s..-s
    u = np.linalg.eigh(sum(c * sa for c, sa in zip(axis, spins)))[1][:, ::-1]
    rotated = u.conj().T @ mat @ u
    off = rotated - np.diag(np.diag(rotated))
    if np.abs(off).max() > 1e-8:
        return OrientationReport(False, None, None)
    return OrientationReport(True, axis, np.real(np.diag(rotated)))


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
    if spin.twice > 2 * MAX_STATE_SPIN:
        raise SchemaError(f"spin {spin} exceeds the limit of {MAX_STATE_SPIN}")
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
        try:
            k, q = int(item["k"]), int(item["q"])
        except (KeyError, ValueError, TypeError, OverflowError):
            raise SchemaError(f"tensors[{i}] needs integer 'k' and 'q'") from None
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
        return TensorParams(spin, entries, trace=float(trace), fill_partners=True)
    except OverflowError:
        raise SchemaError("trace exceeds the float range") from None
    except (AngularMomentumError, HermiticityError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def state_from_dict(data: Mapping) -> SpinDensity:
    return from_tensors(tensor_params_from_dict(data))


def state_to_dict(t: TensorParams) -> dict:
    """Serialize tensor parameters into the JSON state schema."""
    tensors = []
    for (k, q), val in t.items():
        tensors.append({"k": k, "q": q, "re": val.real, "im": val.imag})
    return {"spin": str(t.spin), "trace": t.trace, "tensors": tensors}


def load_state_file(path) -> tuple[TensorParams, SpinDensity]:
    """Read a state file; returns both tensor and matrix forms."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"state file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    params = tensor_params_from_dict(data)
    return params, from_tensors(params)
