"""Coupling two polarized spin-1/2 systems into a channel spin-1 state.

Each qubit is specified by a polarization vector p with |p| <= 1 through
rho(i) = (1 + sigma . p_i)/2. The product state, projected onto total
spin 1, is again of the standard tensor form

    rho = w [1 + sum t^k_q T^k_q^dagger],    w = (3 + p1.p2)/12,

with closed-form tensor parameters

    t^1_q = sqrt(6)/(3 + p1.p2) (p1 + p2)_q,
    t^2_q = 2 sqrt(3)/(3 + p1.p2) (p1 x p2)^2_q   (rank-2 tensor product).

Three routes to these parameters are implemented: the closed forms and
a recoupling contraction through 9-j symbols, which share one spherical
tensor-product helper, and an independent brute-force 4x4 projection
(:func:`project_oracle`). Squeezing and the spin-spin correlations of
the projected pair are evaluated both from published closed forms and
from matrix arithmetic on that projection (:func:`correlations_oracle`);
genuine disagreements between the two are reported by
:func:`verify_correlations`, never patched over. The closed forms are
the scan kernel's (``_kernel._closed_forms``): :func:`channel_squeezing`
and :func:`correlations` feed it the invariants of the two vectors,
where a scan feeds it those of its coordinates.

The squeezing boundary is also closed: :func:`max_margin` gives the
margin maximised over theta and phi for any pair of magnitudes, and
:func:`exact_thresholds` the least magnitudes that admit squeezing,
from which :func:`threshold_scan` starts its grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _kernel
from ._kernel import DEGENERATE_TOL2, MARGIN_TOL
from .angular import clebsch_gordan, wigner_9j
from .density import SpinDensity, TensorParams
from .errors import LakinFrameUndefined
from .halfint import HalfInt
from .scan import MAX_SCAN_ROWS
from .tensor_ops import spin_matrices

__all__ = [
    "ChannelFrame", "ChannelState", "ChannelSqueezing", "Correlations",
    "CorrelationMismatch", "couple_spin1", "couple_spin1_9j", "project_oracle",
    "channel_geometry", "channel_squeezing", "correlations",
    "correlations_oracle", "compare_correlations", "verify_correlations",
    "max_margin", "exact_thresholds",
    "ThresholdScanConfig", "ThresholdScanResult", "threshold_scan",
]

_I2 = np.eye(2, dtype=complex)
# |p| may exceed 1 by this much: the norm of a normalised vector
# overshoots 1 by at most one ulp, while any real excess is rejected as
# the scan domain rejects a magnitude above 1
_NORM_SLACK = 4.0 * np.finfo(float).eps


def _as_polarization(p, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):    # |v| near 1e308 is inf, still > 1
        norm = np.linalg.norm(v)
    if norm > 1.0 + _NORM_SLACK:
        raise ValueError(f"|{name}| = {norm:.6g} exceeds 1")
    return v


def _as_angle(phi, name: str) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"{name} must be finite")
    return phi


def _pair(p1, p2):
    """Validated p1 and p2 with |p1 + p2|^2: ``(v1, v2, |p1 + p2|^2)``.

    Raises :class:`LakinFrameUndefined` when |p1 + p2|^2 <= DEGENERATE_TOL2,
    the scan kernel's test, so every route agrees on which pairs have a
    distinguished frame.
    """
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    total = v1 + v2
    ps2 = float(np.dot(total, total))
    if ps2 <= DEGENERATE_TOL2:
        raise LakinFrameUndefined("p1 + p2 = 0: no distinguished frame")
    return v1, v2, ps2


def _scalar_closed_forms(p1, p2, phi):
    """The scan kernel's closed forms (:func:`_kernel._closed_forms`) at
    one pair and azimuth, from the invariants of the two vectors.
    |p1 + p2|^2 is summed from the vectors, so it keeps its accuracy near
    p1 + p2 = 0, and sin theta = |p1 x p2|/(|p1| |p2|), or 0 where a
    polarization vanishes."""
    v1, v2, ps2 = _pair(p1, p2)
    phi = _as_angle(phi, "phi")
    # hypot neither under- nor overflows, so sin theta keeps its digits
    # however small a polarization is
    a = math.hypot(*v1)
    b = math.hypot(*v2)
    cross = math.hypot(*np.cross(v1, v2))
    st = cross / (a * b) if a * b > 0.0 else 0.0
    return _kernel._closed_forms(a * a, b * b, float(np.dot(v1, v2)), ps2, cross,
                                 st, math.cos(phi), math.sin(phi))


def _spherical(v: np.ndarray) -> dict[int, complex]:
    """Spherical components of a real vector: V_0 = V_z,
    V_{+-1} = -+(V_x +- i V_y)/sqrt(2)."""
    return {
        1: -(v[0] + 1j * v[1]) / math.sqrt(2.0),
        0: complex(v[2]),
        -1: (v[0] - 1j * v[1]) / math.sqrt(2.0),
    }


def _tensor_product(x: dict, k1: int, y: dict, k2: int, k: int, q: int) -> complex:
    """(x^{k1} x y^{k2})^k_q, the rank-k tensor product of the spherical
    components x[q1] (rank k1) and y[q2] (rank k2)."""
    acc = 0j
    for q1 in range(-k1, k1 + 1):
        q2 = q - q1
        if abs(q2) <= k2:
            acc += clebsch_gordan(k1, k2, k, q1, q2, q) * x[q1] * y[q2]
    return acc


def _spin_along(v: np.ndarray) -> np.ndarray:
    """S.v of one spin 1/2, half the Pauli matrices dotted with v."""
    sx, sy, sz = spin_matrices(HalfInt(1))
    return v[0] * sx + v[1] * sy + v[2] * sz


def _qubit_density(p: np.ndarray) -> np.ndarray:
    return 0.5 * _I2 + _spin_along(p)


@lru_cache(maxsize=1)
def _triplet_basis() -> np.ndarray:
    """Rows are <m1 m2|1 m> coefficient vectors for m = 1, 0, -1;
    product basis ordered (up up, up dn, dn up, dn dn)."""
    rows = []
    for tm in (2, 0, -2):
        row = np.zeros(4, dtype=complex)
        for i1, tm1 in enumerate((1, -1)):
            for i2, tm2 in enumerate((1, -1)):
                row[2 * i1 + i2] = clebsch_gordan(
                    HalfInt(1), HalfInt(1), HalfInt(2),
                    HalfInt(tm1), HalfInt(tm2), HalfInt(tm))
        rows.append(row)
    out = np.array(rows)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ChannelFrame:
    """The distinguished frame of the coupled pair: z along p1 + p2,
    x in the (p1, p2) plane with p1 at azimuth 0, y = z cross x."""

    x0: np.ndarray
    y0: np.ndarray
    z0: np.ndarray
    p1_components: np.ndarray    # (x0, y0, z0) components of p1
    p2_components: np.ndarray


@dataclass(frozen=True)
class ChannelState:
    """Spin-1 projection of a product of two polarized qubits.

    ``weight`` is the prefactor (3 + p1.p2)/12 of the normalized tensor
    expansion; the trace of the unnormalized projected matrix is three
    times that, the triplet probability (3 + p1.p2)/4. ``params`` are
    the tensor parameters in the same frame the polarizations were given
    in; ``frame`` is the distinguished frame (None when p1 + p2 = 0).
    """

    weight: float
    params: TensorParams
    frame: Optional[ChannelFrame]

    @property
    def triplet_probability(self) -> float:
        return 3.0 * self.weight


def channel_geometry(p1, p2) -> ChannelFrame:
    """Construct the distinguished frame and the polarization components
    in it. Components reproduce the closed forms

        p_x0(1) = P1 P2 sin(theta) / |p1+p2| = -p_x0(2),
        p_y0(i) = 0,
        p_z0(i) = (P_i^2 + p1.p2) / |p1+p2|.

    Raises :class:`LakinFrameUndefined` when p1 + p2 vanishes.
    """
    v1, v2, ps2 = _pair(p1, p2)
    z0 = (v1 + v2) / math.sqrt(ps2)
    trans = v1 - np.dot(v1, z0) * z0
    # when p1 and p2 are nearly collinear the subtraction cancels most
    # digits and leaves trans tilted towards z0; projecting once more
    # makes x0 orthogonal to z0 to rounding
    trans -= np.dot(trans, z0) * z0
    tnorm = float(np.linalg.norm(trans))
    if tnorm > 1e-12:
        x0 = trans / tnorm
    else:
        # collinear pair: any transverse axis serves; pick deterministically
        seed = np.array([1.0, 0.0, 0.0]) if abs(z0[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x0 = seed - np.dot(seed, z0) * z0
        x0 /= np.linalg.norm(x0)
    y0 = np.cross(z0, x0)
    comp1 = np.array([np.dot(v1, x0), np.dot(v1, y0), np.dot(v1, z0)])
    comp2 = np.array([np.dot(v2, x0), np.dot(v2, y0), np.dot(v2, z0)])
    return ChannelFrame(x0=x0, y0=y0, z0=z0,
                        p1_components=comp1, p2_components=comp2)


def couple_spin1(p1, p2) -> ChannelState:
    """Tensor parameters of the spin-1 projection, from the closed forms."""
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    pd = float(np.dot(v1, v2))
    den = 3.0 + pd
    s1 = _spherical(v1)
    s2 = _spherical(v2)
    entries: dict[tuple[int, int], complex] = {}
    for q in (-1, 0, 1):
        entries[(1, q)] = math.sqrt(6.0) / den * (s1[q] + s2[q])
    for q in range(-2, 3):
        entries[(2, q)] = 2.0 * math.sqrt(3.0) / den * _tensor_product(s1, 1, s2, 1, 2, q)
    params = TensorParams(HalfInt(2), entries)
    try:
        frame = channel_geometry(v1, v2)
    except LakinFrameUndefined:
        frame = None
    return ChannelState(weight=den / 12.0, params=params, frame=frame)


@lru_cache(maxsize=None)
def _recoupling_weight(k1: int, k2: int, k: int) -> float:
    """[k1][k2] {1/2 1/2 k1; 1/2 1/2 k2; 1 1 k}."""
    nj = wigner_9j(HalfInt(1), HalfInt(1), HalfInt(2 * k1),
                   HalfInt(1), HalfInt(1), HalfInt(2 * k2),
                   HalfInt(2), HalfInt(2), HalfInt(2 * k))
    return math.sqrt((2 * k1 + 1) * (2 * k2 + 1)) * nj


def couple_spin1_9j(p1, p2) -> TensorParams:
    """Same tensor parameters through the recoupling (9-j) contraction:

        t^k_q = [6 sqrt(3)/(3 + p1.p2)] sum_{k1,k2} [k1][k2]
                {1/2 1/2 k1; 1/2 1/2 k2; 1 1 k} (t^{k1}(1) x t^{k2}(2))^k_q

    where t^0_0(i) = 1 and t^1_q(i) are the spherical components of p_i.
    """
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    den = 3.0 + float(np.dot(v1, v2))
    t1 = ({0: 1.0}, _spherical(v1))    # t^{k1}(1) for k1 = 0, 1
    t2 = ({0: 1.0}, _spherical(v2))
    entries: dict[tuple[int, int], complex] = {}
    for k in (1, 2):
        for q in range(-k, k + 1):
            acc = 0j
            for k1 in (0, 1):
                for k2 in (0, 1):
                    w = _recoupling_weight(k1, k2, k)
                    if w == 0.0:
                        continue
                    acc += w * _tensor_product(t1[k1], k1, t2[k2], k2, k, q)
            entries[(k, q)] = 6.0 * math.sqrt(3.0) / den * acc
    return TensorParams(HalfInt(2), entries)


def project_oracle(p1, p2) -> SpinDensity:
    """Brute-force route: form the 4x4 product matrix, project onto the
    triplet subspace and express it in the |1 m> basis. The result is
    unnormalized; its trace is the triplet probability (3 + p1.p2)/4."""
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    basis = _triplet_basis()
    rc = np.kron(_qubit_density(v1), _qubit_density(v2))
    return SpinDensity(HalfInt(2), basis.conj() @ rc @ basis.T)


@dataclass(frozen=True)
class ChannelSqueezing:
    """Closed-form squeezing data at transverse azimuth phi.

    ``q_value`` is the dimensionless margin |p1+p2|/2
    + |p1 x p2|^2 cos^2(phi)/|p1+p2|^2 - 1, positive exactly when the
    squeezing inequality holds; it equals (3 + p1.p2)/2 times
    (sz_expect/2 - variance_perp).
    """

    variance_perp: float
    sz_expect: float
    q_value: float
    squeezed: bool


def channel_squeezing(p1, p2, phi: float) -> ChannelSqueezing:
    """Evaluate the closed forms for the transverse variance, the mean
    spin and the squeezing margin of the projected pair."""
    _, _, _, _, var, szh, q, *_ = _scalar_closed_forms(p1, p2, phi)
    return ChannelSqueezing(variance_perp=float(var), sz_expect=float(2.0 * szh),
                            q_value=float(q), squeezed=bool(q > MARGIN_TOL))


@dataclass(frozen=True)
class Correlations:
    xx: float
    yy: float
    zz: float
    xz: float
    zy: float
    xy: float

    def as_dict(self) -> dict:
        return {"xx": self.xx, "yy": self.yy, "zz": self.zz,
                "xz": self.xz, "zy": self.zy, "xy": self.xy}


def correlations(p1, p2, phi: float) -> Correlations:
    """Spin-spin correlations of the projected pair, published closed forms.

    The forms are evaluated verbatim, including the C_zz auxiliary term
    P_n = 4 P1^2 P2^2 + 2 (p1.p2)(P1^2 + P2^2) - sin^2(theta) with a bare
    sin^2 of the opening angle, and C_xy = 0 identically. Both choices
    disagree with direct matrix arithmetic in parts of parameter space;
    see :func:`verify_correlations`.
    """
    *_, cxx, cyy, czz, cxz, czy = _scalar_closed_forms(p1, p2, phi)
    return Correlations(xx=float(cxx), yy=float(cyy), zz=float(czz),
                        xz=float(cxz), zy=float(czy), xy=0.0)


def correlations_oracle(p1, p2, phi: float) -> Correlations:
    """Correlations from matrix arithmetic.

    C_ab = <S_a(1) S_b(2)> - <S_a(1)><S_b(2)> with half-Pauli factors,
    expectations in the normalized triplet projection, components along
    the frame axes rotated by phi about z0:
    (x0 cos phi + y0 sin phi, -x0 sin phi + y0 cos phi, z0). The
    projected state is exchange-symmetric, so C_ab = C_ba.
    """
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    phi = _as_angle(phi, "phi")
    frame = channel_geometry(v1, v2)
    ax = math.cos(phi) * frame.x0 + math.sin(phi) * frame.y0
    ay = -math.sin(phi) * frame.x0 + math.cos(phi) * frame.y0
    az = frame.z0
    basis = _triplet_basis()
    # the normalized projection, lifted back onto the product space
    rp = basis.T @ project_oracle(v1, v2).normalized_matrix() @ basis.conj()

    def corr(va, vb):
        a = np.kron(_spin_along(va), _I2)
        b = np.kron(_I2, _spin_along(vb))
        return float((np.trace(rp @ a @ b)
                      - np.trace(rp @ a) * np.trace(rp @ b)).real)

    return Correlations(xx=corr(ax, ax), yy=corr(ay, ay), zz=corr(az, az),
                        xz=corr(ax, az), zy=corr(az, ay), xy=corr(ax, ay))


_FORMULA_NOTES = {
    "zz": "closed form uses P_n = 4 P1^2 P2^2 + 2 (p1.p2)(P1^2+P2^2) - sin^2(theta)",
    "xy": "closed form fixes C_xy = 0 for every phi",
}


@dataclass(frozen=True)
class CorrelationMismatch:
    component: str
    closed: float
    oracle: float
    p1: tuple
    p2: tuple
    phi: float
    note: str

    def __str__(self):
        return (f"C_{self.component}: closed {self.closed:+.12g} vs oracle "
                f"{self.oracle:+.12g} at p1={self.p1}, p2={self.p2}, "
                f"phi={self.phi:.6g} ({self.note})")


def verify_correlations(p1, p2, phi: float, tol: float = 1e-10) -> list[CorrelationMismatch]:
    """Compare closed forms against the matrix-arithmetic oracle.

    Returns one record per component whose closed form deviates from the
    oracle by more than ``tol``, naming the formula involved. The oracle
    is authoritative; the closed forms are never adjusted.
    """
    return compare_correlations(correlations(p1, p2, phi),
                                correlations_oracle(p1, p2, phi),
                                p1, p2, phi, tol)


def compare_correlations(closed: Correlations, oracle: Correlations, p1, p2,
                         phi: float, tol: float = 1e-10) -> list[CorrelationMismatch]:
    """:func:`verify_correlations` on a pair already evaluated at
    (p1, p2, phi), for callers that also report the two."""
    out = []
    for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
        c = getattr(closed, comp)
        o = getattr(oracle, comp)
        if abs(c - o) > tol:
            out.append(CorrelationMismatch(
                component=comp, closed=c, oracle=o,
                p1=tuple(round(float(x), 12) for x in np.asarray(p1, dtype=float)),
                p2=tuple(round(float(x), 12) for x in np.asarray(p2, dtype=float)),
                phi=float(phi), note=_FORMULA_NOTES.get(comp, "closed form as published")))
    return out


# ---------------------------------------------------------------------------
# The squeezing boundary in closed form
# ---------------------------------------------------------------------------
#
# With a = |p1|, b = |p2| and u = |p1 + p2|, |p1 x p2|^2 = a^2 b^2 - p1.p2^2
# and p1.p2 = (u^2 - a^2 - b^2)/2, so the margin is
#
#     q = u/2 - 1 + cos^2(phi) (4 a^2 b^2 - (u^2 - a^2 - b^2)^2)/(4 u^2),
#
# largest at cos^2(phi) = 1, where
#
#     q(u) = u/2 - u^2/4 + (a^2 + b^2)/2 - (a^2 - b^2)^2/(4 u^2) - 1.
#
# q''(u) = -1/2 - 3 (a^2 - b^2)^2/(2 u^4) < 0, so over theta in [0, pi],
# i.e. u in [|a - b|, a + b], q peaks at the root u* >= 1 of
# u^4 - u^3 = (a^2 - b^2)^2 or at the nearer end of that interval, which
# for a, b <= 1 is a + b. At u*, max q = 3u*/4 - u*^2/2 + (a^2 + b^2)/2 - 1,
# so the boundary max q = 0 is the curve
#
#     a^2 + b^2 = u^2 - 3u/2 + 2,    |a^2 - b^2| = u sqrt(u^2 - u),
#
# for u in [1, 9/8] (Kitagawa & Ueda, PRA 47, 5138 (1993), for the
# criterion q > 0).


def _quartic_root(c):
    """The root u >= 1 of u^4 - u^3 = c for c >= 0, elementwise.

    Ferrari: u^4 - u^3 - c = (u^2 - u/2 + m)^2 - (k u - m/(2k))^2 with
    k^2 = 1/4 + 2m, where w = 2m solves the resolvent w^3 + 4c w + c = 0,
    whose one real root has the hyperbolic form below (w = 0 at c = 0).
    u is the larger root of u^2 - (1/2 + k) u + m (1 + 1/(2k)) = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -4.0 * np.sqrt(c / 3.0) * np.sinh(
            np.arcsinh(3.0 * math.sqrt(3.0) / (16.0 * np.sqrt(c))) / 3.0)
    w = np.where(c == 0.0, 0.0, w)
    k = np.sqrt(0.25 + w)
    h = 0.5 + k
    return 0.5 * (h + np.sqrt(h * h - 2.0 * w * (1.0 + 0.5 / k)))


def max_margin(p1_mag, p2_mag):
    """The squeezing margin q maximised over theta in [0, pi] and phi, for
    polarization magnitudes ``p1_mag``, ``p2_mag`` in [0, 1] (arrays
    broadcast). The pair can be squeezed exactly where it is positive.
    NaN where both magnitudes vanish: then p1 + p2 = 0 at every theta and
    the kernel's q is NaN everywhere."""
    a = np.asarray(p1_mag, dtype=float)
    b = np.asarray(p2_mag, dtype=float)
    if not (np.all((a >= 0.0) & (a <= 1.0)) and np.all((b >= 0.0) & (b <= 1.0))):
        raise ValueError("polarization magnitudes must lie in [0, 1]")
    a2 = a * a
    b2 = b * b
    d = a2 - b2
    u = np.minimum(_quartic_root(d * d), a + b)
    with np.errstate(invalid="ignore"):    # 0/0 only where a = b = 0
        half = d / (2.0 * u)
    return (0.5 * u - 0.25 * u * u + 0.5 * (a2 + b2) - half * half - 1.0)[()]


def _boundary_magnitudes(u):
    """(a, b), a <= b, on the boundary max q = 0 where the margin peaks at
    |p1 + p2| = u, for u in [1, 9/8]."""
    s = u * u - 1.5 * u + 2.0
    d = u * np.sqrt(u * u - u)
    return np.sqrt(0.5 * (s - d)), np.sqrt(0.5 * (s + d))


def exact_thresholds() -> tuple[float, float]:
    """The least magnitudes that admit squeezing, ``(equal, vs_pure)``:
    sqrt(3)/2 for |p1| = |p2| (a = b puts the peak at u = 1) and
    sqrt(37)/8 for |p1| against |p2| = 1 (b = 1 turns the boundary into
    3/2 - u = sqrt(u^2 - u), so u = 9/8 and a^2 = 37/64). max_margin
    grows with P along both families, so no smaller P is squeezed."""
    equal, _ = _boundary_magnitudes(1.0)
    vs_pure, _ = _boundary_magnitudes(9.0 / 8.0)
    return float(equal), float(vs_pure)


# ---------------------------------------------------------------------------
# Threshold searches over polarization magnitude
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdScanConfig:
    """Grid specification for the minimum-polarization searches.

    Integer counts, at least 200 points per axis and at most
    :data:`~spinsqueeze.scan.MAX_SCAN_ROWS` grid points in all; theta
    runs over the open interval (0, pi) and the margin is maximized at
    phi = 0.
    """

    p_points: int = 400
    theta_points: int = 400

    def __post_init__(self):
        for name in ("p_points", "theta_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.p_points < 200 or self.theta_points < 200:
            raise ValueError("threshold scans need at least 200 points per axis")
        if int(self.p_points) * int(self.theta_points) > MAX_SCAN_ROWS:
            raise ValueError(f"threshold scan of {self.p_points} x "
                             f"{self.theta_points} points exceeds the limit "
                             f"of {MAX_SCAN_ROWS}")


@dataclass(frozen=True)
class ThresholdScanResult:
    min_polarization_equal: float      # |p1| = |p2| = P threshold
    min_polarization_vs_pure: float    # |p1| threshold against |p2| = 1
    p_resolution: float
    theta_resolution: float


def _first_squeezed(p_values: np.ndarray, theta: np.ndarray, exact: float,
                    pure_partner: bool) -> float:
    """Smallest P in ``p_values`` (ascending) with a squeezed point on the
    theta grid at phi = 0, or inf. The sweep starts at the last P below
    the exact threshold ``exact`` by a relative 1e-9, where max q is below
    -5e-10; max q grows with P, so no earlier P is squeezed. The
    margin is evaluated alone, for as many P at once as fill one kernel
    block (at least one). A squeezed starting row means the kernel and
    the closed form disagree, which raises :class:`RuntimeError`."""
    nt = theta.size
    per_call = max(1, _kernel.BLOCK // nt)
    # a count gives np.searchsorted's index on an ascending grid, and does
    # not page in the ~64 kB of numpy code a first searchsorted call does
    start = int(np.count_nonzero(p_values < exact * (1.0 - 1e-9))) - 1
    theta_rows = np.tile(theta, per_call)
    phi = np.zeros(theta_rows.size)
    ones = np.ones(theta_rows.size)
    for lo in range(start, p_values.size, per_call):
        ps = p_values[lo:lo + per_call]
        n = ps.size * nt
        a = np.repeat(ps, nt)
        b = ones[:n] if pure_partner else a
        q = _kernel._margin(a, b, theta_rows[:n], phi[:n])
        squeezed = (q > MARGIN_TOL).reshape(ps.size, nt).any(axis=1)
        if squeezed.any():
            first = int(squeezed.argmax())
            if lo == start and first == 0:
                raise RuntimeError(
                    f"the kernel finds P = {ps[0]!r} squeezed (q = "
                    f"{np.nanmax(q[:nt])!r}) below the exact threshold "
                    f"{exact!r}")
            return float(ps[first])
    return math.inf


def threshold_scan(config: ThresholdScanConfig = ThresholdScanConfig()) -> ThresholdScanResult:
    """Least polarization magnitudes that admit squeezing, on a grid.

    (a) equal magnitudes |p1| = |p2| = P: the smallest P on a uniform
    grid over [0, 1] with a squeezed point on the theta grid at phi = 0;
    (b) against a pure partner |p2| = 1: the smallest such |p1|.

    The exact values are :func:`exact_thresholds`, sqrt(3)/2 and
    sqrt(37)/8; the grid values lie at or above them, by at most one P
    step plus the theta-grid refinement error. Each search starts at the
    last grid P below its exact threshold and sweeps upward, evaluating
    the margin q alone in batches of as many P as fill one kernel block,
    until the first batch with a squeezed point. It raises
    :class:`RuntimeError` if that first P is squeezed, i.e. if the kernel
    contradicts the closed form.
    """
    p_values = np.linspace(0.0, 1.0, config.p_points)
    theta = np.linspace(0.0, math.pi, config.theta_points + 2)[1:-1]
    exact_equal, exact_vs_pure = exact_thresholds()
    equal = _first_squeezed(p_values, theta, exact_equal, pure_partner=False)
    vs_pure = _first_squeezed(p_values, theta, exact_vs_pure, pure_partner=True)
    return ThresholdScanResult(
        min_polarization_equal=equal,
        min_polarization_vs_pure=vs_pure,
        p_resolution=float(p_values[1] - p_values[0]),
        theta_resolution=float(theta[1] - theta[0]),
    )
