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

The scalar routes validate each vector once, on Python floats, and
read their coupling coefficients from a constant table
(:func:`_product_terms`, filled through ``clebsch_gordan`` on first
use). Their per-call arithmetic runs on floats wherever that keeps
numpy's bits; dot products stay ``np.dot``, whose summation a Python
sum does not reproduce bit for bit.

The squeezing boundary is also closed: :func:`max_margin` gives the
margin maximised over theta and phi for any pair of magnitudes, and
:func:`exact_thresholds` the least magnitudes that admit squeezing,
from which :func:`threshold_scan` starts its grid search. The search
decides each magnitude row from the few theta points around the row's
closed-form peak, on floats (:func:`_row_squeezed`), and reads the whole
row from the kernel only where those points cannot decide it.
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
    """p as a float 3-vector, checked once: its dtype before the float
    conversion (which drops an imaginary part and parses strings), and
    for a list or tuple each entry before numpy promotes a bool among
    numbers; its shape, that it is finite and that |p| <= 1 + _NORM_SLACK.
    The checks read Python floats; math.hypot neither under- nor
    overflows, so a vector near 1e308 reports its finite norm."""
    if isinstance(p, (list, tuple)) and any(isinstance(x, (bool, np.bool_)) for x in p):
        raise ValueError(f"{name} must have real number entries, got bool")
    v = np.asarray(p)
    if v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must have real number entries, got {v.dtype}")
    v = v.astype(float, copy=False)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    x, y, z = v.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{name} must be finite")
    norm = math.hypot(x, y, z)
    if norm > 1.0 + _NORM_SLACK:
        raise ValueError(f"|{name}| = {norm:.6g} exceeds 1")
    return v


def _as_angle(phi, name: str) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"{name} must be finite")
    return phi


def _resultant(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, float]:
    """p1 + p2 and |p1 + p2|^2 of two validated vectors.

    Raises :class:`LakinFrameUndefined` when |p1 + p2|^2 <= DEGENERATE_TOL2,
    the scan kernel's test, so every route agrees on which pairs have a
    distinguished frame.
    """
    total = v1 + v2
    ps2 = float(np.dot(total, total))
    if ps2 <= DEGENERATE_TOL2:
        raise LakinFrameUndefined("p1 + p2 = 0: no distinguished frame")
    return total, ps2


def _pair(p1, p2):
    """Validated p1 and p2 with their :func:`_resultant`:
    ``(v1, v2, v1 + v2, |p1 + p2|^2)``."""
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    return (v1, v2) + _resultant(v1, v2)


def _cross(a, b) -> tuple[float, float, float]:
    """a x b of two float triples, with the bits of ``np.cross``: numpy
    forms each component as one difference of two products."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _scalar_closed_forms(p1, p2, phi):
    """The scan kernel's closed forms (:func:`_kernel._closed_forms`) at
    one pair and azimuth, from the invariants of the two vectors.
    |p1 + p2|^2 is summed from the vectors, so it keeps its accuracy near
    p1 + p2 = 0, and sin theta = |p1 x p2|/(|p1| |p2|), or 0 where a
    polarization vanishes."""
    v1, v2, _, ps2 = _pair(p1, p2)
    phi = _as_angle(phi, "phi")
    f1 = v1.tolist()
    f2 = v2.tolist()
    # hypot neither under- nor overflows, so sin theta keeps its digits
    # however small a polarization is
    a = math.hypot(*f1)
    b = math.hypot(*f2)
    cross = math.hypot(*_cross(f1, f2))
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


@lru_cache(maxsize=None)
def _product_terms(k1: int, k2: int, k: int, q: int) -> tuple:
    """The terms ``(q1, q2, C(k1 k2 k; q1 q2 q))`` of a rank-k tensor
    product, q1 ascending over |q2| = |q - q1| <= k2. Constants, read
    through :func:`clebsch_gordan` once per (k1, k2, k, q) on first use."""
    return tuple((q1, q - q1, clebsch_gordan(k1, k2, k, q1, q - q1, q))
                 for q1 in range(-k1, k1 + 1) if abs(q - q1) <= k2)


def _tensor_product(x: dict, k1: int, y: dict, k2: int, k: int, q: int) -> complex:
    """(x^{k1} x y^{k2})^k_q, the rank-k tensor product of the spherical
    components x[q1] (rank k1) and y[q2] (rank k2), with the coupling
    coefficients of the constant table :func:`_product_terms`."""
    acc = 0j
    for q1, q2, c in _product_terms(k1, k2, k, q):
        acc += c * x[q1] * y[q2]
    return acc


def _spin_along(v: np.ndarray) -> np.ndarray:
    """S.v of one spin 1/2, half the Pauli matrices dotted with v."""
    sx, sy, sz = spin_matrices(HalfInt(1))
    return v[0] * sx + v[1] * sy + v[2] * sz


def _qubit_density(p: np.ndarray) -> np.ndarray:
    return 0.5 * _I2 + _spin_along(p)


# The triplet states |1 m>, m = 1, 0, -1, as rows over the product basis
# (up up, up dn, dn up, dn dn): |up up>, (|up dn> + |dn up>)/sqrt(2) and
# |dn dn>, written out so that the oracles use no coupling coefficient.
_TRIPLET = np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0],
                     [0.0, 0.0, 0.0, 1.0]], dtype=complex)
_TRIPLET.flags.writeable = False


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
    return _geometry(*_pair(p1, p2))


def _geometry(v1: np.ndarray, v2: np.ndarray, total: np.ndarray,
              ps2: float) -> ChannelFrame:
    """:func:`channel_geometry` of vectors already validated, with
    ``total`` = v1 + v2 and ``ps2`` = |v1 + v2|^2 as :func:`_resultant`
    returns them, so no vector is checked twice."""
    z0 = total / math.sqrt(ps2)
    d1 = np.dot(v1, z0)
    trans = v1 - d1 * z0
    # when p1 and p2 are nearly collinear the subtraction cancels most
    # digits and leaves trans tilted towards z0; projecting once more
    # makes x0 orthogonal to z0 to rounding
    trans -= np.dot(trans, z0) * z0
    tnorm = math.sqrt(float(np.dot(trans, trans)))    # np.linalg.norm's bits
    if tnorm > 1e-12:
        x0 = trans / tnorm
    else:
        # collinear pair: any transverse axis serves; pick deterministically
        seed = np.array([1.0, 0.0, 0.0]) if abs(z0[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x0 = seed - np.dot(seed, z0) * z0
        x0 /= np.linalg.norm(x0)
    y0 = np.array(_cross(z0.tolist(), x0.tolist()))
    comp1 = np.array([np.dot(v1, x0), np.dot(v1, y0), d1])
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
    r1 = math.sqrt(6.0) / den
    r2 = 2.0 * math.sqrt(3.0) / den
    # the T^k_q stack order, t^k_q at entry k*k + k + q; the entries with
    # q < 0 are filled from their partners
    vector = np.zeros(9, dtype=complex)
    vector[2:4] = [r1 * (s1[q] + s2[q]) for q in (0, 1)]
    vector[6:] = [r2 * _tensor_product(s1, 1, s2, 1, 2, q) for q in range(3)]
    params = TensorParams._paired(HalfInt(2), vector)
    try:
        frame = _geometry(v1, v2, *_resultant(v1, v2))
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
    vector = [1.0]    # t^0_0, then t^k_q in stack order
    for k in (1, 2):
        for q in range(-k, k + 1):
            acc = 0j
            for k1 in (0, 1):
                for k2 in (0, 1):
                    w = _recoupling_weight(k1, k2, k)
                    if w == 0.0:
                        continue
                    acc += w * _tensor_product(t1[k1], k1, t2[k2], k2, k, q)
            vector.append(6.0 * math.sqrt(3.0) / den * acc)
    return TensorParams(HalfInt(2), vector)


def project_oracle(p1, p2) -> SpinDensity:
    """Brute-force route: form the 4x4 product matrix, project onto the
    triplet subspace and express it in the |1 m> basis. The result is
    unnormalized; its trace is the triplet probability (3 + p1.p2)/4."""
    v1 = _as_polarization(p1, "p1")
    v2 = _as_polarization(p2, "p2")
    rc = np.kron(_qubit_density(v1), _qubit_density(v2))
    return SpinDensity(HalfInt(2), _TRIPLET.conj() @ rc @ _TRIPLET.T)


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
    # the normalized projection, lifted back onto the product space
    rp = _TRIPLET.T @ project_oracle(v1, v2).normalized_matrix() @ _TRIPLET.conj()

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


def verify_correlations(p1, p2, phi: float) -> list[CorrelationMismatch]:
    """Compare closed forms against the matrix-arithmetic oracle.

    Returns one record per component whose closed form deviates from the
    oracle by more than 1e-10, naming the formula involved. The oracle
    is authoritative; the closed forms are never adjusted.
    """
    return compare_correlations(correlations(p1, p2, phi),
                                correlations_oracle(p1, p2, phi),
                                p1, p2, phi)


def compare_correlations(closed: Correlations, oracle: Correlations, p1, p2,
                         phi: float) -> list[CorrelationMismatch]:
    """:func:`verify_correlations` on a pair already evaluated at
    (p1, p2, phi), for callers that also report the two."""
    out = []
    for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
        c = getattr(closed, comp)
        o = getattr(oracle, comp)
        if abs(c - o) > 1e-10:
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


def _quartic_root(c, sqrt=np.sqrt, sinh=np.sinh, asinh=np.arcsinh):
    """The root u > 1 of u^4 - u^3 = c for 0 < c <= 1, elementwise; the
    root at c = 0, u = 1, is the caller's, since the form below divides
    by zero there. ``sqrt``, ``sinh`` and ``asinh`` are numpy's, or
    math's for a float.

    Ferrari: u^4 - u^3 - c = (u^2 - u/2 + m)^2 - (k u - m/(2k))^2 with
    k^2 = 1/4 + 2m, where w = 2m solves the resolvent w^3 + 4c w + c = 0,
    whose one real root has the hyperbolic form below.
    u is the larger root of u^2 - (1/2 + k) u + m (1 + 1/(2k)) = 0.
    """
    w = -4.0 * sqrt(c / 3.0) * sinh(asinh(3.0 * math.sqrt(3.0) / (16.0 * sqrt(c))) / 3.0)
    k = sqrt(0.25 + w)
    h = 0.5 + k
    return 0.5 * (h + sqrt(h * h - 2.0 * w * (1.0 + 0.5 / k)))


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
    c = d * d
    # c = 0 divides by zero in the root, and 0/0 where a = b = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.minimum(np.where(c == 0.0, 1.0, _quartic_root(c)), a + b)
        half = d / (2.0 * u)
    return (0.5 * u - 0.25 * u * u + 0.5 * (a2 + b2) - half * half - 1.0)[()]


def _boundary_magnitudes(u):
    """(a, b), a <= b, on the boundary max q = 0 where the margin peaks at
    |p1 + p2| = u, for u in [1, 9/8]."""
    s = u * u - 1.5 * u + 2.0
    d = u * math.sqrt(u * u - u)
    return math.sqrt(0.5 * (s - d)), math.sqrt(0.5 * (s + d))


def exact_thresholds() -> tuple[float, float]:
    """The least magnitudes that admit squeezing, ``(equal, vs_pure)``:
    sqrt(3)/2 for |p1| = |p2| (a = b puts the peak at u = 1) and
    sqrt(37)/8 for |p1| against |p2| = 1 (b = 1 turns the boundary into
    3/2 - u = sqrt(u^2 - u), so u = 9/8 and a^2 = 37/64). max_margin
    grows with P along both families, so no smaller P is squeezed."""
    equal, _ = _boundary_magnitudes(1.0)
    vs_pure, _ = _boundary_magnitudes(9.0 / 8.0)
    return equal, vs_pure


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


def _grid_p(i: int, step: float, last: int) -> float:
    """Entry i of ``np.linspace(0, 1, last + 1)``, whose bits are those of
    i * step, with step = 1/last, except the endpoint 1.0."""
    return 1.0 if i == last else i * step


def _start_row(exact: float, step: float, last: int) -> int:
    """The last row whose P lies below ``exact`` by a relative 1e-9, i.e.
    ``count_nonzero(p_values < exact * (1 - 1e-9)) - 1`` on that grid,
    found by stepping from a guess: the grid ascends, so the count is the
    first i with P_i at or above the limit."""
    limit = exact * (1.0 - 1e-9)
    i = min(max(int(limit / step), 0), last)
    while i <= last and _grid_p(i, step, last) < limit:
        i += 1
    while i > 0 and _grid_p(i - 1, step, last) >= limit:
        i -= 1
    return i - 1


# The peak window decides a theta row only where no window point has
# |p1 + p2|^2 at or below _WINDOW_PS2_FLOOR, whose cancellation an ulp of
# cos theta could move, and where its edges and MARGIN_TOL lie at least
# _WINDOW_GAP from the window maximum, far beyond the rounding of q.
_WINDOW_PS2_FLOOR = 1e-6
_WINDOW_GAP = 1e-13


def _theta_grid(theta_step: float, m: int) -> np.ndarray:
    """theta_i = i * theta_step for i = 1..m, the bits of
    ``np.linspace(0, pi, m + 2)[1:-1]`` with theta_step = pi/(m + 1)."""
    return np.arange(1, m + 1) * theta_step


def _row_squeezed(a: float, b: float, theta_step: float, m: int) -> bool:
    """Whether the row |p1| = a, |p2| = b has a squeezed point at phi = 0
    on the grid theta_i = i * theta_step, i = 1..m: the verdict of
    ``(_kernel._margin(a, b, theta, 0.0) > MARGIN_TOL).any()``.

    At phi = 0, q depends on theta only through u = |p1 + p2|, which falls
    as theta grows, and q(u) is concave (see :func:`max_margin`), so the
    row rises to one peak, at theta* with u(theta*) = u*, and then falls.
    q is evaluated on floats at the grid points k - 1 .. k + 2 around
    theta*, k = floor(theta*/theta_step), clipped to 1..m. Where each window
    edge that is not a grid end lies below the window maximum, the grid
    peak is inside the window, so that maximum is the row's; it decides
    the row when it is not within _WINDOW_GAP of MARGIN_TOL, where an ulp
    of math's sin or cos against numpy's could not flip it. Any other row,
    and a row with a near-degenerate window point or a vanishing
    magnitude, is read whole from :func:`_kernel._margin`.
    """
    if a * b > 0.0:
        a2 = a * a
        b2 = b * b
        d = a2 - b2
        c = d * d
        root = _quartic_root(c, sqrt=math.sqrt, sinh=math.sinh,
                             asinh=math.asinh) if c > 0.0 else 1.0
        u = min(root, a + b)
        cos_peak = max(-1.0, min(1.0, (u * u - a2 - b2) / (2.0 * a * b)))
        k = int(math.acos(cos_peak) / theta_step)    # theta_k <= theta* < theta_k+1
        lo = max(k - 1, 1)
        hi = min(k + 2, m)
        window = []
        for i in range(lo, hi + 1):
            _, _, _, ps2, cross, _ = _kernel._invariants(
                a, b, i * theta_step, sin=math.sin, cos=math.cos)
            if ps2 <= _WINDOW_PS2_FLOOR:
                break
            window.append(_kernel._margin_terms(ps2, cross, 1.0, sqrt=math.sqrt)[0])
        else:
            top = max(window)
            if ((lo == 1 or window[0] <= top - _WINDOW_GAP)
                    and (hi == m or window[-1] <= top - _WINDOW_GAP)
                    and abs(top - MARGIN_TOL) >= _WINDOW_GAP):
                return top > MARGIN_TOL
    q = _kernel._margin(a, b, _theta_grid(theta_step, m), 0.0)
    return bool((q > MARGIN_TOL).any())


def threshold_scan(config: ThresholdScanConfig = ThresholdScanConfig()) -> ThresholdScanResult:
    """Least polarization magnitudes that admit squeezing, on a grid.

    (a) equal magnitudes |p1| = |p2| = P: the smallest P on a uniform
    grid over [0, 1] with a squeezed point on the theta grid at phi = 0;
    (b) against a pure partner |p2| = 1: the smallest such |p1|.

    The exact values are :func:`exact_thresholds`, sqrt(3)/2 and
    sqrt(37)/8; the grid values lie at or above them, by at most one P
    step plus the theta-grid refinement error. The grids carry the bits
    of ``np.linspace(0, 1, p_points)`` and of
    ``np.linspace(0, pi, theta_points + 2)[1:-1]``, computed as
    ``np.linspace`` does, index times step.

    Each search starts at the last grid P below its exact threshold by a
    relative 1e-9, where max q is below -5e-10; max q grows with P, so no
    earlier P is squeezed. It goes up one P at a time, and
    :func:`_row_squeezed` decides each row from the few theta points
    around the row's closed-form peak, or from the whole kernel row where
    those cannot decide it. On the default grid the row after each start
    row is squeezed, and four rows of four points are the whole scan. A
    squeezed start row means the kernel contradicts the closed form, and
    raises :class:`RuntimeError`.
    """
    last = int(config.p_points) - 1
    m = int(config.theta_points)
    p_step = 1.0 / last
    theta_step = math.pi / (m + 1)
    found = []
    for bound, pure_partner in zip(exact_thresholds(), (False, True)):
        start = _start_row(bound, p_step, last)
        threshold = math.inf
        for i in range(start, last + 1):
            p = _grid_p(i, p_step, last)
            partner = 1.0 if pure_partner else p
            if not _row_squeezed(p, partner, theta_step, m):
                continue
            if i == start:
                q = _kernel._margin(p, partner, _theta_grid(theta_step, m), 0.0)
                raise RuntimeError(
                    f"the kernel finds P = {p!r} squeezed (q = "
                    f"{float(np.nanmax(q))!r}) below the exact threshold {bound!r}")
            threshold = p
            break
        found.append(threshold)
    return ThresholdScanResult(
        min_polarization_equal=found[0],
        min_polarization_vs_pure=found[1],
        p_resolution=p_step,
        theta_resolution=theta_step,
    )
