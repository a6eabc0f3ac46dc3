"""Coordinate-frame transformations of tensor parameters.

Tensor parameters transform rank by rank under a frame rotation
R(alpha, beta, gamma):

    (t^k_q)_new = sum_{q'} D^k_{q'q}(alpha, beta, gamma) (t^k_{q'})_old.

Two distinguished frames are constructed here. The vector-polarization
frame ("Lakin frame") points its z-axis along <S>, killing t^1_{+-1};
the special variant additionally rotates about the new z-axis until
t^2_2 is real and non-negative. The principal-axes-of-alignment frame
diagonalizes the Cartesian rank-2 alignment tensor, killing t^2_{+-1}
and the imaginary part of t^2_2.

Both frames are found from the first and second spin moments alone,
as read by ``density._moments``: the Lakin rotation from the mean spin
and the 3x3 spin covariance, whose transverse principal axes are the
special frame's x and y axes, and the principal axes from the alignment
tensor.
Only :func:`rotate_tensors` uses Wigner-D matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .angular import EulerAngles, wigner_d_matrix
from .density import (SpinDensity, TensorParams, _canonical_sign, _moments,
                      to_tensors)
from .errors import LakinFrameUndefined, NoAlignment

__all__ = ["FrameResult", "rotate_tensors", "special_lakin_frame", "paaf",
           "rotation_matrix", "euler_from_rotation"]

POLARIZATION_TOL = 1e-10
# gamma follows t^2_2 only where |Q_xx - Q_yy + 2i Q_xy| exceeds this
# fraction of Tr Q; see _lakin_frame
_GAMMA_REL_TOL = 1e-12


@dataclass(frozen=True)
class FrameResult:
    """A frame rotation together with the tensor parameters in that frame."""

    rotation: EulerAngles
    params: TensorParams


def rotate_tensors(t: TensorParams, angles: EulerAngles) -> TensorParams:
    """Express tensor parameters in the rotated frame.

    Preserves the conjugation pairing and the rotational invariants
    sum_q |t^k_q|^2 for every rank. A rank that vanishes is left as it
    is, without building its D matrix.
    """
    vec = t.vector.copy()
    for k in range(1, t.max_rank + 1):
        # a contiguous copy, ordered q = k..-k: matmul sums a reversed
        # view in another order
        old = vec[k * k:(k + 1) ** 2][::-1].copy()
        if np.any(old):
            new = wigner_d_matrix(k, angles).T @ old   # new_q = sum_{q'} D_{q'q} old_{q'}
            vec[k * k:(k + 1) ** 2] = new[::-1]
    return TensorParams(t.spin, vec, trace=t.trace)


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """Active z-y-z rotation matrix R_z(alpha) R_y(beta) R_z(gamma),
    written out as one array; its columns are the rotated frame axes."""
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    return np.array([ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb,
                     sa * cb * cg + ca * sg, ca * cg - sa * cb * sg, sa * sb,
                     -sb * cg, sb * sg, cb]).reshape(3, 3)


def euler_from_rotation(r: np.ndarray) -> EulerAngles:
    """Invert :func:`rotation_matrix` (z-y-z convention, gimbal-safe)."""
    beta = math.acos(max(-1.0, min(1.0, float(r[2, 2]))))
    if math.sin(beta) > 1e-12:
        alpha = math.atan2(float(r[1, 2]), float(r[0, 2]))
        gamma = math.atan2(float(r[2, 1]), -float(r[2, 0]))
    else:
        # beta = 0 or pi: only alpha -+ gamma is defined; put it all in alpha
        if r[2, 2] > 0:
            alpha = math.atan2(float(r[1, 0]), float(r[0, 0]))
        else:
            alpha = math.atan2(-float(r[0, 1]), -float(r[0, 0]))
        gamma = 0.0
    return EulerAngles(alpha, beta, gamma)


def _lakin_frame(spin, mean: tuple,
                 second: tuple) -> tuple[EulerAngles, float, float, float, float]:
    """The rotation of :func:`special_lakin_frame` from the first and
    second spin moments, with |<S>|, the covariance on the rotated x and
    y axes, and the azimuth of the smaller one from the x axis:
    ``(rotation, norm, vx, vy, phi_min)``. ``mean`` and ``second`` are the
    floats of ``density._moments``; the covariance
    cov_ab = <(S_a S_b + S_b S_a)/2> - <S_a><S_b> is formed from them
    once the polarization is known to be large enough.

    alpha and beta point z along the mean spin; gamma rotates the
    transverse covariance Q = R(alpha, beta, 0)^T cov R(alpha, beta, 0)
    to its principal axes. In the R(alpha, beta, 0) frame
    t^2_2 = (Q_xx - Q_yy + 2i Q_xy) / (2 c2), with c2 =
    spin_scale_rank2(s), so this gamma makes t^2_2 real and non-negative,
    and the x and y variances become the principal values
    (Q_xx + Q_yy)/2 +- |Q_xx - Q_yy + 2i Q_xy|/2 of the transverse block.
    Then vx > vy and phi_min = pi/2. Where gamma stays 0, Q is isotropic
    to rounding and phi_min = 0, whichever of vx and vy the rounding
    made smaller.
    """
    x, y, z = mean
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= POLARIZATION_TOL * spin.value:
        raise LakinFrameUndefined(
            f"|polarization| = {norm:.3e} is below threshold; no preferred frame")
    theta = math.acos(max(-1.0, min(1.0, z / norm)))
    phi = math.atan2(y, x)
    # Q_xx, Q_xy and Q_yy from the x and y axes of R(alpha, beta, 0),
    # (ca cb, sa cb, -sb) and (-sa, ca, 0), in floats; Tr Q = Tr cov
    ca, sa = math.cos(phi), math.sin(phi)
    cb, sb = math.cos(theta), math.sin(theta)
    ux, uy, uz = ca * cb, sa * cb, -sb
    xx, xy, xz, yy, yz, zz = second
    cxx = xx - x * x
    cxy = xy - x * y
    cxz = xz - x * z
    cyy = yy - y * y
    cyz = yz - y * z
    czz = zz - z * z
    wx = cxx * ux + cxy * uy + cxz * uz      # cov applied to the x axis
    wy = cxy * ux + cyy * uy + cyz * uz
    wz = cxz * ux + cyz * uy + czz * uz
    qxx = ux * wx + uy * wy + uz * wz
    qxy = ca * wy - sa * wx
    qyy = sa * sa * cxx - 2.0 * sa * ca * cxy + ca * ca * cyy
    gamma, vx, vy, phi_min = 0.0, qxx, qyy, 0.0
    split = math.hypot(qxx - qyy, 2.0 * qxy)
    # Below the cutoff t^2_2 is rounding noise and gamma stays 0, as for
    # spin 1/2, which has no rank 2 (c2 = 0). The noise grows with the
    # size of Q, so the cutoff is relative to its trace, the total spin
    # variance: at 2s = 20 the noise reached 1.1e-15 Tr Q on 1,000
    # oriented states, whose t^2_2 vanishes (tests/conftest.py
    # random_oriented, seed 20240817).
    if spin.twice > 1 and split > _GAMMA_REL_TOL * abs(cxx + cyy + czz):
        gamma = 0.5 * math.atan2(2.0 * qxy, qxx - qyy)
        if gamma < 0:
            gamma += math.pi
        mid = 0.5 * (qxx + qyy)
        # split/2 exceeds 5e-13 mid, far above mid's rounding: vx > vy
        vx, vy, phi_min = mid + 0.5 * split, mid - 0.5 * split, 0.5 * math.pi
    return EulerAngles._of_floats(phi, theta, gamma), norm, vx, vy, phi_min


def special_lakin_frame(rho: SpinDensity) -> FrameResult:
    """Rotate to the frame with z along the polarization and t^2_2 real.

    The frame is reached by rotating about z through the polarization
    azimuth, about the new y through its polar angle, and finally about
    the new z through the angle gamma in [0, pi) that makes t^2_2 real
    and non-negative (t^2_2 picks up exp(-2i gamma) under a z-rotation).

    Raises :class:`LakinFrameUndefined` when the polarization vanishes;
    every frame is then equivalent and the squeezing analysis rejects
    the state separately.
    """
    rotation = _lakin_frame(rho.spin, *_moments(rho))[0]
    return FrameResult(rotation, rotate_tensors(to_tensors(rho), rotation))


def alignment_tensor(rho: SpinDensity) -> np.ndarray:
    """Traceless symmetric Cartesian rank-2 moment
    <(S_a S_b + S_b S_a)/2> - delta_ab s(s+1)/3."""
    sv = rho.spin.value
    xx, xy, xz, yy, yz, zz = _moments(rho)[1]
    return (np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
            - np.eye(3) * (sv * (sv + 1) / 3.0))


def _unit_projection(target: np.ndarray, normal: np.ndarray):
    """Unit component of target orthogonal to normal, or None if parallel."""
    v = target - np.dot(target, normal) * normal
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1e-8 else None


def paaf(rho: SpinDensity) -> FrameResult:
    """Rotate to the principal axes of the alignment tensor.

    Eigenvalues sorted descending map to the axes (z, x, y); the y-axis
    is z cross x so the frame is right-handed. Within a degenerate
    eigenvalue pair the basis is free and is chosen closest to the input
    axes, so already-principal states get the identity rotation. In the
    resulting frame t^2_{+-1} = 0 and t^2_2 is real. The eigenvalues are
    rotation invariants, making the frame unique up to axis renaming.

    Raises :class:`NoAlignment` when every rank-2 parameter vanishes.
    """
    a = alignment_tensor(rho)
    if np.abs(a).max() < 1e-12:
        raise NoAlignment("all rank-2 tensor parameters vanish")
    evals, evecs = _lapack.eigh(a)              # ascending
    vals = evals[::-1]                          # slots z, x, y
    vecs = evecs[:, ::-1]
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    ex, ey, ez = np.eye(3)
    if vals[0] - vals[1] > tol and vals[1] - vals[2] > tol:
        z0 = _canonical_sign(vecs[:, 0])
        x0 = _canonical_sign(vecs[:, 1])
    elif vals[0] - vals[1] <= tol:
        # top pair degenerate: the y slot is fixed, the (z, x) plane is free
        y_fixed = _canonical_sign(vecs[:, 2])
        z0 = _unit_projection(ez, y_fixed)
        if z0 is None:
            z0 = _unit_projection(ex, y_fixed)
        x0 = np.cross(y_fixed, z0)
    else:
        # bottom pair degenerate: the z slot is fixed, the (x, y) plane is free
        z0 = _canonical_sign(vecs[:, 0])
        x0 = _unit_projection(ex, z0)
        if x0 is None:
            x0 = _unit_projection(ey, z0)
    y0 = np.cross(z0, x0)
    rotation = euler_from_rotation(np.column_stack([x0, y0, z0]))
    return FrameResult(rotation, rotate_tensors(to_tensors(rho), rotation))
