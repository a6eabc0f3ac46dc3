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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import EulerAngles, wigner_d_matrix
from .density import SpinDensity, TensorParams, polarization, to_tensors
from .errors import LakinFrameUndefined, NoAlignment
from .tensor_ops import spin_matrices

__all__ = ["FrameResult", "rotate_tensors", "special_lakin_frame", "paaf",
           "rotation_matrix", "euler_from_rotation"]

POLARIZATION_TOL = 1e-10


@dataclass(frozen=True)
class FrameResult:
    """A frame rotation together with the tensor parameters in that frame."""

    rotation: EulerAngles
    params: TensorParams


def _rotate_rank(t: TensorParams, k: int, angles: EulerAngles) -> np.ndarray:
    """Rank-k parameters in the rotated frame, ordered q = k..-k. A rank
    that vanishes (or that the spin lacks) is returned as zeros, without
    building its D matrix."""
    old = np.array([t.get(k, qp) for qp in range(k, -k - 1, -1)])
    if not np.any(old):
        return old
    return wigner_d_matrix(k, angles).T @ old   # new_q = sum_{q'} D_{q'q} old_{q'}


def rotate_tensors(t: TensorParams, angles: EulerAngles) -> TensorParams:
    """Express tensor parameters in the rotated frame.

    Preserves the conjugation pairing and the rotational invariants
    sum_q |t^k_q|^2 for every rank.
    """
    entries = {}
    for k in range(1, t.max_rank + 1):
        new = _rotate_rank(t, k, angles)
        if not np.any(new):
            continue
        for idx, q in enumerate(range(k, -k - 1, -1)):
            entries[(k, q)] = complex(new[idx])
    return TensorParams(t.spin, entries, trace=t.trace)


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """Active z-y-z rotation matrix; its columns are the rotated frame axes."""
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    rz1 = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz2 = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz1 @ ry @ rz2


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


def _lakin_rotation(rho: SpinDensity) -> tuple[EulerAngles, TensorParams]:
    """The rotation of :func:`special_lakin_frame` and the tensor
    parameters in the input frame. gamma comes from rank 2 alone."""
    p = polarization(rho)
    norm = float(np.linalg.norm(p))
    if norm <= POLARIZATION_TOL * rho.spin.value:
        raise LakinFrameUndefined(
            f"|polarization| = {norm:.3e} is below threshold; no preferred frame")
    theta = math.acos(max(-1.0, min(1.0, p[2] / norm)))
    phi = math.atan2(p[1], p[0])
    t = to_tensors(rho)
    gamma = 0.0
    t22 = _rotate_rank(t, 2, EulerAngles(phi, theta, 0.0))[0]
    if abs(t22) > 1e-14:
        gamma = 0.5 * math.atan2(t22.imag, t22.real)
        if gamma < 0:
            gamma += math.pi
    return EulerAngles(phi, theta, gamma), t


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
    rotation, t = _lakin_rotation(rho)
    return FrameResult(rotation, rotate_tensors(t, rotation))


def alignment_tensor(rho: SpinDensity) -> np.ndarray:
    """Traceless symmetric Cartesian rank-2 moment
    <(S_a S_b + S_b S_a)/2> - delta_ab s(s+1)/3."""
    spins = spin_matrices(rho.spin)
    tr = rho.trace
    sv = rho.spin.value
    a = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            sym = (spins[i] @ spins[j] + spins[j] @ spins[i]) / 2.0
            a[i, j] = a[j, i] = np.trace(rho.matrix @ sym).real / tr
    return a - np.eye(3) * (sv * (sv + 1) / 3.0)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(v))
    return -v if v[lead] < 0 else v


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
    evals, evecs = np.linalg.eigh(a)            # ascending
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
