"""Exact symmetries as oracles for analyze() and classify_orientation().

Two rotations act exactly in floating point on a density matrix in the
|s m> basis, m = s..-s:

- by pi/2 about z, exp(-i pi S_z / 2) multiplies entry (m, m') by
  (-i)^(m - m'), a phase from {1, -i, -1, i}; <S> = (x, y, z) becomes
  (-y, x, z);
- by pi about y, exp(-i pi S_y) sends |s m> to (-1)^(s-m) |s -m> up to a
  phase common to every column, so the basis is reversed with the signs
  (-1)^(s-m) on both sides; <S> becomes (-x, y, -z).

Neither route is an SVD or a frame search, so the results of the
rotated state can be predicted from those of the state itself. Of the
frame angles only alpha and beta, the direction of <S>, are compared:
gamma is fixed only up to the choices the frame makes.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_density, random_oriented
from spinsqueeze import HalfInt, SpinDensity, analyze, classify_orientation
from spinsqueeze.density import _canonical_sign

# the rotation of a Cartesian vector that goes with each state rotation
_AXIS_MAPS = {
    "z": lambda v: np.array([-v[1], v[0], v[2]]),
    "y": lambda v: np.array([-v[0], v[1], -v[2]]),
}


def _rotated(rho: SpinDensity, about: str) -> SpinDensity:
    n = rho.dim
    i = np.arange(n)
    if about == "z":
        phase = np.array([1, -1j, -1, 1j])[(i[None, :] - i[:, None]) % 4]
        return SpinDensity(rho.spin, rho.matrix * phase)
    sign = 1.0 - 2.0 * (i % 2)
    return SpinDensity(rho.spin, sign[:, None] * rho.matrix[::-1, ::-1] * sign)


@st.composite
def _states(draw):
    """Mixed, pure, rank-2 and oriented states at 2s = 1..40."""
    ts = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["mixed", "pure", "rank-2", "oriented"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "oriented":
        return random_oriented(rng, ts)[0]
    if kind == "rank-2":
        g = rng.normal(size=(ts + 1, 2)) + 1j * rng.normal(size=(ts + 1, 2))
        return SpinDensity(HalfInt(ts), g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return random_density(rng, ts, pure=kind == "pure")


@settings(deadline=None, max_examples=150)
@given(_states(), st.sampled_from(["z", "y"]))
def test_orientation_follows_exact_rotations(rho, about):
    """The rotated state has the same verdict; an oriented one has the
    rotated axis and the same populations, reversed where the canonical
    sign flips the rotated axis."""
    rep = classify_orientation(rho)
    rot = classify_orientation(_rotated(rho, about))
    assert rot.oriented == rep.oriented
    if not rep.oriented:
        return
    turned = _AXIS_MAPS[about](rep.axis)
    axis = _canonical_sign(turned)
    flipped = not np.array_equal(axis, turned)
    assert np.abs(rot.axis - axis).max() < 1e-12
    want = rep.populations[::-1] if flipped else rep.populations
    assert np.abs(rot.populations - want).max() < 1e-12


@settings(deadline=None, max_examples=150)
@given(_states(), st.sampled_from(["z", "y"]))
def test_analysis_follows_exact_rotations(rho, about):
    """The rotated state has the same verdict and phi_min, and variances
    equal to 1e-14 s(s+1). Under the z rotation <S> is rotated exactly,
    so the mean spin direction is too and sz_half keeps its bits."""
    rep = analyze(rho)
    rot = analyze(_rotated(rho, about))
    assert (rot.squeezed, rot.reason) == (rep.squeezed, rep.reason)
    assert rot.phi_min == rep.phi_min
    sv = rho.spin.value
    tol = 1e-14 * sv * (sv + 1)
    for name in ("variance_x0", "variance_y0", "min_variance", "sz_half"):
        assert abs(getattr(rot, name) - getattr(rep, name)) <= tol, name
    if about == "z":
        assert rot.sz_half == rep.sz_half
        assert np.array_equal(rot.mean_spin, _AXIS_MAPS["z"](rep.mean_spin))


def _wrapped(angle: float) -> float:
    """angle mod 2 pi, in [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


@settings(deadline=None, max_examples=150)
@given(_states(), st.sampled_from(["z", "y"]))
def test_frame_angles_follow_exact_rotations(rho, about):
    """The frame's alpha and beta point z along <S>. The z rotation adds
    pi/2 to alpha and keeps the bits of beta; the y rotation takes alpha
    to pi - alpha and beta to pi - beta. A mean spin within 1e-6 rad of
    the z axis leaves alpha ill-conditioned and is skipped."""
    frame = analyze(rho).frame
    assume(1e-6 < frame.beta < math.pi - 1e-6)
    rot = analyze(_rotated(rho, about)).frame
    if about == "z":
        assert rot.beta == frame.beta
        assert abs(_wrapped(rot.alpha - frame.alpha - 0.5 * math.pi)) < 1e-12
    else:
        assert abs(rot.beta - (math.pi - frame.beta)) < 1e-12
        assert abs(_wrapped(rot.alpha - (math.pi - frame.alpha))) < 1e-12
