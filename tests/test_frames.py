"""Frame rotations of tensor parameters and the distinguished frames."""

import math

import numpy as np
import pytest

from conftest import random_density, random_oriented
from spinsqueeze import (EulerAngles, SpinDensity, TensorParams, analyze,
                         from_tensors, paaf, polarization, rotate_tensors,
                         special_lakin_frame, spin_matrices, to_tensors)
from spinsqueeze.angular import wigner_d_matrix
from spinsqueeze.errors import LakinFrameUndefined, NoAlignment
from spinsqueeze.density import _moments
from spinsqueeze.frames import (alignment_tensor, euler_from_rotation,
                                rotation_matrix)


def random_angles(rng) -> EulerAngles:
    return EulerAngles(rng.uniform(0, 2 * np.pi), np.arccos(rng.uniform(-1, 1)),
                       rng.uniform(0, 2 * np.pi))


def test_identity_rotation_is_noop(rng):
    t = to_tensors(random_density(rng, 3))
    rt = rotate_tensors(t, EulerAngles.identity())
    for (k, q), v in t.items():
        assert rt.get(k, q) == pytest.approx(v, abs=1e-15)


def test_rank1_transforms_like_cartesian_vector(rng):
    # spherical rank-1 rotation must match R^T acting on the polarization
    for _ in range(25):
        rho = random_density(rng, 2)
        angles = random_angles(rng)
        p_rotated_state = polarization(from_tensors(
            rotate_tensors(to_tensors(rho), angles)))
        p_expected = rotation_matrix(angles).T @ polarization(rho)
        assert np.abs(p_rotated_state - p_expected).max() < 1e-12


def test_rank_norms_invariant(rng):
    for ts in (1, 2, 3, 4):
        t = to_tensors(random_density(rng, ts))
        angles = random_angles(rng)
        rt = rotate_tensors(t, angles)
        for k in range(1, ts + 1):
            before = sum(abs(t.get(k, q)) ** 2 for q in range(-k, k + 1))
            after = sum(abs(rt.get(k, q)) ** 2 for q in range(-k, k + 1))
            assert after == pytest.approx(before, abs=1e-12)


def test_rotation_composes(rng):
    t = to_tensors(random_density(rng, 3))
    r1, r2 = random_angles(rng), random_angles(rng)
    combined = euler_from_rotation(rotation_matrix(r1) @ rotation_matrix(r2))
    a = rotate_tensors(rotate_tensors(t, r1), r2)
    b = rotate_tensors(t, combined)
    for (k, q), v in a.items():
        assert b.get(k, q) == pytest.approx(v, abs=1e-12)


def test_euler_extraction_round_trip(rng):
    for _ in range(50):
        angles = random_angles(rng)
        back = euler_from_rotation(rotation_matrix(angles))
        assert np.abs(rotation_matrix(back) - rotation_matrix(angles)).max() < 1e-12
    # gimbal cases
    for beta in (0.0, math.pi):
        r = rotation_matrix(EulerAngles(0.7, beta, 1.1))
        assert np.abs(rotation_matrix(euler_from_rotation(r)) - r).max() < 1e-12


# ---------------------------------------------------------------------------
# special Lakin frame
# ---------------------------------------------------------------------------

def test_already_aligned_state_needs_no_rotation():
    t = TensorParams(1, {(1, 0): 0.9, (2, 0): 0.5, (2, 2): 0.45, (2, -2): 0.45})
    res = special_lakin_frame(from_tensors(t))
    assert res.rotation.alpha == pytest.approx(0.0, abs=1e-12)
    assert res.rotation.beta == pytest.approx(0.0, abs=1e-12)
    assert res.rotation.gamma == pytest.approx(0.0, abs=1e-12)
    for (k, q), v in t.items():
        assert res.params.get(k, q) == pytest.approx(v, abs=1e-12)


def test_rotated_stretched_state_recovers_reference(rng):
    n = 3
    ref = np.zeros((n, n), dtype=complex)
    ref[0, 0] = 1.0
    t_ref = to_tensors(SpinDensity(1, ref))
    for _ in range(20):
        rotated = rotate_tensors(t_ref, random_angles(rng))
        res = special_lakin_frame(from_tensors(rotated))
        for k in (1, 2):
            for q in range(-k, k + 1):
                assert res.params.get(k, q) == pytest.approx(
                    t_ref.get(k, q), abs=1e-10), (k, q)


def test_lakin_invariants_random(rng):
    for ts in (2, 3, 4):
        for _ in range(20):
            rho = random_density(rng, ts)
            if np.linalg.norm(polarization(rho)) < 1e-6:
                continue
            res = special_lakin_frame(rho)
            assert abs(res.params.get(1, 1)) < 1e-10
            assert abs(res.params.get(1, -1)) < 1e-10
            t22 = res.params.get(2, 2)
            assert abs(t22.imag) < 1e-10
            assert t22.real >= -1e-12
            assert res.params.get(2, 2) == pytest.approx(res.params.get(2, -2).conjugate(), abs=1e-12)
            assert res.params.get(1, 0).real > 0


def test_gamma_cancels_tensor_phase():
    # t^2_2 with phase pi/4 and polarization along z: gamma = pi/8 makes it real
    mag = 0.3
    phase = math.pi / 4
    t = TensorParams(1, {(1, 0): 0.8,
                         (2, 2): mag * complex(math.cos(phase), math.sin(phase))})
    res = special_lakin_frame(from_tensors(t))
    assert res.rotation.gamma == pytest.approx(math.pi / 8, abs=1e-12)
    assert res.params.get(2, 2) == pytest.approx(mag, abs=1e-12)


def test_gamma_zero_on_oriented_states_at_large_spin(rng):
    """Oriented states have t^2_2 = 0 in the Lakin frame, so gamma is 0.
    At 2s = 20 the rounding noise in Q reached 1.4e-12, above the old
    absolute cutoff of 8.0e-13, and gamma followed it on 34 of these
    1,000 states."""
    for _ in range(1000):
        rho, _, _ = random_oriented(rng, 20)
        assert analyze(rho).frame.gamma == 0.0


def test_gamma_kept_for_small_t22_at_large_spin():
    """A t^2_2 of 1e-10, far above the noise, still sets gamma at 2s = 20."""
    phase = math.pi / 3
    t = TensorParams(10, {(1, 0): 0.5,
                          (2, 2): 1e-10 * complex(math.cos(phase), math.sin(phase))})
    rho = from_tensors(t)
    assert analyze(rho).frame.gamma == pytest.approx(phase / 2, abs=1e-4)
    assert special_lakin_frame(rho).rotation.gamma == \
        pytest.approx(phase / 2, abs=1e-4)


@pytest.mark.parametrize("ts", [1, 2, 3, 6, 12, 20, 33, 40])
def test_mean_and_covariance_floats_are_the_array_form(ts):
    """The floats of _moments are Tr(rho S_a)/Tr rho and
    Tr(rho {S_a, S_b}/2)/Tr rho for ab = xx, xy, xz, yy, yz, zz, from the
    spin matrices, and the covariance the frames form from them is the
    same expression of those traces, at any trace."""
    rng = np.random.default_rng([ts, 27])
    spins = spin_matrices(ts / 2)
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    ops = [(spins[a] @ spins[b] + spins[b] @ spins[a]) / 2 for a, b in pairs]
    tol = 1e-15 * (ts / 2) * (ts / 2 + 1)
    for rho in (random_density(rng, ts), random_density(rng, ts, pure=True),
                random_density(rng, ts, trace=3.7), random_oriented(rng, ts)[0]):
        mean, second = _moments(rho)
        assert all(type(v) is float for v in (*mean, *second))
        want_mean = [np.trace(rho.matrix @ op).real / rho.trace for op in spins]
        want_second = [np.trace(rho.matrix @ op).real / rho.trace for op in ops]
        assert np.abs(np.subtract(mean, want_mean)).max() <= tol
        assert np.abs(np.subtract(second, want_second)).max() <= tol
        for (a, b), xy, want_xy in zip(pairs, second, want_second):
            cov = xy - mean[a] * mean[b]
            assert abs(cov - (want_xy - want_mean[a] * want_mean[b])) <= tol


def test_unpolarized_state_has_no_lakin_frame():
    with pytest.raises(LakinFrameUndefined):
        special_lakin_frame(SpinDensity(1, np.eye(3) / 3))


# ---------------------------------------------------------------------------
# principal axes of alignment
# ---------------------------------------------------------------------------

def test_axial_state_is_already_principal():
    t = TensorParams(1, {(2, 0): 0.4})
    res = paaf(from_tensors(t))
    assert res.rotation.alpha == pytest.approx(0.0, abs=1e-12)
    assert res.rotation.beta == pytest.approx(0.0, abs=1e-12)
    assert res.params.get(2, 0) == pytest.approx(0.4, abs=1e-12)


def test_pure_t22_state_principal_axes():
    t = TensorParams(1, {(2, 2): 0.3, (2, -2): 0.3})
    res = paaf(from_tensors(t))
    assert abs(res.params.get(2, 1)) < 1e-10
    assert abs(res.params.get(2, -1)) < 1e-10
    assert abs(res.params.get(2, 2).imag) < 1e-10
    # a real t^2_2 tilts the alignment within the x-y plane: the post-
    # rotation frame reshuffles the axes, and the eigenvalues transfer
    a_before = np.sort(np.linalg.eigvalsh(alignment_tensor(from_tensors(t))))
    a_after = np.sort(np.linalg.eigvalsh(alignment_tensor(from_tensors(res.params))))
    assert np.abs(a_before - a_after).max() < 1e-12


def test_imaginary_t22_diagonalized_by_bisector_rotation():
    # purely imaginary t^2_2 puts the alignment on the x/y bisectors;
    # the principal-axes rotation must kill it
    t = TensorParams(1, {(2, 2): 0.3j})
    a = alignment_tensor(from_tensors(t))
    assert abs(a[0, 1]) > 1e-3          # off-diagonal before
    res = paaf(from_tensors(t))
    assert abs(res.params.get(2, 2).imag) < 1e-10
    assert abs(res.params.get(2, 1)) < 1e-10


def test_paaf_invariants_random(rng):
    for ts in (2, 3, 4):
        for _ in range(20):
            rho = random_density(rng, ts)
            res = paaf(rho)
            assert abs(res.params.get(2, 1)) < 1e-10
            assert abs(res.params.get(2, -1)) < 1e-10
            assert abs(res.params.get(2, 2).imag) < 1e-10


def _spin1_along_x(populations) -> SpinDensity:
    """A spin-1 state diagonal in the |1 m> basis quantized along x."""
    u = wigner_d_matrix(1, EulerAngles(0.0, math.pi / 2, 0.0))
    return SpinDensity(1, u @ np.diag(populations).astype(complex) @ u.conj().T)


@pytest.mark.parametrize("rho", [
    # m = 0 along z: the top pair is degenerate and its free plane, x-y,
    # has no z component, so the z slot falls back to the x axis
    SpinDensity(1, np.diag([0.0, 1.0, 0.0]).astype(complex)),
    # m = +-1 along x: the bottom pair is degenerate and its free plane,
    # y-z, has no x component, so the x slot falls back to the y axis
    _spin1_along_x([0.5, 0.0, 0.5]),
], ids=["top-pair", "bottom-pair"])
def test_paaf_degenerate_pairs(rho):
    res = paaf(rho)
    assert abs(res.params.get(2, 1)) < 1e-12
    assert abs(res.params.get(2, -1)) < 1e-12
    assert abs(res.params.get(2, 2).imag) < 1e-12
    # right-handed, with the eigenvalues in the slots z >= x >= y
    assert np.linalg.det(rotation_matrix(res.rotation)) == pytest.approx(1.0, abs=1e-12)
    a = alignment_tensor(from_tensors(res.params))
    assert np.abs(a - np.diag(np.diag(a))).max() < 1e-12
    assert a[2, 2] >= a[0, 0] - 1e-12 and a[0, 0] >= a[1, 1] - 1e-12
    assert paaf(rho).rotation == res.rotation


def test_paaf_eigenvalues_rotation_invariant(rng):
    rho = random_density(rng, 2)
    base = np.sort(np.linalg.eigvalsh(alignment_tensor(rho)))
    for _ in range(10):
        rotated = from_tensors(rotate_tensors(to_tensors(rho), random_angles(rng)))
        vals = np.sort(np.linalg.eigvalsh(alignment_tensor(rotated)))
        assert np.abs(vals - base).max() < 1e-12


def test_paaf_requires_alignment():
    with pytest.raises(NoAlignment):
        paaf(from_tensors(TensorParams(1, {(1, 0): 0.5})))
    with pytest.raises(NoAlignment):
        paaf(from_tensors(TensorParams("1/2", {(1, 0): 0.5})))
