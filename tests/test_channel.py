"""Channel spin-1 coupling of two polarized qubits.

Every closed form is checked against at least one independent route:
the 9-j recoupling contraction, the brute-force 4x4 projection, or direct
matrix arithmetic on the projected state.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scan_oracle
from conftest import random_polarization
from spinsqueeze import (ThresholdScanConfig, analyze,
                         channel_geometry, channel_squeezing, correlations,
                         correlations_oracle, couple_spin1, couple_spin1_9j,
                         project_oracle, threshold_scan, to_tensors,
                         verify_correlations)
from spinsqueeze import _kernel
from spinsqueeze.errors import LakinFrameUndefined
from spinsqueeze.scan import MAX_SCAN_ROWS

EZ = np.array([0.0, 0.0, 1.0])


def tilted(mag: float, theta: float) -> np.ndarray:
    return mag * np.array([math.sin(theta), 0.0, math.cos(theta)])


# ---------------------------------------------------------------------------
# coupling routes
# ---------------------------------------------------------------------------

def test_unpolarized_product():
    st = couple_spin1([0, 0, 0], [0, 0, 0])
    assert st.weight == pytest.approx(0.25, abs=1e-15)
    assert all(abs(v) < 1e-15 for _, v in st.params.items())
    assert st.triplet_probability == pytest.approx(0.75, abs=1e-15)


def test_parallel_pure_reproduces_stretched_state():
    st = couple_spin1(EZ, EZ)
    assert st.weight == pytest.approx(1 / 3, abs=1e-15)
    assert st.params.get(1, 0).real == pytest.approx(math.sqrt(6) / 2, abs=1e-14)
    assert st.params.get(2, 0).real == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    proj = project_oracle(EZ, EZ)
    assert proj.trace == pytest.approx(1.0, abs=1e-15)
    assert np.abs(proj.matrix - np.diag([1.0, 0, 0])).max() < 1e-14


def test_antiparallel_pure_loses_polarization():
    st = couple_spin1(EZ, -EZ)
    assert st.weight == pytest.approx(1 / 6, abs=1e-15)
    for q in (-1, 0, 1):
        assert abs(st.params.get(1, q)) < 1e-15
    assert st.params.get(2, 0).real == pytest.approx(-math.sqrt(2), abs=1e-14)
    assert st.frame is None
    with pytest.raises(LakinFrameUndefined):
        channel_geometry(EZ, -EZ)


def test_polarization_magnitude_validated():
    with pytest.raises(ValueError):
        couple_spin1([0, 0, 1.001], EZ)


@pytest.mark.parametrize("func", [channel_squeezing, correlations,
                                  correlations_oracle, verify_correlations])
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_rejected(func, phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        func(tilted(0.9, 0.0), tilted(0.85, 1.0), phi)


def test_projection_trace_is_triplet_probability(rng):
    for _ in range(50):
        p1 = random_polarization(rng)
        p2 = random_polarization(rng)
        proj = project_oracle(p1, p2)
        assert proj.trace == pytest.approx(
            (3 + float(np.dot(p1, p2))) / 4, abs=1e-13)


def test_three_routes_agree(rng):
    for _ in range(200):
        p1 = random_polarization(rng)
        p2 = random_polarization(rng)
        closed = couple_spin1(p1, p2).params
        ninej = couple_spin1_9j(p1, p2)
        oracle = to_tensors(project_oracle(p1, p2))
        for k in (1, 2):
            for q in range(-k, k + 1):
                assert abs(closed.get(k, q) - ninej.get(k, q)) < 1e-12
                assert abs(closed.get(k, q) - oracle.get(k, q)) < 1e-12


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_geometry_perpendicular_pure():
    p1 = tilted(1.0, 0.0)
    p2 = tilted(1.0, math.pi / 2)
    frame = channel_geometry(p1, p2)
    inv_r2 = 1 / math.sqrt(2)
    assert frame.p1_components[0] == pytest.approx(inv_r2, abs=1e-12)
    assert frame.p2_components[0] == pytest.approx(-inv_r2, abs=1e-12)
    assert frame.p1_components[2] == pytest.approx(inv_r2, abs=1e-12)
    assert frame.p2_components[2] == pytest.approx(inv_r2, abs=1e-12)
    assert abs(frame.p1_components[1]) < 1e-14
    assert abs(frame.p2_components[1]) < 1e-14


def test_geometry_matches_printed_formulas(rng):
    for _ in range(100):
        p1 = random_polarization(rng, 0.05)
        p2 = random_polarization(rng, 0.05)
        ps = np.linalg.norm(p1 + p2)
        if ps < 1e-6:
            continue
        frame = channel_geometry(p1, p2)
        m1, m2 = np.linalg.norm(p1), np.linalg.norm(p2)
        sin_t = np.linalg.norm(np.cross(p1, p2)) / (m1 * m2)
        cos_t = float(np.dot(p1, p2)) / (m1 * m2)
        assert frame.p1_components[0] == pytest.approx(m1 * m2 * sin_t / ps, abs=1e-12)
        assert frame.p2_components[0] == pytest.approx(-m1 * m2 * sin_t / ps, abs=1e-12)
        assert frame.p1_components[2] == pytest.approx(
            (m1 ** 2 + m1 * m2 * cos_t) / ps, abs=1e-12)
        assert frame.p2_components[2] == pytest.approx(
            (m2 ** 2 + m1 * m2 * cos_t) / ps, abs=1e-12)
        assert abs(frame.p1_components[1]) < 1e-12
        assert abs(frame.p2_components[1]) < 1e-12


def test_geometry_round_trip(rng):
    for _ in range(50):
        p1 = random_polarization(rng, 0.05)
        p2 = random_polarization(rng, 0.05)
        if np.linalg.norm(p1 + p2) < 1e-6:
            continue
        f = channel_geometry(p1, p2)
        basis = np.column_stack([f.x0, f.y0, f.z0])
        assert np.abs(basis @ f.p1_components - p1).max() < 1e-12
        assert np.abs(basis @ f.p2_components - p2).max() < 1e-12


def test_geometry_handedness(rng):
    for _ in range(20):
        p1 = random_polarization(rng, 0.1)
        p2 = random_polarization(rng, 0.1)
        if np.linalg.norm(p1 + p2) < 1e-6:
            continue
        f = channel_geometry(p1, p2)
        assert np.array_equal(f.y0, np.cross(f.z0, f.x0))


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def test_parallel_polarizations_never_squeeze(rng):
    for mag1, mag2 in ((1.0, 1.0), (0.9, 0.4), (0.2, 0.7)):
        for phi in (0.0, 0.7, math.pi / 2):
            r = channel_squeezing(mag1 * EZ, mag2 * EZ, phi)
            assert not r.squeezed
            assert r.q_value <= 1e-12


def test_perpendicular_pure_squeezing_point():
    r = channel_squeezing(tilted(1, 0), tilted(1, math.pi / 2), 0.0)
    assert r.squeezed
    assert r.q_value == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-14)
    assert r.variance_perp == pytest.approx(0.5 * 2 * (2 - 1) / 3 / 1, abs=1e-12)
    assert r.sz_expect == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)


def test_degenerate_sum_rejected():
    with pytest.raises(LakinFrameUndefined):
        channel_squeezing(EZ, -EZ, 0.0)


def test_closed_form_agrees_with_generic_analyzer(rng):
    for _ in range(150):
        p1 = random_polarization(rng)
        p2 = random_polarization(rng)
        if np.linalg.norm(p1 + p2) < 1e-3:
            continue
        ch = channel_squeezing(p1, p2, 0.0)
        rep = analyze(project_oracle(p1, p2))
        assert ch.squeezed == rep.squeezed
        # q_value is the analyzer margin rescaled by (3 + p1.p2)/2
        den = (3 + float(np.dot(p1, p2))) / 2
        assert ch.q_value == pytest.approx(den * rep.q_margin, abs=1e-10)
        assert ch.variance_perp == pytest.approx(rep.min_variance, abs=1e-10)
        assert 0.5 * ch.sz_expect == pytest.approx(rep.sz_half, abs=1e-10)


def test_pure_limit_reduces_to_half_angle_form(rng):
    # for pure states the margin is exactly |cos x| - cos^2 x at x = theta/2
    for theta in rng.uniform(1e-3, math.pi - 1e-3, size=200):
        q = channel_squeezing(tilted(1, 0), tilted(1, theta), 0.0).q_value
        x = theta / 2
        assert q == pytest.approx(abs(math.cos(x)) - math.cos(x) ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def test_parallel_pure_has_no_correlations():
    closed = correlations(EZ, EZ, 0.0)
    oracle = correlations_oracle(EZ, EZ, 0.0)
    for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
        assert abs(getattr(closed, comp)) < 1e-14
        assert abs(getattr(oracle, comp)) < 1e-14


def test_closed_xy_always_zero(rng):
    for _ in range(20):
        p1 = random_polarization(rng, 0.1)
        p2 = random_polarization(rng, 0.1)
        if np.linalg.norm(p1 + p2) < 1e-6:
            continue
        assert correlations(p1, p2, rng.uniform(0, 2 * math.pi)).xy == 0.0


def test_symmetric_magnitudes_kill_cross_terms(rng):
    for _ in range(20):
        theta = rng.uniform(0.2, math.pi - 0.2)
        mag = rng.uniform(0.3, 1.0)
        c = correlations(tilted(mag, 0), tilted(mag, theta), 0.0)
        assert c.xz == pytest.approx(0.0, abs=1e-14)
        assert c.zy == pytest.approx(0.0, abs=1e-14)


def test_components_with_faithful_closed_forms(rng):
    # xx, yy, xz, zy match matrix arithmetic everywhere
    for _ in range(150):
        p1 = random_polarization(rng, 0.05)
        p2 = random_polarization(rng, 0.05)
        if np.linalg.norm(p1 + p2) < 1e-3:
            continue
        phi = rng.uniform(0, 2 * math.pi)
        closed = correlations(p1, p2, phi)
        oracle = correlations_oracle(p1, p2, phi)
        for comp in ("xx", "yy", "xz", "zy"):
            assert getattr(closed, comp) == pytest.approx(
                getattr(oracle, comp), abs=1e-12), comp


def test_zz_discrepancy_is_detected_and_explained(rng):
    """The published C_zz groups the angular term as a bare sin^2(theta);
    matrix arithmetic shows the consistent grouping is |p1 x p2|^2. The
    mismatch reporter must flag zz (and xy away from the axes) and
    nothing else."""
    flagged_zz = 0
    for _ in range(50):
        p1 = random_polarization(rng, 0.2)
        p2 = random_polarization(rng, 0.2)
        if np.linalg.norm(p1 + p2) < 1e-3:
            continue
        phi = rng.uniform(0.1, math.pi / 2 - 0.1)
        mismatches = verify_correlations(p1, p2, phi)
        comps = {m.component for m in mismatches}
        assert comps <= {"zz", "xy"}
        if "zz" in comps:
            flagged_zz += 1
            note = [m for m in mismatches if m.component == "zz"][0].note
            assert "P_n" in note
        # the corrected grouping reproduces the oracle exactly
        a2, b2 = float(np.dot(p1, p1)), float(np.dot(p2, p2))
        pd = float(np.dot(p1, p2))
        ps2 = float(np.dot(p1 + p2, p1 + p2))
        cross2 = float(np.dot(np.cross(p1, p2), np.cross(p1, p2)))
        pn_fixed = 4 * a2 * b2 + 2 * pd * (a2 + b2) - cross2
        czz_fixed = 1 / 12 - ps2 / (3 + pd) ** 2 + pn_fixed / (3 * (3 + pd) * ps2)
        assert czz_fixed == pytest.approx(
            correlations_oracle(p1, p2, phi).zz, abs=1e-12)
    assert flagged_zz > 40


def test_mismatch_message_prints_plain_floats():
    """A mismatch from numpy inputs stores Python floats, so its message
    reads like the inputs and shows no numpy scalar repr."""
    mismatches = verify_correlations(0.9 * EZ, tilted(0.85, math.pi / 3),
                                     np.float64(0.0))
    assert mismatches
    for m in mismatches:
        assert all(type(x) is float for x in (*m.p1, *m.p2, m.phi))
        assert "p1=(0.0, 0.0, 0.9)" in str(m)
        assert "np." not in str(m)


def test_xy_oracle_vanishes_on_frame_axes(rng):
    for _ in range(25):
        p1 = random_polarization(rng, 0.1)
        p2 = random_polarization(rng, 0.1)
        if np.linalg.norm(p1 + p2) < 1e-3:
            continue
        assert abs(correlations_oracle(p1, p2, 0.0).xy) < 1e-14
        assert abs(correlations_oracle(p1, p2, math.pi / 2).xy) < 1e-14


def test_rotational_covariance(rng):
    from spinsqueeze.frames import rotation_matrix
    from spinsqueeze.angular import EulerAngles
    for _ in range(25):
        p1 = random_polarization(rng, 0.1)
        p2 = random_polarization(rng, 0.1)
        if np.linalg.norm(p1 + p2) < 1e-3:
            continue
        phi = rng.uniform(0, 2 * math.pi)
        r = rotation_matrix(EulerAngles(rng.uniform(0, 2 * np.pi),
                                        np.arccos(rng.uniform(-1, 1)),
                                        rng.uniform(0, 2 * np.pi)))
        sq0 = channel_squeezing(p1, p2, phi)
        sq1 = channel_squeezing(r @ p1, r @ p2, phi)
        assert sq1.q_value == pytest.approx(sq0.q_value, abs=1e-12)
        assert couple_spin1(r @ p1, r @ p2).weight == pytest.approx(
            couple_spin1(p1, p2).weight, abs=1e-12)
        c0 = correlations(p1, p2, phi)
        c1 = correlations(r @ p1, r @ p2, phi)
        o0 = correlations_oracle(p1, p2, phi)
        o1 = correlations_oracle(r @ p1, r @ p2, phi)
        for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
            assert getattr(c1, comp) == pytest.approx(getattr(c0, comp), abs=1e-12)
            assert getattr(o1, comp) == pytest.approx(getattr(o0, comp), abs=1e-12)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_scan_smoke():
    res = threshold_scan(ThresholdScanConfig(p_points=201, theta_points=200))
    band = 2 * res.p_resolution
    assert math.sqrt(3) / 2 <= res.min_polarization_equal <= math.sqrt(3) / 2 + band
    assert math.sqrt(37) / 8 <= res.min_polarization_vs_pure <= math.sqrt(37) / 8 + band
    assert res.min_polarization_vs_pure < res.min_polarization_equal


def test_threshold_config_validated():
    with pytest.raises(ValueError):
        ThresholdScanConfig(p_points=100)


@pytest.mark.parametrize("count", [400.0, 300.5, math.nan, math.inf, True,
                                   np.bool_(True), "400", None])
@pytest.mark.parametrize("axis", ["p_points", "theta_points"])
def test_threshold_config_rejects_non_integer_counts(axis, count):
    # these used to construct a config and fail later inside np.linspace
    with pytest.raises(TypeError, match=axis):
        ThresholdScanConfig(**{axis: count})


def test_threshold_config_accepts_numpy_integers():
    config = ThresholdScanConfig(p_points=np.int64(201), theta_points=np.int32(200))
    assert threshold_scan(config).p_resolution == pytest.approx(1 / 200)


def test_threshold_config_rejects_grids_above_scan_limit():
    """Checked before anything is allocated: 10**10 P values would be an
    80 GB linspace."""
    with pytest.raises(ValueError, match="exceeds the limit"):
        ThresholdScanConfig(p_points=10**10)
    with pytest.raises(ValueError, match="exceeds the limit"):
        ThresholdScanConfig(p_points=200, theta_points=MAX_SCAN_ROWS // 200 + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        ThresholdScanConfig(p_points=np.int64(2**62), theta_points=np.int64(2**62))
    ThresholdScanConfig(p_points=200, theta_points=MAX_SCAN_ROWS // 200)


def oracle_thresholds(config: ThresholdScanConfig) -> tuple:
    """(equal, vs pure) from the per-P search on threshold_scan()'s grid."""
    p_values = np.linspace(0.0, 1.0, config.p_points)
    theta = np.linspace(0.0, math.pi, config.theta_points + 2)[1:-1]
    return tuple(scan_oracle.first_squeezed(p_values, theta, pure)
                 for pure in (False, True))


def assert_thresholds_match_oracle(config: ThresholdScanConfig):
    res = threshold_scan(config)
    got = (res.min_polarization_equal, res.min_polarization_vs_pure)
    assert got == oracle_thresholds(config)


@settings(deadline=None, max_examples=8)
@given(st.integers(200, 415), st.integers(200, 415))
# the equal-magnitude threshold is the first P of a batch (277, 200) and
# the last P of one (270, 205)
@example(277, 200)
@example(270, 205)
def test_threshold_scan_equals_per_p_oracle(p_points, theta_points):
    assert_thresholds_match_oracle(ThresholdScanConfig(p_points, theta_points))


@pytest.mark.parametrize("p_points, theta_points, index", [(277, 200, 0),
                                                           (270, 205, -1)])
def test_threshold_examples_sit_on_batch_boundaries(p_points, theta_points, index):
    """The explicit examples above test what they claim: the threshold's
    P index is the first or the last of a block-sized batch of P."""
    per_call = _kernel.BLOCK // theta_points
    res = threshold_scan(ThresholdScanConfig(p_points, theta_points))
    i = round(res.min_polarization_equal * (p_points - 1))
    assert i % per_call == index % per_call


def test_threshold_scan_one_p_per_call_above_block():
    config = ThresholdScanConfig(p_points=200, theta_points=_kernel.BLOCK + 1)
    assert _kernel.BLOCK // config.theta_points == 0
    assert_thresholds_match_oracle(config)
