"""Channel spin-1 coupling of two polarized qubits.

Every closed form is checked against at least one independent route:
the 9-j recoupling contraction, the brute-force 4x4 projection, or direct
matrix arithmetic on the projected state.
"""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scan_oracle
from conftest import random_polarization
from spinsqueeze import (ThresholdScanConfig, analyze,
                         channel_geometry, channel_squeezing, correlations,
                         correlations_oracle, couple_spin1, couple_spin1_9j,
                         project_oracle, threshold_scan, to_tensors,
                         verify_correlations)
from spinsqueeze import _kernel, channel
from spinsqueeze._kernel import MARGIN_TOL
from spinsqueeze.angular import clebsch_gordan
from spinsqueeze.channel import exact_thresholds, max_margin
from spinsqueeze.errors import LakinFrameUndefined
from spinsqueeze.scan import COLUMNS, MAX_SCAN_ROWS, ScanConfig, evaluate_points
from spinsqueeze.tensor_ops import _stack_order

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
    """A norm above 1 by more than rounding is outside the library's
    domain, as the same magnitude is outside the scan's."""
    for mag in (1.001, 1 + 5e-13):
        with pytest.raises(ValueError, match="exceeds 1"):
            couple_spin1([0, 0, mag], EZ)
        with pytest.raises(ValueError, match="exceeds 1"):
            channel_squeezing([0, 0, 0.5], [0, 0, mag], 0.0)
        with pytest.raises(ValueError):
            ScanConfig(p1=mag, p2=0.5, theta=0.0, phi=0.0)


@pytest.mark.parametrize("func", [couple_spin1, channel_geometry,
                                  channel_squeezing, correlations])
@pytest.mark.parametrize("bad, message", [
    # the norm overflows a sum of squares, but not math.hypot
    ([1e308, 1e308, 0.0], r"\|{name}\| = 1\.41421e\+308 exceeds 1"),
    ([math.nan, 0.0, 0.0], "{name} must be finite"),
    ([0.0, math.inf, 0.0], "{name} must be finite"),
    ([0.3, 0.4], r"{name} must be a 3-vector, got shape \(2,\)"),
    ([[0.3], [0.4], [0.0]], r"{name} must be a 3-vector, got shape \(3, 1\)"),
    # numpy's float conversion would drop the imaginary part, with only a
    # ComplexWarning, or parse the strings
    (np.array([0.5 + 0.5j, 0.0, 0.0]), "{name} must have real number entries, got complex128"),
    ([0.5 + 0.5j, 0.0, 0.0], "{name} must have real number entries, got complex128"),
    (["0.5", "0", "0"], "{name} must have real number entries, got <U3"),
    ([True, False, False], "{name} must have real number entries, got bool"),
    (np.array([False, True, False]), "{name} must have real number entries, got bool"),
    # numpy would promote a bool among numbers to 1.0 or 0.0
    ([True, 0.0, 0.0], "{name} must have real number entries, got bool"),
    ((0.0, 0.1, False), "{name} must have real number entries, got bool"),
    ([0.0, np.bool_(True), 0.0], "{name} must have real number entries, got bool"),
], ids=["huge", "nan", "inf", "shape-2", "shape-3x1", "complex-array",
        "complex-list", "strings", "bool-list", "bool-array", "mixed-bool-list",
        "mixed-bool-tuple", "mixed-numpy-bool-list"])
def test_each_polarization_is_validated_by_every_pair_route(func, bad, message):
    """Each vector is checked once, on floats: the same message for either
    position, and no RuntimeWarning or ComplexWarning on the way (warnings
    are errors here). Complex, string and bool entries are no polarization."""
    def call(p1, p2):
        return func(p1, p2, 0.3) if func in (channel_squeezing, correlations) else func(p1, p2)

    good = [0.0, 0.3, 0.1]
    with pytest.raises(ValueError, match=message.format(name="p1")):
        call(bad, good)
    with pytest.raises(ValueError, match=message.format(name="p2")):
        call(good, bad)


unit_component = st.floats(-1.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(unit_component, unit_component, unit_component, st.floats(0.0, math.pi))
@example(1.0, 1.0, 1.0, 0.3)
@example(0.1, 0.7, -0.3, math.pi / 3)
def test_unit_polarizations_accepted_by_every_route(x, y, z, theta):
    """A normalised vector, whose norm may round one ulp above 1, and the
    unit vector the channel command builds are inside every route's
    domain."""
    v = np.array([x, y, z])
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    p1 = v / norm
    p2 = np.array([math.sin(theta), 0.0, math.cos(theta)])
    couple_spin1(p1, p2)
    couple_spin1_9j(p1, p2)
    project_oracle(p1, p2)
    assume(np.linalg.norm(p1 + p2) > 1e-6)
    channel_geometry(p1, p2)
    channel_squeezing(p1, p2, 0.0)
    correlations(p1, p2, 0.0)
    verify_correlations(p1, p2, 0.0)


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


# components up to 0.57 keep |p| below 1; the sampled ones give the zero
# parts, of either sign, that axis-aligned polarizations have
_COMPONENT = st.sampled_from([-0.5, -0.0, 0.0, 0.5]) | st.floats(-0.57, 0.57)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)


@settings(max_examples=300)
@given(_VECTOR, _VECTOR)
def test_couple_spin1_is_paired_with_the_closed_form_bits(p1, p2):
    """couple_spin1 evaluates t^k_q for q >= 0 and fills each t^k_{-q}
    from the pairing: conj(t^k_q) = (-1)^q t^k_{-q} holds exactly, and
    every filled entry has the bits of its own closed form, signed zeros
    included."""
    v1, v2 = np.array(p1), np.array(p2)
    vec = couple_spin1(v1, v2).params.vector
    _, partner, sign, negative = _stack_order(2)
    assert np.array_equal(vec.conj(), sign * vec[partner])
    den = 3.0 + float(np.dot(v1, v2))
    s1, s2 = channel._spherical(v1), channel._spherical(v2)
    closed = ([math.sqrt(6.0) / den * (s1[-1] + s2[-1])]
              + [2.0 * math.sqrt(3.0) / den * channel._tensor_product(s1, 1, s2, 1, 2, q)
                 for q in (-2, -1)])
    assert vec[negative].tobytes() == np.array(closed).tobytes()


def test_triplet_states_are_the_coupling_coefficients():
    """The written-out triplet rows are C(1/2 1/2 1; m1 m2 m) bit for bit,
    over the product basis (up up, up dn, dn up, dn dn), and orthonormal."""
    basis = channel._TRIPLET
    assert not basis.flags.writeable
    for row, m in enumerate((1, 0, -1)):
        for col, (m1, m2) in enumerate(((0.5, 0.5), (0.5, -0.5),
                                        (-0.5, 0.5), (-0.5, -0.5))):
            want = complex(clebsch_gordan(0.5, 0.5, 1, m1, m2, m))
            assert np.array(basis[row, col]).tobytes() == np.array(want).tobytes()
    assert np.abs(basis @ basis.conj().T - np.eye(3)).max() < 1e-15


def test_coupling_routes_read_coefficients_from_the_table(monkeypatch):
    """The coupling coefficients of both coupling routes are constants:
    once the table is filled, further calls read no clebsch_gordan."""
    calls = []

    def counted(*args):
        calls.append(args)
        return clebsch_gordan(*args)

    monkeypatch.setattr(channel, "clebsch_gordan", counted)
    channel._product_terms.cache_clear()
    p1, p2 = tilted(0.9, 0.0), tilted(0.85, 1.0)
    for route in (couple_spin1, couple_spin1_9j):
        route(p1, p2)
        assert calls, "the table is filled through clebsch_gordan"
        calls.clear()
        for _ in range(100):
            route(p1, p2)
        assert calls == []


def test_pair_oracles_use_no_coupling_coefficient(rng, monkeypatch):
    """project_oracle and correlations_oracle agree with the closed forms
    when every Clebsch-Gordan coefficient of the coupling routes raises,
    whether read through clebsch_gordan or from the coefficient table, so
    the three-way check shares no coupling code."""
    pairs = []
    while len(pairs) < 50:
        p1 = random_polarization(rng)
        p2 = random_polarization(rng)
        if np.linalg.norm(p1 + p2) > 1e-3:
            phi = rng.uniform(0, 2 * math.pi)
            pairs.append((p1, p2, phi, couple_spin1(p1, p2).params,
                          correlations(p1, p2, phi)))

    def no_coefficient(*args):
        raise AssertionError("the oracle read a coupling coefficient")

    monkeypatch.setattr(channel, "clebsch_gordan", no_coefficient)
    monkeypatch.setattr(channel, "_product_terms", no_coefficient)
    for p1, p2, phi, closed, closed_corr in pairs:
        oracle = to_tensors(project_oracle(p1, p2))
        for k in (1, 2):
            for q in range(-k, k + 1):
                assert abs(closed.get(k, q) - oracle.get(k, q)) < 1e-12
        oracle_corr = correlations_oracle(p1, p2, phi)
        for comp in ("xx", "yy", "xz", "zy"):
            assert getattr(closed_corr, comp) == pytest.approx(
                getattr(oracle_corr, comp), abs=1e-12), comp


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


def _unit_ball_vector(r, z, azimuth):
    rho = math.sqrt(1.0 - z * z)
    return r * np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), z])


polarization = st.builds(_unit_ball_vector, st.floats(0.0, 1.0),
                         st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi))


@settings(deadline=None, max_examples=200)
@given(polarization, polarization, st.floats(allow_nan=False, allow_infinity=False))
@example(EZ, tilted(1.0, math.pi / 2), 0.0)
@example(0.9 * EZ, tilted(0.85, math.pi / 3), 0.0)
@example(0.3 * EZ, tilted(0.2, 2.0), 1e300)
def test_closed_form_agrees_with_generic_analyzer(p1, p2, phi):
    """variance_perp, sz and q against analyze() on the 4x4 projection, a
    route that shares no formula with the closed forms, at any azimuth.
    The closed forms' frame has t^2_2 <= 0 and analyze() turns it >= 0,
    hence phi + pi/2; phi is first reduced to [-pi, pi] so that adding
    pi/2 keeps its digits."""
    assume(np.linalg.norm(p1 + p2) >= 0.1)
    ch = channel_squeezing(p1, p2, phi)
    rep = analyze(project_oracle(p1, p2))
    reduced = math.atan2(math.sin(phi), math.cos(phi))
    assert ch.variance_perp == pytest.approx(
        rep.variance_at(reduced + math.pi / 2), abs=1e-12)
    assert ch.sz_expect / 2 == pytest.approx(rep.sz_half, abs=1e-12)
    den = (3 + float(np.dot(p1, p2))) / 2
    assert ch.q_value == pytest.approx(
        den * (ch.sz_expect / 2 - ch.variance_perp), abs=1e-12)


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


@pytest.mark.parametrize("p1_mag", [1e-9, 2.1e-10, 1.9e-10, 1e-11, 1e-300])
def test_correlations_equal_the_scan_row_at_tiny_polarization(p1_mag):
    """sin theta is read from the directions of p1 and p2 however small
    |p1| |p2| is, so the closed forms match the scan row on both sides of
    |p1| |p2| = 1e-10; there C_zz's -sin^2(theta) term dominates."""
    c = correlations(p1_mag * EZ, tilted(0.5, 1.2), 0.3)
    row = evaluate_points([p1_mag], [0.5], [1.2], [0.3])[0]
    for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
        assert getattr(c, comp) == pytest.approx(
            row[COLUMNS.index(f"c_{comp}")], abs=1e-12), comp
    if p1_mag == 1e-11:
        assert c.zz == pytest.approx(-0.3305319367810806, abs=1e-12)


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


def test_readme_threshold_figures_are_the_default_scan():
    """The two grid thresholds the README quotes are those of the default
    threshold_scan(), to the 7 digits quoted."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.search(r"grid reports (\d\.\d{7}) and (\d\.\d{7})",
                       " ".join(readme.split()))
    assert quoted is not None
    res = threshold_scan()
    assert quoted.groups() == (f"{res.min_polarization_equal:.7f}",
                               f"{res.min_polarization_vs_pure:.7f}")


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


def linspace_grids(config: ThresholdScanConfig) -> tuple:
    """threshold_scan()'s P and theta grids as np.linspace builds them."""
    return (np.linspace(0.0, 1.0, config.p_points),
            np.linspace(0.0, math.pi, config.theta_points + 2)[1:-1])


def oracle_thresholds(config: ThresholdScanConfig) -> tuple:
    """(equal, vs pure) from the per-P search on threshold_scan()'s grid."""
    p_values, theta = linspace_grids(config)
    return tuple(scan_oracle.first_squeezed(p_values, theta, pure)
                 for pure in (False, True))


def assert_thresholds_match_oracle(config: ThresholdScanConfig):
    res = threshold_scan(config)
    got = (res.min_polarization_equal, res.min_polarization_vs_pure)
    assert got == oracle_thresholds(config)


@settings(deadline=None, max_examples=8)
@given(st.integers(200, 415), st.integers(200, 415))
# counted from the sweep's first P, the last below sqrt(3)/2, the
# equal-magnitude threshold of (2912, 2731) is two rows up, so that search
# evaluates three rows; that of (200, 2731) is one row up
@example(2912, 2731)
@example(200, 2731)
@example(408, 411)
@example(415, 400)
def test_threshold_scan_equals_per_p_oracle(p_points, theta_points):
    assert_thresholds_match_oracle(ThresholdScanConfig(p_points, theta_points))


def test_threshold_scan_with_more_theta_points_than_a_kernel_block():
    config = ThresholdScanConfig(p_points=200, theta_points=_kernel.BLOCK + 1)
    assert_thresholds_match_oracle(config)


def record_margin_calls(monkeypatch) -> list:
    """Wrap _kernel._margin so that each call appends (a, b, theta): the
    theta rows read whole, where a peak window cannot decide its row."""
    calls = []
    inner = _kernel._margin

    def margin(a, b, theta, phi):
        calls.append((a, b, theta))
        return inner(a, b, theta, phi)

    monkeypatch.setattr(_kernel, "_margin", margin)
    return calls


def record_rows(monkeypatch) -> list:
    """Wrap channel._row_squeezed so that each call appends
    (a, b, theta_step, m): the rows the threshold searches decide."""
    rows = []
    inner = channel._row_squeezed

    def row_squeezed(a, b, theta_step, m):
        rows.append((a, b, theta_step, m))
        return inner(a, b, theta_step, m)

    monkeypatch.setattr(channel, "_row_squeezed", row_squeezed)
    return rows


def _bits(x) -> list:
    return np.asarray(x, dtype=float).reshape(-1).view(np.uint64).tolist()


def test_threshold_scan_starts_one_row_below_the_exact_threshold(monkeypatch):
    """On the default grid each search decides two rows of 400 theta
    points, each from its peak window: its last P below the exact
    threshold and the next P, which is squeezed. No row is read whole
    from the kernel, and no np.linspace grid is built."""
    rows = record_rows(monkeypatch)
    kernel_rows = record_margin_calls(monkeypatch)

    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace called")

    monkeypatch.setattr(np, "linspace", no_linspace)
    res = threshold_scan()
    monkeypatch.undo()
    p_values, theta = linspace_grids(ThresholdScanConfig())
    want = []
    for exact, found, pure in zip(exact_thresholds(), (res.min_polarization_equal,
                                                       res.min_polarization_vs_pure),
                                  (False, True)):
        start = np.count_nonzero(p_values < exact) - 1
        assert p_values[start + 1] == found
        want += [(p_values[i], 1.0 if pure else p_values[i]) for i in (start, start + 1)]
    assert _bits([(a, b) for a, b, _, _ in rows]) == _bits(want)
    assert all(m == theta.size for _, _, _, m in rows)
    assert all(_bits(channel._theta_grid(step, m)) == _bits(theta) for _, _, step, m in rows)
    assert kernel_rows == []


@settings(deadline=None, max_examples=12)
@given(st.integers(200, 415), st.integers(200, 415))
@example(2912, 2731)
@example(200, 2731)
@example(200, _kernel.BLOCK + 1)
@example(415, 400)
@example(207, 415)      # 206 * (1/206) rounds below 1.0
def test_threshold_scan_reads_the_linspace_grids(p_points, theta_points):
    """The theta grid, every P the two searches read and both resolutions
    carry the bits of the np.linspace grids: the searches decide the rows
    from the start row below each exact threshold up to the one found,
    and a row read whole from the kernel is one on that theta grid."""
    config = ThresholdScanConfig(p_points, theta_points)
    with pytest.MonkeyPatch.context() as mp:
        rows = record_rows(mp)
        kernel_rows = record_margin_calls(mp)
        res = threshold_scan(config)
    p_values, theta = linspace_grids(config)
    assert res.p_resolution == p_values[1] - p_values[0]
    assert res.theta_resolution == theta[1] - theta[0]
    # every row a search could read, the endpoint included
    last = p_points - 1
    assert _bits([channel._grid_p(i, res.p_resolution, last)
                  for i in range(p_points)]) == _bits(p_values)
    assert all(_bits(channel._theta_grid(step, m)) == _bits(theta) for _, _, step, m in rows)
    assert all(_bits(grid) == _bits(theta) for _, _, grid in kernel_rows)
    found = (res.min_polarization_equal, res.min_polarization_vs_pure)
    starts = [np.count_nonzero(p_values < exact * (1.0 - 1e-9)) - 1
              for exact in exact_thresholds()]
    stops = [int(np.flatnonzero(p_values == p)[0]) for p in found]
    reads = [(p_values[i], 1.0 if pure else p_values[i])
             for s, t, pure in zip(starts, stops, (False, True)) for i in range(s, t + 1)]
    assert _bits([(a, b) for a, b, _, _ in rows]) == _bits(reads)


def test_no_row_is_read_whole_on_grids_of_400_to_415_points():
    """Every row of the default scan and of the scans over
    [400, 416) x [400, 416) points is decided from its peak window."""
    with pytest.MonkeyPatch.context() as mp:
        kernel_rows = record_margin_calls(mp)
        threshold_scan()
        for p_points in range(400, 416):
            for theta_points in range(400, 416):
                threshold_scan(ThresholdScanConfig(p_points, theta_points))
    assert kernel_rows == []


def test_threshold_scan_at_the_largest_theta_grid_holds_no_theta_row():
    """The peak windows allocate no theta array: the 200 x 83,886 scan
    traces under 100 kB, where one theta row is 671 kB (17.5 MB when the
    four rows were one kernel call)."""
    config = ThresholdScanConfig(200, MAX_SCAN_ROWS // 200)
    threshold_scan(config)
    tracemalloc.start()
    try:
        res = threshold_scan(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    band = 2 * res.p_resolution
    assert math.sqrt(3) / 2 <= res.min_polarization_equal <= math.sqrt(3) / 2 + band
    assert math.sqrt(37) / 8 <= res.min_polarization_vs_pure <= math.sqrt(37) / 8 + band


@settings(deadline=None, max_examples=200)
@given(st.integers(200, 10_000), st.floats(0.01, 0.99),
       st.sampled_from([None, 0.0, 5e-10, 1e-9, 2e-9]))
@example(400, 0.5, 5e-10)
def test_start_row_is_the_count_below_the_limit(p_points, exact, nudge):
    """The float arithmetic of the start row gives the count of grid
    values below exact (1 - 1e-9), minus one, also where a grid value
    lies within that relative 1e-9 below the threshold."""
    p_values = np.linspace(0.0, 1.0, p_points)
    if nudge is not None:
        exact = float(p_values[int(exact * (p_points - 1))]) * (1.0 + nudge)
    want = np.count_nonzero(p_values < exact * (1.0 - 1e-9)) - 1
    assert channel._start_row(exact, 1.0 / (p_points - 1), p_points - 1) == want


def kernel_row_squeezed(a, b, m) -> bool:
    """The kernel's verdict on the row (a, b) of the m-point theta grid."""
    theta = channel._theta_grid(math.pi / (m + 1), m)
    return bool((_kernel._margin(a, b, theta, 0.0) > MARGIN_TOL).any())


@settings(deadline=None, max_examples=150)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(200, MAX_SCAN_ROWS // 200))
@example(0.0, 0.7, 400)       # a vanishing magnitude: the row is flat in theta
@example(0.9, 0.9, 400)       # a = b: p1 + p2 -> 0 as theta -> pi
@example(1.0, 1.0, MAX_SCAN_ROWS // 200)
@example(0.77, 1.0, 400)      # a pure partner
@example(1.0, 0.2, 400)
@example(1e-4, 2e-4, 400)     # |p1 + p2|^2 < 1e-6 on the window
def test_row_verdict_is_the_kernel_rows(a, b, m):
    """Whether the peak window decides the row or reads it whole, its
    verdict is the kernel row's."""
    assert channel._row_squeezed(a, b, math.pi / (m + 1), m) is kernel_row_squeezed(a, b, m)


def test_row_at_the_margin_tolerance_is_read_whole(monkeypatch):
    """Rows bisected on |p1| against a pure partner until the kernel's
    grid maximum of q straddles MARGIN_TOL: the window maximum lies within
    _WINDOW_GAP of it, so both rows are read whole from the kernel, and
    each gets the kernel's verdict."""
    m = 400
    step = math.pi / (m + 1)
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if kernel_row_squeezed(mid, 1.0, m) else (mid, hi)
    kernel_rows = record_margin_calls(monkeypatch)
    assert not channel._row_squeezed(lo, 1.0, step, m)
    assert channel._row_squeezed(hi, 1.0, step, m)
    assert len(kernel_rows) == 2


@settings(deadline=None, max_examples=100)
@given(st.floats(0.0, 1.0), st.booleans(),
       st.lists(st.floats(0.0, math.pi), min_size=1, max_size=50),
       st.floats(-10.0, 10.0))
@example(0.0, False, [0.5, math.pi], 0.0)    # p1 + p2 = 0 at every theta
@example(0.0, True, [0.0, 1.0], 0.0)
@example(1.0, False, [0.0, math.pi], 0.0)    # pure and antiparallel
@example(1.0, True, [1.0, 2.0], 0.0)
def test_margin_of_float_magnitudes_is_bitwise_the_array_margin(p, pure, theta, phi):
    """A row read whole passes P, the partner's magnitude and phi as
    floats; they give the bits of the full-array call and of the q_value
    column, NaN included."""
    theta = np.array(theta)
    n = theta.size
    partner = 1.0 if pure else p
    got = _kernel._margin(p, partner, theta, phi)
    arrays = np.full(n, p), np.full(n, partner), theta, np.full(n, phi)
    column = evaluate_points(*arrays)[:, COLUMNS.index("q_value")]
    for want in (_kernel._margin(*arrays), column):
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_threshold_scan_raises_when_the_kernel_contradicts_the_closed_form(monkeypatch):
    """A claimed threshold above sqrt(3)/2 starts the equal-magnitude search
    on a squeezed P; the message gives that P and the kernel row's largest
    q."""
    monkeypatch.setattr(channel, "exact_thresholds",
                        lambda: (0.9, math.sqrt(37) / 8))
    p_values, theta = linspace_grids(ThresholdScanConfig())
    p = float(p_values[np.count_nonzero(p_values < 0.9 * (1.0 - 1e-9)) - 1])
    q = float(np.nanmax(_kernel._margin(p, p, theta, 0.0)))
    assert q > MARGIN_TOL
    message = (f"the kernel finds P = {p!r} squeezed (q = {q!r}) below the "
               f"exact threshold 0.9")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        threshold_scan()


# ---------------------------------------------------------------------------
# the squeezing boundary in closed form
# ---------------------------------------------------------------------------

magnitude = st.floats(0.0, 1.0)


def kernel_margin(a, b, theta, phi):
    """The kernel's q at each theta (array) for one (a, b, phi)."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    n = theta.size
    return _kernel._margin(np.full(n, a), np.full(n, b), theta, np.full(n, phi))


def test_exact_thresholds():
    equal, vs_pure = exact_thresholds()
    assert abs(equal - math.sqrt(3) / 2) <= 1e-15
    assert abs(vs_pure - math.sqrt(37) / 8) <= 1e-15
    assert abs(max_margin(equal, equal)) <= 1e-12
    assert abs(max_margin(vs_pure, 1.0)) <= 1e-12


@given(magnitude, magnitude, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
def test_max_margin_bounds_the_kernel_margin(a, b, theta, phi):
    q = kernel_margin(a, b, theta, phi)[0]
    assume(not math.isnan(q))
    assert q <= max_margin(a, b) + 1e-12


@settings(deadline=None, max_examples=50)
@given(magnitude, magnitude)
@example(math.sqrt(3) / 2, math.sqrt(3) / 2)
@example(math.sqrt(37) / 8, 1.0)
@example(1.0, 0.0)
@example(0.4, 0.4)
def test_max_margin_is_the_dense_theta_maximum(a, b):
    """Against the kernel on 20,001 theta points at phi = 0. At its peak
    |d^2 q/d theta^2| = |q''(u)| (ab sin theta/u)^2 <= 2, so the grid
    maximum falls short of the true one by at most dtheta^2/4."""
    theta = np.linspace(0.0, math.pi, 20_001)
    q = kernel_margin(a, b, theta, 0.0)
    assume(not np.isnan(q).all())
    gap = max_margin(a, b) - np.nanmax(q)
    assert -1e-12 <= gap <= (theta[1] - theta[0]) ** 2 / 4


@given(magnitude, magnitude, st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
def test_margin_as_a_function_of_the_resultant(a, b, theta, phi):
    """With u = |p1 + p2| the kernel's q is
    u/2 - 1 + cos^2(phi) (4a^2b^2 - (u^2 - a^2 - b^2)^2)/(4u^2), which at
    phi = 0 is u/2 - u^2/4 + (a^2 + b^2)/2 - (a^2 - b^2)^2/(4u^2) - 1."""
    u = float(np.linalg.norm(tilted(a, 0.0) + tilted(b, theta)))
    assume(u >= 0.1)
    cross2 = 4 * a * a * b * b - (u * u - a * a - b * b) ** 2
    q = kernel_margin(a, b, theta, phi)[0]
    assert q == pytest.approx(u / 2 - 1 + math.cos(phi) ** 2 * cross2 / (4 * u * u),
                              abs=1e-12)
    q0 = kernel_margin(a, b, theta, 0.0)[0]
    assert q0 == pytest.approx(u / 2 - u * u / 4 + (a * a + b * b) / 2
                               - (a * a - b * b) ** 2 / (4 * u * u) - 1, abs=1e-12)


@given(st.floats(1.0, 9 / 8))
def test_max_margin_vanishes_on_the_boundary_curve(u):
    a, b = channel._boundary_magnitudes(u)
    assert abs(max_margin(a, min(b, 1.0))) <= 1e-12


@given(magnitude, magnitude)
def test_max_margin_grows_along_both_threshold_families(p, p2):
    """Why the threshold sweep may start below the exact threshold: no
    smaller P has a larger maximal margin."""
    lo, hi = sorted((p, p2))
    assert max_margin(lo, 1.0) <= max_margin(hi, 1.0) + 1e-15
    assume(lo > 0.0)
    assert max_margin(lo, lo) <= max_margin(hi, hi) + 1e-15


def test_max_margin_domain():
    assert math.isnan(max_margin(0.0, 0.0))
    assert max_margin(1.0, 0.0) == -0.5
    assert np.array_equal(max_margin([0.5, 1.0], 1.0),
                          [max_margin(0.5, 1.0), max_margin(1.0, 1.0)])
    for bad in (-0.1, 1 + 5e-13, math.nan):
        with pytest.raises(ValueError, match="must lie in"):
            max_margin(bad, 0.5)
