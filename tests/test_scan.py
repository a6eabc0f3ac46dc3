"""Scan kernel against its scalar reference, thread cap, CSV determinism."""

import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from spinsqueeze import (ScanConfig, channel_squeezing, correlations,
                         couple_spin1, run_scan, to_tensors, write_csv)
from spinsqueeze import scan
from spinsqueeze.channel import MARGIN_TOL
from spinsqueeze.frames import euler_from_rotation, rotate_tensors
from spinsqueeze.scan import (COLUMNS, CSV_HEADER, available_backends,
                              evaluate_points, get_kernel, scan_backend)


def grid_arrays(rng, n):
    p1 = rng.uniform(0, 1, n)
    p2 = rng.uniform(0, 1, n)
    theta = rng.uniform(0.01, math.pi - 0.01, n)
    phi = rng.uniform(0, 2 * math.pi, n)
    return p1, p2, theta, phi


def oracle_points(p1, p2, theta, phi) -> np.ndarray:
    arrays = [np.asarray(x, dtype=float) for x in (p1, p2, theta, phi)]
    out = np.empty((arrays[0].size, len(COLUMNS)))
    scan_oracle.evaluate_into(*arrays, out)
    return out


def assert_bitwise_equal(got, want):
    """Equal bit patterns, so NaN payloads and signed zeros count too."""
    assert got.shape == want.shape
    diff = np.argwhere(got.view(np.uint64) != want.view(np.uint64))
    assert diff.size == 0, (
        f"{len(diff)} values differ, first at row {diff[0][0]} column "
        f"{COLUMNS[diff[0][1]]}: {got[tuple(diff[0])]!r} != {want[tuple(diff[0])]!r}")


def test_backend_selected():
    assert scan_backend() == "numpy"
    assert available_backends() == {"numpy": get_kernel()}


def test_kernel_bitwise_equals_scalar_oracle(rng):
    """Several kernel blocks of random points, with p1 + p2 = 0 rows,
    theta on both ends of [0, pi] and zero magnitudes mixed in."""
    n = 20_000
    p1 = rng.uniform(0, 1, n)
    p2 = rng.uniform(0, 1, n)
    theta = rng.uniform(0, math.pi, n)
    phi = rng.uniform(-2 * math.pi, 2 * math.pi, n)
    edge = rng.integers(0, 8, n)
    p2[edge == 0] = p1[edge == 0]
    theta[edge == 0] = math.pi                  # p1 + p2 = 0
    theta[edge == 1] = 0.0
    theta[edge == 2] = math.pi
    p1[edge == 3] = 0.0
    p1[edge == 4] = p2[edge == 4] = 0.0
    got = evaluate_points(p1, p2, theta, phi)
    assert np.isnan(got[edge == 0, COLUMNS.index("q_value")]).all()
    assert_bitwise_equal(got, oracle_points(p1, p2, theta, phi))


_magnitude = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_theta = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi))
_point = st.tuples(_magnitude, _magnitude, st.booleans(), _theta,
                   st.floats(0.0, 2 * math.pi))


@settings(deadline=None, max_examples=150)
@given(st.lists(_point, min_size=1, max_size=40))
def test_kernel_property_over_physical_domain(points):
    """Bit for bit the scalar oracle everywhere; channel_squeezing() to
    1e-12 wherever |p1 + p2| >= 0.1. Closer to p1 + p2 = 0 the kernel's
    a^2 + b^2 + 2ab cos(theta) cancels digits that channel_squeezing(),
    which adds the vectors, keeps."""
    p1 = np.array([a for a, _, _, _, _ in points])
    p2 = np.array([a if same else b for a, b, same, _, _ in points])
    theta = np.array([t for _, _, _, t, _ in points])
    phi = np.array([f for _, _, _, _, f in points])
    got = evaluate_points(p1, p2, theta, phi)
    assert_bitwise_equal(got, oracle_points(p1, p2, theta, phi))
    for row, a, b, t, f in zip(got, p1, p2, theta, phi):
        v1 = a * np.array([0.0, 0.0, 1.0])
        v2 = b * np.array([math.sin(t), 0.0, math.cos(t)])
        if np.linalg.norm(v1 + v2) < 0.1:
            continue
        col = dict(zip(COLUMNS, row))
        sq = channel_squeezing(v1, v2, f)
        assert col["variance_perp"] == pytest.approx(sq.variance_perp, abs=1e-12)
        assert col["sz_half"] == pytest.approx(sq.sz_expect / 2, abs=1e-12)
        assert col["q_value"] == pytest.approx(sq.q_value, abs=1e-12)
        if abs(sq.q_value - MARGIN_TOL) > 1e-12:
            assert bool(col["squeezed"]) == sq.squeezed


def test_jobs_thread_count_capped_at_cpu_count(rng, monkeypatch):
    """An absurd --jobs starts no more threads than there are CPUs."""
    seen = []

    class InlineExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fn(*args)
            return self

        def result(self):
            return None

    monkeypatch.setattr(scan, "ThreadPoolExecutor", InlineExecutor)
    cpus = os.cpu_count() or 1
    p1, p2, theta, phi = grid_arrays(rng, 4 * cpus + 3)
    out = evaluate_points(p1, p2, theta, phi, jobs=10**6)
    assert all(workers <= cpus for workers in seen)
    assert_bitwise_equal(out, evaluate_points(p1, p2, theta, phi, jobs=1))


def test_jobs_do_not_change_results(rng):
    p1, p2, theta, phi = grid_arrays(rng, 5000)
    base = evaluate_points(p1, p2, theta, phi, jobs=1)
    for jobs in (2, 3, 8):
        assert np.array_equal(base, evaluate_points(p1, p2, theta, phi, jobs=jobs),
                              equal_nan=True)


def test_kernel_matches_library_routes(rng):
    """Kernel columns against the high-level API, point by point."""
    for _ in range(40):
        a = rng.uniform(0.05, 1.0)
        b = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0, 2 * math.pi)
        p1 = a * np.array([0.0, 0.0, 1.0])
        p2 = b * np.array([math.sin(theta), 0.0, math.cos(theta)])
        row = evaluate_points([a], [b], [theta], [phi])[0]
        col = {name: row[i] for i, name in enumerate(COLUMNS)}

        state = couple_spin1(p1, p2)
        assert col["weight"] == pytest.approx(state.weight, abs=1e-14)
        # tensor parameters in the distinguished frame
        frame = state.frame
        basis = np.column_stack([frame.x0, frame.y0, frame.z0])
        lf = rotate_tensors(state.params, euler_from_rotation(basis))
        assert col["t1_0"] == pytest.approx(lf.get(1, 0).real, abs=1e-12)
        assert col["t2_0"] == pytest.approx(lf.get(2, 0).real, abs=1e-12)
        assert col["t2_2"] == pytest.approx(lf.get(2, 2).real, abs=1e-12)
        assert abs(lf.get(2, 2).imag) < 1e-12

        sq = channel_squeezing(p1, p2, phi)
        assert col["variance_perp"] == pytest.approx(sq.variance_perp, abs=1e-13)
        assert col["sz_half"] == pytest.approx(sq.sz_expect / 2, abs=1e-13)
        assert col["q_value"] == pytest.approx(sq.q_value, abs=1e-13)
        assert bool(col["squeezed"]) == sq.squeezed

        c = correlations(p1, p2, phi)
        for comp in ("xx", "yy", "zz", "xz", "zy", "xy"):
            assert col[f"c_{comp}"] == pytest.approx(getattr(c, comp), abs=1e-13), comp


def test_degenerate_rows_marked_nan():
    out = evaluate_points([0.5], [0.5], [math.pi], [0.0])[0]
    col = dict(zip(COLUMNS, out))
    assert col["weight"] == pytest.approx((3 - 0.25) / 12, abs=1e-12)
    assert col["t1_0"] == 0.0
    assert col["sz_half"] == 0.0
    assert col["squeezed"] == 0.0
    for name in ("t2_0", "t2_2", "variance_perp", "q_value", "c_xx", "c_zz"):
        assert math.isnan(col[name]), name


def test_evaluate_points_rejects_theta_outside_0_pi():
    # theta > pi used to flip the signs of c_xz and c_zy silently
    with pytest.raises(ValueError, match="theta"):
        evaluate_points([0.9], [0.85], [4.0], [0.5])
    with pytest.raises(ValueError, match="theta"):
        evaluate_points([0.9, 0.9], [0.85, 0.85], [0.3, -1e-9], [0.5, 0.5])


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(p1=[1.2], p2=[0.5], theta=[0.3], phi=[0.0])
    with pytest.raises(ValueError):
        ScanConfig(p1=[0.5], p2=[0.5], theta=[], phi=[0.0])
    for bad in ({"p1": [math.nan]}, {"p2": [math.inf]}, {"phi": [0.0, math.nan]},
                {"theta": [-1e-9]}, {"theta": [math.pi + 1e-9]},
                {"theta": [math.nan]}):
        axes = {"p1": [0.5], "p2": [0.5], "theta": [0.3], "phi": [0.0], **bad}
        with pytest.raises(ValueError):
            ScanConfig(**axes)


def test_run_scan_row_order():
    config = ScanConfig(p1=[0.3, 0.6], p2=[0.5], theta=[0.1, 0.2, 0.3], phi=[0.0, 1.0])
    res = run_scan(config)
    assert res.data.shape == (12, len(COLUMNS))
    # phi fastest, then theta, then p2, then p1
    assert np.array_equal(res.phi[:4], [0.0, 1.0, 0.0, 1.0])
    assert np.array_equal(res.theta[:4], [0.1, 0.1, 0.2, 0.2])
    assert res.p1[0] == 0.3 and res.p1[-1] == 0.6


def csv_string(res) -> str:
    buf = io.StringIO()
    write_csv(res, buf)
    return buf.getvalue()


def test_csv_format():
    config = ScanConfig(p1=[1.0], p2=[1.0], theta=[math.pi / 2], phi=[0.0])
    text = csv_string(run_scan(config))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == len(COLUMNS) + 4
    q = dict(zip(CSV_HEADER.split(","), fields))
    assert q["squeezed"] == "1"
    assert float(q["q_value"]) == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-12)
    # 12 significant digits
    assert q["theta_rad"] == "%.12g" % (math.pi / 2)


def test_csv_byte_identical_across_jobs_and_runs(rng):
    config = ScanConfig(p1=np.linspace(0.1, 1, 7), p2=[0.85],
                        theta=np.linspace(0.01, 3.1, 40),
                        phi=np.linspace(0, 1.5, 5))
    texts = {csv_string(run_scan(config, jobs=j)) for j in (1, 2, 5, 1)}
    assert len(texts) == 1
