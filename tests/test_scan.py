"""Scan kernel against its scalar reference, thread cap, CSV and JSON
output."""

import contextlib
import hashlib
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scan_oracle
from spinsqueeze import (ScanConfig, channel_squeezing, correlations,
                         correlations_oracle, couple_spin1, project_oracle,
                         run_scan, to_tensors, write_csv)
from spinsqueeze import _kernel, channel, cli
from spinsqueeze.channel import MARGIN_TOL
from spinsqueeze.errors import LakinFrameUndefined
from spinsqueeze.frames import euler_from_rotation, rotate_tensors
from spinsqueeze.scan import (_RUN_FIELDS, COLUMNS, CSV_HEADER, FIELDS,
                              ScanResult, available_backends, evaluate_points,
                              get_kernel, rows_as_dicts, scan_backend,
                              stream_scan, write_json)


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


def assert_same_text(got: str, want: str, label: str) -> None:
    """Equal texts; a mismatch names the first line that differs, since
    pytest's diff of two long texts takes minutes."""
    if got != want:
        pairs = enumerate(zip(got.split("\n"), want.split("\n")))
        where = next((f"line {i}: {g!r} != {w!r}" for i, (g, w) in pairs if g != w),
                     f"{got.count(chr(10))} != {want.count(chr(10))} lines")
        pytest.fail(f"{label}, {where}")


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


def point_arrays(points):
    """(p1, p2, theta, phi) arrays of drawn points; |p2| = |p1| where the
    point's flag is set."""
    p1 = np.array([a for a, _, _, _, _ in points])
    p2 = np.array([a if same else b for a, b, same, _, _ in points])
    theta = np.array([t for _, _, _, t, _ in points])
    phi = np.array([f for _, _, _, _, f in points])
    return p1, p2, theta, phi


def framed_rows(got, p1, p2, theta, phi):
    """(columns, v1, v2, phi) of each row with |p1 + p2| >= 0.1. Closer to
    p1 + p2 = 0 the kernel's a^2 + b^2 + 2ab cos(theta) cancels digits
    that the vector routes, which add p1 and p2, keep."""
    for row, a, b, t, f in zip(got, p1, p2, theta, phi):
        v1 = a * np.array([0.0, 0.0, 1.0])
        v2 = b * np.array([math.sin(t), 0.0, math.cos(t)])
        if np.linalg.norm(v1 + v2) >= 0.1:
            yield dict(zip(COLUMNS, row)), v1, v2, f


@settings(deadline=None, max_examples=150)
@given(st.lists(_point, min_size=1, max_size=40))
def test_kernel_property_over_physical_domain(points):
    """Bit for bit the scalar oracle everywhere; channel_squeezing() to
    1e-12 wherever |p1 + p2| >= 0.1."""
    p1, p2, theta, phi = point_arrays(points)
    got = evaluate_points(p1, p2, theta, phi)
    assert_bitwise_equal(got, oracle_points(p1, p2, theta, phi))
    for col, v1, v2, f in framed_rows(got, p1, p2, theta, phi):
        sq = channel_squeezing(v1, v2, f)
        assert col["variance_perp"] == pytest.approx(sq.variance_perp, abs=1e-12)
        assert col["sz_half"] == pytest.approx(sq.sz_expect / 2, abs=1e-12)
        assert col["q_value"] == pytest.approx(sq.q_value, abs=1e-12)
        if abs(sq.q_value - MARGIN_TOL) > 1e-12:
            assert bool(col["squeezed"]) == sq.squeezed


@settings(deadline=None, max_examples=100)
@given(st.lists(_point, min_size=1, max_size=10))
# nearly collinear p1 and p2: the oracle's frame used to tilt x0 towards z0
@example([(1.0, 0.5, False, 1e-8, 0.0)])
def test_kernel_matches_matrix_oracles(points):
    """The tensor columns equal the brute-force 4x4 projection in the
    frame of couple_spin1(), and c_xx, c_yy, c_xz, c_zy equal the matrix
    arithmetic of correlations_oracle(), wherever |p1 + p2| >= 0.1.
    C_zz and C_xy are left out: their published closed forms disagree
    with the oracle, which verify_correlations() reports."""
    p1, p2, theta, phi = point_arrays(points)
    got = evaluate_points(p1, p2, theta, phi)
    for col, v1, v2, f in framed_rows(got, p1, p2, theta, phi):
        frame = couple_spin1(v1, v2).frame
        basis = np.column_stack([frame.x0, frame.y0, frame.z0])
        lf = rotate_tensors(to_tensors(project_oracle(v1, v2)),
                            euler_from_rotation(basis))
        assert col["t1_0"] == pytest.approx(lf.get(1, 0).real, abs=1e-12)
        assert col["t2_0"] == pytest.approx(lf.get(2, 0).real, abs=1e-12)
        assert col["t2_2"] == pytest.approx(lf.get(2, 2).real, abs=1e-12)
        c = correlations_oracle(v1, v2, f)
        for comp in ("xx", "yy", "xz", "zy"):
            assert col[f"c_{comp}"] == pytest.approx(getattr(c, comp), abs=1e-12), comp


@settings(deadline=None, max_examples=150)
@given(st.lists(_point, min_size=1, max_size=40))
@example([(0.6, 0.0, True, math.pi, 0.3)])        # a = b, theta = pi: p1 + p2 = 0
@example([(0.0, 0.0, True, 1.0, 0.0)])            # a = b = 0
@example([(0.0, 1.0, False, 2.0, 0.0), (0.0, 0.4, False, 0.0, 1.0)])  # P = 0
def test_margin_bitwise_equals_q_column(points):
    """The threshold search's margin entry is the q_value column of the
    full kernel, NaN where p1 + p2 = 0 included."""
    p1, p2, theta, phi = point_arrays(points)
    want = evaluate_points(p1, p2, theta, phi)[:, COLUMNS.index("q_value")]
    got = _kernel._margin(p1, p2, theta, phi)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_jobs_thread_count_capped_at_cpu_count(rng, pool_sizes):
    """An absurd --jobs starts no more threads than there are CPUs, and a
    one-block call starts none."""
    cpus = os.cpu_count() or 1
    p1, p2, theta, phi = grid_arrays(rng, _kernel.BLOCK * (4 * cpus + 3))
    out = evaluate_points(p1, p2, theta, phi, jobs=10**6)
    assert pool_sizes == ([] if cpus == 1 else [cpus])
    assert_bitwise_equal(out, evaluate_points(p1, p2, theta, phi, jobs=1))
    evaluate_points(p1[:_kernel.BLOCK], p2[:_kernel.BLOCK],
                    theta[:_kernel.BLOCK], phi[:_kernel.BLOCK], jobs=10**6)
    assert len(pool_sizes) == (0 if cpus == 1 else 1)


def test_jobs_do_not_change_results(rng, pool_sizes):
    p1, p2, theta, phi = grid_arrays(rng, 5000)
    base = evaluate_points(p1, p2, theta, phi, jobs=1)
    for jobs in (2, 3, 8):
        assert np.array_equal(base, evaluate_points(p1, p2, theta, phi, jobs=jobs),
                              equal_nan=True)
    cpus = os.cpu_count() or 1
    assert pool_sizes == [min(jobs, cpus) for jobs in (2, 3, 8) if cpus > 1]


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


def test_run_cells_constant_along_phi():
    """stream_scan formats the run cells once per (p1, p2, theta) triple
    and repeats that text for every phi, so its bytes rest on the kernel
    writing those cells bit for bit the same for every phi of a triple,
    p1 + p2 = 0 rows included."""
    assert {"c_zz", "c_xy"} <= set(_RUN_FIELDS)
    axis = [0.0, 0.35, 0.7, 1.0]
    phi = [-7.0, 0.0, 0.5, math.pi / 2, math.pi, 2 * math.pi, 1e3]
    res = run_scan(ScanConfig(p1=axis, p2=axis,
                              theta=np.linspace(0.0, math.pi, 7), phi=phi))
    rows = np.column_stack((res.theta, res.phi, res.p1, res.p2, res.data))
    assert np.isnan(rows[:, FIELDS.index("t2_0")]).any()     # p1 + p2 = 0
    runs = rows[:, [FIELDS.index(f) for f in _RUN_FIELDS]].reshape(
        -1, len(phi), len(_RUN_FIELDS)).view(np.int64)
    same = (runs == runs[:, :1]).all(axis=(1, 2))
    assert same.all(), f"{(~same).sum()} of {len(same)} runs split along phi"


def test_evaluate_points_rejects_theta_outside_0_pi():
    # theta > pi used to flip the signs of c_xz and c_zy silently
    with pytest.raises(ValueError, match="theta"):
        evaluate_points([0.9], [0.85], [4.0], [0.5])
    with pytest.raises(ValueError, match="theta"):
        evaluate_points([0.9, 0.9], [0.85, 0.85], [0.3, -1e-9], [0.5, 0.5])
    # NaN fails every comparison, so it used to pass the theta check
    with pytest.raises(ValueError, match="theta"):
        evaluate_points([0.9, 0.9], [0.85, 0.85], [0.3, math.nan], [0.5, 0.5])
    # magnitudes outside [0, 1] used to give rows, one of them squeezed
    for bad in (1.5, 1.0 + 1e-15, -1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"\|p1\|"):
            evaluate_points([0.5, bad], [0.85, 0.85], [0.3, 0.3], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"\|p2\|"):
            evaluate_points([0.9, 0.9], [0.5, bad], [0.3, 0.3], [0.5, 0.5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi"):
            evaluate_points([0.9, 0.9], [0.85, 0.85], [0.3, 0.3], [0.5, bad])
    # the bounds themselves are inside the domain
    evaluate_points([0.0, 1.0], [1.0, 0.0], [0.0, math.pi], [-1e300, 1e300])


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(p1=[1.2], p2=[0.5], theta=[0.3], phi=[0.0])
    with pytest.raises(ValueError):
        ScanConfig(p1=[0.5], p2=[0.5], theta=[], phi=[0.0])
    for bad in ({"p1": [math.nan]}, {"p2": [math.inf]}, {"phi": [0.0, math.nan]},
                {"theta": [-1e-9]}, {"theta": [math.pi + 1e-9]},
                {"theta": [math.nan]}, {"p1": [[0.5, 0.6]]}, {"phi": [[0.0], [1.0]]}):
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


def test_csv_byte_identical_across_jobs_and_runs(rng, pool_sizes):
    config = ScanConfig(p1=np.linspace(0.1, 1, 7), p2=[0.85],
                        theta=np.linspace(0.01, 3.1, 40),
                        phi=np.linspace(0, 1.5, 5))
    texts = {csv_string(run_scan(config, jobs=j)) for j in (1, 2, 5, 1)}
    assert len(texts) == 1
    assert len(pool_sizes) == (2 if (os.cpu_count() or 1) > 1 else 0)


def test_scan_and_scalar_api_share_thresholds(capsys):
    assert channel.MARGIN_TOL is _kernel.MARGIN_TOL
    assert channel.DEGENERATE_TOL2 is _kernel.DEGENERATE_TOL2
    # |p1 + p2|^2 one ulp above DEGENERATE_TOL2: a row and a frame for
    # every route
    p = 1e-10
    p1, p2 = [0.0, 0.0, p], [0.0, 0.0, 0.0]
    assert p * p > _kernel.DEGENERATE_TOL2
    row = evaluate_points([p], [0.0], [0.0], [0.0])[0]
    sq = channel_squeezing(p1, p2, 0.0)
    assert row[COLUMNS.index("q_value")] == sq.q_value
    assert couple_spin1(p1, p2).frame is not None
    channel.correlations_oracle(p1, p2, 0.0)
    channel.verify_correlations(p1, p2, 0.0)
    assert cli.main(["channel", "--p1", "1e-10", "--p2", "0", "--theta", "0"]) == 0
    # p1 = -p2: no route has a frame
    p1, p2 = [0.0, 0.0, 0.5], [0.0, 0.0, -0.5]
    row = evaluate_points([0.5], [0.5], [math.pi], [0.0])[0]
    assert math.isnan(row[COLUMNS.index("q_value")])
    assert couple_spin1(p1, p2).frame is None
    for route in (channel_squeezing, correlations, channel.correlations_oracle,
                  channel.verify_correlations):
        with pytest.raises(LakinFrameUndefined):
            route(p1, p2, 0.0)
    assert cli.main(["channel", "--p1", "0.5", "--p2", "0.5", "--theta", "180",
                     "--degrees"]) == 2


def pinned_result(n: int) -> ScanResult:
    """The first n rows of a p1 = p2 grid with theta in {0, pi/2, pi}: its
    p1 + p2 = 0 rows hold NaN, and three of the first 255 rows are squeezed."""
    axis = [1.0, 0.7, 0.35, 0.0]
    full = run_scan(ScanConfig(p1=axis, p2=axis, theta=[0.0, math.pi / 2, math.pi],
                               phi=np.linspace(0.0, 2 * math.pi, 9)))
    return ScanResult(theta=full.theta[:n], phi=full.phi[:n], p1=full.p1[:n],
                      p2=full.p2[:n], data=full.data[:n])


# sha256 of the CSV and of the JSON that the CLI writes for pinned_result(n);
# the values of n sit on both sides of the writers' 256-row block edge
PINNED_SHA256 = {
    0: ("5ea47dffa91795afa439d9f8ab7b1b2a485583b9c4e51ae015e1457cbf552133",
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    1: ("2eb27367d266c1b33efd916dc80c983eeedce9b4fdbe8a35698b16b7ec4115ad",
        "d6fdc0d39f7766a2dca3c7d2db03f64f29667e324b8392bc96144aa60f8ce1d8"),
    255: ("49cff9ecda678ae28ec56f0c1fcd1aa21102e3613302558560d26ddb0391a13f",
          "a47217be23ddcaa3e2a5e3ee9908c675df3b7618961a19904439795a6e7d9a98"),
    256: ("fc4c68b0232150ec8461419c6db243c3564627899e4439aadaae10fe49211ea6",
          "8d371033281764cee3e8a8e070f2cb2cb9ee554c76c57bd06be1969b4bdc3a8c"),
    257: ("799de8bc59c12415cecafb4e264a5a14be5dee6027b237d9d5b0199c84375224",
          "332ebb72b57e1af3ab56f889d41777884d5cef08cb342753f0d21cf13fd25561"),
}


WRITERS = {"csv": write_csv, "json": write_json}


@pytest.mark.parametrize("n", sorted(PINNED_SHA256))
def test_output_bytes_pinned(n):
    result = pinned_result(n)
    for fmt, want in zip(("csv", "json"), PINNED_SHA256[n]):
        buf = io.StringIO()
        WRITERS[fmt](result, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want, fmt


# any float, NaN and inf included, rounded to the CSV's 12 digits so that
# the CSV and the JSON can be compared exactly
_cell = st.floats(allow_nan=True, allow_infinity=True).map(
    lambda x: float("%.12g" % x))


def draw_result(data) -> tuple[ScanResult, np.ndarray]:
    """A hand-built result with NaN and inf anywhere, and its cells: up to
    30 drawn rows, repeated to a drawn n of up to 600 rows so that n
    crosses the writers' 256-row blocks."""
    rows = data.draw(hnp.arrays(np.float64, st.tuples(
        st.integers(1, 30), st.just(len(FIELDS))), elements=_cell))
    squeezed = data.draw(hnp.arrays(np.float64, len(rows), elements=(
        st.sampled_from([0.0, 1.0, math.nan, 0.5, -math.inf]))))
    rows[:, FIELDS.index("squeezed")] = squeezed
    cells = np.resize(rows, (data.draw(st.integers(0, 600)), len(FIELDS)))
    return ScanResult(theta=cells[:, 0], phi=cells[:, 1], p1=cells[:, 2],
                      p2=cells[:, 3], data=cells[:, 4:]), cells


@settings(max_examples=40)
@given(st.data())
def test_csv_rows_equal_json_rows(data):
    result, cells = draw_result(data)
    col = FIELDS.index("squeezed")
    lines = csv_string(result).split("\n")
    dicts = rows_as_dicts(result)
    json.dumps(dicts, allow_nan=False)
    assert lines[0] == CSV_HEADER and lines[-1] == ""
    assert len(lines) - 2 == len(dicts) == len(cells)
    for line, row, want in zip(lines[1:-1], dicts, cells):
        assert tuple(row) == FIELDS
        parsed = [int(f) if name == "squeezed" else float(f)
                  for name, f in zip(FIELDS, line.split(","))]
        for got, value in zip(parsed, row.values()):
            assert got == value or (value is None and not math.isfinite(got))
        assert row["squeezed"] == int(want[col] != 0 and not math.isnan(want[col]))


def _reject_constant(name):
    raise AssertionError(f"{name} literal in the JSON")


@settings(max_examples=40)
@given(st.data())
def test_write_json_bytes_equal_json_dump(data):
    """The streamed JSON is json.dump(rows_as_dicts(r), indent=2) and a
    newline, byte for byte, and holds no NaN or Infinity literal."""
    result, _ = draw_result(data)
    buf = io.StringIO()
    write_json(result, buf)
    text = buf.getvalue()
    assert text == json.dumps(rows_as_dicts(result), indent=2) + "\n"
    assert len(json.loads(text, parse_constant=_reject_constant)) == \
        len(result.theta)


class _ByteCount:
    """A text sink that keeps only the number of characters written (the
    scan JSON is ASCII, so characters are bytes)."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def writer_peak(writer) -> int:
    """tracemalloc peak, in bytes, of one writer on a 43,802-row scan."""
    result = run_scan(ScanConfig(p1=np.linspace(0.5, 1.0, 11),
                                 p2=np.linspace(0.5, 1.0, 11),
                                 theta=np.radians(np.arange(181.0)),
                                 phi=[0.0, 0.5]))
    assert len(result.theta) >= 40_000
    sink = _ByteCount()
    tracemalloc.start()
    try:
        writer(result, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 0
    return peak


def test_write_json_memory_does_not_grow_with_rows():
    """On 43,802 rows a list of row dicts peaked at 36.9 MiB; streaming
    row blocks keeps the writer's own peak under 4 MiB."""
    peak = writer_peak(write_json)
    assert peak < 4 * 2 ** 20, f"write_json peaked at {peak / 2 ** 20:.1f} MiB"


def test_write_csv_memory_does_not_grow_with_rows():
    """The CSV is written in the same 256-row blocks: the writer's own
    peak stays under 4 MiB on 43,802 rows."""
    peak = writer_peak(write_csv)
    assert peak < 4 * 2 ** 20, f"write_csv peaked at {peak / 2 ** 20:.1f} MiB"


# phi axes of 7 values (which do not divide the 256-row block), of one
# value, and of more values than a block or a chunk of 64-point kernel
# blocks holds
_PHI_COUNTS = st.one_of(st.integers(1, 9), st.sampled_from([255, 256, 257, 300]))
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 0.35, 1.0]), st.floats(0.0, 1.0))
_THETAS = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))


@st.composite
def scan_axes(draw) -> tuple:
    """(p1, p2, theta, phi) axes of at most about 2,000 rows. Magnitudes
    that both axes share with theta = pi give p1 + p2 = 0 rows."""
    n_phi = draw(_PHI_COUNTS)
    p1 = draw(st.lists(_MAGNITUDES, min_size=1, max_size=4))
    p2 = draw(st.lists(_MAGNITUDES, min_size=1, max_size=4))
    n_theta = max(1, 2_000 // (n_phi * len(p1) * len(p2)))
    theta = draw(st.lists(_THETAS, min_size=1, max_size=min(n_theta, 12)))
    start = draw(st.floats(-10.0, 10.0))
    step = draw(st.floats(1e-3, 1.0))
    return p1, p2, theta, (start + step * np.arange(n_phi)).tolist()


def _phi(n: int) -> list:
    return np.linspace(-1.0, 7.0, n).tolist()


@settings(max_examples=30)
@given(axes=scan_axes(), jobs=st.sampled_from([1, 2, 3, 10**6]),
       block=st.sampled_from([64, 100, _kernel.BLOCK]))
@example(axes=([0.35, 1.0], [0.35], [0.0, math.pi / 2, math.pi], _phi(7)),
         jobs=1, block=64)
@example(axes=([0.0, 0.5], [0.0, 0.5, 1.0], np.linspace(0, math.pi, 90).tolist(),
               [0.25]), jobs=3, block=64)
@example(axes=([0.7], [0.7, 0.2], [math.pi, 1.0], _phi(300)), jobs=2, block=100)
@example(axes=([0.35], [0.35, 0.9], [1.0, math.pi], _phi(257)), jobs=1,
         block=_kernel.BLOCK)
def test_stream_scan_bytes_equal_run_scan_writers(axes, jobs, block):
    """What the CLI streams, a chunk of kernel blocks at a time, is the
    CSV and JSON of run_scan() through write_csv() and write_json(), for
    any jobs and any chunk and block edges; p1 + p2 = 0 rows write nan
    and null."""
    config = ScanConfig(*axes)
    texts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "BLOCK", block)
        result = run_scan(config, jobs=jobs)
        for fmt, writer in WRITERS.items():
            got, want = io.StringIO(), io.StringIO()
            stream_scan(config, got, fmt, jobs=jobs)
            writer(result, want)
            assert_same_text(got.getvalue(), want.getvalue(), fmt)
            texts[fmt] = got.getvalue()
    if np.isnan(result.data).any():
        assert ",nan," in texts["csv"] and "null" in texts["json"]


def test_cli_scan_memory_does_not_grow_with_rows():
    """The CLI streams the 153,307-row grid of the benchmark's seed-0
    scan-csv with a tracemalloc peak under 4 MiB, where the coordinate
    and result arrays of the whole grid take about 22 MB."""
    argv = ["scan", "--p1", "0.4360:0.9460:0.0500", "--p2",
            "0.4180:0.9280:0.0500", "--theta", "0.0000:180.2000:1.0000",
            "--phi", "4.0000:97.0000:15.0000", "--degrees"]
    sink = _ByteCount()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == 35_926_879     # the seed-0 CSV, 153,307 rows
    assert peak < 4 * 2 ** 20, f"the CLI scan peaked at {peak / 2 ** 20:.1f} MiB"
