"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import readme_example
import spinsqueeze
from spinsqueeze import angular, cli, density
from spinsqueeze.cli import MAX_D_RANK, MAX_J, MAX_PHI_POINTS, main
from spinsqueeze.tensor_ops import MAX_STATE_SPIN
from spinsqueeze.scan import MAX_SCAN_ROWS

# The README's example state file: the spin-1 row of the reference table,
# squeezed along phi = pi/2.
TABLE_ROW_STATE = json.loads(readme_example("### State files", "json"))


def write_state(tmp_path, data, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _must_not_allocate(*args, **kwargs):
    pytest.fail("memory was allocated before the input size was checked")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_squeezed_row(tmp_path, capsys):
    code, out, _ = run(capsys, ["analyze", write_state(tmp_path, TABLE_ROW_STATE)])
    assert code == 0
    report = json.loads(out)
    assert report["squeezed"] is True
    assert report["phi_min"] == pytest.approx(math.pi / 2)
    assert report["min_variance"] == pytest.approx(0.289008, abs=1e-5)


def test_analyze_unpolarized(tmp_path, capsys):
    code, out, _ = run(capsys, ["analyze", write_state(tmp_path, {"spin": "1"})])
    assert code == 0
    report = json.loads(out)
    assert report["squeezed"] is False
    assert report["reason"] == "no vector polarization"


def test_analyze_unphysical_exits_3(tmp_path, capsys):
    state = {"spin": "1", "tensors": [{"k": 1, "q": 0, "re": 2.0}]}
    code, _, err = run(capsys, ["analyze", write_state(tmp_path, state)])
    assert code == 3
    assert "eigenvalues" in err


def test_analyze_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"spin": "2/3"}')
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_state_file_exits_2(tmp_path, capsys, command, value):
    state = {"spin": "1", "tensors": [{"k": 1, "q": 0, "re": 0.5},
                                      {"k": 2, "q": 1, "re": 0.1, "im": value}]}
    path = write_state(tmp_path, state)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [command, path])
    assert code == 2
    assert out == ""
    assert "(k, q) = (2, 1)" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_analyze_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, ["analyze", "/nonexistent/state.json"])
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_unreadable_state_file_exits_2(tmp_path, capsys, command):
    """A directory given as the state file is an input error, not an
    output I/O error (exit 4)."""
    code, out, err = run(capsys, [command, str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read state file")


def test_analyze_state_whose_cholesky_factor_overflows_exits_3(tmp_path, capsys):
    """Eigenvalues +-8.2e199: the squares of the normalized entries
    overflow in the positivity certificate, which must not pass it."""
    state = {"spin": "1", "tensors": [{"k": 1, "q": 1, "re": 1e200, "im": 1e200}]}
    code, out, err = run(capsys, ["analyze", write_state(tmp_path, state)])
    assert (code, out) == (3, "")
    assert "eigenvalues" in err


def test_validate_state_whose_gram_product_overflows_exits_3(tmp_path, capsys):
    """The same state through validate: the orientation test's Gram
    product and rho^2 would overflow, so it is unphysical, as analyze
    finds, with no RuntimeWarning (warnings are errors here)."""
    state = {"spin": "1", "tensors": [{"k": 1, "q": 1, "re": 1e200, "im": 1e200}]}
    code, out, err = run(capsys, ["validate", write_state(tmp_path, state)])
    assert (code, out) == (3, "")
    assert "not positive semi-definite" in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_state_spin_over_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    # spin 100 would need a 26 GB operator stack
    monkeypatch.setattr(density, "_tau_stack", _must_not_allocate)
    state = {"spin": MAX_STATE_SPIN + 0.5}
    code, out, err = run(capsys, [command, write_state(tmp_path, state)])
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_analyze_phi_points_over_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "linspace", _must_not_allocate)
    code, out, err = run(capsys, ["analyze", write_state(tmp_path, TABLE_ROW_STATE),
                                  "--phi-points", str(MAX_PHI_POINTS + 1)])
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_analyze_phi_points_negative_exits_2_and_zero_gives_no_curve(
        tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, TABLE_ROW_STATE)
    code, out, _ = run(capsys, ["analyze", path, "--phi-points", "0"])
    assert code == 0
    assert json.loads(out)["variance_curve"] == []
    monkeypatch.setattr(np, "linspace", _must_not_allocate)
    code, out, err = run(capsys, ["analyze", path, "--phi-points", "-1"])
    assert code == 2
    assert out == ""
    assert "--phi-points -1" in err
    assert "non-negative" not in err      # numpy's message, not ours


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

def test_coeff_cg_trivial(capsys):
    code, out, _ = run(capsys, ["coeff", "cg", "1", "0", "1", "0", "0", "0"])
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "exact: 1" in out
    # <1 0 1 0|1 0> vanishes by parity
    assert run(capsys, ["coeff", "cg", "1", "1", "1", "0", "0", "0"]) == \
        (0, "0\nexact: 0\n", "")


def test_coeff_cg_closed_form(capsys):
    code, out, _ = run(capsys, ["coeff", "cg", "1", "1", "2", "0", "0", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.816496580927726"
    assert lines[1] == "exact: sqrt(2/3)"


def test_coeff_half_integer_forms(capsys):
    code1, out1, _ = run(capsys, ["coeff", "cg", "1/2", "1/2", "1", "1/2", "1/2", "1"])
    code2, out2, _ = run(capsys, ["coeff", "cg", "0.5", "0.5", "1", "0.5", "0.5", "1"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_coeff_parity_violation_exits_2(capsys):
    code, _, err = run(capsys, ["coeff", "cg", "1/2", "0", "1/2", "1", "0", "1"])
    assert code == 2
    assert "error" in err


def test_coeff_9j_triangle_violation_prints_zero(capsys):
    code, out, _ = run(capsys, ["coeff", "9j",
                                "1", "1", "5", "1", "1", "1", "1", "1", "1"])
    assert code == 0
    assert out.strip() == "0"


def test_coeff_9j_of_cancelling_surds_prints_zero(capsys):
    """{2 2 2; 1 1 1; 2 2 2} is exactly 0: its terms cancel as surds, and
    the sum is taken exactly, so no rounding residue or -0 is printed."""
    code, out, _ = run(capsys, ["coeff", "9j",
                                "2", "2", "2", "1", "1", "1", "2", "2", "2"])
    assert code == 0
    assert out.strip() == "0"


def test_coeff_wrong_arg_count(capsys):
    code, _, _ = run(capsys, ["coeff", "cg", "1", "1", "2"])
    assert code == 2


def test_coeff_d_identity(capsys):
    code, out, _ = run(capsys, ["coeff", "d", "1", "0", "0", "0", "0", "0"])
    assert code == 0
    assert out.strip().startswith("1")


def test_coeff_d_rank_limit(capsys, monkeypatch):
    top = str(MAX_D_RANK)
    code, out, _ = run(capsys, ["coeff", "d", top, top, top, "0", "0", "0"])
    assert code == 0
    assert out.strip().startswith("1")
    # d^40_00(1) = P_40(cos 1), from Bonnet's recurrence
    # (l + 1) P_{l+1} = (2l + 1) x P_l - l P_{l-1}
    code, out, _ = run(capsys, ["coeff", "d", top, "0", "0", "0", "1", "0"])
    assert code == 0
    x, prev, legendre = math.cos(1.0), 1.0, math.cos(1.0)
    for ell in range(1, MAX_D_RANK):
        prev, legendre = legendre, ((2 * ell + 1) * x * legendre - ell * prev) / (ell + 1)
    assert abs(complex(out.strip()) - legendre) < 1e-13
    # the rank is refused before its spin matrices are diagonalized
    monkeypatch.setattr(angular, "_sy_eigvecs", _must_not_allocate)
    code, out, err = run(capsys, ["coeff", "d", f"{MAX_D_RANK}.5", "0.5", "0.5",
                                  "0", "1", "0"])
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_coeff_j_limit(capsys, monkeypatch):
    top = str(MAX_J)
    code, out, _ = run(capsys, ["coeff", "cg", top, "0", top, top, "0", top])
    assert code == 0
    assert out.splitlines()[0] == "1"
    # a 9-j at j = 200 takes seconds; 1e400 would start factorials of
    # 400-digit numbers
    monkeypatch.setattr(angular, "_cg_exact", _must_not_allocate)
    monkeypatch.setattr(angular, "_six_j_exact", _must_not_allocate)
    for argv in (["cg", "1e400", "1", "1e400", "0", "0", "0"],
                 ["cg", f"{MAX_J}.5", "1/2", top, "1/2", "1/2", "1"],
                 ["6j", *[str(MAX_J + 1)] * 6],
                 ["9j", *["200"] * 9]):
        code, out, err = run(capsys, ["coeff", *argv])
        assert code == 2
        assert out == ""
        assert "limit" in err


def test_coeff_negative_projection_without_separator(capsys):
    argv = ["coeff", "cg", "1/2", "1/2", "0", "1/2", "-1/2", "0"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == "0.707106781186548\nexact: sqrt(1/2)\n"
    assert run(capsys, argv[:2] + ["--"] + argv[2:]) == (0, out, "")
    code, out, _ = run(capsys, ["coeff", "d", "1", "-1", "0", "0", "-60", "0",
                                "--degrees"])
    assert code == 0
    assert out.startswith("-0.612372435695794")


@pytest.mark.parametrize("argv", [["cg", "1/0", "1", "1", "0", "0", "0"],
                                  ["6j", "1", "1", "1", "1", "1", "-2/0"],
                                  ["d", "1/0", "0", "0", "0", "0", "0"]])
def test_coeff_zero_denominator_exits_2(capsys, argv):
    code, out, err = run(capsys, ["coeff", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "zero denominator" in err


def test_coeff_d_degrees(capsys):
    code, out, _ = run(capsys, ["coeff", "d", "1", "0", "0",
                                "0", "60", "0", "--degrees"])
    assert code == 0
    assert float(out.strip().replace("j", "").split("+")[0]) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_reports_discrepancies(capsys):
    code, out, _ = run(capsys, ["table1"])
    assert code == 0
    assert out.count("DISCREPANT") == 4
    assert "match" in out


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_single_point(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, ["scan", "--p1", "1", "--p2", "1",
                              "--theta", "90", "--phi", "0", "--degrees",
                              "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["q_value"]) == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-12)
    assert row["squeezed"] == "1"


def test_scan_below_threshold_never_squeezes(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, ["scan", "--p1", "0.5", "--p2", "0.5",
                              "--theta", "1:179:1", "--phi", "0", "--degrees",
                              "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 180
    idx = lines[0].split(",").index("squeezed")
    assert all(line.split(",")[idx] == "0" for line in lines[1:])


def test_scan_stdout_json(capsys):
    code, out, _ = run(capsys, ["scan", "--p1", "0.9", "--p2", "0.85",
                                "--theta", "1.0", "--phi", "0",
                                "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["theta_rad"] == 1.0
    assert "c_zz" in rows[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_deterministic_across_jobs(tmp_path, capsys, fmt):
    """The same bytes for any --jobs, to a file and to stdout."""
    argv = ["scan", "--p1", "0.9", "--p2", "0.85", "--theta", "0:180:1",
            "--phi", "0", "--degrees", "--format", fmt]
    outputs = []
    for jobs in ("1", "4"):
        p = tmp_path / f"scan{jobs}.{fmt}"
        code, _, _ = run(capsys, argv + ["--jobs", jobs, "--output", str(p)])
        assert code == 0
        outputs.append(p.read_bytes())
        code, out, _ = run(capsys, argv + ["--jobs", jobs])
        assert code == 0
        outputs.append(out.encode())
    assert len(set(outputs)) == 1


def _no_thread(self):
    raise AssertionError("a scan started a thread")


@pytest.mark.parametrize("jobs", [0, -3, 10**6])
def test_scan_jobs_starts_no_thread(capsys, monkeypatch, small_blocks, jobs):
    """Any --jobs, absurd ones included, exits 0, writes the --jobs 1
    bytes of a grid of many kernel blocks and starts no thread."""
    argv = ["scan", "--p1", "0:1:0.05", "--p2", "0.85", "--theta", "0:180:1",
            "--phi", "0:90:45", "--degrees"]
    code, want, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    code, got, err = run(capsys, argv + ["--jobs", str(jobs)])
    assert (code, err) == (0, "")
    assert got == want


def test_scan_unwritable_output_exits_4(capsys):
    paths = ["/nonexistent/dir/x.csv"]
    if os.path.exists("/dev/full"):     # a full disk
        paths.append("/dev/full")
    for path in paths:
        code, _, err = run(capsys, ["scan", "--p1", "0.9", "--p2", "0.85",
                                    "--theta", "1.0", "--phi", "0",
                                    "--output", path])
        assert code == 4
        assert "error" in err


def test_scan_into_closed_pipe_exits_0():
    """A reader that stops after a few bytes is not an output error."""
    src = os.path.dirname(os.path.dirname(spinsqueeze.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    # about 3.6 MB of CSV, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinsqueeze.cli", "scan", "--p1", "0:1:0.01",
         "--p2", "0.85"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(100).startswith(b"theta_rad,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_scan_bad_range_exits_2(capsys):
    code, _, _ = run(capsys, ["scan", "--theta", "5:1:1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--phi=--"], ["scan", "--output=--"],
    ["analyze", "--phi-points=--", "state.json"],
    ["channel", "--p1=--", "--p2", "0.5", "--theta", "1"],
])
def test_option_value_double_dash_exits_2(capsys, argv):
    # argparse hands --name=-- an empty list, which used to end in a
    # traceback
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("axis, spec", [
    ("--p1", "nan"), ("--p2", "inf"), ("--phi", "nan"), ("--theta", "nan"),
    ("--theta", "0:inf:1"), ("--theta", "-inf:1"), ("--phi", "0:1:nan"),
    ("--p1", "0:1e308:1e-300"),
])
def test_scan_non_finite_axis_exits_2(capsys, axis, spec):
    code, out, err = run(capsys, ["scan", f"{axis}={spec}"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_scan_default_theta_is_0_to_pi(capsys):
    for argv in (["scan"], ["scan", "--degrees"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 181
        assert rows[0].split(",")[0] == "0"
        assert rows[-1].split(",")[0] == "%.12g" % math.pi


@pytest.mark.parametrize("spec", ["0:4", "-0.1", "3.1416"])
def test_scan_theta_outside_0_pi_exits_2(capsys, spec):
    code, out, err = run(capsys, ["scan", f"--theta={spec}"])
    assert code == 2
    assert out == ""
    assert "theta" in err


def test_scan_axis_over_row_limit_exits_2(capsys, monkeypatch):
    # 3e12 values: refused before numpy is asked for them
    monkeypatch.setattr(np, "arange", _must_not_allocate)
    code, out, err = run(capsys, ["scan", "--theta", "0:3:1e-12"])
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_scan_axis_over_row_limit_names_the_limit(capsys):
    # 1e300 values: the message names the limit, not a 301-digit count
    code, out, err = run(capsys, ["scan", "--p1", "0:1:1e-300"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 120
    assert f"more than {MAX_SCAN_ROWS} values" in err


def test_scan_grid_over_row_limit_exits_2(capsys, monkeypatch):
    # four axes of about 1e4 values each: 1e16 rows, each axis within the limit
    monkeypatch.setattr(np, "meshgrid", _must_not_allocate)
    code, out, err = run(capsys, ["scan", "--p1", "0:1:1e-4", "--p2", "0:1:1e-4",
                                  "--theta", "0:3:3e-4", "--phi", "0:1:1e-4"])
    assert code == 2
    assert out == ""
    assert "limit" in err


_FLOATS = st.one_of(
    st.floats(-1.0, 4.0), st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308,
                     1e-300, -1e-300, 0.5, 1.0, 180.0, -3.0]))
_AXIS_PART = st.one_of(_FLOATS.map(repr),
                       st.sampled_from(["", "x", "1e", "0x10", " 1 ", "1_0",
                                        "1/2", "--", "nan(1)"]))
_AXIS_SPEC = st.lists(_AXIS_PART, min_size=1, max_size=4).map(":".join)


def _main_run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv). A warning, which the
    CLI would print to stderr ahead of its error line, raises: the suite
    runs with warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _main_exit(argv) -> tuple[int, str]:
    """Exit code and stderr of main(argv), as in :func:`_main_run`."""
    code, _, err = _main_run(argv)
    return code, err


def _guarded_arange(real):
    def arange(*args, **kwargs):
        if args and args[0] > MAX_SCAN_ROWS:
            _must_not_allocate()
        return real(*args, **kwargs)
    return arange


@given(axes=st.tuples(_AXIS_SPEC, _AXIS_SPEC, _AXIS_SPEC, _AXIS_SPEC),
       degrees=st.booleans())
def test_scan_axis_input_property(axes, degrees):
    """Any axis text exits 0 or 2 with an error line, and nothing sized
    by the input is allocated before the limits are checked."""
    argv = ["scan", *(f"--{name}={spec}" for name, spec
                      in zip(("p1", "p2", "theta", "phi"), axes))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "stream_scan", lambda config, fh, fmt: None)
        mp.setattr(np, "arange", _guarded_arange(np.arange))
        mp.setattr(np, "meshgrid", _must_not_allocate)
        code, err = _main_exit(argv + ["--degrees"] * degrees)
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error:")


@given(values=st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS),
       degrees=st.booleans())
def test_channel_input_property(values, degrees):
    """Any channel arguments exit 0 or 2, with an error line on 2."""
    argv = ["channel", *(f"--{name}={value!r}" for name, value
                         in zip(("p1", "p2", "theta", "phi"), values))]
    code, err = _main_exit(argv + ["--degrees"] * degrees)
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error:")


_COEFF_VALUE = st.one_of(
    st.integers(-6, 6).map(lambda t: str(t // 2) if t % 2 == 0 else f"{t}/2"),
    st.integers(-6, 6).map(lambda t: repr(t / 2)),
    st.integers(-3, 3).map(lambda n: f"{n}/0"),
    _FLOATS.map(repr),
    st.sampled_from(["1e400", "-1e400", "1e100000", "-1e-100000", "0e-100000",
                     "inf", "-inf", "nan", "-nan", str(MAX_J), str(MAX_J + 1),
                     f"{MAX_J}.5", "", "x", "-x", "1e", "0x10", " 1 ", "1_0",
                     "1/2/3", "1//2", "--", "-", "--x", "-1/-2", "1/-0"]))


@given(kind=st.sampled_from(["cg", "6j", "9j", "d"]),
       values=st.lists(_COEFF_VALUE, min_size=5, max_size=10),
       degrees=st.booleans())
def test_coeff_input_property(kind, values, degrees):
    """Any coeff arguments exit 0 or 2, with an error line on 2: zero
    denominators, negative projections, huge exponents and junk included."""
    code, err = _main_exit(["coeff", kind, *values] + ["--degrees"] * degrees)
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("spin", ["1e400", '"1e-3000000"', '"1/0"', "-1e400",
                                  '"1e400"'])
def test_state_spin_out_of_range_exits_2(tmp_path, capsys, command, spin):
    """A JSON number of 1e400 loads as inf; "1e-3000000" would build a
    3-million-digit denominator before the spin limit applies."""
    path = tmp_path / "state.json"
    path.write_text('{"spin": %s}' % spin)
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("state", [
    '{"spin": true}',
    '{"spin": 1, "tensors": [{"k": true, "q": 0, "re": 0.5}]}',
    '{"spin": 1, "tensors": [{"k": "1", "q": 0, "re": 0.5}]}',
    '{"spin": 1, "tensors": [{"k": 1.9, "q": 0, "re": 0.5}]}',
    '{"spin": 1, "tensors": [{"k": 1, "q": 0.5, "re": 0.5}]}'])
def test_state_non_integer_quantum_number_exits_2(tmp_path, capsys, command, state):
    """Bools, strings and fractions are never read as spin, k or q."""
    path = tmp_path / "state.json"
    path.write_text(state)
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _either(*strategies):
    """Each strategy drawn equally often: st.one_of flattens nested
    one_of, so a branch that is itself a one_of of seven would be drawn
    seven times as often as its siblings."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 4), st.integers(),
    st.sampled_from([10**400, -10**400, 2**53 + 1]), _FLOATS,
    st.text(max_size=4))
# 2s in a few physical values, 0 and beyond MAX_STATE_SPIN; larger physical
# spins would each build their own T^k_q stack (45 MB at s = 20)
_TWICE_SPIN = st.sampled_from([-2, -1, 0, 1, 2, 3, 4,
                               2 * MAX_STATE_SPIN + 1, 2 * MAX_STATE_SPIN + 2])
_STATE_SPIN = _either(
    _TWICE_SPIN.map(lambda t: f"{t}/2"), _TWICE_SPIN.map(lambda t: t / 2),
    _TWICE_SPIN.map(lambda t: str(t / 2)), _JSON_SCALAR,
    st.sampled_from(["1/0", "1e400", "1e-3000000", "3/4", ""]))
_ENTRY = _either(
    st.fixed_dictionaries(
        {"k": st.one_of(st.integers(0, 4), _JSON_SCALAR),
         "q": st.one_of(st.integers(-4, 4), _JSON_SCALAR)},
        optional={"re": st.one_of(st.floats(-1.0, 1.0), _JSON_SCALAR),
                  "im": st.one_of(st.floats(-1.0, 1.0), _JSON_SCALAR)}),
    _JSON_SCALAR)
_ENTRIES = _either(
    st.lists(_ENTRY, max_size=6),
    st.lists(_ENTRY, min_size=1, max_size=3).map(lambda xs: xs + xs),  # duplicates
    _JSON_SCALAR)
# schema-valid files, physical or not, so that exits 0 and 3 are drawn too
_WELL_FORMED = st.fixed_dictionaries({
    "spin": st.sampled_from(["1/2", "1", "3/2", 2]),
    "tensors": st.lists(
        st.tuples(st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0)]),
                  st.floats(-1.0, 1.0), st.floats(-0.3, 0.3)).map(
            lambda e: {"k": e[0][0], "q": e[0][1], "re": e[1], "im": e[2]}),
        max_size=4, unique_by=lambda e: (e["k"], e["q"]))})
_STATE_DOC = _either(
    st.fixed_dictionaries(
        {"spin": _STATE_SPIN},
        optional={"trace": st.one_of(st.floats(0.1, 2.0), _JSON_SCALAR),
                  "tensors": _ENTRIES}),
    st.fixed_dictionaries({}, optional={"tensors": _ENTRIES}),
    _JSON_SCALAR, st.lists(_JSON_SCALAR, max_size=2))
_STATE_TEXT = _either(
    _WELL_FORMED.map(json.dumps), _STATE_DOC.map(json.dumps),
    st.sampled_from(["", "{", "nul", "\x00", '{"spin": 1e400}',
                     '{"spin": "1", "trace": 1e400}',
                     '{"spin": "1", "tensors": [{"k": 1, "q": 0, "re": 1e400}]}',
                     # a trace too small to normalize by
                     '{"spin": "1", "trace": 1e-310, '
                     '"tensors": [{"k": 1, "q": 0, "re": 0.9}]}']))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200)
@given(text=_STATE_TEXT, command=st.sampled_from(["analyze", "validate"]))
def test_state_file_property(text, command):
    """Any state file makes analyze and validate exit 0, 2 or 3 without
    a traceback: an error line on a non-zero exit, strict JSON on 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = _main_run([command, path])
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert err.startswith("error:")
        assert out == ""


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_pure_stretched(tmp_path, capsys):
    state = {"spin": "1", "tensors": [
        {"k": 1, "q": 0, "re": math.sqrt(1.5)},
        {"k": 2, "q": 0, "re": 1 / math.sqrt(2)}]}
    code, out, _ = run(capsys, ["validate", write_state(tmp_path, state)])
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is True
    assert report["purity_residual"] < 1e-10
    assert report["oriented"] is True


def test_validate_table_row_bounds(tmp_path, capsys):
    code, out, _ = run(capsys, ["validate", write_state(tmp_path, TABLE_ROW_STATE)])
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is True
    assert all(b["satisfied"] for b in report["spin1_bounds"])
    assert report["oriented"] is False
    assert report["purity_residual"] > 1e-3


def test_validate_flags_determinant_bound(tmp_path, capsys):
    # eigenvalues (1.4, -0.2, -0.2): det = 0.056 > 1/27, not PSD
    state = {"spin": "1", "tensors": [
        {"k": 1, "q": 0, "re": 2.4 / math.sqrt(1.5)},
        {"k": 2, "q": 0, "re": 1.6 / math.sqrt(2)}]}
    code, out, _ = run(capsys, ["validate", write_state(tmp_path, state)])
    assert code == 0
    report = json.loads(out)
    assert report["psd"] is False
    det = [b for b in report["spin1_bounds"] if b["name"] == "determinant"][0]
    assert det["value"] > 1 / 27
    assert det["satisfied"] is False


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_channel_point_report(capsys):
    code, out, _ = run(capsys, ["channel", "--p1", "1", "--p2", "1",
                                "--theta", "90", "--phi", "0", "--degrees"])
    assert code == 0
    report = json.loads(out)
    assert report["squeezed"] is True
    assert report["q_value"] == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-12)
    assert report["correlations_closed_form"]["xy"] == 0.0
    # pure magnitudes: sin^2(theta) = |p1 x p2|^2, so every form agrees
    assert report["correlation_mismatches"] == []


def test_channel_point_reports_zz_mismatch_for_mixed_inputs(capsys):
    code, out, _ = run(capsys, ["channel", "--p1", "0.9", "--p2", "0.85",
                                "--theta", "60", "--phi", "0", "--degrees"])
    assert code == 0
    found = json.loads(out)["correlation_mismatches"]
    assert any("C_zz" in m for m in found)
    assert not any("C_xy" in m for m in found)
    assert not any("np." in m for m in found)


def test_channel_evaluates_each_correlation_route_once(capsys, monkeypatch):
    """The report and its mismatch list share one closed-form and one
    oracle evaluation."""
    from spinsqueeze import channel
    calls = {"closed": 0, "oracle": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    closed = counted("closed", channel.correlations)
    monkeypatch.setattr(channel, "correlations", closed)
    monkeypatch.setattr(cli, "correlations", closed)
    # every oracle route projects the pair once
    monkeypatch.setattr(channel, "project_oracle",
                        counted("oracle", channel.project_oracle))
    code, out, _ = run(capsys, ["channel", "--p1", "0.9", "--p2", "0.85",
                                "--theta", "60", "--phi", "0", "--degrees"])
    assert code == 0
    assert calls == {"closed": 1, "oracle": 1}
    assert any("C_zz" in m for m in json.loads(out)["correlation_mismatches"])


@pytest.mark.parametrize("point", [
    ["--p1", "0.9", "--p2", "0.85", "--theta", "60", "--phi", "0", "--degrees"],
    ["--p1", "1e-11", "--p2", "0.5", "--theta", "1.2", "--phi", "0.3"],
])
def test_channel_and_scan_agree_at_one_point(capsys, point):
    """The channel report and the one-row scan evaluate the same closed
    forms: the 12 values they share agree to the scan's 12 digits. The
    tensors rotate between their frames, so only |t^1| is shared."""
    code, text, _ = run(capsys, ["scan", *point])
    assert code == 0
    header, values = (line.split(",") for line in text.strip().split("\n"))
    row = dict(zip(header, map(float, values)))
    code, out, _ = run(capsys, ["channel", *point])
    assert code == 0
    report = json.loads(out)
    t1 = math.hypot(*(x for name, pair in report["tensors"].items()
                      if name.startswith("t1_") for x in pair))
    shared = {"weight": report["weight"], "t1_0": t1,
              "variance_perp": report["variance_perp"],
              "sz_half": report["sz_expect"] / 2, "q_value": report["q_value"],
              "squeezed": float(report["squeezed"])}
    for comp, value in report["correlations_closed_form"].items():
        shared[f"c_{comp}"] = value
    assert len(shared) == 12
    for name, value in shared.items():
        assert row[name] == pytest.approx(value, rel=1e-11, abs=1e-11), name


@pytest.mark.parametrize("option", ["--p1", "--p2", "--theta", "--phi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_channel_non_finite_input_exits_2(capsys, option, value):
    argv = {"--p1": "0.9", "--p2": "0.85", "--theta": "1.0", "--phi": "0"}
    argv[option] = value
    code, out, err = run(capsys, ["channel", *(f"{k}={v}" for k, v in argv.items())])
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize("argv, message", [
    (["--p1", "-0.5", "--p2", "0.85", "--theta", "1"], "|p1| must lie in [0, 1]"),
    (["--p1", "0.9", "--p2", "1.5", "--theta", "1"], "|p2| must lie in [0, 1]"),
    (["--p1", "0.9", "--p2", "0.85", "--theta", "400", "--degrees"], "theta must lie"),
    (["--p1", "0.9", "--p2", "0.85", "--theta", "-0.1"], "theta must lie"),
])
def test_channel_rejects_points_outside_the_scan_domain(capsys, argv, message):
    """channel exits 2 on the points scan rejects, with scan's message."""
    code, out, err = run(capsys, ["channel", *argv])
    assert code == 2
    assert out == ""
    assert message in err
    assert run(capsys, ["scan", *argv]) == (2, "", err)


def test_channel_degenerate_exits_2(capsys):
    code, _, err = run(capsys, ["channel", "--p1", "1", "--p2", "1",
                                "--theta", "180", "--degrees"])
    assert code == 2
    assert "error" in err
