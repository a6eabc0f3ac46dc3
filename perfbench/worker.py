"""Child-process side of the benchmark: everything that imports spinsqueeze.

``run.py`` starts this file with ``PYTHONPATH=src`` in one of four modes
and reads one JSON object from the last line of its standard output:

* ``setup``: input generation for a scan workload. It imports the
  program and computes the expected values of the sampled rows from the
  scalar API (``channel.couple_spin1``, ``channel_squeezing``,
  ``correlations``).
* ``inproc``: set-up plus the measured loop of the threshold and
  analyze-spins workloads, optionally traced. With ``--setup-only`` it
  stops after set-up.
* ``jobs2``: ``evaluate_points`` on the scan-csv grid at jobs 1 and 2.
* ``tracecli``: the CLI under the span tracer; writes the aggregates to
  ``--stats`` and exits with the CLI's exit code.

Set-up time runs from ``--t0``, a ``time.monotonic()`` reading the parent
takes just before it starts the process, so it includes interpreter
start-up and ``import spinsqueeze``. It and every operation time are in
reference seconds (see ``calib.py``): set-up is calibrated between
``--cal0``, a loop timing the parent takes before ``--t0``, and one taken
when set-up ends.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import numpy as np

import spinsqueeze
from spinsqueeze import channel, density, scan, squeezing, tensor_ops
from spinsqueeze.density import SpinDensity
from spinsqueeze.halfint import HalfInt

import calib
import scanspec
from spans import Tracer

clock = time.perf_counter

# (2s, states of each kind per round), sized so that with the pure-Python
# code each spin takes a comparable share of a round: 1 to 1.5 s of a 6 s
# round on a 2-CPU Xeon.
SPINS = ((2, 80), (3, 30), (6, 3), (12, 4), (20, 1))
KINDS = ("mixed", "pure", "oriented")
S10 = 20
VALIDATE_MAX_TS = 6     # the validate trio runs for s <= 3
SEGMENT_S = 0.25        # analyze-spins calibrates at least this often
SEGMENT_LOOPS = 1       # calibration loops per sample there
PURE_RESIDUAL_TOL = 1e-9
TOLERANCE = scanspec.TOLERANCE


def program_info() -> dict:
    return {"numpy": np.__version__, "spinsqueeze": spinsqueeze.__version__,
            "scan_backend": scan.scan_backend(),
            "available_backends": sorted(scan.available_backends())}


def setup_seconds(args) -> float:
    """Reference seconds since the parent started this process."""
    wall = time.monotonic() - args.t0
    return wall * calib.factor(args.cal0, calib.sample())


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started worker.py. VmHWM, unlike
    ru_maxrss, does not carry over the peak of the process that started it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# scan workloads: expected rows
# ---------------------------------------------------------------------------

def grid_axes(grid: scanspec.ScanGrid) -> tuple:
    """(p1, p2, theta, phi) values, theta and phi in radians."""

    def values(axis: scanspec.Axis, degrees: bool) -> np.ndarray:
        # the CLI's axis arithmetic, so the oracle sees the exact grid
        # coordinates rather than their 12-digit CSV rendering
        out = float(axis.start) + float(axis.step) * np.arange(axis.count)
        return np.radians(out) if degrees else out

    return (values(grid.p1, False), values(grid.p2, False),
            values(grid.theta, True), values(grid.phi, True))


def expected_row(a: float, b: float, theta: float, phi: float) -> list:
    """The 18 CSV values of one grid point from the scalar API; None marks
    values the CSV writes as nan."""
    p1 = np.array([0.0, 0.0, a])
    p2 = np.array([b * math.sin(theta), 0.0, b * math.cos(theta)])
    state = channel.couple_spin1(p1, p2)
    head = [theta, phi, a, b, state.weight]
    if state.frame is None:     # p1 + p2 = 0: no distinguished frame
        return head + [state.params.get(1, 0).real, None, None, None, 0.0,
                       None, 0] + [None] * 6
    frame = state.frame
    t = channel.couple_spin1(frame.p1_components, frame.p2_components).params
    sq = channel.channel_squeezing(p1, p2, phi)
    c = channel.correlations(p1, p2, phi)
    return head + [t.get(1, 0).real, t.get(2, 0).real, t.get(2, 2).real,
                   sq.variance_perp, sq.sz_expect / 2.0, sq.q_value,
                   int(sq.squeezed), c.xx, c.yy, c.zz, c.xz, c.zy, c.xy]


def scan_expected(grid: scanspec.ScanGrid) -> dict:
    axes = grid_axes(grid)
    out = {}
    for row in grid.sample:
        i1, i2, it, ip = grid.split(row)
        out[row] = expected_row(float(axes[0][i1]), float(axes[1][i2]),
                                float(axes[2][it]), float(axes[3][ip]))
    return out


def cmd_setup(args) -> dict:
    grid = scanspec.scan_grid(args.workload, args.seed, args.smoke)
    expected = scan_expected(grid)
    return {"setup_s": setup_seconds(args), "expected": expected,
            "program": program_info()}


def cmd_jobs2(args) -> dict:
    grid = scanspec.scan_grid("scan-csv", args.seed, args.smoke)
    flat = [g.ravel() for g in np.meshgrid(*grid_axes(grid), indexing="ij")]
    wall = {}
    for jobs in (1, 2):
        start = clock()
        scan.evaluate_points(*flat, jobs=jobs)
        wall[jobs] = clock() - start
    return {"jobs1_s": wall[1], "jobs2_s": wall[2]}


def cmd_tracecli(args) -> int:
    from spinsqueeze import cli
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            code = cli.main(args.argv)
    finally:
        tracer.restore()
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


# ---------------------------------------------------------------------------
# threshold workload
# ---------------------------------------------------------------------------

class Threshold:
    """One operation is one ``threshold_scan()`` call."""

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 1])
        if smoke:
            p_points, theta_points = 200, 200
        else:
            p_points, theta_points = (int(x) for x in rng.integers(400, 416, 2))
        self.config = channel.ThresholdScanConfig(p_points=p_points,
                                                  theta_points=theta_points)

    def run(self, calibrate: bool):
        before = calib.sample() if calibrate else 0.0
        start = clock()
        result = channel.threshold_scan(self.config)
        wall = clock() - start
        if calibrate:
            wall *= calib.factor(before, calib.sample())
        return wall, self.points(result), result

    def points(self, result) -> int:
        """Kernel points evaluated: each search stops at its threshold."""
        steps = self.config.p_points - 1
        found = (result.min_polarization_equal, result.min_polarization_vs_pure)
        return sum(round(p * steps) + 1 if math.isfinite(p) else steps + 1
                   for p in found) * self.config.theta_points

    def check(self, result) -> tuple[int, int, list]:
        problems = check_threshold(result, self.config)
        return 1, int(bool(problems)), problems


def check_threshold(result, config) -> list:
    """Problems with a threshold_scan result; empty means correct."""
    problems = []
    p_res = 1.0 / (config.p_points - 1)
    low = math.sqrt(3.0) / 2.0
    if not math.isclose(result.p_resolution, p_res, rel_tol=1e-12):
        problems.append(f"p_resolution {result.p_resolution}")
    if not low <= result.min_polarization_equal <= low + 2.0 * p_res:
        problems.append(f"equal-magnitude threshold {result.min_polarization_equal}")
    if not abs(result.min_polarization_vs_pure - 0.77) <= 0.01:
        problems.append(f"pure-partner threshold {result.min_polarization_vs_pure}")
    return problems


# ---------------------------------------------------------------------------
# analyze-spins workload
# ---------------------------------------------------------------------------

def _rotation(ts: int, alpha: float, beta: float) -> np.ndarray:
    """exp(-i alpha S_z) exp(-i beta S_y) from the spin matrices."""
    _, sy, sz = tensor_ops.spin_matrices(HalfInt(ts))
    vals, vecs = np.linalg.eigh(sy)
    ry = vecs @ np.diag(np.exp(-1j * beta * vals)) @ vecs.conj().T
    return np.diag(np.exp(-1j * alpha * np.diag(sz).real)) @ ry


def make_state(rng, ts: int, kind: str) -> SpinDensity:
    n = ts + 1
    if kind == "oriented":
        pops = rng.dirichlet(np.ones(n))
        u = _rotation(ts, rng.uniform(0.0, 2.0 * math.pi),
                      rng.uniform(0.1, math.pi - 0.1))
        rho = u @ np.diag(pops) @ u.conj().T
    else:
        rank = 1 if kind == "pure" else 2
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return SpinDensity(HalfInt(ts), rho / np.trace(rho).real)


def q_margin_oracle(rho: SpinDensity) -> float:
    """|<S.n>|/2 minus the least transverse variance, from spin matrices:
    n is the mean-spin direction, and the variance is the smaller
    eigenvalue of the covariance of S along two axes normal to n."""
    spins = tensor_ops.spin_matrices(rho.spin)
    m = rho.matrix / np.trace(rho.matrix).real

    def mean(op):
        return float(np.trace(m @ op).real)

    vec = np.array([mean(s) for s in spins])
    n = vec / np.linalg.norm(vec)
    seed = np.eye(3)[int(np.argmin(np.abs(n)))]
    e1 = np.cross(n, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    a = sum(c * s for c, s in zip(e1, spins))
    b = sum(c * s for c, s in zip(e2, spins))
    ma, mb = mean(a), mean(b)
    cov = np.array([[mean(a @ a) - ma * ma, mean((a @ b + b @ a) / 2) - ma * mb],
                    [0.0, mean(b @ b) - mb * mb]])
    cov[1, 0] = cov[0, 1]
    return float(np.linalg.norm(vec)) / 2.0 - float(np.linalg.eigvalsh(cov)[0])


def check_state(state, result) -> list:
    """Problems with one state's analysis; empty means correct."""
    ts, kind, _, q_want = state
    report, trio, _, _ = result
    where = f"s={ts / 2:g} {kind}"
    problems = []
    if not math.isclose(report.q_margin, q_want, rel_tol=TOLERANCE,
                        abs_tol=TOLERANCE):
        problems.append(f"{where}: q_margin {report.q_margin} vs oracle {q_want}")
    if kind == "oriented" and report.squeezed:
        problems.append(f"{where}: oriented state reported squeezed")
    if trio is not None:
        pos, residual, orient = trio
        if not pos.psd:
            problems.append(f"{where}: positivity check failed")
        if (kind == "pure") != (residual <= PURE_RESIDUAL_TOL):
            problems.append(f"{where}: purity residual {residual:.3g}")
        if kind == "oriented" and not orient.oriented:
            problems.append(f"{where}: orientation not found")
    return problems


class AnalyzeSpins:
    """One operation is one round over every seeded state.

    Mixed, pure and oriented states in equal parts at s in
    {1, 3/2, 3, 6, 10}. Every state gets ``analyze()``; states with
    s <= 3 also get the validate trio.
    """

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 2])
        if smoke:   # one state per spin
            plan = [(ts, KINDS[j % 3]) for j, (ts, _) in enumerate(SPINS)]
        else:
            plan = [(ts, kind) for ts, per_kind in SPINS
                    for _ in range(per_kind) for kind in KINDS]
        self.states = []        # (2s, kind, rho, expected q_margin)
        for ts, kind in plan:
            rho = make_state(rng, ts, kind)
            self.states.append((ts, kind, rho, q_margin_oracle(rho)))
        # warm the coefficient caches with one state per spin; s = 10 goes
        # first, so its time is the cold cost a fresh process pays
        firsts = {}
        for state in self.states:
            firsts.setdefault(state[0], state)
        order = sorted(firsts.values(), key=lambda st: st[0] != S10)
        start = clock()
        self.run_states(order[:1])
        self.cold_s10_s = clock() - start
        self.run_states(order[1:])

    @staticmethod
    def run_states(states, calibrate: bool = False) -> list:
        """(report, trio, analyze() seconds, seconds) per state. With
        ``calibrate`` the states run in segments of about SEGMENT_S, each
        bracketed by SEGMENT_LOOPS calibration loops, and times are
        reference seconds."""
        out = []
        first = 0       # first state of the open segment
        before = calib.sample(SEGMENT_LOOPS) if calibrate else 0.0
        opened = clock()
        for ts, kind, rho, _ in states:
            start = clock()
            report = squeezing.analyze(rho)
            analyzed = clock()
            trio = None
            if ts <= VALIDATE_MAX_TS:
                trio = (density.check_positivity(rho),
                        density.purity_residual(density.to_tensors(rho)),
                        density.classify_orientation(rho))
            out.append((report, trio, analyzed - start, clock() - start))
            if calibrate and (clock() - opened >= SEGMENT_S
                              or len(out) == len(states)):
                after = calib.sample(SEGMENT_LOOPS)
                scale = calib.factor(before, after)
                out[first:] = [(r, t, a * scale, w * scale)
                               for r, t, a, w in out[first:]]
                first, before, opened = len(out), after, clock()
        return out

    def run(self, calibrate: bool):
        results = self.run_states(self.states, calibrate)
        return sum(r[3] for r in results), len(results), results

    def check(self, results) -> tuple[int, int, list]:
        problems = []
        failed = 0
        for state, result in zip(self.states, results):
            found = check_state(state, result)
            failed += bool(found)
            problems.extend(found)
        return len(results), failed, problems

    def latencies(self, results) -> dict:
        """analyze() seconds per spin, keyed by 2s."""
        out: dict[int, list] = {}
        for (ts, _, _, _), (_, _, analyze_s, _) in zip(self.states, results):
            out.setdefault(ts, []).append(analyze_s)
        return out


# ---------------------------------------------------------------------------
# measured loop of the in-process workloads
# ---------------------------------------------------------------------------

def cmd_inproc(args) -> dict:
    cls = Threshold if args.workload == "threshold" else AnalyzeSpins
    work = cls(args.seed, args.smoke)
    setup_s = setup_seconds(args)
    if args.setup_only:
        return {"setup_s": setup_s}
    tracer = Tracer() if args.trace else None
    tau_before = tensor_ops._tau_cached.cache_info()
    walls, traced_walls, items = [], [], []
    attempted, failed, problems = 0, 0, []
    latencies: dict[int, list] = {}
    start = clock()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            # calibrated outside the traced span, which holds only the work
            before = calib.sample()
            tracer.install()
            try:
                with tracer.span("op"):
                    wall, n, output = work.run(calibrate=False)
            finally:
                tracer.restore()
            traced_walls.append(wall * calib.factor(before, calib.sample()))
        else:
            wall, n, output = work.run(calibrate=True)
            walls.append(wall)
            items.append(n)
            if cls is AnalyzeSpins:
                for ts, vals in work.latencies(output).items():
                    latencies.setdefault(ts, []).extend(vals)
        tried, bad, found = work.check(output)
        attempted += tried
        failed += bad
        problems.extend(found[:3])
        if clock() - start >= args.seconds and (tracer is None or traced_walls):
            break
    tau_after = tensor_ops._tau_cached.cache_info()
    out = {"setup_s": setup_s, "walls": walls, "items": items,
           "attempted": attempted, "failed": failed, "problems": problems[:10],
           "peak_rss_mb": peak_rss_mb(), "program": program_info(),
           "latencies": {str(k): v for k, v in latencies.items()}}
    if cls is AnalyzeSpins:
        out["cold_s10_s"] = work.cold_s10_s
    if tracer is not None:
        hits = tau_after.hits - tau_before.hits
        misses = tau_after.misses - tau_before.misses
        out.update(trace=tracer.snapshot(), traced_walls=traced_walls,
                   tau_hit_ratio=hits / (hits + misses) if hits + misses else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "inproc", "jobs2"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", default="scan-csv")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, default=0.0)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--smoke", action="store_true")
        p.add_argument("--setup-only", action="store_true")
        p.add_argument("--t0", type=float, default=time.monotonic())
        p.add_argument("--cal0", type=float, default=calib.REF_S)
    p = sub.add_parser("tracecli")
    p.add_argument("--stats", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "tracecli":
        return cmd_tracecli(args)
    handler = {"setup": cmd_setup, "inproc": cmd_inproc, "jobs2": cmd_jobs2}
    print(json.dumps(handler[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
