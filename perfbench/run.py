#!/usr/bin/env python3
"""Layered benchmark of spinsqueeze: CLI scans, threshold search and
any-spin analysis.

Run from the root of a checkout; the program is the package under
``src/`` (``PYTHONPATH=src``, not installed):

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 22 --trace 0

Workloads: scan-csv, scan-json, threshold, analyze-spins (see README.md).
Every workload is a closed loop with one client. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it has the per-layer metrics of a run in
which traced and untraced operations alternate. The line before it
records provenance. Every operation's output is checked, and an output
that fails its check counts as a failed operation.

Times are reported in reference seconds: each timed interval is
bracketed by timings of a fixed calibration loop, which cancels the
host's speed drift (see calib.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import scanspec

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
LAUNCH = os.path.join(HERE, "launch.py")
WORKLOADS = ("scan-csv", "scan-json", "threshold", "analyze-spins")
SETUPS = 3              # set-ups per untraced run; setup_s is their median
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
TMP_ROOT = ".perfbench_tmp"
BYTES_PER_POINT = 18 * 8    # 4 coordinates in, 14 columns out, float64

# spans whose self time and call count the traced run reports
SELF_TIMES = (
    "cli.main", "scan.run_scan", "scan.evaluate_points", "scan.write_csv",
    "scan.rows_as_dicts", "scan_kernel", "channel.threshold_scan",
    "squeezing.analyze", "frames.special_lakin_frame", "frames.rotate_tensors",
    "angular.wigner_d_matrix", "angular.little_d", "angular.racah_w",
    "angular.clebsch_gordan", "density.to_tensors", "density.check_positivity",
    "density.purity_residual", "density.classify_orientation")
CALLS = (
    "scan.evaluate_points", "scan_kernel", "frames.rotate_tensors",
    "angular.wigner_d_matrix", "angular.little_d", "angular.racah_w",
    "angular.clebsch_gordan", "tensor_ops.build_tau")
SPIN_LABELS = {2: "s1", 3: "s1_5", 6: "s3", 12: "s6", 20: "s10"}

clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode: str, args, *extra, cpus: set | None = None) -> dict:
    """Start worker.py in a fresh interpreter; return its JSON result. The
    worker runs on this process's CPU, or on ``cpus`` when given."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *(["--smoke"] if args.smoke else []),
           *extra]
    cmd += ["--cal0", repr(calib.sample()), "--t0", repr(time.monotonic())]
    widen = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=True, text=True,
                          preexec_fn=widen)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(cmd: list) -> tuple[float, int, float]:
    """Run a command to completion through launch.py, which keeps this
    process's peak RSS out of the command's: (wall seconds, exit code,
    peak RSS MB)."""
    proc = subprocess.Popen([sys.executable, LAUNCH, repr(CHILD_TIMEOUT_S), *cmd],
                            env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S + 5.0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)     # the launcher and its command
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    res = json.loads(out.strip().splitlines()[-1])
    return res["wall_s"], res["code"], res["peak_rss_mb"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Run:
    """What one benchmark run measured."""

    def __init__(self):
        self.setup_s: list = []
        self.walls: list = []           # untraced operation wall times
        self.items: list = []           # rows, kernel points or states per op
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = 0.0
        self.program: dict = {}
        self.s10_ms: list = []          # analyze-spins: warm analyze() at s=10
        self.layers: dict = {}          # per-layer metrics (traced runs)


def scan_workload(args, tmp: str) -> Run:
    run = Run()
    grid = scanspec.scan_grid(args.workload, args.seed, args.smoke)
    for _ in range(1 if args.trace else SETUPS):
        info = run_worker("setup", args)
        run.setup_s.append(info["setup_s"])
    run.program = info["program"]
    expected = info["expected"]
    pinned = (scanspec.CSV_SHA256_DEFAULT_SEED
              if grid.fmt == "csv" and args.seed == scanspec.DEFAULT_SEED
              and not args.smoke else None)
    output = os.path.join(tmp, f"scan.{grid.fmt}")
    stats_path = os.path.join(tmp, "stats.json")
    cli = [sys.executable, "-m", "spinsqueeze.cli"] + grid.argv(output)
    traced_cli = [sys.executable, WORKER, "tracecli", "--stats", stats_path,
                  *grid.argv(output)]
    if args.trace:
        startup = [run_child([sys.executable, "-c", "import spinsqueeze.cli"])[0]
                   for _ in range(STARTUP_PROBES)]
        run.layers["cli.startup_s"] = statistics.median(startup)
        if args.workload == "scan-csv":
            # --jobs 2 needs the CPUs the benchmark had before it pinned
            jobs = run_worker("jobs2", args, cpus=args.cpus)
            run.layers["scan.evaluate_points.jobs2_speedup"] = \
                jobs["jobs1_s"] / jobs["jobs2_s"]
    traced_walls, snapshots, sizes = [], [], []
    start = clock()
    while True:
        traced = bool(args.trace) and len(run.walls) > len(traced_walls)
        before = calib.sample()
        wall, code, rss = run_child(traced_cli if traced else cli)
        wall *= calib.factor(before, calib.sample())
        problems = [] if code == 0 else [f"exit code {code}"]
        data = b""
        if code == 0:
            with open(output, "rb") as fh:
                data = fh.read()
            os.remove(output)
            if grid.fmt == "csv":
                problems += scanspec.check_csv(data, grid, expected, pinned)
            else:
                problems += scanspec.check_json(data, grid, expected)
        run.attempted += 1
        run.failed += bool(problems)
        run.problems += problems[:3]
        if traced:
            traced_walls.append(wall)
            sizes.append(len(data))
            with open(stats_path, encoding="utf-8") as fh:
                snapshots.append(json.load(fh))
            os.remove(stats_path)
        else:
            run.walls.append(wall)
            run.items.append(grid.rows)
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
        if clock() - start >= args.seconds and (not args.trace or traced_walls):
            break
    if args.trace:
        run.layers.update(traced_layers(merge(snapshots), len(snapshots),
                                        traced_walls, run.walls))
        run.layers["scan.rows"] = grid.rows
        run.layers["scan.output_bytes"] = statistics.median(sizes)
    return run


def inproc_workload(args, tmp: str) -> Run:
    """threshold and analyze-spins run inside a fresh worker process."""
    run = Run()
    if not args.trace:
        for _ in range(SETUPS - 1):
            run.setup_s.append(run_worker("inproc", args, "--setup-only")["setup_s"])
    res = run_worker("inproc", args)
    run.setup_s.append(res["setup_s"])
    run.walls, run.items = res["walls"], res["items"]
    run.attempted, run.failed = res["attempted"], res["failed"]
    run.problems = res["problems"]
    run.peak_rss_mb = res["peak_rss_mb"]
    run.program = res["program"]
    latencies = {int(k): v for k, v in res["latencies"].items()}
    run.s10_ms = [x * 1e3 for x in latencies.get(20, [])]
    if args.trace:
        layers = run.layers
        layers.update(traced_layers(res["trace"], len(res["traced_walls"]),
                                    res["traced_walls"], run.walls))
        layers["tensor_ops.build_tau.hit_ratio"] = res["tau_hit_ratio"]
        for ts, label in SPIN_LABELS.items():
            vals = latencies.get(ts)
            layers[f"squeezing.analyze.ms_p50.{label}"] = \
                statistics.median(vals) * 1e3 if vals else 0.0
        if "cold_s10_s" in res:
            layers["angular.cold_fill_s"] = \
                res["cold_s10_s"] - statistics.median(run.s10_ms) / 1e3
    return run


def merge(snapshots: list) -> dict:
    """Sum span aggregates over traced operations."""
    out = {"stats": {}, "counts": {}, "root_s": 0.0}
    for snap in snapshots:
        for name, vals in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, n in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        out["root_s"] += snap["root_s"]
    return out


def traced_layers(trace: dict, n_ops: int, traced_walls: list,
                  untraced_walls: list) -> dict:
    """Per-operation layer metrics from span aggregates summed over n_ops
    traced operations."""
    stats, counts = trace["stats"], trace["counts"]

    def per_op(value):
        return value / n_ops

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    out = {f"{name}.self_s": per_op(stat(name, 1)) for name in SELF_TIMES}
    out.update({f"{name}.calls": per_op(stat(name, 0)) for name in CALLS})
    points = counts.get("scan_kernel.points", 0)
    kernel_calls, kernel_s = stat("scan_kernel", 0), stat("scan_kernel", 1)
    out["scan_kernel.points"] = per_op(points)
    out["scan_kernel.points_per_call"] = points / kernel_calls if kernel_calls else 0.0
    out["scan_kernel.mpts_per_s"] = points / kernel_s / 1e6 if kernel_s else 0.0
    out["scan_kernel.bytes_computed"] = per_op(points * BYTES_PER_POINT)
    rotated = counts.get("frames.ranks_rotated", 0)
    out["frames.useful_rank_ratio"] = (
        counts.get("frames.useful_ranks", 0) / rotated if rotated else 0.0)
    out["trace.op_s"] = per_op(trace["root_s"])
    out["trace.self_coverage"] = (
        sum(v[1] for v in stats.values()) / trace["root_s"])
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(untraced_walls))
    return out


# ---------------------------------------------------------------------------
# metrics, provenance, result line
# ---------------------------------------------------------------------------

def end_to_end(run: Run, workload: str) -> dict:
    """The end-to-end metrics. Each latency and throughput metric names the
    workload it was defined for; on any other workload it reports that
    workload's own operation latency or items per second (README.md)."""
    latency = statistics.median(run.walls)
    rate = sum(run.items) / sum(run.walls)
    s10 = (statistics.median(run.s10_ms) if workload == "analyze-spins"
           else latency * 1e3)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "scan_rows_per_s": (rate, "1/s"),
        "scan_wall_s_p50": (latency, "s"),
        "threshold_wall_s_p50": (latency, "s"),
        "analyze_states_per_s": (rate, "1/s"),
        "analyze_s10_ms_p50": (s10, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


# every per-layer metric and its unit, in the order BENCHMARK.json lists them
PER_LAYER = {f"{name}.self_s": "s" for name in SELF_TIMES}
PER_LAYER.update({f"{name}.calls": "count" for name in CALLS})
PER_LAYER.update({f"squeezing.analyze.ms_p50.{label}": "ms"
                  for label in SPIN_LABELS.values()})
PER_LAYER.update({
    "cli.startup_s": "s", "scan.rows": "count", "scan.output_bytes": "B",
    "scan.evaluate_points.jobs2_speedup": "x", "scan_kernel.points": "count",
    "scan_kernel.points_per_call": "count", "scan_kernel.mpts_per_s": "Mpts/s",
    "scan_kernel.bytes_computed": "B", "frames.useful_rank_ratio": "ratio",
    "angular.cold_fill_s": "s", "tensor_ops.build_tau.hit_ratio": "ratio",
    "trace.op_s": "s", "trace.self_coverage": "ratio",
    "trace.overhead_s": "s", "error_rate": "ratio",
})


def per_layer(run: Run) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    values = dict(run.layers, error_rate=run.failed / run.attempted)
    return {name: (values.get(name, 0.0), unit)
            for name, unit in PER_LAYER.items()}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read from .git."""
    head = _read(os.path.join(".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(os.path.join(".git", ref))
    if found:
        return found
    for line in (_read(os.path.join(".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the paths and bytes of the program sources."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_info() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for level in (2, 3):
        size = None
        try:
            size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE") or None
        except (ValueError, OSError):
            pass
        if size is None:
            size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
        caches[f"l{level}_cache"] = size
    return {"cpu_model": model, **caches}


def provenance(args, run: Run) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), **run.program,
        "nproc": os.cpu_count(), "cpus_usable": len(args.cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        **cpu_info(), "git_commit": git_commit(), "src_sha256": src_digest(),
        "operations": len(run.walls), "problems": run.problems[:10],
        "calib_loop_s": calib.sample(), "calib_ref_s": calib.REF_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=scanspec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one operation (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spinsqueeze", "__init__.py")):
        print("perfbench: src/spinsqueeze not found; run from the root of "
              "a spinsqueeze checkout", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    args.cpus = calib.pin()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        scan = args.workload.startswith("scan-")
        run = (scan_workload if scan else inproc_workload)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    metrics = per_layer(run) if args.trace else end_to_end(run, args.workload)
    print(json.dumps({"provenance": provenance(args, run)}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
