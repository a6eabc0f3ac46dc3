#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload once at tiny sizes (``run.py --smoke``), untraced
   and traced, and requires a correct result that names every metric of
   BENCHMARK.json with its unit, and nothing else.
2. Shows that the checkers can fail: one altered digit in a scan CSV, a
   threshold out of range and a wrong ``q_margin`` are each reported as a
   problem, while the unaltered outputs pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.abspath("src"))

import run  # noqa: E402
import scanspec  # noqa: E402


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def smoke_runs(spec: dict):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "0", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=170)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            where = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{where}: {result}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == wanted[trace],
                   f"{where}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(printed) ^ set(wanted[trace]))}")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{where}: a metric value is not a finite number")
            print(f"ok  smoke {where}: {result['attempted']} checked")


def corrupt_digit(data: bytes, grid, expected: dict) -> bytes:
    """Alter the leading digit of q_value in the first sampled row where
    that value is defined."""
    lines = data.decode("ascii").split("\n")
    col = scanspec.CSV_FIELDS.index("q_value")
    for row in sorted(int(r) for r in expected):
        fields = lines[row + 1].split(",")
        text = fields[col]
        if text == "nan":
            continue
        i = next(i for i, ch in enumerate(text) if ch.isdigit())
        fields[col] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        lines[row + 1] = ",".join(fields)
        return "\n".join(lines).encode("ascii")
    raise SystemExit("selftest FAILED: no defined q_value to corrupt")


def failing_checks():
    args = argparse.Namespace(workload="scan-csv", seed=0, seconds=0.0,
                              trace=0, smoke=True)
    grid = scanspec.scan_grid("scan-csv", 0, smoke=True)
    expected = run.run_worker("setup", args)["expected"]
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    path = os.path.join(run.TMP_ROOT, "selftest.csv")
    try:
        _, code, _ = run.run_child(
            [sys.executable, "-m", "spinsqueeze.cli"] + grid.argv(path))
        expect(code == 0, f"CLI exit code {code}")
        with open(path, "rb") as fh:
            data = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
        try:
            os.rmdir(run.TMP_ROOT)
        except OSError:
            pass
    expect(scanspec.check_csv(data, grid, expected) == [], "intact CSV rejected")
    problems = scanspec.check_csv(corrupt_digit(data, grid, expected), grid,
                                  expected)
    expect(len(problems) == 1, f"altered CSV digit not caught: {problems}")
    print(f"ok  altered CSV digit counted as a failure: {problems[0]}")

    import worker
    from spinsqueeze import channel
    config = channel.ThresholdScanConfig(p_points=400, theta_points=400)
    good = channel.ThresholdScanResult(
        min_polarization_equal=0.8671679197994987,
        min_polarization_vs_pure=0.7619047619047619,
        p_resolution=1.0 / 399, theta_resolution=math.pi / 401)
    expect(worker.check_threshold(good, config) == [], "good threshold rejected")
    for field, value in (("min_polarization_equal", 0.86),
                         ("min_polarization_vs_pure", 0.79)):
        bad = dataclasses.replace(good, **{field: value})
        problems = worker.check_threshold(bad, config)
        expect(len(problems) == 1, f"{field}={value} not caught")
        print(f"ok  threshold out of range counted as a failure: {problems[0]}")

    import numpy as np
    rho = worker.make_state(np.random.default_rng(0), 2, "pure")
    state = (2, "pure", rho, worker.q_margin_oracle(rho))
    result = worker.AnalyzeSpins.run_states([state])[0]
    expect(worker.check_state(state, result) == [], "good analysis rejected")
    report = dataclasses.replace(result[0], q_margin=result[0].q_margin + 1e-6)
    problems = worker.check_state(state, (report,) + result[1:])
    expect(len(problems) == 1, "wrong q_margin not caught")
    print(f"ok  wrong q_margin counted as a failure: {problems[0]}")


def main() -> int:
    if not os.path.isfile("BENCHMARK.json"):
        raise SystemExit("run from the root of the checkout")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failing_checks()
    smoke_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
