"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line
per criterion, including measured runtimes where a budget applies.
"""

import dataclasses
import io
import math
import time

import numpy as np
import pytest

import scan_oracle
from conftest import random_density, random_oriented, random_polarization
from spinsqueeze import (HalfInt, ScanConfig, ThresholdScanConfig, analyze,
                         build_tau, channel_squeezing, clebsch_gordan,
                         couple_spin1, couple_spin1_9j, oriented_margin,
                         project_oracle, purity_residual, run_scan,
                         threshold_scan, to_tensors, verify_correlations,
                         write_csv)
from spinsqueeze.angular import EulerAngles, wigner_d_matrix
from spinsqueeze.cli import _parse_axis, main
from spinsqueeze.frames import euler_from_rotation, rotation_matrix
from spinsqueeze.scan import CSV_HEADER
from spinsqueeze.table1 import evaluate_table
from spinsqueeze.tensor_ops import spin_matrices

SEED = 987654321


def report(number: int, text: str, elapsed: float | None = None):
    stamp = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"\n[criterion {number}] {text}: PASS{stamp}")


# ---------------------------------------------------------------------------
# 1. reference-table regression
# ---------------------------------------------------------------------------

def test_criterion_1_table_regression():
    start = time.perf_counter()
    results = evaluate_table()
    clean_rows = {("3/2", 0.7), ("3/2", 0.61), ("3/2", 0.41), ("1", 0.5), ("1", 0.4)}
    flagged_cells = {("3/2", 0.9): (True, False, True),
                     ("1", 0.7): (True, True, False),
                     ("1", 0.3): (False, False, True)}
    for res in results:
        key = (res.row.spin, res.row.t20)
        if key in clean_rows:
            assert res.all_match, (key, res.computed, res.row.printed)
        else:
            assert res.matches == flagged_cells[key], key
            # discrepant cells still carry the recomputed value
            for i, ok in enumerate(res.matches):
                if not ok:
                    assert math.isfinite(res.computed[i])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "table regression reproduces agreeing columns and flags "
              "the known-discrepant cells", elapsed)


# ---------------------------------------------------------------------------
# 2. algebra suite
# ---------------------------------------------------------------------------

def test_criterion_2_algebra_suite():
    from test_tensor_ops import commutator_identity_residual

    start = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # tensor operator orthogonality, s <= 3, tolerance 1e-12
    for ts in range(1, 7):
        n = ts + 1
        ops = [(k, q, build_tau(HalfInt(ts), k, q))
               for k in range(ts + 1) for q in range(-k, k + 1)]
        for k, q, a in ops:
            for kp, qp, b in ops:
                expect = n if (k, q) == (kp, qp) else 0.0
                assert abs(np.trace(a.conj().T @ b) - expect) < 1e-12

    # commutator identity, s = 1/2, 1, 3/2, tolerance 1e-10
    for ts in (1, 2, 3):
        assert commutator_identity_residual(ts) < 1e-10

    # spin / rank-1 tensor proportionality, s <= 3, tolerance 1e-12
    for ts in range(1, 7):
        sx, sy, sz = spin_matrices(HalfInt(ts))
        scale = math.sqrt((ts / 2) * (ts / 2 + 1) / 3)
        sph = {1: -(sx + 1j * sy) / math.sqrt(2), 0: sz,
               -1: (sx - 1j * sy) / math.sqrt(2)}
        for q in (-1, 0, 1):
            assert np.abs(sph[q] - scale * build_tau(HalfInt(ts), 1, q)).max() < 1e-12

    # rotation matrices: unitarity and composition, k <= 4, tolerance 1e-12
    for k in (1, 2, 3, 4):
        for _ in range(5):
            r1 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
            r2 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
            d1 = wigner_d_matrix(k, r1)
            assert np.abs(d1 @ d1.conj().T - np.eye(2 * k + 1)).max() < 1e-12
            combined = euler_from_rotation(rotation_matrix(r1) @ rotation_matrix(r2))
            assert np.abs(d1 @ wigner_d_matrix(k, r2)
                          - wigner_d_matrix(k, combined)).max() < 1e-12

    # Clebsch-Gordan orthogonality, j1, j2 <= 2, tolerance 1e-12
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            couplings = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            for tj in couplings:
                for tjp in couplings:
                    for tm in range(-tj, tj + 1, 2):
                        if abs(tm) > tjp:
                            continue
                        total = 0.0
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tm - tm1
                            if abs(tm2) > tj2:
                                continue
                            total += (clebsch_gordan(
                                HalfInt(tj1), HalfInt(tj2), HalfInt(tj),
                                HalfInt(tm1), HalfInt(tm2), HalfInt(tm))
                                * clebsch_gordan(
                                HalfInt(tj1), HalfInt(tj2), HalfInt(tjp),
                                HalfInt(tm1), HalfInt(tm2), HalfInt(tm)))
                        expect = 1.0 if tj == tjp else 0.0
                        assert abs(total - expect) < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "operator orthogonality, commutator identity, spin/tensor "
              "proportionality, rotation unitarity and composition, "
              "CG orthogonality", elapsed)


# ---------------------------------------------------------------------------
# 3. oracle equivalence of the three coupling routes
# ---------------------------------------------------------------------------

def test_criterion_3_channel_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    agree = 0
    for _ in range(1000):
        p1 = random_polarization(rng)
        p2 = random_polarization(rng)
        closed = couple_spin1(p1, p2).params
        ninej = couple_spin1_9j(p1, p2)
        projected = project_oracle(p1, p2)
        oracle = to_tensors(projected)
        for k in (1, 2):
            for q in range(-k, k + 1):
                assert abs(closed.get(k, q) - ninej.get(k, q)) < 1e-12
                assert abs(closed.get(k, q) - oracle.get(k, q)) < 1e-12
        if np.linalg.norm(p1 + p2) > 1e-3:
            ch = channel_squeezing(p1, p2, 0.0)
            rep = analyze(projected)
            assert ch.squeezed == rep.squeezed
            agree += 1
    assert agree > 900
    elapsed = time.perf_counter() - start
    report(3, f"closed forms = 9-j contraction = projection oracle on 1000 "
              f"random pairs; squeezing verdicts agree on {agree} "
              f"non-degenerate pairs", elapsed)


# ---------------------------------------------------------------------------
# 4. no-squeezing theorems
# ---------------------------------------------------------------------------

def test_criterion_4_no_squeezing_theorems():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    for ts in (1, 2, 3, 4):
        for _ in range(500):
            rho, _, _ = random_oriented(rng, ts)
            assert not analyze(rho).squeezed
    for _ in range(500):
        assert not analyze(random_density(rng, 1)).squeezed
    for ts in (1, 2, 3, 4, 5):
        n = ts + 1
        for _ in range(10000):
            p = rng.dirichlet(np.ones(n))
            assert oriented_margin(HalfInt(ts), p) <= 0.0
    elapsed = time.perf_counter() - start
    report(4, "2000 oriented states and 500 spin-1/2 states never squeezed; "
              "50000 population vectors keep a non-positive margin", elapsed)


# ---------------------------------------------------------------------------
# 5. polarization thresholds
# ---------------------------------------------------------------------------

def test_criterion_5_thresholds():
    """The grid thresholds lie at or above the exact ones, by at most two
    P steps. With a = |p1|, b = |p2| and u = |p1 + p2| where the margin
    peaks, the boundary is a^2 + b^2 = u^2 - 3u/2 + 2 and
    |a^2 - b^2| = u sqrt(u^2 - u): equal magnitudes give u = 1 and
    P = sqrt(3)/2, a pure partner u = 9/8 and P = sqrt(37)/8."""
    start = time.perf_counter()
    res = threshold_scan(ThresholdScanConfig(p_points=400, theta_points=400))
    elapsed = time.perf_counter() - start
    equal, vs_pure = res.min_polarization_equal, res.min_polarization_vs_pure
    band = 2 * res.p_resolution
    assert math.sqrt(3) / 2 <= equal <= math.sqrt(3) / 2 + band
    assert math.sqrt(37) / 8 <= vs_pure <= math.sqrt(37) / 8 + band
    assert elapsed < 60.0
    # and exactly the per-P sweep's values on the same np.linspace grids
    p_values = np.linspace(0.0, 1.0, 400)
    theta = np.linspace(0.0, math.pi, 402)[1:-1]
    assert (equal, vs_pure) == tuple(scan_oracle.first_squeezed(p_values, theta, pure)
                                     for pure in (False, True))
    report(5, f"equal-magnitude threshold {equal:.4f} in [sqrt(3)/2, "
              f"sqrt(3)/2 + {band:.4f}]; vs-pure threshold {vs_pure:.4f} in "
              f"[sqrt(37)/8, sqrt(37)/8 + {band:.4f}]; both equal to the "
              f"per-P sweep", elapsed)


# ---------------------------------------------------------------------------
# 6. pure-state limit
# ---------------------------------------------------------------------------

def test_criterion_6_pure_limit_angle_mapping():
    rng = np.random.default_rng(SEED + 6)
    ez = np.array([0.0, 0.0, 1.0])
    for theta in rng.uniform(1e-4, math.pi - 1e-4, size=1000):
        p2 = np.array([math.sin(theta), 0.0, math.cos(theta)])
        q = channel_squeezing(ez, p2, 0.0).q_value
        x = theta / 2  # the opening angle enters the reduced form halved
        ref = abs(math.cos(x)) - math.cos(x) ** 2
        assert math.copysign(1, q) == math.copysign(1, ref) or abs(q) < 1e-12
        assert q == pytest.approx(ref, abs=1e-12)
    report(6, "pure-state margin sign (and value) matches |cos x| - cos^2 x "
              "with x = theta/2 at 1000 angles")


# ---------------------------------------------------------------------------
# 7. figure-parameter scans
# ---------------------------------------------------------------------------

FIGURE_PARAMS = [(0.90, 0.85, 0.0), (0.95, 0.92, 5.0), (0.85, 0.95, 10.0)]


def test_criterion_7_figure_scans(tmp_path):
    start = time.perf_counter()
    for p1m, p2m, phi_deg in FIGURE_PARAMS:
        out = tmp_path / f"fig_{p1m}_{p2m}.csv"
        code = main(["scan", "--p1", str(p1m), "--p2", str(p2m),
                     "--theta", "0:180:1", "--phi", str(phi_deg),
                     "--degrees", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 182
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        # (a) q_value > 0 on one contiguous, non-empty theta band
        squeezed = [r["squeezed"] == "1" for r in rows]
        assert any(squeezed)
        first, last = squeezed.index(True), len(squeezed) - 1 - squeezed[::-1].index(True)
        assert all(squeezed[first:last + 1])
        assert all(float(r["q_value"]) > 0 for r in rows[first:last + 1])
        # (b) the closed-form C_xy column is identically zero
        assert all(r["c_xy"] == "0" for r in rows)
        # (c) closed forms match the oracle within 1e-10, or the mismatch
        # log names the offending published formula with its parameters
        phi = math.radians(phi_deg)
        for r in rows[1:-1]:
            theta = float(r["theta_rad"])
            p1 = p1m * np.array([0.0, 0.0, 1.0])
            p2 = p2m * np.array([math.sin(theta), 0.0, math.cos(theta)])
            mismatches = verify_correlations(p1, p2, phi)
            for m in mismatches:
                assert m.component in ("zz", "xy"), m
                assert "closed form" in m.note
                assert m.phi == phi
    elapsed = time.perf_counter() - start
    report(7, "figure-parameter scans show a contiguous squeezing band, "
              "C_xy = 0, and every closed-form/oracle mismatch is logged "
              "with formula and parameters", elapsed)


# ---------------------------------------------------------------------------
# 8. purity constraint
# ---------------------------------------------------------------------------

def test_criterion_8_purity_constraint():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    for ts in (1, 2, 3, 4):
        n = ts + 1
        for _ in range(100):
            pure = random_density(rng, ts, pure=True)
            assert purity_residual(to_tensors(pure)) < 1e-10
        for _ in range(25):
            mixed = random_density(rng, ts)
            mat = 0.6 * mixed.normalized_matrix() + 0.4 * np.eye(n) / n
            from spinsqueeze import SpinDensity
            blended = SpinDensity(HalfInt(ts), mat)
            assert np.linalg.eigvalsh(mat)[0] > 0.05
            assert purity_residual(to_tensors(blended)) > 1e-3
    elapsed = time.perf_counter() - start
    report(8, "purity residual < 1e-10 for 400 random pure states and "
              "> 1e-3 for well-mixed states", elapsed)


# ---------------------------------------------------------------------------
# 9. scan determinism
# ---------------------------------------------------------------------------

def test_criterion_9_scan_determinism(tmp_path, small_blocks):
    # np.linspace(0.05, 1.0, 12), 0.85, np.linspace(0.01, 3.13, 50) and
    # np.linspace(0.0, 1.5, 4), bit for bit, as CLI ranges
    axes = {"p1": f"0.05:1.0:{0.95 / 11!r}", "p2": "0.85",
            "theta": f"0.01:3.13:{3.12 / 49!r}", "phi": "0.0:1.5:0.5"}
    config = ScanConfig(*(_parse_axis(spec, 1.0) for spec in axes.values()))
    argv = ["scan", *(f"--{name}={spec}" for name, spec in axes.items())]

    def csv_bytes(result):
        buf = io.StringIO()
        write_csv(result, buf)
        return buf.getvalue().encode()

    result = run_scan(config)
    reference = csv_bytes(result)
    # 2,400 points in 64-point blocks
    for jobs in (1, 2, 4, 7):
        out = tmp_path / f"scan{jobs}.csv"
        assert main(argv + ["--jobs", str(jobs), "--output", str(out)]) == 0
        assert out.read_bytes() == reference
    scalar = np.empty_like(result.data)
    scan_oracle.evaluate_into(result.p1, result.p2, result.theta, result.phi,
                              scalar)
    assert csv_bytes(dataclasses.replace(result, data=scalar)) == reference
    report(9, "scan CSV is byte-identical across runs, --jobs values, "
              "the CLI and library routes, and the scalar reference kernel")
