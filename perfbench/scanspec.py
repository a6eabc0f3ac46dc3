"""Seeded scan grids for the CLI workloads, and checks of their output.

Pure Python, so the harness can check outputs without importing the
program. The worker computes the expected rows (see ``worker.py``).

Row order is p1 outer, then p2, then theta, phi innermost, as the CLI
documents it. The seed shifts the p1, p2 and phi offsets and keeps the
grid shape, so every seed writes the same number of rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass

# Pinned here rather than read from the program, so a changed header fails.
CSV_FIELDS = ("theta_rad", "phi_rad", "p1_mag", "p2_mag", "weight", "t1_0",
              "t2_0", "t2_2", "variance_perp", "sz_half", "q_value",
              "squeezed", "c_xx", "c_yy", "c_zz", "c_xz", "c_zy", "c_xy")
CSV_HEADER = ",".join(CSV_FIELDS)
IDX_SQUEEZED = CSV_FIELDS.index("squeezed")

# sha256 of the scan-csv output at the default seed, recorded at the commit
# that introduced this benchmark: the byte-identity gate for CSV output.
DEFAULT_SEED = 0
CSV_SHA256_DEFAULT_SEED = (
    "03cc2f60875eb10920bfe4bfc2e725f20296a706a7cce2c5087628f341a5aa24")

SAMPLE_ROWS = 256
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Axis:
    """One CLI range START:STOP:STEP with a known number of values."""

    start: str
    stop: str
    step: str
    count: int

    @classmethod
    def of(cls, start: float, step: float, count: int) -> "Axis":
        # the stop carries a fifth of a step of slack, so rounding in
        # (stop - start) / step cannot drop the last value
        stop = start + step * (count - 1) + step / 5
        return cls(f"{start:.4f}", f"{stop:.4f}", f"{step:.4f}", count)

    @property
    def spec(self) -> str:
        return f"{self.start}:{self.stop}:{self.step}"


@dataclass(frozen=True)
class ScanGrid:
    fmt: str            # "csv" or "json"
    p1: Axis
    p2: Axis
    theta: Axis         # degrees
    phi: Axis           # degrees
    sample: tuple       # row indices whose values are checked

    @property
    def rows(self) -> int:
        return self.p1.count * self.p2.count * self.theta.count * self.phi.count

    def argv(self, output: str) -> list:
        return ["scan", "--p1", self.p1.spec, "--p2", self.p2.spec,
                "--theta", self.theta.spec, "--phi", self.phi.spec,
                "--degrees", "--format", self.fmt, "--output", output,
                "--jobs", "1"]

    def split(self, row: int) -> tuple:
        """(p1, p2, theta, phi) axis indices of a row."""
        row, i_phi = divmod(row, self.phi.count)
        row, i_theta = divmod(row, self.theta.count)
        i_p1, i_p2 = divmod(row, self.p2.count)
        return i_p1, i_p2, i_theta, i_phi


def scan_grid(workload: str, seed: int, smoke: bool = False) -> ScanGrid:
    """scan-csv: 11 x 11 magnitudes x 181 theta x 7 phi (153,307 rows);
    scan-json: the same with 2 phi (43,802 rows). Smoke grids are tiny."""
    fmt = {"scan-csv": "csv", "scan-json": "json"}[workload]
    rng = random.Random(f"{workload}:{seed}")
    # offsets in thousandths: two magnitudes are either bitwise equal
    # (a p1 + p2 = 0 row at theta = 180) or at least 0.001 apart
    k1, k2, k_phi = rng.randrange(50), rng.randrange(50), rng.randrange(15)
    n_p = 2 if smoke else 11
    theta = Axis.of(0.0, 10.0 if smoke else 1.0, 19 if smoke else 181)
    n_phi = 7 if fmt == "csv" and not smoke else 2
    grid = ScanGrid(
        fmt=fmt,
        p1=Axis.of(0.4 + k1 / 1000, 0.05, n_p),
        p2=Axis.of(0.4 + k2 / 1000, 0.05, n_p),
        theta=theta,
        phi=Axis.of(float(k_phi), 15.0 if fmt == "csv" else 30.0, n_phi),
        sample=())
    rows = grid.rows
    picked = set(rng.sample(range(rows), min(SAMPLE_ROWS, rows)))
    picked.update((0, rows - 1))
    return dataclasses.replace(grid, sample=tuple(sorted(picked)))


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def _check_row(where: str, values: list, expected: list, problems: list):
    """values: parsed row, None for non-finite; expected likewise."""
    for name, got, want in zip(CSV_FIELDS, values, expected):
        if want is None or got is None:
            ok = got is None and want is None
        elif name == "squeezed":
            ok = got == want
        else:
            ok = _close(got, want)
        if not ok:
            problems.append(f"{where} {name}: got {got!r}, expected {want!r}")
            return


def check_csv(data: bytes, grid: ScanGrid, expected: dict,
              sha256: str | None = None) -> list:
    """Problems found in scan CSV bytes; an empty list means correct.

    ``expected`` maps sampled row index to its 18 expected values (None
    where the value is undefined, which the CSV writes as ``nan``).
    """
    problems = []
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        problems.append("CSV bytes differ from the pinned sha256")
    lines = data.decode("ascii", errors="replace").split("\n")
    if lines[0] != CSV_HEADER:
        problems.append(f"header {lines[0][:80]!r}")
    if lines[-1] != "" or len(lines) - 2 != grid.rows:
        problems.append(f"{len(lines) - 2} rows, expected {grid.rows} "
                        "newline-terminated rows")
        return problems
    for row, want in expected.items():
        fields = lines[int(row) + 1].split(",")
        if len(fields) != len(CSV_FIELDS):
            problems.append(f"row {row}: {len(fields)} fields")
            continue
        try:
            values = [None if f == "nan" else
                      (int(f) if i == IDX_SQUEEZED else float(f))
                      for i, f in enumerate(fields)]
        except ValueError as exc:
            problems.append(f"row {row}: {exc}")
            continue
        _check_row(f"row {row}", values, want, problems)
    return problems


def check_json(data: bytes, grid: ScanGrid, expected: dict) -> list:
    """Problems found in scan JSON bytes (an array of row objects)."""
    try:
        rows = json.loads(data)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    if not isinstance(rows, list) or len(rows) != grid.rows:
        return [f"expected an array of {grid.rows} rows"]
    problems = []
    for row, want in expected.items():
        obj = rows[int(row)]
        if not isinstance(obj, dict) or tuple(obj) != CSV_FIELDS:
            problems.append(f"row {row}: keys {list(obj)[:4]}...")
            continue
        _check_row(f"row {row}", [obj[k] for k in CSV_FIELDS], want, problems)
    return problems
