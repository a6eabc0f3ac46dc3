"""Grid evaluation of the channel pair and CSV output.

The per-point closed forms live in one numpy-vectorised kernel,
:mod:`spinsqueeze._kernel`; the tests hold it bit for bit to the scalar
loop kept as their reference.

Grids are evaluated in deterministic row order (p1 outer, then p2, then
theta, phi innermost). Parallel evaluation splits the flat index range
into contiguous chunks whose results land in disjoint slices of one
output array, so the CSV is byte-identical for every ``jobs`` value.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import _kernel

__all__ = [
    "COLUMNS", "CSV_HEADER", "IDX_Q_VALUE", "IDX_SQUEEZED", "MAX_SCAN_ROWS",
    "available_backends", "scan_backend", "get_kernel", "evaluate_points",
    "ScanConfig", "ScanResult", "run_scan", "write_csv", "rows_as_dicts",
]

COLUMNS = ("weight", "t1_0", "t2_0", "t2_2", "variance_perp", "sz_half",
           "q_value", "squeezed", "c_xx", "c_yy", "c_zz", "c_xz", "c_zy", "c_xy")
IDX_Q_VALUE = COLUMNS.index("q_value")
IDX_SQUEEZED = COLUMNS.index("squeezed")

CSV_HEADER = "theta_rad,phi_rad,p1_mag,p2_mag," + ",".join(COLUMNS)

# Largest grid run_scan builds, and largest axis the CLI parses. A scan
# holds four N-length coordinate arrays and the (N, 14) result at once,
# so this caps it near 2.5 GB instead of letting a tiny step ask for more.
MAX_SCAN_ROWS = 2 ** 24


def available_backends() -> dict:
    """Kernels by name; there is one."""
    return {"numpy": _kernel}


def scan_backend() -> str:
    """Name of the scan kernel."""
    return "numpy"


def get_kernel():
    """The kernel module; :func:`evaluate_points` calls its
    ``evaluate_into`` through this lookup on every call."""
    return _kernel


def evaluate_points(p1m, p2m, theta, phi, jobs: int = 1) -> np.ndarray:
    """Evaluate the kernel on flat, equal-length coordinate arrays.

    Returns an (N, 14) array with the :data:`COLUMNS` layout. ``jobs``
    only affects wall time, never the values or their order; at most
    ``os.cpu_count()`` threads run. theta must lie in [0, pi]; the kernel
    takes |p1 x p2| = a b sin(theta), so a larger theta would flip the
    signs of c_xz and c_zy.
    """
    kernel = get_kernel()
    arrays = [np.ascontiguousarray(np.asarray(x, dtype=float).ravel())
              for x in (p1m, p2m, theta, phi)]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("coordinate arrays must have equal length")
    # one pass: threshold_scan() makes hundreds of small calls
    if ((arrays[2] < 0.0) | (arrays[2] > math.pi)).any():
        raise ValueError("theta must lie in [0, pi] radians")
    out = np.empty((n, len(COLUMNS)), dtype=float)
    workers = min(jobs, n, os.cpu_count() or 1)
    if workers <= 1:
        kernel.evaluate_into(*arrays, out)
        return out
    bounds = np.linspace(0, n, workers + 1).astype(int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(kernel.evaluate_into,
                        *(a[lo:hi] for a in arrays), out[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        for f in futures:
            f.result()
    return out


@dataclass(frozen=True)
class ScanConfig:
    """Grid axes for a channel scan; every combination is one row."""

    p1: np.ndarray
    p2: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "theta", "phi"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.size == 0:
                raise ValueError(f"{name} axis is empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} axis has a non-finite value")
            object.__setattr__(self, name, arr)
        if np.any(self.p1 < 0) or np.any(self.p1 > 1) \
                or np.any(self.p2 < 0) or np.any(self.p2 > 1):
            raise ValueError("polarization magnitudes must lie in [0, 1]")
        # rejected here too, so that a bad grid fails before it is built
        if np.any(self.theta < 0) or np.any(self.theta > math.pi):
            raise ValueError("theta must lie in [0, pi] radians")

    @property
    def size(self) -> int:
        return self.p1.size * self.p2.size * self.theta.size * self.phi.size


@dataclass(frozen=True)
class ScanResult:
    theta: np.ndarray
    phi: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    data: np.ndarray     # (N, len(COLUMNS))


def run_scan(config: ScanConfig, jobs: int = 1) -> ScanResult:
    """Evaluate the full grid in deterministic row order. Grids of more
    than :data:`MAX_SCAN_ROWS` rows raise ``ValueError`` before anything
    is allocated."""
    if config.size > MAX_SCAN_ROWS:
        raise ValueError(f"scan of {config.size} rows exceeds the limit of "
                         f"{MAX_SCAN_ROWS} rows")
    p1g, p2g, tg, fg = np.meshgrid(config.p1, config.p2, config.theta,
                                   config.phi, indexing="ij")
    flat = [g.ravel() for g in (p1g, p2g, tg, fg)]
    data = evaluate_points(flat[0], flat[1], flat[2], flat[3], jobs=jobs)
    return ScanResult(theta=flat[2], phi=flat[3], p1=flat[0], p2=flat[1],
                      data=data)


def _fmt(x: float) -> str:
    return "%.12g" % x


def write_csv(result: ScanResult, fh: TextIO) -> None:
    """Emit the scan CSV: mandatory header, 12 significant digits,
    squeezed as 0/1."""
    fh.write(CSV_HEADER + "\n")
    n = result.data.shape[0]
    for i in range(n):
        row = result.data[i]
        fields = [_fmt(result.theta[i]), _fmt(result.phi[i]),
                  _fmt(result.p1[i]), _fmt(result.p2[i])]
        for j, name in enumerate(COLUMNS):
            if name == "squeezed":
                v = row[j]
                fields.append("0" if (math.isnan(v) or v == 0.0) else "1")
            else:
                fields.append(_fmt(row[j]))
        fh.write(",".join(fields) + "\n")


def rows_as_dicts(result: ScanResult) -> list[dict]:
    out = []
    for i in range(result.data.shape[0]):
        d = {"theta_rad": float(result.theta[i]), "phi_rad": float(result.phi[i]),
             "p1_mag": float(result.p1[i]), "p2_mag": float(result.p2[i])}
        for j, name in enumerate(COLUMNS):
            v = float(result.data[i, j])
            if name == "squeezed":
                d[name] = int(v) if not math.isnan(v) else 0
            else:
                d[name] = v if math.isfinite(v) else None
        out.append(d)
    return out
