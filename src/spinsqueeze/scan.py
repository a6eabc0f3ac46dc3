"""Grid evaluation of the channel pair and its CSV/JSON output.

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
    "COLUMNS", "FIELDS", "CSV_HEADER", "IDX_Q_VALUE", "IDX_SQUEEZED",
    "MAX_SCAN_ROWS", "available_backends", "scan_backend", "get_kernel",
    "evaluate_points", "ScanConfig", "ScanResult", "run_scan", "write_csv",
    "write_json", "rows_as_dicts",
]

COLUMNS = ("weight", "t1_0", "t2_0", "t2_2", "variance_perp", "sz_half",
           "q_value", "squeezed", "c_xx", "c_yy", "c_zz", "c_xz", "c_zy", "c_xy")
IDX_Q_VALUE = COLUMNS.index("q_value")
IDX_SQUEEZED = COLUMNS.index("squeezed")

FIELDS = ("theta_rad", "phi_rad", "p1_mag", "p2_mag") + COLUMNS
_FIELD_SQUEEZED = FIELDS.index("squeezed")
CSV_HEADER = ",".join(FIELDS)
_CSV_ROW = ",".join("%d" if f == "squeezed" else "%.12g" for f in FIELDS) + "\n"
# one row of json.dump(..., indent=2): %r of a float is float.__repr__,
# which is what the json encoder writes
_JSON_ROW = "  {\n" + ",\n".join(
    '    "%s": %s' % (f, "%d" if f == "squeezed" else "%r") for f in FIELDS
) + "\n  }"


class _Null:
    """Stands in for a non-finite cell in the JSON template: its repr is null."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "null"


_NULL = _Null()

# Rows per output block, each made into 18 Python objects: on a 153k-row
# CLI scan, 8192-row blocks raised peak RSS by 18 %, 256-row blocks by <1 %.
_ROW_BLOCK = 256

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
    ``os.cpu_count()`` threads run. Raises ``ValueError`` unless every
    magnitude lies in [0, 1], every theta in [0, pi] and every phi is
    finite, NaN included. theta matters most: the kernel takes
    |p1 x p2| = a b sin(theta), so a larger theta would flip the signs of
    c_xz and c_zy.
    """
    kernel = get_kernel()
    arrays = [np.ascontiguousarray(np.asarray(x, dtype=float).ravel())
              for x in (p1m, p2m, theta, phi)]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("coordinate arrays must have equal length")
    # one pass of comparisons that fail on NaN (threshold_scan() makes
    # hundreds of small calls); only boolean temporaries, since float
    # ones the size of a scan raised its peak RSS
    a, b, t, f = arrays
    if not ((a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
            & (t >= 0.0) & (t <= math.pi) & np.isfinite(f)).all():
        raise ValueError(_domain_error(a, b, t))
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


def _domain_error(p1m, p2m, theta) -> str:
    """Which coordinate put a point outside the domain of the kernel."""
    for name, x in (("|p1|", p1m), ("|p2|", p2m)):
        if not ((x >= 0.0) & (x <= 1.0)).all():
            return f"polarization magnitude {name} must lie in [0, 1]"
    if not ((theta >= 0.0) & (theta <= math.pi)).all():
        return "theta must lie in [0, pi] radians"
    return "phi must be finite"


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
    p1, p2, theta, phi = (g.ravel() for g in np.meshgrid(
        config.p1, config.p2, config.theta, config.phi, indexing="ij"))
    return ScanResult(theta=theta, phi=phi, p1=p1, p2=p2,
                      data=evaluate_points(p1, p2, theta, phi, jobs=jobs))


def _row_blocks(result: ScanResult):
    """Yield the rows in :data:`FIELDS` order as float arrays of up to
    :data:`_ROW_BLOCK` rows; squeezed is 1 if non-zero and not NaN, else 0."""
    for lo in range(0, result.data.shape[0], _ROW_BLOCK):
        hi = lo + _ROW_BLOCK
        block = np.column_stack((result.theta[lo:hi], result.phi[lo:hi],
                                 result.p1[lo:hi], result.p2[lo:hi],
                                 result.data[lo:hi]))
        squeezed = block[:, _FIELD_SQUEEZED]
        block[:, _FIELD_SQUEEZED] = (squeezed != 0) & ~np.isnan(squeezed)
        yield block


def write_csv(result: ScanResult, fh: TextIO) -> None:
    """Emit the scan CSV: header, 12 significant digits, squeezed as 0/1."""
    fh.write(CSV_HEADER + "\n")
    for block in _row_blocks(result):
        fh.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


def write_json(result: ScanResult, fh: TextIO) -> None:
    """Emit the scan JSON one row block at a time: the bytes of
    ``json.dump(rows_as_dicts(result), fh, indent=2)`` and a newline."""
    opening = "[\n"
    for block in _row_blocks(result):
        cells = np.where(np.isfinite(block), block, _NULL)
        fh.write(opening + (",\n".join([_JSON_ROW] * len(block))
                            % tuple(cells.ravel().tolist())))
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")


def rows_as_dicts(result: ScanResult) -> list[dict]:
    """The CSV rows as dicts, squeezed as int and non-finite values as None."""
    rows = []
    for block in _row_blocks(result):
        cells = np.where(np.isfinite(block), block, None)
        cells[:, _FIELD_SQUEEZED] = block[:, _FIELD_SQUEEZED].astype(int)
        rows.extend(dict(zip(FIELDS, row)) for row in cells.tolist())
    return rows
