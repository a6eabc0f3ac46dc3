"""Grid evaluation of the channel pair and its CSV/JSON output.

The per-point closed forms live in one numpy-vectorised kernel,
:mod:`spinsqueeze._kernel`; the tests hold it bit for bit to the scalar
loop kept as their reference.

Grids are evaluated in deterministic row order (p1 outer, then p2, then
theta, phi innermost). Row coordinates come from the flat index of the
(p1, p2, theta) triple and the phi index, one chunk of rows at a time.
:func:`run_scan` evaluates the whole grid as one chunk into a
:class:`ScanResult`, which :func:`write_csv` and :func:`write_json`
format with one % template per row, every cell of every row formatted on
its own: they are the byte reference of the scan output.
:func:`stream_scan`, which the CLI runs, evaluates, formats and writes
one chunk of a few kernel blocks at a time, so its memory does not grow
with the grid, and formats each axis value once and the cells that do not
depend on phi once per (p1, p2, theta) triple; the tests hold its bytes
to those of the writers. :func:`evaluate_points` cuts each chunk into
kernel blocks of :data:`spinsqueeze._kernel.BLOCK` points, evaluated in
order or spread over threads, so the output is byte-identical for every
``jobs`` value and for both routes.
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
    "write_json", "stream_scan", "rows_as_dicts",
]

COLUMNS = ("weight", "t1_0", "t2_0", "t2_2", "variance_perp", "sz_half",
           "q_value", "squeezed", "c_xx", "c_yy", "c_zz", "c_xz", "c_zy", "c_xy")
IDX_Q_VALUE = COLUMNS.index("q_value")
IDX_SQUEEZED = COLUMNS.index("squeezed")

FIELDS = ("theta_rad", "phi_rad", "p1_mag", "p2_mag") + COLUMNS
_FIELD_SQUEEZED = FIELDS.index("squeezed")
CSV_HEADER = ",".join(FIELDS)

# The cells the kernel computes without phi, and c_xy (always 0): along
# the innermost phi axis they repeat, so stream_scan formats them once per
# (p1, p2, theta) triple and the other eight cells once per row.
_RUN_FIELDS = ("theta_rad", "p1_mag", "p2_mag", "weight", "t1_0", "t2_0",
               "t2_2", "sz_half", "c_zz", "c_xy")
# the same cells as kernel columns, in template order
_RUN_DATA = [COLUMNS.index(f) for f in _RUN_FIELDS if f in COLUMNS]
_ROW_DATA = [COLUMNS.index(f) for f in FIELDS if f in COLUMNS
             and f not in _RUN_FIELDS]
# the grid coordinates, which stream_scan formats once per axis value
_AXIS_FIELDS = ("theta_rad", "phi_rad", "p1_mag", "p2_mag")


def _templates(row_of, spec: str, axis_spec: str) -> tuple:
    """The (row, run_row) templates of a format: ``spec`` formats a
    cell, ``axis_spec`` an axis cell. In ``run_row`` the run cells are
    filled in by a first % call, the escaped row cells by a second."""
    def cell(field: str) -> str:
        if field == "squeezed":
            return "%d"
        return "%" + (axis_spec if field in _AXIS_FIELDS else spec)

    def run_cell(field: str) -> str:
        return cell(field) if field in _RUN_FIELDS else "%" + cell(field)

    return row_of(cell), row_of(run_cell)


def _csv_row(cell) -> str:
    return ",".join(cell(f) for f in FIELDS) + "\n"


def _json_row(cell) -> str:
    """One row of json.dump(..., indent=2) and the separator after it: %r
    of a float is float.__repr__, which is what the json encoder writes."""
    return "  {\n" + ",\n".join(
        '    "%s": %s' % (f, cell(f)) for f in FIELDS) + "\n  },\n"


# row templates of the ScanResult writers, which format every cell from floats
_CSV_ROW = _templates(_csv_row, ".12g", ".12g")[0]
_JSON_ROW = _templates(_json_row, "r", "r")[0]


class _Null:
    """Stands in for a non-finite cell in the JSON template: its repr is null."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "null"


_NULL = _Null()


def _json_cells(block: np.ndarray) -> np.ndarray:
    """The cells of a float block as the JSON templates take them."""
    return np.where(np.isfinite(block), block, _NULL)


# stream_scan's formats: the spec of a float cell, the cells of a float
# block, and the templates, whose axis cells take text formatted with the
# same spec
_FORMATS = {
    "csv": (".12g", lambda block: block, _templates(_csv_row, ".12g", "s")),
    "json": ("r", _json_cells, _templates(_json_row, "r", "s")),
}

# Rows per output block, each made into 18 Python objects: on a 153k-row
# CLI scan, 8192-row blocks raised peak RSS by 18 %, 256-row blocks by <1 %.
_ROW_BLOCK = 256

# Largest grid a ScanConfig holds, and largest axis the CLI parses.
# run_scan holds four N-length coordinate arrays and the (N, 14) result at
# once, so this caps it near 2.5 GB instead of letting a tiny step ask for
# more. stream_scan, which the CLI runs, holds one chunk at a time, so
# there the limit bounds the work, not the memory.
MAX_SCAN_ROWS = 2 ** 24


def available_backends() -> dict:
    """Kernels by name; there is one."""
    return {"numpy": _kernel}


def scan_backend() -> str:
    """Name of the scan kernel."""
    return "numpy"


def get_kernel():
    """The kernel module."""
    return _kernel


def evaluate_points(p1m, p2m, theta, phi, jobs: int = 1) -> np.ndarray:
    """Evaluate the kernel on flat, equal-length coordinate arrays.

    Returns an (N, 14) array with the :data:`COLUMNS` layout. ``jobs``
    only affects wall time, never the values or their order; the kernel
    blocks run on at most ``min(jobs, blocks, os.cpu_count())`` threads.
    Raises ``ValueError`` unless every magnitude lies in [0, 1], every
    theta in [0, pi] and every phi is finite, NaN included. theta matters
    most: the kernel takes |p1 x p2| = a b sin(theta), so a larger theta
    would flip the signs of c_xz and c_zy.
    """
    arrays = [np.ascontiguousarray(np.asarray(x, dtype=float).ravel())
              for x in (p1m, p2m, theta, phi)]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("coordinate arrays must have equal length")
    # one pass of comparisons that fail on NaN; only boolean temporaries,
    # since float ones the size of a scan raised its peak RSS
    a, b, t, f = arrays
    if not ((a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
            & (t >= 0.0) & (t <= math.pi) & np.isfinite(f)).all():
        raise ValueError(_domain_error(a, b, t, f))
    out = np.empty((n, len(COLUMNS)), dtype=float)

    def run(lo):
        hi = lo + _kernel.BLOCK
        _kernel.evaluate_into(a[lo:hi], b[lo:hi], t[lo:hi], f[lo:hi], out[lo:hi])

    starts = range(0, n, _kernel.BLOCK)
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        for lo in starts:
            run(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    return out


def _domain_error(p1m, p2m, theta, phi):
    """Which coordinate puts a point outside the domain of the kernel, or
    None when every point lies inside."""
    for name, x in (("|p1|", p1m), ("|p2|", p2m)):
        if not ((x >= 0.0) & (x <= 1.0)).all():
            return f"polarization magnitude {name} must lie in [0, 1]"
    if not ((theta >= 0.0) & (theta <= math.pi)).all():
        return "theta must lie in [0, pi] radians"
    if not np.isfinite(phi).all():
        return "phi must be finite"
    return None


@dataclass(frozen=True)
class ScanConfig:
    """Grid axes for a channel scan; every combination is one row, and a
    grid holds at most :data:`MAX_SCAN_ROWS` rows."""

    p1: np.ndarray
    p2: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "theta", "phi"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1:
                raise ValueError(f"{name} axis must be one-dimensional, "
                                 f"got shape {arr.shape}")
            if arr.size == 0:
                raise ValueError(f"{name} axis is empty")
            object.__setattr__(self, name, arr)
        # the kernel's domain, checked here too so that a bad grid fails
        # before it is built
        error = _domain_error(self.p1, self.p2, self.theta, self.phi)
        if error is not None:
            raise ValueError(error)
        if self.size > MAX_SCAN_ROWS:
            raise ValueError(f"scan of {self.size} rows exceeds the limit of "
                             f"{MAX_SCAN_ROWS} rows")

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


def _split(triples: range, phis: range, rows: int):
    """Cut the rows of ``triples`` x ``phis`` (triple-major) into pieces
    of at most ``rows`` rows, in row order: whole triples where one
    triple's phis fit, else one triple's phis ``rows`` at a time. Yields
    ``(triples, phis)`` of each piece."""
    k = len(phis)
    if k <= rows:
        step = rows // k
        for t in range(triples.start, triples.stop, step):
            yield range(t, min(t + step, triples.stop)), phis
    else:
        for t in triples:
            for f in range(phis.start, phis.stop, rows):
                yield range(t, t + 1), range(f, min(f + rows, phis.stop))


def _axis_indices(config: ScanConfig, triples: range) -> tuple:
    """(p1, p2, theta) axis indices of flat (p1, p2, theta) triple
    indices: p1 outer, theta inner."""
    rest, i_theta = np.divmod(np.arange(triples.start, triples.stop),
                              config.theta.size)
    i_p1, i_p2 = np.divmod(rest, config.p2.size)
    return i_p1, i_p2, i_theta


def _grid_chunks(config: ScanConfig, rows: int, jobs: int):
    """Evaluate the grid in row order, at most ``rows`` rows at a time (or
    one triple's phis where those alone are more). Yields ``(triples,
    phis, (p1, p2, theta, phi), data)`` of each chunk: its ranges of
    triple and phi indices, its coordinates and :func:`evaluate_points`
    of them."""
    for triples, phis in _split(range(config.size // config.phi.size),
                                range(config.phi.size), rows):
        i_p1, i_p2, i_theta = _axis_indices(config, triples)
        k = len(phis)
        coords = (np.repeat(config.p1[i_p1], k), np.repeat(config.p2[i_p2], k),
                  np.repeat(config.theta[i_theta], k),
                  np.tile(config.phi[phis.start:phis.stop], len(triples)))
        yield triples, phis, coords, evaluate_points(*coords, jobs=jobs)


def run_scan(config: ScanConfig, jobs: int = 1) -> ScanResult:
    """Evaluate the full grid in deterministic row order, in one
    :func:`evaluate_points` call."""
    [(_, _, (p1, p2, theta, phi), data)] = _grid_chunks(config, config.size, jobs)
    return ScanResult(theta=theta, phi=phi, p1=p1, p2=p2, data=data)


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


def _per_row(row: str, cells: np.ndarray) -> str:
    """The rows of a block of cells: ``row`` once per row, one % call."""
    return (row * len(cells)) % tuple(cells.ravel().tolist())


def _emit(fh: TextIO, fmt: str, texts) -> None:
    """Write the block texts of one format: the CSV header and rows, or
    the JSON array without the separator after its last row."""
    if fmt == "csv":
        fh.write(CSV_HEADER + "\n")
        for text in texts:
            fh.write(text)
        return
    opening = "[\n"
    for text in texts:
        fh.write(opening + text[:-2])
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")


def write_csv(result: ScanResult, fh: TextIO) -> None:
    """Emit the scan CSV: header, 12 significant digits, squeezed as 0/1."""
    _emit(fh, "csv", (_per_row(_CSV_ROW, block) for block in _row_blocks(result)))


def write_json(result: ScanResult, fh: TextIO) -> None:
    """Emit the scan JSON one row block at a time: the bytes of
    ``json.dump(rows_as_dicts(result), fh, indent=2)`` and a newline."""
    _emit(fh, "json", (_per_row(_JSON_ROW, _json_cells(block))
                       for block in _row_blocks(result)))


def stream_scan(config: ScanConfig, fh: TextIO, fmt: str = "csv",
                jobs: int = 1) -> None:
    """Evaluate the grid and write it as ``fmt``, "csv" or "json": the
    bytes of ``write_csv`` or ``write_json`` of ``run_scan(config)``.

    The grid goes through :func:`evaluate_points` (with ``jobs``) and the
    writer one chunk of at most ``min(jobs, os.cpu_count())`` kernel
    blocks at a time, so no array grows with the grid. Each axis value is
    formatted once, and the cells that do not depend on phi once per
    (p1, p2, theta) triple.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown scan format {fmt!r}")
    workers = max(1, min(jobs, os.cpu_count() or 1))
    chunks = _grid_chunks(config, workers * _kernel.BLOCK, jobs)
    _emit(fh, fmt, _stream_blocks(config, fmt, chunks))


def _stream_blocks(config: ScanConfig, fmt: str, chunks):
    """The text of each block of ``chunks``, up to :data:`_ROW_BLOCK` rows
    of whole triples, or of one triple's phis where those are more."""
    spec, as_cells, (row, run_row) = _FORMATS[fmt]
    theta, phi, p1, p2 = (
        np.array([("%" + spec) % v for v in axis.tolist()], dtype=object)
        for axis in (config.theta, config.phi, config.p1, config.p2))
    one_phi = config.phi.size == 1
    # the cells of the % call that fills a block: all of them with one
    # phi (a run template per row would only add a % call per row), else
    # phi and the row cells. The phi column is set when the block's phi
    # range changes, so only once unless there are more phis than rows.
    cells = np.empty((_ROW_BLOCK, len(FIELDS) if one_phi else 1 + len(_ROW_DATA)),
                     dtype=object)
    phi_column = FIELDS.index("phi_rad") if one_phi else 0
    filled = None
    for triples, phis, coords, data in chunks:
        for block_triples, block_phis in _split(triples, phis, _ROW_BLOCK):
            k = len(block_phis)
            n = len(block_triples) * k
            lo = ((block_triples.start - triples.start) * len(phis)
                  + block_phis.start - phis.start)
            block = data[lo:lo + n]
            if block_phis != filled:
                cells[:, phi_column] = np.resize(
                    phi[block_phis.start:block_phis.stop], _ROW_BLOCK)
                filled = block_phis
            i_p1, i_p2, i_theta = _axis_indices(config, block_triples)
            if one_phi:
                cells[:n, 0] = theta[i_theta]
                cells[:n, 2] = p1[i_p1]
                cells[:n, 3] = p2[i_p2]
                cells[:n, 4:] = as_cells(block)
                yield _per_row(row, cells[:n])
                continue
            runs = np.empty((len(block_triples), len(_RUN_FIELDS)), dtype=object)
            runs[:, 0] = theta[i_theta]
            runs[:, 1] = p1[i_p1]
            runs[:, 2] = p2[i_p2]
            runs[:, 3:] = as_cells(block[::k, _RUN_DATA])
            cells[:n, 1:] = as_cells(block[:, _ROW_DATA])
            # one % call per triple formats its run cells, the text repeats
            # once per phi, and one more % call fills in every row cell
            text = "".join([(run_row % tuple(run)) * k for run in runs.tolist()])
            yield text % tuple(cells[:n].ravel().tolist())
        # free this chunk before the next one is evaluated
        del coords, data, block


def rows_as_dicts(result: ScanResult) -> list[dict]:
    """The CSV rows as dicts, squeezed as int and non-finite values as None."""
    rows = []
    for block in _row_blocks(result):
        cells = np.where(np.isfinite(block), block, None)
        cells[:, _FIELD_SQUEEZED] = block[:, _FIELD_SQUEEZED].astype(int)
        rows.extend(dict(zip(FIELDS, row)) for row in cells.tolist())
    return rows
