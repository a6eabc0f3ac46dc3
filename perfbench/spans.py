"""Timing spans patched onto spinsqueeze's public functions.

The program is not edited: each wrapper replaces a function at the place
where callers look it up (a module attribute), and :meth:`Tracer.restore`
puts the originals back. Spans are aggregated as they close, per span
name: call count, self time and total time. A span's self time is its
duration minus the time its child spans cover, so the self times of a
root span and everything under it add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name). A function imported into several modules
# is patched in each, under one span name.
TARGETS = (
    ("spinsqueeze.cli", "main", "cli.main"),
    ("spinsqueeze.cli", "run_scan", "scan.run_scan"),
    ("spinsqueeze.cli", "write_csv", "scan.write_csv"),
    ("spinsqueeze.cli", "rows_as_dicts", "scan.rows_as_dicts"),
    ("spinsqueeze.scan", "evaluate_points", "scan.evaluate_points"),
    ("spinsqueeze.channel", "threshold_scan", "channel.threshold_scan"),
    ("spinsqueeze.channel", "clebsch_gordan", "angular.clebsch_gordan"),
    ("spinsqueeze.squeezing", "analyze", "squeezing.analyze"),
    ("spinsqueeze.squeezing", "check_positivity", "density.check_positivity"),
    ("spinsqueeze.squeezing", "special_lakin_frame", "frames.special_lakin_frame"),
    ("spinsqueeze.frames", "rotate_tensors", "frames.rotate_tensors"),
    ("spinsqueeze.frames", "to_tensors", "density.to_tensors"),
    ("spinsqueeze.angular", "little_d", "angular.little_d"),
    # classify_orientation imports wigner_d_matrix from angular when called
    ("spinsqueeze.angular", "wigner_d_matrix", "angular.wigner_d_matrix"),
    ("spinsqueeze.density", "to_tensors", "density.to_tensors"),
    ("spinsqueeze.density", "check_positivity", "density.check_positivity"),
    ("spinsqueeze.density", "purity_residual", "density.purity_residual"),
    ("spinsqueeze.density", "classify_orientation", "density.classify_orientation"),
    ("spinsqueeze.density", "racah_w", "angular.racah_w"),
    ("spinsqueeze.density", "clebsch_gordan", "angular.clebsch_gordan"),
    ("spinsqueeze.density", "build_tau", "tensor_ops.build_tau"),
)


class Tracer:
    """Span aggregates for one traced region, plus the patches it made."""

    def __init__(self):
        self.stats: dict[str, list] = {}    # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}
        self.root_s = 0.0
        self._stack: list[list] = []        # [start, child_s] per open span
        self._patches: list[tuple] = []

    def _close(self, entry, frame, end):
        dur = end - frame[0]
        entry[0] += 1
        entry[1] += dur - frame[1]
        entry[2] += dur
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_s += dur

    def wrap(self, fn, name: str, on_call=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(entry, frame, end)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(entry, frame, end)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def patch(self, obj, attr: str, name: str, on_call=None):
        original = getattr(obj, attr)
        self._patches.append((obj, attr, original))
        setattr(obj, attr, self.wrap(original, name, on_call))

    def install(self):
        """Patch every target, the active scan kernel and the frames
        module's Wigner-D lookup (which also counts ranks k <= 2)."""
        for module, attr, name in TARGETS:
            self.patch(importlib.import_module(module), attr, name)
        from spinsqueeze import frames, scan
        kernel = scan.get_kernel()
        self.patch(kernel, "evaluate_into", "scan_kernel", _count_points)
        self.patch(frames, "wigner_d_matrix", "angular.wigner_d_matrix",
                   _count_ranks)

    def restore(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for JSON transport."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "root_s": self.root_s}


def _count_points(tracer: Tracer, args):
    tracer.count("scan_kernel.points", len(args[0]))


def _count_ranks(tracer: Tracer, args):
    tracer.count("frames.ranks_rotated")
    if float(args[0]) <= 2:     # analyze() reads ranks 1 and 2 only
        tracer.count("frames.useful_ranks")
