"""Span recording around the package's public functions, and the self-time
arithmetic that turns spans into per-module figures.

A Tracer replaces module attributes with timing shims for the duration of a
``with tracer.installed():`` block.  Each shim call records a Span (name,
start, end, parent span, thread, run id) in memory; counters measured at the
same boundaries (edges sampled, bytes of matrices returned, eigensolve flops)
accumulate per run.  Nothing inside ``src/`` is modified: the shims sit on the
attributes the runners look up at call time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

import hypergraph_spectra as hs
from hypergraph_spectra import combinatorics, experiments, gham, laws, metrics, spectra


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_bytes(result) -> int:
    """Bytes of the 2-d float arrays a gham function returns (the surrogate's
    Z included), computed from shapes."""
    items = result if isinstance(result, tuple) else (result,)
    total = 0
    for item in items:
        if isinstance(item, gham.SurrogateComponents):
            item = item.Z
        if isinstance(item, np.ndarray) and item.ndim == 2:
            total += 8 * item.shape[0] * item.shape[1]
    return total


def _eigensolve_counts(args, result) -> dict:
    # 4n^3/3 flops for the tridiagonal reduction of a values-only solve
    n = np.shape(args[0])[0]
    return {"eigensolve_gflop": 4.0 * float(n) ** 3 / 3.0e9, "eigenvalues_computed": n}


# (span name, module holding the original, attribute, counter) for every hooked
# function.  Counters map (args, result) to increments.
HOOKS = (
    ("combinatorics.sample_hypergraph", combinatorics, "sample_hypergraph",
     lambda args, res: {"edges": len(res.edges)}),
    ("gham.adjacency_from_hypergraph", gham, "adjacency_from_hypergraph",
     lambda args, res: {"matrix_bytes": _matrix_bytes(res)}),
    ("gham.gham_from_adjacency", gham, "gham_from_adjacency",
     lambda args, res: {"matrix_bytes": _matrix_bytes(res)}),
    ("gham.sample_surrogate", gham, "sample_surrogate",
     lambda args, res: {"matrix_bytes": _matrix_bytes(res)}),
    ("gham.laplacian", gham, "laplacian",
     lambda args, res: {"matrix_bytes": _matrix_bytes(res)}),
    ("gham.laplacian", gham, "laplacian_tilde",
     lambda args, res: {"matrix_bytes": _matrix_bytes(res)}),
    ("spectra.symmetric_eigenvalues", spectra, "symmetric_eigenvalues", None),
    ("spectra.eigensolve", np.linalg, "eigvalsh", _eigensolve_counts),
    ("laws.free_additive_convolution", laws, "free_additive_convolution", None),
    ("metrics.ks_distance", metrics, "ks_distance", None),
    ("metrics.w1_distance", metrics, "w1_distance", None),
    ("metrics.bl_upper_bound", metrics, "bl_upper_bound", None),
    ("metrics.hausdorff_spectra", metrics, "hausdorff_spectra", None),
    ("experiments.run_experiment", experiments, "run_experiment", None),
    ("experiments.persist_record", experiments, "persist_record", None),
)

# modules whose globals may hold a hooked function imported by name
_PACKAGE_MODULES = (hs, combinatorics, experiments, gham, laws, metrics, spectra)

ROOT_NAMES = ("experiments.run_experiment", "experiments.persist_record")


class Tracer:
    """In-memory span and counter store with shims that feed it.

    ``run`` tags every span recorded until it is changed; set it before each
    traced experiment.  Spans opened by pool threads take the span that was
    open on the calling thread when the run began (the run_experiment span)
    as their parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._root: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            with self._lock:
                sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                span = Span(sid, name, start, end, parent, threading.get_ident(), self.run)
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                increments = count(args, result)
                with self._lock:
                    run_counts = self.counts[self.run]
                    for key, value in increments.items():
                        run_counts[key] += value
            return result

        return shim

    @contextmanager
    def installed(self):
        """Replace every hooked function, wherever the package holds it, by a
        shim; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, count in HOOKS:
                original = getattr(owner, attr)
                shim = self.wrap(name, original, count)
                holders = {id(m): m for m in (owner, *_PACKAGE_MODULES)}.values()
                for module in holders:
                    if module.__dict__.get(attr) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, shim)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by child spans on the same thread.  Children on other threads
    (pool workers) run concurrently with the parent and are not subtracted, so
    a parent waiting on a pool keeps that wait as self time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.thread == s.thread and c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(covered)
    return out


def thread_busy(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Per (run, thread): length of the union of that thread's spans."""
    groups = defaultdict(list)
    for s in spans:
        groups[(s.run, s.thread)].append((s.start, s.end))
    return {key: union_length(iv) for key, iv in groups.items()}


def check_self_time_sums(spans: list[Span], rel_tol: float = 1e-9) -> list[str]:
    """Per (run, thread), the self times must add up to the time the thread
    spent inside any span.  Returns one message per violation."""
    selfs = self_times(spans)
    sums = defaultdict(float)
    for s in spans:
        sums[(s.run, s.thread)] += selfs[s.id]
    problems = []
    for key, busy in thread_busy(spans).items():
        if abs(sums[key] - busy) > rel_tol * max(busy, 1e-9) + 1e-12:
            problems.append(
                f"run {key[0]} thread {key[1]}: self times sum to {sums[key]!r}, "
                f"busy time is {busy!r}"
            )
    return problems


def run_summary(spans: list[Span], counts: dict[str, float], threads: int) -> dict:
    """Per-layer figures for one traced run (spans of a single run id)."""
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for s in spans:
        self_by_name[s.name] += selfs[s.id]
        calls[s.name] += 1
        durations[s.name].append(s.duration)
    roots = [s for s in spans if s.name == "experiments.run_experiment"]
    wall = sum(s.duration for s in roots)
    main_threads = {s.thread for s in roots}
    # busy: time each thread spent in hooked functions under run_experiment
    busy_spans = [s for s in spans if s.name not in ROOT_NAMES]
    busy = sum(thread_busy(busy_spans).values())
    capacity = threads * wall
    return {
        "self_s": dict(self_by_name),
        "calls": dict(calls),
        "call_s_median": {k: float(np.median(v)) for k, v in durations.items()},
        "shares": {k: v / capacity for k, v in self_by_name.items()} if capacity else {},
        "pool_busy_ratio": busy / capacity if capacity else 0.0,
        "main_thread_self_s": sum(
            selfs[s.id] for s in spans if s.thread in main_threads
        ),
        "counts": dict(counts),
    }
