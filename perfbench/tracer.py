"""Spans around the calls into each bentforge module, recorded from outside.

Each wrapper is patched into the namespace that makes the call: cli, msub
and psclass import their callees by name, so a wrapper on the defining
module alone would see nothing.  A span holds name, start, end, parent span
and operation id (-1 during set-up); spans stay in memory and are written
out once, when the run ends.  For a generator, each next() is one span, so
time spent inside the generator body is counted where it is spent.

Self time is a span's duration minus the durations of its direct children;
spans nest strictly because the harness runs one thread.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name): who calls what.  Functions shared by
# several modules are named after the module that defines them; psclass's
# calls into gf2 are named after psclass, the only caller that matters.
CALLS = [
    ("cli", "analyze", "cli.analyze"),
    ("cli", "is_bent", "boolfun.is_bent"),
    ("cli", "algebraic_degree", "boolfun.algebraic_degree"),
    ("cli", "msubspace_profile", "msub.msubspace_profile"),
    ("cli", "is_in_mm_sharp", "msub.is_in_mm_sharp"),
    ("msub", "is_bent", "boolfun.is_bent"),
    ("msub", "algebraic_degree", "boolfun.algebraic_degree"),
    ("msub", "vanishing_pair_adjacency", "vectorial.vanishing_pair_adjacency"),
    ("msub", "vanishing_pair_adjacency_quadratic", "vectorial.vanishing_pair_adjacency_quadratic"),
    ("psclass", "is_bent", "boolfun.is_bent"),
    ("psclass", "dual", "boolfun.dual"),
    ("psclass", "orthogonal_complement", "psclass.complement"),
    ("psclass", "span", "psclass.span"),
    ("fixtures", "published_bent8", "fixtures.published_bent8"),
]
GENERATORS = [
    ("msub", "iter_clique_subspaces", "vectorial.iter_clique_subspaces"),
    ("psclass", "enumerate_subspaces", "gf2.enumerate_subspaces"),
]
# cli.analyze calls the sweep; the PS warm-up calls it from the harness.
SWEEPS = [("cli", "is_in_ps_sharp"), ("psclass", "is_in_ps_sharp")]
SWEEP = "psclass.is_in_ps_sharp"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.generators: set[str] = set()
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()  # (op >= 0, key) -> count
        self.shift_s: list[float] = []  # per-shift wall time in operations
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, k: int = 1) -> None:
        self.counts[self.op_id >= 0, key] += k

    def wrap(self, name: str, fn):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._nid(name)
        self.generators.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.count(f"{name}.yielded")
                    yield item

            return steps()

        return traced

    def wrap_sweep(self, fn):
        """Span around is_in_ps_sharp, timing each shift through its public
        progress callback (called after every shift without a witness)."""
        traced = self.wrap(SWEEP, fn)

        @functools.wraps(fn)
        def sweep(f, jobs=1, resume=None, progress=None):
            marks = [perf_counter()]

            def tick(b):
                marks.append(perf_counter())
                if progress:
                    progress(b)

            w = traced(f, jobs=jobs, resume=resume, progress=tick)
            self.count("psclass.shifts", len(marks) - 1 + (w is not None))
            if self.op_id >= 0:
                self.shift_s += [b - a for a, b in zip(marks, marks[1:])]
            return w

        return sweep

    # -- installation --------------------------------------------------------

    def install(self, modules: dict) -> None:
        originals = {(m, a): getattr(modules[m], a) for m, a, _ in CALLS + GENERATORS}
        originals.update({key: getattr(modules[key[0]], key[1]) for key in SWEEPS})
        patches = [(m, a, self.wrap(n, originals[m, a])) for m, a, n in CALLS]
        patches += [(m, a, self.wrap_generator(n, originals[m, a])) for m, a, n in GENERATORS]
        patches += [(m, a, self.wrap_sweep(originals[m, a])) for m, a in SWEEPS]
        for m, a, wrapper in patches:
            self._patched.append((modules[m], a, originals[m, a]))
            setattr(modules[m], a, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation self times and counts over the ops, plus set-up totals.

        Keys: <span>.self_s, <span>.calls, <generator>.yielded and
        psclass.shifts per operation; the same prefixed with "setup." as
        totals over set-up; and psclass.shift_s.p50 over the operations.
        """
        self_s = self.self_times()
        name = np.frombuffer(self.name, dtype=np.int64)
        in_op = np.frombuffer(self.op, dtype=np.int64) >= 0
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            mine = name == nid
            out[f"{span}.self_s"] = float(self_s[mine & in_op].sum()) / ops
            out[f"setup.{span}.self_s"] = float(self_s[mine & ~in_op].sum())
            if span not in self.generators:  # generators count calls, not steps
                out[f"{span}.calls"] = float(np.count_nonzero(mine & in_op)) / ops
                out[f"setup.{span}.calls"] = float(np.count_nonzero(mine & ~in_op))
        counted = [f"{g}.{c}" for g in self.generators for c in ("calls", "yielded")]
        for key in counted + ["psclass.shifts"]:
            out[key] = self.counts[True, key] / ops
            out[f"setup.{key}"] = float(self.counts[False, key])
        out["psclass.shift_s.p50"] = statistics.median(self.shift_s) if self.shift_s else 0.0
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
