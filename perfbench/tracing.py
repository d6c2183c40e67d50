"""In-memory spans around the names through which one layer calls the next.

Nothing under ``src/`` is edited: the traced run swaps a few module
attributes for timing wrappers and restores them afterwards.  Wrapped
boundaries (see ``Tracer.install``):

* ``oracleid.identify._greedy`` -> span ``ordering.greedy`` plus cache
  hit/miss counts read from the lru cache around each call;
* ``oracleid.kernels.grover_run`` / ``index_probabilities`` -> kernel
  spans plus iteration and computed-amplitude-byte counts, only while
  ``oracleid.kernels`` exists;
* ``oracleid.qsim.quantum_disagreement_finder`` -> a counter of exact
  answers (no span; the finder span comes from ``TracedFinder``).

The benchmark's own calls into the program go through ``Tracer.call``,
and the quantum engine handed to ``run_final`` is a ``TracedFinder``.
Spans are ``[name, start, end, parent, op]`` rows, kept column by column
so that the garbage collector, which would scan every row object, does
not slow the passes that follow; a span's self time is its duration minus
that of its direct children, so the self times of an op's spans add up to
the op's root span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict

from oracleid import identify, ordering, qsim
from oracleid.identify import QuantumFinder

try:
    kernels = importlib.import_module("oracleid.kernels")
except ImportError:  # the statevector kernels may be retired
    kernels = None

ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        # Span columns: one entry per span, parents indexing into them.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            stack.pop()

    def run_op(self, fn, *args):
        """Run one benchmark op under its root span."""
        self.op += 1
        return self.call(ROOT, fn, *args)

    # ------------------------------------------------------------ wrappers

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        greedy = identify._greedy
        cache_info = ordering._greedy.cache_info

        def traced_greedy(*args):
            before = cache_info().hits
            out = self.call("ordering.greedy", greedy, *args)
            self.counts["greedy.hits" if cache_info().hits > before else "greedy.misses"] += 1
            return out

        self._patch(identify, "_greedy", traced_greedy)

        finder = qsim.quantum_disagreement_finder

        def counted_finder(*args, **kwargs):
            res = finder(*args, **kwargs)
            self.counts["finder.exact"] += bool(res.exact)
            return res

        self._patch(qsim, "quantum_disagreement_finder", counted_finder)

        if kernels is None:
            return
        grover_run = kernels.grover_run
        index_probabilities = kernels.index_probabilities

        def traced_grover_run(amps, marked, iterations):
            self.counts["grover.calls"] += 1
            self.counts["grover.iterations"] += iterations
            self.counts["amp_bytes"] += amps.nbytes * iterations
            return self.call("kernels.grover_run", grover_run, amps, marked, iterations)

        def traced_index_probabilities(amps, out):
            self.counts["amp_bytes"] += amps.nbytes
            return self.call("kernels.index_probabilities", index_probabilities, amps, out)

        self._patch(kernels, "grover_run", traced_grover_run)
        self._patch(kernels, "index_probabilities", traced_index_probabilities)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def summary(self) -> tuple[dict[str, float], list[float], float]:
        """Total and self seconds per span name, op wall times, and the
        worst gap between an op's summed self times and its wall time."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents, self.ops))
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        op_wall: dict[int, float] = {}
        op_self: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(spans):
            dur = end - start
            self_s = dur - child_time[i]
            totals[name + ".s"] += dur
            totals[name + ".self_s"] += self_s
            op_self[op] += self_s
            if name == ROOT:
                op_wall[op] = dur
        gap = max((abs(op_self[op] - wall) for op, wall in op_wall.items()), default=0.0)
        return dict(totals), list(op_wall.values()), gap

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines ``[name, start, end, parent, op]``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")


class TracedFinder(QuantumFinder):
    """The quantum engine with a ``qsim.finder`` span around each search."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def find_first(self, x, s, order, width, ctx):
        self._tracer.counts["finder.calls"] += 1
        return self._tracer.call("qsim.finder", super().find_first, x, s, order, width, ctx)
