"""The benchmark's tracer still finds the names it wraps.

``perfbench/tracing.py`` times layers by swapping module attributes for
wrappers; a refactor that renames one of them would leave its layer
silently untimed.  These tests only read ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from oracleid import identify, qsim
from oracleid.ordering import clear_ordering_cache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.fixture()
def traced_ops():
    """One tiny op of every workload under an installed tracer."""
    tracer = tracing.Tracer()
    engine = tracing.TracedFinder(tracer)
    greedy, finder = identify._greedy, qsim.quantum_disagreement_finder
    # set up untraced, as the benchmark does: only ops may record spans
    ready = []
    for name in ("qsearch-wide", "qsearch-deep", "certify"):
        wl = workloads.make(name, "tiny")
        wl.setup(7, wl.build_class(7))
        ready.append((name, wl))
    tracer.install()
    try:
        assert identify._greedy is not greedy
        assert qsim.quantum_disagreement_finder is not finder
        for name, wl in ready:
            clear_ordering_cache()
            out = tracer.run_op(wl.op, wl.pass_ops[0], engine, tracer.call)
            assert out.ok, (name, out.error)
    finally:
        tracer.uninstall()
    yield tracer, greedy, finder


def test_layer_spans_are_recorded(traced_ops):
    tracer, _, _ = traced_ops
    names = set(tracer.names)
    assert {"ordering.greedy", "qsim.finder", "sdp.pipeline"} <= names
    assert tracer.counts["finder.calls"] > 0
    assert tracer.counts["greedy.hits"] + tracer.counts["greedy.misses"] > 0
    _, op_walls, gap = tracer.summary()
    assert len(op_walls) == 3
    assert gap <= 1e-9


def test_uninstall_restores_the_wrapped_names(traced_ops):
    _, greedy, finder = traced_ops
    assert identify._greedy is greedy
    assert qsim.quantum_disagreement_finder is finder


def test_candidates_are_built_where_a_search_amplifies():
    """At full size, a pass of ``qsearch-deep`` (windows of at most 4 ranks)
    and a ``certify`` op build no node candidates; one traced
    ``qsearch-wide`` op builds its root's, so the node reaches the search
    through the tracer's finder."""
    from oracleid import ordering

    built = {}
    for name in ("qsearch-deep", "certify", "qsearch-wide"):
        wl = workloads.make(name, "full")
        cls = wl.build_class(1)
        wl.setup(1, cls)
        clear_ordering_cache()
        if name == "qsearch-wide":
            tracer = tracing.Tracer()
            ops = [tracer.run_op(wl.op, wl.pass_ops[0], tracing.TracedFinder(tracer), tracer.call)]
        else:
            ops = [wl.op(item, "quantum", workloads.plain_call) for item in wl.pass_ops]
        assert all(out.ok for out in ops), name
        built[name] = list(ordering._greedy(cls.n, cls.values).candidates)
    assert built == {"qsearch-deep": [], "certify": [], "qsearch-wide": [()]}
