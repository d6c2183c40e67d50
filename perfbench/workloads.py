"""The three workloads: inputs from a seed, one op, and its output checks.

Every workload is a closed loop of one client: one op at a time, the next
sent when the last returns.  The ops form a fixed *pass*; each pass starts
with ``clear_ordering_cache()`` so every pass does the same work, and the
first pass is the count window whose counts repeat exactly for one seed.

``call(name, fn, *args)`` is how an op calls into the program: a plain
call untraced, ``Tracer.call`` traced.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from oracleid import bounds, sdp
from oracleid.bitstrings import ConceptClass, generate_class
from oracleid.identify import RunTrace, classical_identify, identify_all, run_final
from oracleid.ordering import clear_ordering_cache

# Per-scale sizes.  "full" is what the benchmark measures; "tiny" is for
# the self-test only.
SIZES = {
    "full": {
        "qsearch-wide": {"n": 64, "trials": 4},
        "qsearch-deep": {"n": 40, "m": 2000},
        "certify": {"n": 13, "m": 400, "gamma_members": 16},
    },
    "tiny": {
        "qsearch-wide": {"n": 8, "trials": 2},
        "qsearch-deep": {"n": 12, "m": 40},
        "certify": {"n": 6, "m": 20, "gamma_members": 8},
    },
}

RESIDUAL_TOL = 1e-9
CERT_RATIO_LIMIT = 3.0


@dataclass
class Outcome:
    ok: bool
    error: str | None = None
    trace: RunTrace | None = None
    info: dict = field(default_factory=dict)


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def random_class(n: int, m: int, rng: np.random.Generator) -> ConceptClass:
    """``m`` distinct ``n``-bit strings drawn with the benchmark's own RNG."""
    if n > 62 or m > (1 << n):
        raise ValueError(f"cannot draw {m} distinct {n}-bit strings")
    values: set[int] = set()
    while len(values) < m:
        values.update(int(v) for v in rng.integers(0, 1 << n, size=m - len(values)))
    return ConceptClass.from_values(n, values)


class QSearch:
    """``run_final(..., "quantum")`` over a fixed list of ``(x, trial)`` pairs.

    The per-run seed is ``SeedSequence((seed, x.value, trial))``, exactly as
    ``oracleid run`` derives it, so rows match the CLI's.
    """

    def __init__(self, name: str, sizes: dict) -> None:
        self.name = name
        self.sizes = sizes

    def build_class(self, seed: int) -> ConceptClass:
        if self.name == "qsearch-wide":
            return generate_class("hamming1", self.sizes["n"])
        return random_class(self.sizes["n"], self.sizes["m"], np.random.default_rng(seed))

    def setup(self, seed: int, cls: ConceptClass) -> None:
        self.seed = seed
        self.cls = cls
        trials = self.sizes.get("trials", 1)
        self.pass_ops = [(x, t) for t in range(trials) for x in cls.members]
        self.ideal = {x: tr.ideal_cost for x, tr in identify_all(cls).items()}
        self.classical = {x: classical_identify(cls, x)[1] for x in cls.members}

    def op(self, item, engine, call) -> Outcome:
        x, trial = item
        seed = np.random.SeedSequence((self.seed, x.value, trial))
        try:
            trace = call("identify.run", run_final, self.cls, x, engine, seed=seed)
        except Exception as exc:  # PromiseViolation, norm drift, anything else
            return Outcome(False, f"{type(exc).__name__}: {exc}")
        if trace.identified != x:
            return Outcome(False, f"identified {trace.identified} instead of {x}", trace)
        if not trace.satisfies_trace_bounds(self.cls):
            return Outcome(False, f"trace bounds violated by {trace.positions}", trace)
        return Outcome(True, trace=trace)

    def count_metrics(self, outcomes: list[Outcome]) -> dict:
        """Exact figures of one pass; ratios keep their bases beside them."""
        xs = [x for x, _ in self.pass_ops]
        traces = [o.trace for o in outcomes if o.trace is not None]
        raw = sorted(t.raw_queries for t in traces) or [0]
        raw_mean = sum(raw) / len(raw)
        ideal_mean = sum(self.ideal[x] for x in xs) / len(xs)
        classical_mean = sum(self.classical[x] for x in xs) / len(xs)
        n = len(traces)
        return {
            "raw_queries_mean": (raw_mean, n),
            "raw_queries_p95": (raw[math.ceil(0.95 * len(raw)) - 1], n),
            "ideal_cost_mean": (ideal_mean, len(xs)),
            "classical_queries_mean": (classical_mean, len(xs)),
            "raw_over_ideal": (raw_mean / ideal_mean, n),
            "raw_over_classical": (raw_mean / classical_mean, n),
            "cost_over_ideal": (raw_mean / ideal_mean, n),
            "iterations_per_run": (sum(t.iterations for t in traces) / max(n, 1), n),
            "raw_queries_total": (sum(raw), n),
        }


class Certify:
    """One op certifies a class: identification traces, the staged SDP
    solution and its residuals, the bound report and exact gamma_hat."""

    name = "certify"

    def __init__(self, sizes: dict) -> None:
        self.sizes = sizes

    def build_class(self, seed: int) -> ConceptClass:
        return random_class(self.sizes["n"], self.sizes["m"], np.random.default_rng(seed))

    def setup(self, seed: int, cls: ConceptClass) -> None:
        self.seed = seed
        self.cls = cls
        self.pass_ops = [None]
        self.gamma_class = ConceptClass(cls.n, cls.members[: self.sizes["gamma_members"]])

    def op(self, item, engine, call) -> Outcome:
        cls = self.cls
        m, n = cls.size, cls.n
        try:
            traces = call("identify.identify_all", identify_all, cls)
            pipe = call("sdp.pipeline", sdp.oracle_id_pipeline, cls)
            target = np.ones((m, m)) - np.eye(m)
            residual = call("sdp.verify", sdp.verify_feasible, target, pipe.solution)
            stage_residuals = call(
                "sdp.verify_stages",
                lambda: [sdp.verify_feasible(t, s)
                         for s, t in zip(pipe.stage_solutions, pipe.stage_targets)],
            )
            report = call("bounds.build_report", bounds.build_report, m, n)
            call("bounds.gamma_hat", bounds.gamma_hat, self.gamma_class)
        except Exception as exc:
            return Outcome(False, f"{type(exc).__name__}: {exc}")

        costs = [pipe.cost(x) for x in cls.members]
        ideals = [traces[x].ideal_cost for x in cls.members]
        info = {
            "cert_cost_ratio": max(c / i for c, i in zip(costs, ideals)),
            "cost_over_ideal": sum(costs) / sum(ideals),
            "cost_sum": sum(costs),
            "ideal_cost_sum": sum(ideals),
            "solution_dim": pipe.solution.dim,
            "stages": len(pipe.stage_solutions),
            "iterations_per_run": sum(traces[x].iterations for x in cls.members) / m,
        }
        errors = []
        if residual > RESIDUAL_TOL:
            errors.append(f"J - I residual {residual:.3e}")
        worst_stage = max(stage_residuals, default=0.0)
        if worst_stage > RESIDUAL_TOL:
            errors.append(f"stage residual {worst_stage:.3e}")
        if len(traces) != m or any(
            traces[x].identified != x or not traces[x].satisfies_trace_bounds(cls)
            for x in cls.members
        ):
            errors.append("identify_all trace misidentifies or breaks the trace bounds")
        if not info["cert_cost_ratio"] < CERT_RATIO_LIMIT:
            errors.append(f"cert_cost_ratio {info['cert_cost_ratio']:.4f} >= {CERT_RATIO_LIMIT}")
        if not report.brute_force_C <= report.lp_primal <= report.lp_dual:
            errors.append(
                f"bound chain broken: {report.brute_force_C} <= {report.lp_primal} "
                f"<= {report.lp_dual}"
            )
        return Outcome(not errors, "; ".join(errors) or None, info=info)

    def alloc_peaks(self) -> dict[str, float]:
        """MiB that tracemalloc sees allocated at peak during one cold pipeline
        build and one ``J - I`` verify, above the level at each call's start.

        Runs outside the timed loop: tracemalloc slows allocation-heavy code.
        """
        clear_ordering_cache()
        m = self.cls.size
        target = np.ones((m, m)) - np.eye(m)
        tracemalloc.start()
        try:
            pipe, pipeline_mib = _alloc_peak(sdp.oracle_id_pipeline, self.cls)
            _, verify_mib = _alloc_peak(sdp.verify_feasible, target, pipe.solution)
        finally:
            tracemalloc.stop()
        return {"pipeline": pipeline_mib, "verify": verify_mib}

    def count_metrics(self, outcomes: list[Outcome]) -> dict:
        info = outcomes[0].info if outcomes and outcomes[0].info else {}
        m = self.cls.size
        return {
            key: (info.get(key, 0.0), m)
            for key in ("cert_cost_ratio", "cost_over_ideal", "cost_sum",
                        "ideal_cost_sum", "iterations_per_run", "solution_dim", "stages")
        }


def _alloc_peak(fn, *args):
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn(*args)
    return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20


def make(name: str, scale: str):
    sizes = SIZES[scale][name]
    if name == "certify":
        return Certify(sizes)
    return QSearch(name, sizes)

