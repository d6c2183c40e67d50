"""The identification loops: basic halving, improved halving, and the final
algorithm with the greedy scan order, plus a classical baseline.

All three loops share the same skeleton: keep a candidate set ``S``, search
for a disagreement between the hidden string and a reference derived from
``S``, prune ``S`` by what the search revealed, and stop once one candidate
remains.  They differ in the reference and in what "search" means:

* basic: reference is the bitwise majority of ``S``; any disagreement will
  do; a hit at least halves ``S``.
* improved: reference is the majority; the *first* disagreement in natural
  order is found, so every learned prefix shortens the effective string.
* final: reference and scan order come from the greedy ordering, so a hit
  at rank ``p`` prunes ``S`` by a factor ``max(2, p)``.

Cost accounting in the returned trace: each found disagreement at rank
``p`` is charged ``sqrt(p)`` of idealized cost; an iteration that finds no
disagreement is charged ``sqrt(L)`` where ``L`` is the width it scanned
(the whole string for basic/improved, the ordering width for final; the
basic loop charges ``sqrt(N)`` every iteration since it never shortens its
scan).  ``raw_queries`` counts actual oracle invocations and is nonzero
only for the quantum engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .bitstrings import BitString, ConceptClass, majority_value
from .ordering import _greedy

__all__ = [
    "PromiseViolation",
    "RunTrace",
    "EngineContext",
    "IdealFinder",
    "QuantumFinder",
    "make_engine",
    "run_halving_basic",
    "run_halving_improved",
    "run_final",
    "identify_all",
    "classical_identify",
]


class PromiseViolation(RuntimeError):
    """The candidate set emptied: the hidden string was not in the class
    (or, with the quantum engine, a search error poisoned the pruning)."""


@dataclass(frozen=True)
class RunTrace:
    """Record of one identification run."""

    x: BitString
    identified: BitString
    positions: tuple[int, ...]
    r: int
    ideal_cost: float
    raw_queries: int
    iterations: int
    norm_drift: float
    engine: str

    @property
    def sum_positions(self) -> int:
        return sum(self.positions)

    @property
    def pruning_product(self) -> int:
        out = 1
        for p in self.positions:
            out *= max(2, p)
        return out

    def satisfies_trace_bounds(self, concept_class: ConceptClass) -> bool:
        return (
            self.sum_positions <= concept_class.n
            and self.pruning_product <= concept_class.size
        )

    def to_dict(self) -> dict:
        return {
            "x": str(self.x),
            "identified": str(self.identified),
            "positions": list(self.positions),
            "r": self.r,
            "ideal_cost": self.ideal_cost,
            "raw_queries": self.raw_queries,
            "iterations": self.iterations,
            "norm_drift": self.norm_drift,
            "engine": self.engine,
        }


@dataclass
class EngineContext:
    """Per-run state handed to a disagreement engine."""

    rng: np.random.Generator
    counter: qsim.QueryCounter
    stats: qsim.SimStats
    error_budget: float


class IdealFinder:
    """Deterministic, always-correct engine charging idealized costs.

    Stands in for the exact subroutines of the cost analysis; it reads the
    hidden string directly and consumes no raw queries.
    """

    name = "ideal"
    deterministic = True

    def find_first(self, x, s, order, width, ctx) -> int | None:
        for t in range(width):
            j = order[t]
            if x.bit(j) != s.bit(j):
                return t + 1
        return None

    def find_any(self, x, s, ctx) -> int | None:
        d = x.value ^ s.value
        if d == 0:
            return None
        return x.n - d.bit_length()


class QuantumFinder:
    """Engine backed by the simulated search subroutines.

    Correct with probability at least 2/3 per run via per-call error
    budgets of ``1 / (3 (r_max + 1))`` amplified by repetition, where
    ``r_max`` bounds the number of calls a run can make.
    """

    name = "quantum"
    deterministic = False

    def __init__(self, config: qsim.SearchConfig = qsim.DEFAULT_CONFIG):
        self.config = config

    def find_first(self, x, s, order, width, ctx) -> int | None:
        res = qsim.quantum_disagreement_finder(
            x,
            s,
            order,
            width,
            ctx.error_budget,
            rng=ctx.rng,
            counter=ctx.counter,
            config=self.config,
            stats=ctx.stats,
        )
        return res.rank

    def find_any(self, x, s, ctx) -> int | None:
        for _ in range(qsim.repetitions_for_budget(self.config, ctx.error_budget)):
            v = qsim.grover_search_unknown_count(
                x,
                x.n,
                s=s,
                rng=ctx.rng,
                counter=ctx.counter,
                config=self.config,
                stats=ctx.stats,
            )
            if v is not None:
                return v
        return None


def make_engine(engine) -> IdealFinder | QuantumFinder:
    if isinstance(engine, (IdealFinder, QuantumFinder)):
        return engine
    if engine == "ideal":
        return IdealFinder()
    if engine == "quantum":
        return QuantumFinder()
    raise ValueError(f"unknown engine {engine!r}")


def _new_context(concept_class: ConceptClass, seed) -> EngineContext:
    m = concept_class.size
    r_max = max(1, math.ceil(math.log2(m))) if m > 1 else 1
    budget = 1.0 / (3.0 * (r_max + 1))
    return EngineContext(
        rng=np.random.default_rng(seed),
        counter=qsim.QueryCounter(),
        stats=qsim.SimStats(),
        error_budget=budget,
    )


def _check_input(concept_class: ConceptClass, x: BitString) -> None:
    if x.n != concept_class.n:
        raise ValueError("hidden string length does not match the class")


def _trace(x, n, identified_value, positions, ideal, iterations, ctx, engine) -> RunTrace:
    return RunTrace(
        x=x,
        identified=BitString(n, identified_value),
        positions=tuple(positions),
        r=len(positions),
        ideal_cost=ideal,
        raw_queries=ctx.counter.count,
        iterations=iterations,
        norm_drift=ctx.stats.max_drift,
        engine=engine.name,
    )


def run_halving_basic(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Majority reference, any disagreement, halving per hit.

    Recorded positions are absolute 1-based bit indices; every iteration
    is charged ``sqrt(N)`` of idealized cost.
    """
    engine = make_engine(engine)
    _check_input(concept_class, x)
    ctx = _new_context(concept_class, seed)
    n = concept_class.n
    S = list(concept_class.values)
    positions: list[int] = []
    ideal = 0.0
    iterations = 0
    while True:
        iterations += 1
        maj = majority_value(S, n)
        ideal += math.sqrt(n)
        found = engine.find_any(x, BitString(n, maj), ctx)
        if found is None:
            identified = maj
            break
        positions.append(found + 1)
        mask = 1 << (n - 1 - found)
        S = [v for v in S if (v ^ maj) & mask]
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
        if len(S) == 1:
            identified = S[0]
            break
    return _trace(x, n, identified, positions, ideal, iterations, ctx, engine)


def run_halving_improved(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Majority reference, first disagreement in natural order.

    A hit at rank ``p`` pins down ``p`` fresh bits, so the surviving set is
    treated as strings of the remaining length; recorded positions are the
    1-based ranks within each iteration's effective suffix.
    """
    engine = make_engine(engine)
    _check_input(concept_class, x)
    ctx = _new_context(concept_class, seed)
    n = concept_class.n
    full = (1 << n) - 1
    S = list(concept_class.values)
    offset = 0
    positions: list[int] = []
    ideal = 0.0
    iterations = 0
    while True:
        iterations += 1
        maj = majority_value(S, n)
        width = n - offset
        order = tuple(range(offset, n))
        rank = engine.find_first(x, BitString(n, maj), order, width, ctx)
        if rank is None:
            ideal += math.sqrt(width)
            prefix_mask = (((1 << offset) - 1) << (n - offset)) if offset else 0
            identified = (S[0] & prefix_mask) | (maj & (full ^ prefix_mask))
            break
        positions.append(rank)
        ideal += math.sqrt(rank)
        hit = offset + rank - 1
        prefix_mask = ((1 << (hit - offset)) - 1) << (n - hit) if hit > offset else 0
        at_mask = 1 << (n - 1 - hit)
        S = [v for v in S if (v ^ maj) & prefix_mask == 0 and (v ^ maj) & at_mask]
        offset = hit + 1
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
        if len(S) == 1:
            identified = S[0]
            break
    return _trace(x, n, identified, positions, ideal, iterations, ctx, engine)


def run_final(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Greedy scan order, first disagreement in that order.

    Each iteration recomputes the ordering for the current candidate set
    and scans only its effective width; a hit at rank ``p`` prunes by a
    factor ``max(2, p)``, which yields the trace bounds
    ``sum(p_i) <= N`` and ``prod(max(2, p_i)) <= M``.
    """
    engine = make_engine(engine)
    _check_input(concept_class, x)
    ctx = _new_context(concept_class, seed)
    n = concept_class.n
    S = list(concept_class.values)
    positions: list[int] = []
    ideal = 0.0
    iterations = 0
    while True:
        iterations += 1
        sigma, s_value, _, width = _greedy(n, tuple(S))
        s = BitString(n, s_value)
        rank = engine.find_first(x, s, sigma, width, ctx)
        if rank is None:
            ideal += math.sqrt(width)
            identified = s_value
            break
        positions.append(rank)
        ideal += math.sqrt(rank)
        prefix_mask = 0
        for t in range(rank - 1):
            prefix_mask |= 1 << (n - 1 - sigma[t])
        at_mask = 1 << (n - 1 - sigma[rank - 1])
        S = [v for v in S if (v ^ s_value) & prefix_mask == 0 and (v ^ s_value) & at_mask]
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
        if len(S) == 1:
            identified = S[0]
            break
    return _trace(x, n, identified, positions, ideal, iterations, ctx, engine)


def identify_all(concept_class: ConceptClass) -> dict[BitString, RunTrace]:
    """Exact final-algorithm traces for every member at once.

    Walks the deterministic pruning tree a single time instead of running
    each member separately, sharing every ordering computation; the traces
    are identical to per-member ``run_final`` with the ideal engine.
    """
    n = concept_class.n
    engine = IdealFinder()
    traces: dict[BitString, RunTrace] = {}

    def emit(value, positions, ideal, iterations):
        xs = BitString(n, value)
        traces[xs] = RunTrace(
            x=xs,
            identified=xs,
            positions=tuple(positions),
            r=len(positions),
            ideal_cost=ideal,
            raw_queries=0,
            iterations=iterations,
            norm_drift=0.0,
            engine=engine.name,
        )

    def walk(values, positions, ideal, iterations):
        sigma, s_value, _, width = _greedy(n, tuple(values))
        iterations += 1
        survivors = values
        for p in range(1, width + 1):
            at_mask = 1 << (n - 1 - sigma[p - 1])
            block = [v for v in survivors if (v ^ s_value) & at_mask]
            survivors = [v for v in survivors if not ((v ^ s_value) & at_mask)]
            if not block:
                continue
            pos = positions + (p,)
            cost = ideal + math.sqrt(p)
            if len(block) == 1:
                emit(block[0], pos, cost, iterations)
            else:
                walk(block, pos, cost, iterations)
        # the lone member agreeing with s over the whole width: one more
        # (unsuccessful) search charged sqrt(width)
        for v in survivors:
            emit(v, positions, ideal + math.sqrt(width), iterations)

    walk(list(concept_class.values), (), 0.0, 0)
    return traces


def classical_identify(
    concept_class: ConceptClass, x: BitString
) -> tuple[BitString, int]:
    """Classical baseline: query a splitting bit until one candidate is left.

    Any bit on which the candidates disagree eliminates at least one of
    them, so at most ``min(M - 1, N)`` queries are spent (no bit is ever
    queried twice).
    """
    _check_input(concept_class, x)
    n = concept_class.n
    S = list(concept_class.values)
    queries = 0
    while len(S) > 1:
        split = None
        for j in range(n):
            mask = 1 << (n - 1 - j)
            ones = sum(1 for v in S if v & mask)
            if 0 < ones < len(S):
                split = j
                break
        assert split is not None  # distinct strings always disagree somewhere
        queries += 1
        want = x.bit(split)
        mask = 1 << (n - 1 - split)
        S = [v for v in S if ((v & mask) != 0) == bool(want)]
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
    return BitString(n, S[0]), queries
