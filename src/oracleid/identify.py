"""The identification loops: basic halving, improved halving, and the final
algorithm with the greedy scan order, plus a classical baseline.

All three algorithms run one loop, ``_identify``: keep a candidate set
``S``, let a step search for a disagreement between the hidden string and a
reference derived from ``S``, replace ``S`` by the candidates consistent
with the hit, and stop once one candidate remains or the search finds
nothing (the reference is then the answer).  ``S`` is a tuple of packed
member values in class order.  The three steps differ only in the
reference and the scan:

* ``_basic_step``: reference is the bitwise majority of ``S``; any
  disagreement will do; a hit at least halves ``S``.
* ``_improved_step``: reference is the majority; the *first* disagreement
  after the consumed prefix (the sum of earlier ranks) is found, so every
  hit shortens the effective string.
* ``_final_step``: reference and scan order come from the greedy ordering,
  whose elimination set for rank ``p`` is exactly the survivors of a hit
  at rank ``p``, so the hit prunes ``S`` by a factor ``max(2, p)``.  It
  walks the class's memoized pruning tree (``ordering._greedy``), where
  the ranks found so far lead to the candidates' node or a lone member,
  and hands that node to the search through the run's context, so the
  quantum engine can use the promise inside the scan.

Cost accounting in the returned trace: each found disagreement at rank
``p`` is charged ``sqrt(p)`` of idealized cost; an iteration that finds no
disagreement is charged ``sqrt(L)`` where ``L`` is the width it scanned
(the unconsumed suffix for improved, the ordering width for final; the
basic step charges ``sqrt(N)`` every iteration since it never shortens its
scan).  ``raw_queries`` counts actual oracle invocations and is nonzero
only for the quantum engine.  ``identify_all`` reads every member's trace
off the same tree.

Each run builds one ``qsim.EngineContext`` (its generator, query count,
worst norm drift and per-call error budget) and hands it to every step; the
trace reads its query count and drift off that context.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache, partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import qsim
from .bitstrings import BitString, ConceptClass, majority_value
from .ordering import _greedy, first_disagreement_rank
from .qsim import EngineContext, PromiseViolation

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


def _pruning_product(positions) -> int:
    """``prod(max(2, p))`` over the positions."""
    out = 1
    for p in positions:
        out *= p if p > 2 else 2
    return out


class RunTrace(NamedTuple):
    """Record of one identification run.

    A named tuple: immutable, equal and hashed by its fields in this order,
    and built by ``identify_all`` once per member as the tuple of its
    fields.
    """

    x: BitString
    identified: BitString
    positions: tuple[int, ...]
    ideal_cost: float
    raw_queries: int
    iterations: int
    norm_drift: float
    engine: str

    @property
    def r(self) -> int:
        """Disagreements found, one per recorded position."""
        return len(self.positions)

    @property
    def sum_positions(self) -> int:
        return sum(self.positions)

    @property
    def pruning_product(self) -> int:
        return _pruning_product(self.positions)

    def satisfies_trace_bounds(self, concept_class: ConceptClass) -> bool:
        positions = self.positions
        return sum(positions) <= concept_class.n and _pruning_product(positions) <= concept_class.size

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


class IdealFinder:
    """Deterministic, always-correct engine charging idealized costs.

    Stands in for the exact subroutines of the cost analysis; it reads the
    hidden string directly and consumes no raw queries.
    """

    name = "ideal"

    def find_first(self, x, s, order, width, ctx) -> int | None:
        return first_disagreement_rank(x, s, order, width)

    def find_any(self, x, s, ctx) -> int | None:
        rank = first_disagreement_rank(x, s, range(x.n))
        return None if rank is None else rank - 1


class QuantumFinder:
    """Engine backed by the simulated search subroutines.

    Correct with probability at least 2/3 per run via per-call error
    budgets of ``1 / (3 (r_max + 1))``, where ``r_max`` bounds the number
    of calls a run can make.  Each call goes to one ``qsim`` finder, which
    repeats its search until its certified failure is within the budget.

    The run's ``EngineContext`` goes straight down to the searches, which
    charge its queries and check the simulated norm against this engine's
    ``config.norm_tol``.
    """

    name = "quantum"

    def __init__(self, config: qsim.SearchConfig = qsim.DEFAULT_CONFIG):
        self.config = config

    def find_first(self, x, s, order, width, ctx) -> int | None:
        return qsim.quantum_disagreement_finder(x, s, order, width, ctx, self.config).rank

    def find_any(self, x, s, ctx) -> int | None:
        return qsim.quantum_any_disagreement(x, s, ctx, self.config)


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
    return EngineContext(np.random.default_rng(seed), error_budget=1.0 / (3.0 * (r_max + 1)))


def _check_input(concept_class: ConceptClass, x: BitString) -> None:
    if x.n != concept_class.n:
        raise ValueError("hidden string length does not match the class")


def _identify(concept_class: ConceptClass, x: BitString, engine, seed, step, S) -> RunTrace:
    """The loop every algorithm shares, from the class's values ``S``;
    ``step`` picks the reference and searches.

    ``step(engine, ctx, x, S, positions)`` returns ``(reference, rank, cost,
    survivors)``: the reference value, the recorded rank of the disagreement
    found (None for none), the idealized cost charged, and the next ``S``:
    the members of ``S`` consistent with the hit, in the order of ``S`` (the
    final step keeps ``S`` while its ranks lead to a tree node).
    """
    engine = make_engine(engine)
    _check_input(concept_class, x)
    ctx = _new_context(concept_class, seed)
    positions: list[int] = []
    ideal = 0.0
    iterations = 0
    while True:
        iterations += 1
        reference, rank, cost, survivors = step(engine, ctx, x, S, positions)
        ideal += cost
        if rank is None:
            identified = reference
            break
        positions.append(rank)
        S = survivors
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
        if len(S) == 1:
            identified = S[0]
            break
    return RunTrace(
        x=x,
        identified=BitString(x.n, identified),
        positions=tuple(positions),
        ideal_cost=ideal,
        raw_queries=ctx.queries,
        iterations=iterations,
        norm_drift=ctx.max_drift,
        engine=engine.name,
    )


def _basic_step(engine, ctx, x, S, positions):
    n = x.n
    maj = majority_value(S, n)
    found = engine.find_any(x, BitString(n, maj), ctx)
    if found is None:
        return maj, None, math.sqrt(n), None
    mask = 1 << (n - 1 - found)
    return maj, found + 1, math.sqrt(n), tuple(v for v in S if (v ^ maj) & mask)


def _improved_step(engine, ctx, x, S, positions):
    # Every candidate, and so their majority, shares the consumed prefix of
    # sum(positions) bits; survivors of a hit agree with the majority up to
    # the hit and differ at it.
    n = x.n
    offset = sum(positions)
    maj = majority_value(S, n)
    width = n - offset
    rank = engine.find_first(x, BitString(n, maj), tuple(range(offset, n)), width, ctx)
    if rank is None:
        return maj, None, math.sqrt(width), None
    hit = offset + rank - 1
    return maj, rank, math.sqrt(rank), tuple(v for v in S if (v ^ maj) >> (n - 1 - hit) == 1)


def _final_step(tree, engine, ctx, x, S, positions):
    # every block within a node's width holds a member: a hit leads to a
    # node (two or more members) or settles on a lone member
    nodes = tree.nodes
    here = tuple(positions)
    sigma, s_value, width = nodes[here]
    ctx.node = tree, here  # the quantum scan reads the node's candidates
    rank = engine.find_first(x, BitString(x.n, s_value), sigma, width, ctx)
    if rank is None:
        return s_value, None, math.sqrt(width), None
    path = (*here, rank)
    return s_value, rank, math.sqrt(rank), S if path in nodes else (tree.members[path],)


def run_halving_basic(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Majority reference, any disagreement, halving per hit.

    Recorded positions are absolute 1-based bit indices; every iteration
    is charged ``sqrt(N)`` of idealized cost.
    """
    return _identify(concept_class, x, engine, seed, _basic_step, concept_class.values)


def run_halving_improved(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Majority reference, first disagreement in natural order.

    A hit at rank ``p`` pins down ``p`` fresh bits, so the surviving set is
    treated as strings of the remaining length; recorded positions are the
    1-based ranks within each iteration's effective suffix.
    """
    return _identify(concept_class, x, engine, seed, _improved_step, concept_class.values)


def run_final(
    concept_class: ConceptClass, x: BitString, engine="ideal", *, seed=None
) -> RunTrace:
    """Greedy scan order, first disagreement in that order.

    Each iteration scans the greedy ordering of the current candidate set,
    the pruning-tree node its ranks so far lead to, up to its effective
    width; a hit at rank ``p`` leaves the greedy's elimination set for rank
    ``p``, pruning by a factor ``max(2, p)``, which yields the trace bounds
    ``sum(p_i) <= N`` and ``prod(max(2, p_i)) <= M``.
    """
    values = concept_class.values
    step = partial(_final_step, _greedy(concept_class.n, values))
    return _identify(concept_class, x, engine, seed, step, values)


def identify_all(concept_class: ConceptClass) -> dict[BitString, RunTrace]:
    """Exact final-algorithm traces for every member at once.

    Read off the class's memoized pruning tree (``ordering._greedy``) instead
    of running each member separately: a member's positions are its rank
    path, and its run ends at the node the path leads to (it is that
    node's reference, found by one more, unsuccessful search charged
    ``sqrt(width)``) or as the lone member of a block.  The traces are
    identical to per-member ``run_final`` with the ideal engine, in the
    order of a depth-first walk of the tree.  Every key, ``x`` and
    ``identified`` is the class's own member object.
    """
    values = concept_class.values
    tree = _greedy(concept_class.n, values)
    nodes = tree.nodes
    own = dict(zip(values, concept_class.members))
    root = _roots(concept_class.n)
    engine = IdealFinder.name
    new = tuple.__new__  # a trace straight from its eight fields, in order
    traces: dict[BitString, RunTrace] = {}
    for positions, value in tree.members.items():
        ideal = 0.0
        for p in positions:  # in path order, as a run adds them
            ideal += root[p]
        iterations = len(positions)
        node = nodes.get(positions)
        if node is not None:  # the node's reference
            ideal += root[node[2]]  # its width
            iterations += 1
        xs = own[value]
        traces[xs] = new(RunTrace, (xs, xs, positions, ideal, 0, iterations, 0.0, engine))
    return traces


@cache
def _roots(n: int) -> tuple[float, ...]:
    """``math.sqrt(t)`` for ``t = 0..n``: every rank and width of ``n`` bits."""
    return tuple(map(math.sqrt, range(n + 1)))


def classical_identify(
    concept_class: ConceptClass, x: BitString
) -> tuple[BitString, int]:
    """Classical baseline: query the first bit on which the candidates
    disagree until one candidate is left.

    The candidates are always a range ``[lo, hi)`` of the sorted
    ``members``: every bit before the first splitting bit is constant on
    the range, so the members with a 0 there come first.  That bit is the
    highest set bit of ``members[lo] ^ members[hi - 1]``, one bisection
    finds the boundary, and the hidden string's bit keeps one side.  Each
    query eliminates at least one candidate and no bit is queried twice,
    so at most ``min(M - 1, N)`` queries are spent, in O(queries · log M)
    time.

    Both sides of a split are nonempty, so the range never empties: for a
    hidden string outside the class this returns the member its queries
    lead to.
    """
    _check_input(concept_class, x)
    members = concept_class.members
    lo, hi = 0, len(members)
    queries = 0
    while hi - lo > 1:
        top = members[hi - 1].value
        shift = (members[lo].value ^ top).bit_length() - 1
        # the first member with a 1 at the split: at least the range's
        # common prefix followed by that 1
        cut = bisect_left(members, top >> shift << shift, lo, hi, key=attrgetter("value"))
        queries += 1
        if x.value >> shift & 1:
            lo = cut
        else:
            hi = cut
    return members[lo], queries
