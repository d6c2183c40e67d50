"""Exact simulation of the search subroutines, with strict query counting.

Simulated register: ``k`` index qubits plus one target qubit.  The oracle
for a hidden string maps basis state ``|v, b>`` to ``|v, b XOR e_v>`` where
``e`` is the effective string being searched (the bitwise XOR of the hidden
string with a known reference, read in a chosen scan order).  Index values
at or beyond the search width are never marked.

From the uniform start, Grover iterations over ``dim = 2**k`` indices with
``K`` marked stay in a two-dimensional subspace (Boyer, Brassard, Hoyer and
Tapp, "Tight bounds on quantum searching", 1998): after ``j`` iterations
each marked index has probability ``sin^2((2j+1) theta) / K`` and each
unmarked one ``cos^2((2j+1) theta) / (dim - K)``, with
``sin^2 theta = K / dim``.  The simulator uses these two amplitudes in place
of a statevector, so its cost does not grow with ``j``.

Query accounting rules (applied everywhere, including inside amplitude
amplification):

* one application of the oracle permutation = one query, whether it is used
  for phase marking or anything else;
* classically checking one candidate position = one query (it is a single
  oracle evaluation);
* a rank whose value an earlier query has read -- a zero verified by a
  direct read or by a search round's verification, or a verified
  disagreement -- is never charged again: that is knowledge, not an
  oracle call.

Two finders answer the two questions the identification loops ask:
``quantum_disagreement_finder`` the first disagreement in a scan order and
``quantum_any_disagreement`` any disagreement.  The first searches
windows of ranks: each stage of a doubling ladder searches only the ranks
above the stage before it, and each reduction the ranks of its stage's
window before the candidate, so no rank is searched by two stages; the
second searches all ``n`` positions at once.  Both hand every region they
search (a stage's window, a reduction's, all ``n`` positions) to the one
search function ``_bbht``, under one rule: a region of at most
``max(classical_width, 1)`` ranks is read directly, rank by rank, and only
a wider one is amplified.  Each finder repeats its search
until its certified failure (``scan_failure``, ``bbht_failure``) is within
the call's budget.  One ``EngineContext`` carries a run's state down to the
amplified search: its seeded ``numpy`` PCG64 generator, query count, worst
norm drift and per-call failure budget, so outcome sequences are
reproducible bit-for-bit across platforms.  Each search round draws its
iteration count, then one uniform variate for the measurement, and charges
its iterations as it draws them; the marked set is fixed within a search,
so each distinct iteration count's distribution is built once and sampled
by bisection on its cumulative sums.  With nothing marked no distribution
is built: every index then has probability exactly ``1/dim`` and the norm
is exactly 1, so a uniform ``u`` measures ``floor(u * dim)``, the index
that bisection would return.  Only the measurement tells the two apart;
either way a measured index inside the window is verified by a query,
charged on the rank's first read only.
Every rank one finder call has read, by any query, is known to it: the
stages, reductions and repetitions of the call share that memo, and the
known zeros at the front of the scan order are skipped and make an answer
exact.  A search ends once every rank of its window is known: a window
with no unknown rank is read directly, free, and a search stops at the
round whose verification reads its last unknown rank.  A marked rank
stays unknown until a round measures it, and that round returns it, so
the stop never fires while the window holds an unknown marked rank: there
the draws, and the miss law of ``_miss_by_marked``, are those of a search
that runs to its budget, and only the cost of proving a window empty falls.

The final algorithm's scans also use the promise that the hidden string is
a member of the class.  Its loop hands each scan the pruning-tree node it
is of (``EngineContext.node``), and the node's candidates are the members
whose rank path passes through it, so the hidden string is one of them
and agrees with every rank the scan has read.  An amplified window that
no candidate agreeing with every known rank, zeros and ones, has a 1 in
therefore holds no marked rank: it returns None at once, drawing nothing
and charging nothing, and the answer is exact under the promise.  Any
other window draws exactly as it would without the candidates.  When no
candidate agrees at all the promise is broken, and the scan raises
``PromiseViolation``; a run on a string outside the class so either names
a member or raises.  Direct reads, the halving loops and the ideal engine
read no candidates.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstrings import BitString
from .ordering import _checked_scan, _rank_view, node_candidates

__all__ = [
    "PromiseViolation",
    "SearchConfig",
    "DEFAULT_CONFIG",
    "EngineContext",
    "DisagreementResult",
    "grover_probabilities",
    "search_dim",
    "bbht_failure",
    "scan_failure",
    "repetitions_for_budget",
    "quantum_disagreement_finder",
    "quantum_any_disagreement",
]


class PromiseViolation(RuntimeError):
    """The hidden string is not in the class: no candidate is consistent with
    what the queries read (or, with the quantum engine, a search error
    poisoned the pruning)."""


@dataclass(frozen=True)
class SearchConfig:
    """Free constants of the search subroutines.

    growth: multiplicative schedule for the unknown-marked-count search
        (each failed round scales the iteration-count ceiling by this).
    cutoff_coeff: a single unknown-count search aborts once its total
        amplification iterations exceed ``cutoff_coeff * sqrt(width)``.
    classical_width: regions at most this wide (and always a region of
        one rank) are read directly, rank by rank, instead of amplified.
        A free constant of the schedule, not the crossover of the two
        costs: at the default cutoff an amplified window with nothing
        marked costs more expected queries than reading its ranks for
        every width from 5 to 63 (ROADMAP direction 13 picks it by exact
        cost).  A non-negative ``int``.
    norm_tol: the simulated state's norm, recomputed from its two
        amplitudes once per distinct drawn iteration count of a search
        whose window holds a marked rank, must stay within this of 1;
        non-negative.  With nothing marked the norm is exactly 1.
    """

    growth: float = 1.2
    cutoff_coeff: float = 9.0
    classical_width: int = 4
    norm_tol: float = 1e-9

    def __post_init__(self):
        # at growth <= 1 every round draws zero iterations, so a search over
        # an unmarked window never spends its budget and never returns
        if not self.growth > 1:
            raise ValueError(f"growth must be greater than 1, got {self.growth}")
        # at an infinite cutoff the failure DP overflows and a search over
        # an unmarked window never returns
        if not 0 <= self.cutoff_coeff < math.inf:
            raise ValueError(f"cutoff_coeff must be non-negative and finite, got {self.cutoff_coeff}")
        # the ladder would clamp a negative width and a float breaks the
        # first direct read; a bool is not a width
        cw = self.classical_width
        if type(cw) is not int or cw < 0:
            raise ValueError(f"classical_width must be a non-negative integer, got {cw!r}")
        # a negative tolerance fails even an exact norm; NaN passes every drift
        if not self.norm_tol >= 0:
            raise ValueError(f"norm_tol must be non-negative, got {self.norm_tol}")


DEFAULT_CONFIG = SearchConfig()


@dataclass
class EngineContext:
    """One identification run's search state.

    ``rng`` is the run's only source of randomness and ``error_budget`` the
    failure probability each disagreement-finder call may spend.  The
    searches add every oracle application to ``queries`` and record in
    ``max_drift`` the worst distance of the simulated state's norm from 1.
    ``node``, ``(tree, path)``, is the pruning-tree node
    (``ordering._greedy``) the next first-disagreement scan is of: the
    final loop sets it before each scan, and the scan takes it, reading the
    node's candidates on its first amplified window.
    """

    rng: np.random.Generator
    error_budget: float
    queries: int = 0
    max_drift: float = 0.0
    node: tuple | None = None


@dataclass(frozen=True)
class DisagreementResult:
    """A first-disagreement scan's answer: ``rank`` is 1-based in scan
    order (None: no disagreement found); ``exact`` means classical queries
    alone pinned it down (every earlier rank verified zero), so it cannot
    be wrong."""

    rank: int | None
    exact: bool


class _Effective:
    """Rank-indexed view of the string actually searched.

    ``ranks``, from ``ordering._rank_view`` under its one rule: rank ``t``,
    below ``width``, is bit ``order[t]`` of the hidden string XOR ``s``.
    The raw bits live here so the simulator can count marked ranks, but
    every read that reaches the algorithm is routed through a counted query.
    ``known`` is the memo of ranks whose value a query has read, one byte
    per rank; a rank is charged only on its first read, whichever search
    or scan of the view makes it.  ``cleared``, the length of the known
    prefix of zeros, is what every later scan may skip.

    ``node``, the pruning-tree node ``(tree, path)`` the scan is of, or
    None, gives the view the promise: ``holds_one`` reads the node's
    candidates (``ordering.node_candidates``, built on the first read).
    """

    __slots__ = ("ranks", "known", "_first_marked", "_node", "_cols", "_agree", "_applied")

    def __init__(
        self, x: BitString, s: BitString, order: Sequence[int], width: int, node: tuple | None = None
    ) -> None:
        self.ranks = _rank_view(x.value ^ s.value, x.n, _checked_scan(x.n, s, order, width)[:width])
        self.known = bytearray(width)
        self._first_marked = self.ranks.index(1) if 1 in self.ranks else width
        self._node = node
        self._cols = None

    @property
    def cleared(self) -> int:
        """Ranks below this are known zeros: read, and not marked."""
        unread = self.known.find(0)
        return self._first_marked if unread < 0 else min(unread, self._first_marked)

    def query(self, t: int, ctx: EngineContext) -> int:
        if not self.known[t]:
            self.known[t] = 1
            ctx.queries += 1
        return self.ranks[t]

    def holds_one(self, start: int, limit: int) -> bool:
        """False when no candidate of the view's node that agrees with every
        rank the view knows, zeros and ones, has a 1 in [start, limit):
        under the promise the hidden string is such a candidate, so the
        window holds no marked rank.  True without a node.

        The agreeing candidates are a mask over the node's, narrowed by the
        ranks learned since the last call, each one AND of a column; none
        left raises ``PromiseViolation``.
        """
        if self._node is None:
            return True
        if self._cols is None:
            self._agree, self._cols = node_candidates(*self._node)
            self._applied = 0
        cols = self._cols
        known = int.from_bytes(self.known, "little")  # rank t is bit 8t
        if known != self._applied:
            fresh = (known ^ self._applied).to_bytes(len(cols), "little")
            self._applied = known
            agree, ranks = self._agree, self.ranks
            t = fresh.find(1)
            while t >= 0:
                agree &= cols[t] if ranks[t] else ~cols[t]
                t = fresh.find(1, t + 1)
            if not agree:
                raise PromiseViolation("no candidate agrees with the ranks read; promise violated")
            self._agree = agree
        agree = self._agree
        for col in cols[start:limit]:
            if col & agree:
                return True
        return False


def grover_probabilities(dim: int, marked: int, iterations: int) -> tuple[float, float]:
    """Per-index measurement probabilities after ``iterations`` Grover steps.

    Returns ``(p_marked, p_unmarked)`` for a uniform start over ``dim``
    indices of which ``marked`` are marked; a value whose index class is
    empty is 0.
    """
    angle = (2 * iterations + 1) * math.asin(math.sqrt(marked / dim))
    p_marked = math.sin(angle) ** 2 / marked if marked else 0.0
    p_unmarked = math.cos(angle) ** 2 / (dim - marked) if marked < dim else 0.0
    return p_marked, p_unmarked


def search_dim(limit: int) -> int:
    """Index-register size of a search over ``limit`` ranks: the least power
    of two at or above ``limit``, and 1 for ``limit <= 1``."""
    return 1 << max(limit - 1, 0).bit_length()


def _bbht(
    eff: _Effective, limit: int, ctx: EngineContext, config: SearchConfig, start: int = 0
) -> int | None:
    """Search the window of ranks [start, limit) for any marked one, marked
    count unknown.

    A window of at most ``max(config.classical_width, 1)`` ranks is read
    directly: its ranks are queried in order and the first marked one is
    returned, so the answer is exact and nothing is drawn.  This is the
    one place the search decides between direct reads and amplification;
    an empty window reads nothing.  So is a window whose every rank the
    view knows, at no charge.  A wider window is searched as a
    register of its own: index ``i`` addresses rank ``start + i``, and the
    dim and the budget are those of its ``limit - start`` ranks, so a call
    over [start, limit) draws exactly as a call over [0, limit - start) of
    the sliced view, with positions offset by ``start``.

    Its rounds run a random number of amplification iterations drawn from a
    growing range, measure, and classically verify the measured candidate.
    Gives up once total iterations exceed ``cutoff_coeff * sqrt(limit -
    start)``; a None can therefore be wrong (marked ranks missed), never a
    position.  Where the window holds a marked rank, the state's norm is
    checked against ``config.norm_tol`` once per distinct drawn iteration
    count; with nothing marked it is exactly 1.  The call also ends at the
    round whose verification reads the window's last rank the view did not
    know: it returns None with nothing marked, and otherwise the first
    marked rank, which it knew at entry (an unknown marked rank is returned
    by the round that measures it, so the stop never fires while one is
    left, and such a window draws exactly as it would with no stop).

    An amplified window of a view that has its tree node's candidates
    (``_Effective.holds_one``) is first tested against the promise: when
    no candidate that agrees with every rank the view knows has a 1 in
    [start, limit), the hidden string, a candidate, has none either, and
    the call returns None before any draw, charging nothing.

    Every round runs in one loop: it draws an integer ``j`` and charges
    its ``j`` iterations to ``ctx`` at once, then draws one uniform ``u``
    and measures; a measured index inside the window is verified through
    ``_Effective.query``, which charges a rank only on its first read, and
    a padding index reads nothing.  Only the measurement depends on whether
    anything is marked.  The marked set is fixed for the call, so the
    distribution and the norm depend only on ``j``: both are built once
    per distinct ``j`` (at most ``ceil(sqrt(dim))`` of them), between the
    two draws, when the norm is checked for all of ``j``'s rounds, and the
    distribution is sampled by bisection on its cumulative sums.  With
    nothing marked none is built: ``asin(0)`` is 0, so every index has
    probability exactly ``1/dim``, the cumulative sums ``(i + 1)/dim`` are
    exact and bisecting them at ``u`` gives ``floor(u * dim)``, and the
    norm is exactly 1, so its check would pass (``norm_tol`` is never
    negative).  A raise in a norm check leaves ``ctx`` charged for every
    round drawn.
    """
    size = limit - start
    known = eff.known
    # unknown: the window's ranks no query has read, counted only past the
    # width test, since most searches a scan makes are narrow
    if size <= max(config.classical_width, 1) or not (unknown := known.count(0, start, limit)):
        return next((t for t in range(start, limit) if eff.query(t, ctx)), None)
    if not eff.holds_one(start, limit):
        return None  # empty under the promise: nothing drawn, nothing charged
    dim = search_dim(size)
    ranks = eff.ranks[start:limit]
    n_marked = ranks.count(1)
    if n_marked:
        marked = np.zeros(dim, dtype=bool)
        marked[:size] = ranks
        dists: dict[int, list[float]] = {}  # j -> cumulative probabilities
    budget = config.cutoff_coeff * math.sqrt(size)
    draw_j, draw_u, query = ctx.rng.integers, ctx.rng.random, eff.query
    m, m_cap = 1.0, math.sqrt(dim)
    window = 1  # ceil(m): j is drawn from [0, window)
    used = 0  # iterations so far, each one oracle query
    while unknown and used <= budget:
        j = int(draw_j(0, window))
        used += j
        ctx.queries += j
        if not n_marked:
            v = int(draw_u() * dim)  # the bisection of the exactly uniform distribution
        else:
            cum = dists.get(j)
            if cum is None:
                p_marked, p_unmarked = grover_probabilities(dim, n_marked, j)
                drift = abs(math.sqrt(n_marked * p_marked + (dim - n_marked) * p_unmarked) - 1.0)
                ctx.max_drift = max(ctx.max_drift, drift)
                if drift > config.norm_tol:
                    raise RuntimeError(f"simulated state norm drifted by {drift:.3e}")
                cum = dists[j] = np.cumsum(np.where(marked, p_marked, p_unmarked)).tolist()
            v = bisect.bisect_right(cum, draw_u() * cum[-1])
        if v < size:
            v += start
            unknown -= not known[v]
            if query(v, ctx):
                return v
        if m < m_cap:
            m = min(m * config.growth, m_cap)
            window = math.ceil(m)
    # every rank known: the marked ones were known at entry
    return start + ranks.index(1) if n_marked and not unknown else None


def _stage_ladder(classical_width: int, width: int) -> list[int]:
    top = min(max(classical_width, 1), width)
    tops = [top]
    while top < width:
        top = min(2 * top, width)
        tops.append(top)
    return tops


def _first_one(eff: _Effective, ctx: EngineContext, config: SearchConfig) -> DisagreementResult:
    """One scan for the first marked rank of ``eff``, skipping the ranks
    below ``eff.cleared``, which are known zeros.

    Strategy: search windows of doubling top, the first ``[0,
    max(classical_width, 1))`` and each later one ``[previous top, top)``,
    so that no rank is searched by two stages; once one is verified at
    rank ``v``, repeatedly search the window's ranks strictly before it,
    ``[window start, v)``, to move the candidate forward, until a search
    finds nothing.  Every stage and reduction is one ``_bbht`` call, so a
    window of at most ``classical_width`` ranks is read directly and its
    first marked rank is the answer.  An answer is exact when ``eff.cleared``
    reaches it, that is, when every rank below it is a known zero, however
    it came to be known; otherwise an earlier window may have missed a
    marked rank.

    Expected query cost scales with the square root of the answer.  A
    returned rank is always a verified disagreement but may be later than
    the true first one; None may be wrong unless ``exact``.
    """
    width = len(eff.ranks)
    bottom = 0  # the previous stage's top
    for top in _stage_ladder(config.classical_width, width):
        start, bottom = max(bottom, eff.cleared), top
        best = _bbht(eff, top, ctx, config, start)
        if best is None:
            continue
        while (w := _bbht(eff, best, ctx, config, start)) is not None:
            best = w
        return DisagreementResult(best + 1, eff.cleared >= best)
    return DisagreementResult(None, eff.cleared >= width)


def _miss_by_marked(limit: int, config: SearchConfig) -> np.ndarray:
    """Probability that ``_bbht``'s amplified search over ``limit`` ranks
    returns None, for K = 1..dim marked ranks (entry ``K - 1``).

    Exact DP over ``_bbht``'s rounds.  ``active[u, K - 1]`` is the
    probability that a run with K marked ranks has not yet measured one and
    has used ``u`` iterations; a round still runs while ``u <= budget``.
    Round ``r`` draws ``j`` uniformly from ``[0, ceil(m_r))`` and misses
    with probability ``cos^2((2j + 1) theta)``, ``sin^2 theta = K / dim``;
    ``m_r`` grows exactly as in ``_bbht``.  Runs that draw ``j = 0`` stay
    put, so the mass still active decays geometrically rather than
    vanishing: the loop stops once at most 1e-18 of it is left, and counts
    that remainder as missed, so each entry is an upper bound exact to
    1e-18.  ``_bbht``'s stop at full knowledge never fires while a marked
    rank is unknown, so this is the exact law of every window that holds an
    unknown marked rank; one whose marked ranks are all known at entry
    misses no more often, since its stop returns one of them.
    """
    dim = search_dim(limit)
    theta = np.arcsin(np.sqrt(np.arange(1, dim + 1) / dim))
    top = math.floor(config.cutoff_coeff * math.sqrt(limit))  # last used value that runs
    m, m_cap = 1.0, math.sqrt(dim)
    miss = np.cos(np.outer(2 * np.arange(math.ceil(m_cap)) + 1, theta)) ** 2
    active = np.zeros((top + 1, dim))
    active[0] = 1.0
    missed = np.zeros(dim)
    part = np.empty_like(active)
    while active.sum(axis=0).max() > 1e-18:
        draws = math.ceil(m)
        nxt = np.zeros_like(active)
        for j in range(draws):
            np.multiply(active, miss[j] / draws, out=part)
            cut = max(0, top + 1 - j)
            nxt[j:] += part[:cut]
            missed += part[cut:].sum(axis=0)  # over budget: _bbht gives up
        active = nxt
        m = min(m * config.growth, m_cap)
    return missed + active.sum(axis=0)


# Largest dim whose failure DP is run (see ``bbht_failure``).
MAX_CERTIFIED_DIM = 1024


@functools.lru_cache(maxsize=None)
def bbht_failure(dim: int, config: SearchConfig = DEFAULT_CONFIG) -> float:
    """Worst probability, over K >= 1 marked ranks, that ``_bbht`` on a
    limit with this power-of-two ``dim`` returns None.

    Every limit in ``(dim/2, dim]`` shares ``dim`` and the schedule, and a
    larger limit only adds rounds after the smaller one's cutoff, so the
    smallest limit ``dim/2 + 1`` bounds the whole class.  ``dim == 1`` is
    one direct read and never misses; so does every window of at most
    ``classical_width`` ranks, which this bound does not credit.
    ``_bbht``'s stop at full knowledge does not move the bound: it never
    fires while a marked rank is unknown.  The DP's cost grows about as
    ``dim**2`` (0.8 s at dim 1024, 20 s at 4096), so above
    ``MAX_CERTIFIED_DIM`` it is not run and the textbook per-call rate 1/3
    is returned, assumed rather than certified.  Memoized for the life of
    the process.
    """
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two, got {dim}")
    if dim == 1:
        return 0.0
    if dim > MAX_CERTIFIED_DIM:
        return 1.0 / 3.0
    return float(_miss_by_marked(dim // 2 + 1, config).max())


@functools.lru_cache(maxsize=None)
def scan_failure(width: int, config: SearchConfig = DEFAULT_CONFIG) -> float:
    """Certified bound on the probability that one ``_first_one`` scan of
    ``width`` ranks returns a wrong answer.

    A scan is wrong only when a ``_bbht`` call on a range holding a marked
    rank returns None; exact answers and verified positions never are, and
    a direct read of a window of at most ``classical_width`` ranks never
    misses.  Nor, under the promise, does a window skipped because no
    agreeing candidate of the scan's node has a 1 in it; the bound still
    charges such a window as an amplified one (ROADMAP direction 2 would
    credit it).  The windows below the first marked rank hold none and
    return None rightly.  A scan makes at most one call per ladder stage plus ``width``
    reduction calls (each moves the candidate strictly earlier), each
    window's dim is at most ``search_dim(width)``, and each call misses
    with probability at most ``bbht_failure`` of its ``dim``, so the union
    bound gives ``(stages + width) * max bbht_failure``.  Where that reaches
    1/3 (small ``cutoff_coeff``) or a dim is past ``MAX_CERTIFIED_DIM``,
    the result is 1/3, the textbook per-scan rate, which is then assumed
    rather than certified.  Dims are taken smallest first, so the costly
    large-dim DPs are skipped once the bound has reached 1/3.  Memoized.
    """
    dim = search_dim(width)
    if dim > MAX_CERTIFIED_DIM:
        return 1.0 / 3.0
    calls = len(_stage_ladder(config.classical_width, width)) + width
    worst = 0.0
    for k in range(1, dim.bit_length()):
        worst = max(worst, bbht_failure(1 << k, config))
        if calls * worst >= 1.0 / 3.0:
            return 1.0 / 3.0
    return calls * worst


def repetitions_for_budget(error_budget: float, per_scan: float) -> int:
    """Independent repetitions needed to push failure below the budget.

    ``per_scan`` bounds the probability that one scan fails, whatever the
    earlier repetitions did, so ``t`` repetitions fail together with
    probability at most ``per_scan**t``.  The two finders pass the
    certified ``scan_failure`` and ``bbht_failure``.
    """
    if not 0 < error_budget < 1:
        raise ValueError("error budget must be in (0, 1)")
    if not 0 <= per_scan < 1:
        raise ValueError("per-scan failure must be in [0, 1)")
    if per_scan <= error_budget:
        return 1
    return math.ceil(math.log(1.0 / error_budget) / math.log(1.0 / per_scan))


def quantum_disagreement_finder(
    x: BitString, s: BitString, order: Sequence[int], width: int, ctx: EngineContext,
    config: SearchConfig = DEFAULT_CONFIG,
) -> DisagreementResult:
    """First scan-order disagreement of ``x`` with ``s``, amplified.

    Runs the first-marked scan several times and keeps the earliest
    verified disagreement.  Every returned position is a real disagreement
    and never earlier than the true first, so taking the minimum is the
    correct combiner; the call fails only when every repetition does, so
    the certified ``scan_failure`` sets the repetition count that brings
    it within ``ctx.error_budget``.  The repetitions share one view, so
    a rank any of them has read is not charged again, and an exact
    repetition short-circuits the rest.  The answer is exact when the
    view's known zeros reach it, whichever repetitions proved them.
    """
    eff = _Effective(x, s, order, width, ctx.node)
    ctx.node = None
    best: int | None = None
    repetitions = repetitions_for_budget(ctx.error_budget, scan_failure(width, config))
    for _ in range(repetitions):
        res = _first_one(eff, ctx, config)
        if res.exact:
            return res
        if res.rank is not None:
            best = res.rank if best is None else min(best, res.rank)
    return DisagreementResult(best, eff.cleared >= (width if best is None else best - 1))


def quantum_any_disagreement(
    x: BitString, s: BitString, ctx: EngineContext, config: SearchConfig = DEFAULT_CONFIG
) -> int | None:
    """Any bit position where ``x`` disagrees with ``s``, amplified.

    Repeats one unknown-count search over all ``x.n`` positions until one
    returns; a returned position (0-based) is a verified disagreement.
    None is certain when ``x == s`` and otherwise a miss of every
    repetition, so the certified ``bbht_failure`` sets the repetition count
    that brings it within ``ctx.error_budget``.  The repetitions share one
    view, so no position is charged twice.
    """
    n = x.n
    eff = _Effective(x, s, range(n), n)
    repetitions = repetitions_for_budget(ctx.error_budget, bbht_failure(search_dim(n), config))
    for _ in range(repetitions):
        v = _bbht(eff, n, ctx, config)
        if v is not None:
            return v
    return None
