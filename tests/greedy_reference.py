"""Test oracle: the value-tuple greedy that the bit-column greedy replaced,
and the final algorithm's loop over it.

``_greedy`` below is the runtime's greedy scan order as it was before it
counted bit columns with ``int.bit_count``: it tests every candidate bit
of every survivor one at a time.  It is kept verbatim, so the differential
tests hold ``oracleid.ordering.hegedus_ordering`` and the pruning tree's
nodes to it exactly, tie-breaks included.

``run_final`` is the final algorithm as it ran before it walked the
pruning tree: every iteration runs ``_greedy`` on the surviving value
tuple and keeps its elimination block for the hit rank.
"""

from __future__ import annotations

import math
from functools import lru_cache

from oracleid.bitstrings import BitString
from oracleid.identify import PromiseViolation, RunTrace, _new_context, make_engine


@lru_cache(maxsize=1 << 17)
def _greedy(n: int, values: tuple[int, ...]):
    """Greedy scan order on packed ints.

    Returns ``(sigma, s_value, elim_values, width)`` where ``elim_values[p-1]``
    holds the members first disagreeing with ``s`` at rank ``p``.

    At each step the next scan position is the still-unused bit with the
    largest number of strings disagreeing with the current survivors'
    majority (ties to the lowest bit index), and ``s`` copies the majority
    bit there.  Survivors are then restricted to the strings agreeing with
    ``s`` at that bit.  Once a single survivor remains all later ranks are
    filled in increasing index order with the survivor's own bits.
    """
    current = list(values)
    size0 = len(current)
    unused = list(range(n))
    sigma: list[int] = []
    s_value = 0
    elim: list[tuple[int, ...]] = []
    width = 0 if size0 <= 1 else None

    for step in range(n):
        if len(current) == 1:
            break
        total = len(current)
        best_j = -1
        best_count = -1
        best_ones = 0
        for j in unused:
            mask = 1 << (n - 1 - j)
            ones = sum(1 for v in current if v & mask)
            count = min(ones, total - ones)
            if count > best_count:
                best_j, best_count, best_ones = j, count, ones
        maj_bit = 1 if 2 * best_ones >= total else 0
        sigma.append(best_j)
        unused.remove(best_j)
        s_value |= maj_bit << (n - 1 - best_j)

        mask = 1 << (n - 1 - best_j)
        keep, drop = [], []
        for v in current:
            (keep if ((v & mask) != 0) == bool(maj_bit) else drop).append(v)
        elim.append(tuple(drop))
        current = keep
        if width is None and len(current) <= 1:
            width = step + 1

    if len(sigma) < n:  # one survivor left: the loop would take its bits in index order
        (survivor,) = current
        for j in unused:
            sigma.append(j)
            s_value |= survivor & (1 << (n - 1 - j))
            elim.append(())
    return tuple(sigma), s_value, tuple(elim), width if width is not None else n


def run_final(concept_class, x, engine="ideal", *, seed=None) -> RunTrace:
    """``identify.run_final``'s trace, from the value-tuple greedy."""
    engine = make_engine(engine)
    ctx = _new_context(concept_class, seed)
    n = x.n
    S = concept_class.values
    positions = []
    ideal = 0.0
    iterations = 0
    while True:
        iterations += 1
        sigma, s_value, elim, width = _greedy(n, S)
        rank = engine.find_first(x, BitString(n, s_value), sigma, width, ctx)
        if rank is None:
            ideal += math.sqrt(width)
            identified = s_value
            break
        ideal += math.sqrt(rank)
        positions.append(rank)
        S = elim[rank - 1]
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
        if len(S) == 1:
            identified = S[0]
            break
    return RunTrace(
        x=x,
        identified=BitString(n, identified),
        positions=tuple(positions),
        ideal_cost=ideal,
        raw_queries=ctx.queries,
        iterations=iterations,
        norm_drift=ctx.max_drift,
        engine=engine.name,
    )
