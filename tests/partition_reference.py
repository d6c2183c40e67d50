"""Test oracles: pruning a candidate set bit by bit.

``filter_by_disagreement`` recomputes, from ``(sigma, s)`` alone, the
survivors of a disagreement search; the runtime reads them from the
greedy's own elimination sets instead, and the tests hold those to this.
``verify_ordering_walk`` is the agree/disagree walk that
``ordering.verify_ordering`` replaced with the members' first ranks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from oracleid.bitstrings import BitString, ConceptClass
from oracleid.ordering import Ordering


def filter_by_disagreement(
    strings: Iterable[BitString],
    sigma: Sequence[int],
    s: BitString,
    p: int | None,
    found: bool,
) -> tuple[BitString, ...]:
    """Prune a candidate set after one disagreement search against ``s``.

    ``sigma`` lists 0-based bit positions in scan order.  With ``found``
    and rank ``p`` (1-based), keeps the strings that agree with ``s`` at
    ``sigma[0..p-2]`` and disagree at ``sigma[p-1]``.  Without ``found``,
    keeps the strings that agree with ``s`` on all of ``sigma`` (i.e. the
    intersection of the set with ``{s}`` when ``sigma`` covers every
    position).
    """
    members = list(strings)
    if found:
        if p is None or not 1 <= p <= len(sigma):
            raise ValueError(f"rank {p} out of range for scan order of length {len(sigma)}")
        prefix = sigma[: p - 1]
        pos = sigma[p - 1]
        return tuple(
            y
            for y in members
            if all(y.bit(i) == s.bit(i) for i in prefix) and y.bit(pos) != s.bit(pos)
        )
    return tuple(y for y in members if all(y.bit(i) == s.bit(i) for i in sigma))


def verify_ordering_walk(strings: Iterable[BitString] | ConceptClass, order: Ordering) -> float:
    """Worst pruning ratio ``|S_p| * max(2, p) / |S|`` over all ranks, by
    splitting the survivors at each rank into those agreeing with ``s``,
    which go on, and those disagreeing, which are rank ``p``'s."""
    cls = ConceptClass.of(strings)
    n = cls.n
    if sorted(order.sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of the bit positions")
    if order.s.n != n:
        raise ValueError("reference string length mismatch")
    s_value = order.s.value
    worst = 0.0
    remaining = list(cls.values)
    for p, j in enumerate(order.sigma, start=1):
        mask = 1 << (n - 1 - j)
        s_bit = (s_value & mask) != 0
        agree, disagree = [], []
        for v in remaining:
            (agree if ((v & mask) != 0) == s_bit else disagree).append(v)
        worst = max(worst, len(disagree) * max(2, p) / cls.size)
        remaining = agree
    return worst
