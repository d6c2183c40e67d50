"""Test oracle: pruning a candidate set bit by bit after one search.

``filter_by_disagreement`` recomputes, from ``(sigma, s)`` alone, the
survivors of a disagreement search; the runtime reads them from the
greedy's own elimination sets instead, and the tests hold those to this.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from oracleid.bitstrings import BitString


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
