"""Greedy construction of the informative query order for a candidate set.

Given a set ``S`` of candidate strings, the greedy builds a permutation
``sigma`` of bit positions and a reference string ``s`` such that the
strings that first disagree with ``s`` at scan rank ``p`` number at most
``|S| / max(2, p)``.  A disagreement found at rank ``p`` therefore prunes
the candidate set by a factor ``max(2, p)`` -- the further the scan has to
go, the more it learns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .bitstrings import BitString, ConceptClass

__all__ = [
    "Ordering",
    "hegedus_ordering",
    "verify_ordering",
    "first_disagreement_rank",
]


@dataclass(frozen=True)
class Ordering:
    """A scan order for a candidate set.

    sigma: bit positions (0-based) in scan order, a permutation of range(n).
    s: the reference string; rank-``p`` scans compare against ``s`` at
       ``sigma[p-1]``.
    elim_sets: for each rank ``p`` (1-based), the members whose first
       disagreement with ``s`` in sigma-order is at rank ``p``.
    width: the number of leading ranks after which at most one member still
       agrees with ``s``; scans never need to look past rank ``width``.
    """

    sigma: tuple[int, ...]
    s: BitString
    elim_sets: tuple[tuple[BitString, ...], ...]
    width: int

    @property
    def n(self) -> int:
        return self.s.n

    def to_dict(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "s": str(self.s),
            "elim_sizes": [len(block) for block in self.elim_sets],
            "width": self.width,
        }


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


def _as_values(strings: Iterable[BitString] | ConceptClass) -> tuple[int, tuple[int, ...]]:
    if isinstance(strings, ConceptClass):
        return strings.n, strings.values
    members = sorted(strings)
    if not members:
        raise ValueError("cannot order an empty set")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("strings must have uniform length")
    return n, tuple(m.value for m in members)


def hegedus_ordering(strings: Iterable[BitString] | ConceptClass) -> Ordering:
    """Build the greedy scan order for a nonempty candidate set."""
    n, values = _as_values(strings)
    sigma, s_value, elim_values, width = _greedy(n, values)
    elim_sets = tuple(
        tuple(BitString(n, v) for v in block) for block in elim_values
    )
    return Ordering(sigma, BitString(n, s_value), elim_sets, width)


def verify_ordering(strings: Iterable[BitString] | ConceptClass, order: Ordering) -> float:
    """Worst pruning ratio ``|S_p| * max(2, p) / |S|`` over all ranks.

    The elimination sets are recomputed from ``(sigma, s)`` alone, so this
    is an independent check of any ordering, not just greedy output.  A
    return value of at most 1 certifies the pruning guarantee.
    """
    n, values = _as_values(strings)
    if sorted(order.sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of the bit positions")
    size = len(values)
    s_value = order.s.value
    worst = 0.0
    remaining = list(values)
    for p, j in enumerate(order.sigma, start=1):
        mask = 1 << (n - 1 - j)
        s_bit = (s_value & mask) != 0
        agree, disagree = [], []
        for v in remaining:
            (agree if ((v & mask) != 0) == s_bit else disagree).append(v)
        worst = max(worst, len(disagree) * max(2, p) / size)
        remaining = agree
    return worst


def first_disagreement_rank(
    x: BitString, s: BitString, sigma: Sequence[int], width: int | None = None
) -> int | None:
    """1-based rank of the first sigma-order bit where ``x`` differs from ``s``.

    Only the first ``width`` ranks are scanned (all of ``sigma`` when
    ``width`` is None); returns None when they all agree.
    """
    limit = len(sigma) if width is None else min(width, len(sigma))
    for t in range(limit):
        j = sigma[t]
        if x.bit(j) != s.bit(j):
            return t + 1
    return None


def clear_ordering_cache() -> None:
    """Drop memoized greedy results (useful between large sweeps)."""
    _greedy.cache_clear()
