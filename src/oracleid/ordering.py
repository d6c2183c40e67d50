"""Greedy construction of the informative query order for a candidate set.

Given a set ``S`` of candidate strings, the greedy builds a permutation
``sigma`` of bit positions and a reference string ``s`` such that the
strings that first disagree with ``s`` at scan rank ``p`` number at most
``|S| / max(2, p)``.  A disagreement found at rank ``p`` therefore prunes
the candidate set by a factor ``max(2, p)`` -- the further the scan has to
go, the more it learns.

The greedy counts on bit columns: a set's members are the bits of an
index mask, column ``j`` is the mask of the members with bit ``j`` set,
and a count is ``(column & survivors).bit_count()``.  One greedy,
``_greedy_masks``, and one memo over it.  ``hegedus_ordering`` runs the
greedy once on a set's own columns.  ``_greedy`` builds the final
algorithm's whole pruning tree over a class from the class's columns,
each node on a sub-mask of the root, once per class; ``identify.run_final``
walks it, and ``identify.identify_all`` and ``sdp.oracle_id_pipeline``
read all of it.  Each node records its candidates, the members its subtree
settles, as a slice of the tree's depth-first member order;
``node_candidates`` turns them into per-rank column masks, the greedy's
own form, on first use only: ``qsim``'s amplified windows are the one
reader.  ``hegedus_ordering`` and ``verify_ordering`` take a
`ConceptClass`, or any strings ``ConceptClass.of`` makes one of (distinct,
of one length).

One read, ``_rank_view``, gives a member's scan ranks to every caller,
under one rule, ``_checked_scan``, that ``sdp``'s batch ranks share: it
checks every entry of the order, past the width too.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from numbers import Integral
from typing import Iterable, NamedTuple, Sequence

from .bitstrings import BitString, ConceptClass, bit_columns

__all__ = [
    "Ordering",
    "hegedus_ordering",
    "verify_ordering",
    "first_disagreement_rank",
]

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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


def _greedy_masks(n: int, cols: Sequence[int], values: Sequence[int], cur: int):
    """The greedy scan order of the members in the index mask ``cur``.

    Member ``i`` is bit ``i`` of every mask, ``values[i]`` its packed value,
    and ``cols`` are the bit columns (``bitstrings.bit_columns``) of
    ``values``.  Returns
    ``(sigma, s_value, elim, width)`` where ``elim[p-1]`` is the mask of the
    members first disagreeing with ``s`` at rank ``p``.

    At each step the next scan position is the still-unused bit with the
    largest number of survivors disagreeing with the survivors' majority
    (ties to the lowest bit index), and ``s`` copies the majority bit
    there.  Survivors are then restricted to the members agreeing with
    ``s`` at that bit.  Once a single survivor remains all later ranks are
    filled in increasing index order with the survivor's own bits, so ``s``
    is then the survivor itself.
    """
    total = cur.bit_count()
    unused = list(range(n))
    sigma: list[int] = []
    s_value = 0
    elim: list[int] = []
    width = 0 if total <= 1 else None

    for step in range(n):
        if total == 1:
            break
        half = total // 2  # no bit splits the survivors more evenly
        best_j = -1
        best_count = -1
        best_ones = 0
        for j in unused:
            ones = (cols[j] & cur).bit_count()
            count = ones if ones <= half else total - ones
            if count > best_count:
                best_j, best_count, best_ones = j, count, ones
                if count == half:
                    break
        sigma.append(best_j)
        unused.remove(best_j)
        if 2 * best_ones >= total:
            s_value |= 1 << (n - 1 - best_j)
            keep, total = cur & cols[best_j], best_ones
        else:
            keep, total = cur & ~cols[best_j], total - best_ones
        elim.append(cur ^ keep)
        cur = keep
        if width is None and total <= 1:
            width = step + 1

    if len(sigma) < n:
        # one survivor left, and it agrees with s on every scanned bit: the
        # loop would take its remaining bits in index order, eliminating no one
        s_value = values[cur.bit_length() - 1]
        sigma += unused
        elim += [0] * len(unused)
    return tuple(sigma), s_value, tuple(elim), width if width is not None else n


class _Candidates(NamedTuple):
    """A tree node's candidates, the members whose rank path passes through
    it, in the order of ``_Tree.members``, as the node's scan sees them.

    everyone: the mask of all of them, bit ``i`` the ``i``-th candidate.
    cols: per rank ``t`` below the node's width, the mask of the candidates
       whose rank ``t`` is 1 (bit ``sigma[t]`` of the value XOR ``s``): the
       greedy's own bit columns, read in scan order.
    """

    everyone: int
    cols: tuple[int, ...]


class _Tree(NamedTuple):
    """The final algorithm's pruning tree over a whole class.

    nodes: per node, keyed by its rank path (the ranks of the hits that
       lead to it, ``()`` for the root), the greedy's ``(sigma, s_value,
       width)`` on its members.
    members: per rank path, the member value a run along it settles on: a
       node's reference, whose path is the node's own, or the lone member
       of a block.  In the order a depth-first walk settles them: a node's
       lone-member blocks and subtrees by rank, then its reference.
    spans: per node, the slice ``(lo, hi)`` of ``members`` (in that order)
       its subtree settles: its candidates.
    candidates: per node, its ``_Candidates``, built by ``node_candidates``
       on first use only.
    """

    nodes: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]]
    members: dict[tuple[int, ...], int]
    spans: dict[tuple[int, ...], tuple[int, int]]
    candidates: dict[tuple[int, ...], _Candidates]


@lru_cache(maxsize=16)
def _greedy(n: int, values: tuple[int, ...]) -> _Tree:
    """The greedy on every candidate set of the final algorithm over the
    class ``values``: its pruning tree, from its bit columns, built once.
    Every node runs ``_greedy_masks`` on a sub-mask of the root."""
    tree = _Tree({}, {}, {}, {})
    _grow(n, bit_columns(n, values), values, (1 << len(values)) - 1, (), tree)
    return tree


def _grow(n, cols, values, cur, path, tree) -> None:
    """Add the node of the members in ``cur``, at ``path``, and its subtree.

    A module-level function, not a closure over ``tree``: a closure that
    calls itself is a reference cycle.
    """
    lo = len(tree.members)
    sigma, s_value, elim, width = _greedy_masks(n, cols, values, cur)
    tree.nodes[path] = (sigma, s_value, width)
    for p, block in enumerate(elim[:width], start=1):
        if block & (block - 1):  # two or more members
            _grow(n, cols, values, block, path + (p,), tree)
        else:
            tree.members[path + (p,)] = values[block.bit_length() - 1]
    # after width ranks only s itself is left
    tree.members[path] = s_value
    tree.spans[path] = lo, len(tree.members)


def node_candidates(tree: _Tree, path: tuple[int, ...]) -> _Candidates:
    """The candidates of the node at ``path``, built on the first call and
    memoized with the tree (``clear_ordering_cache`` drops them)."""
    cands = tree.candidates.get(path)
    if cands is None:
        sigma, s_value, width = tree.nodes[path]
        lo, hi = tree.spans[path]
        diffs = [v ^ s_value for v in islice(tree.members.values(), lo, hi)]
        by_bit = bit_columns(len(sigma), diffs)
        cols = tuple(by_bit[j] for j in sigma[:width])
        cands = tree.candidates[path] = _Candidates((1 << (hi - lo)) - 1, cols)
    return cands


def hegedus_ordering(strings: Iterable[BitString] | ConceptClass) -> Ordering:
    """Build the greedy scan order for a candidate set."""
    cls = ConceptClass.of(strings)
    n, m = cls.n, cls.size
    values = cls.values
    sigma, s_value, elim, width = _greedy_masks(n, bit_columns(n, values), values, (1 << m) - 1)
    # member i is bit i of a block's mask, character i of its reversed binary
    elim_sets = tuple(
        tuple(x for x, bit in zip(cls.members, f"{mask:0{m}b}"[::-1]) if bit == "1")
        for mask in elim
    )
    return Ordering(sigma, BitString(n, s_value), elim_sets, width)


def verify_ordering(strings: Iterable[BitString] | ConceptClass, order: Ordering) -> float:
    """Worst pruning ratio ``|S_p| * max(2, p) / |S|`` over all ranks.

    The elimination sets are recomputed from ``(sigma, s)`` alone, so this
    checks any ordering; a return value of at most 1 certifies it.
    """
    cls, s_value = ConceptClass.of(strings), order.s.value
    if sorted(order.sigma) != list(range(cls.n)):
        raise ValueError("sigma is not a permutation of the bit positions")
    scan = _checked_scan(cls.n, order.s, order.sigma, cls.n)
    views = map(_rank_view, [v ^ s_value for v in cls.values], repeat(cls.n), repeat(scan))
    counts = Counter(ranks.index(1) + 1 for ranks in views if 1 in ranks)
    return max((count * max(2, p) / cls.size for p, count in counts.items()), default=0.0)


def _checked_scan(n: int, s: BitString, order: Sequence[int], width: int) -> tuple[int, ...]:
    """``order`` as a tuple once it passes the one rule of every rank form:
    ``s`` of ``n`` bits, an integer width (no bool) in ``[0, len(order)]``,
    then every entry, past the width too, an integer in ``[0, n - 1]``."""
    if s.n != n:
        raise ValueError("reference string length mismatch")
    # the int test first: an ABC test costs as much as the rest of the rule
    if type(width) is not int and (isinstance(width, bool) or not isinstance(width, Integral)):
        raise ValueError(f"width must be an integer, got {width!r}")
    if not 0 <= width <= len(order):
        raise ValueError(f"width {width} outside [0, {len(order)}], the scan order's length")
    scan = tuple(order)
    try:  # an int sum means int entries; others are indices (numpy's) or refused
        if type(sum(scan)) is not int:
            scan = tuple(map(operator.index, scan))
    except TypeError:
        raise ValueError("scan order entries must be integers") from None
    if not _positions(n).issuperset(scan):  # a negative entry would read from the end
        raise ValueError(f"scan order entries must lie in [0, {n - 1}]")
    return scan


@lru_cache(maxsize=16)
def _positions(n: int) -> frozenset[int]:
    """The bit positions of ``n`` bits: a set test beats a min and a max."""
    return frozenset(range(n))


def _rank_view(diff: int, n: int, scan: tuple[int, ...]) -> tuple[int, ...]:
    """The one per-member rank read: per rank ``t``, bit ``scan[t]`` of the
    ``n``-bit ``diff = x.value ^ s.value``, on a checked scan cut to its width."""
    # bit j (MSB-first) of diff is character j of its n-digit binary
    digits = format(diff, f"0{n}b").encode().translate(_DIGIT_VALUES)
    return tuple(map(digits.__getitem__, scan))


def first_disagreement_rank(
    x: BitString, s: BitString, sigma: Sequence[int], width: int | None = None
) -> int | None:
    """1-based rank of the first sigma-order bit where ``x`` differs from ``s``.

    Only the first ``width`` ranks are scanned (all of ``sigma`` when
    ``width`` is None); returns None when they all agree.  Input that
    breaks ``_checked_scan``'s rule is refused, before anything is read.
    """
    width = len(sigma) if width is None else width
    ranks = _rank_view(x.value ^ s.value, x.n, _checked_scan(x.n, s, sigma, width)[:width])
    return ranks.index(1) + 1 if 1 in ranks else None


def clear_ordering_cache() -> None:
    """Drop the memo: ``_greedy``'s pruning trees (useful between large
    sweeps, and to time a cold build)."""
    _greedy.cache_clear()
