"""The identification certificate: a feasible solution of the
query-complexity vector program for ``J - I``, built stage by stage and
checked.

A solution assigns two vector families ``u[x, j]``, ``v[x, j]`` (one pair
per input ``x`` and bit position ``j``) to a target matrix ``A`` indexed by
the inputs, a `ConceptClass` (the solution's ``domain``): input ``x`` is
row ``domain.index(x)`` of every array and of the per-input cost.
Feasibility means

    sum over j with x_j != y_j of  <u[x, j], v[y, j]>  ==  A[x, y]

for every input pair, and the per-input cost is

    c(x) = max( sum_j ||u[x, j]||^2,  sum_j ||v[x, j]||^2 ).

For a function ``f`` with Gram matrix ``F`` (``F[x,y] = 1`` iff outputs are
equal), a feasible solution for ``J - F`` certifies a query procedure whose
per-input cost is ``c``; ``max_x c(x)`` bounds the worst case.  Everything
here is real-valued: all the explicit constructions use nonnegative
coordinates.

A target is a ``LabelTarget``: two integer label vectors whose entry
``(x, y)`` is ``[coarse_x == coarse_y] - [fine_x == fine_y]``, never held
as a dense matrix.  The targets built here -- ``J - I``, ``J - F`` and the
stage targets ``gram(f_{k-1}) - gram(f_k)`` -- are each a difference of two
function Gram matrices, so each is one; ``verify_feasible`` also takes
``J - I`` as a dense array.

A solution is a direct sum of `ScanPart`s, first-disagreement parts kept as
their scans: per input a block id and a rank, per block a scan order
``sigma``, a reference ``s`` and a ``width``.  Each block owns one
coordinate, so ``<u[x, j], v[y, j]>`` counts only when ``block[x] ==
block[y]``, and a part's rows (``u`` is ``v``) are written by ``_scan_rows``
only when they are asked for; ``cost_of`` reads each row's squared norm
off its rank.  The ambient vectors are the parts laid side by side, the
blocks of a part in increasing id order; checks never build them.  The
explicit first-disagreement solution is one part with one block;
every pipeline stage is one part.

``verify_feasible`` proves a solution from its defining property, in
O(inputs * bits), without touching a pair.  Within a block, take two inputs
with ranks ``p < q`` (rank 0, no disagreement within the width, counts as
past every rank).  They agree along ``sigma`` before rank ``p`` and differ
at it, and the rank-``p`` row is zero after it, so their constraint sum is
exactly the one product ``p**0.25 * p**-0.25``; inputs of equal rank sum to
exactly 0.  So once every rank is recomputed from the input bits as the
first disagreement with ``s`` along ``sigma`` within ``width``, and the
target's labels split the blocks by rank, the residual is ``max |1 -
p**0.25 * p**-0.25|`` over the ranks ``p`` that are the smaller rank of a
pair in their block -- the value a pair-by-pair check computes, bit for
bit.  Parts chain the same way: when the first part's blocks are the coarse
classes, part ``k + 1``'s blocks are the classes of part ``k``'s ``(block,
rank)``, and the last ``(block, rank)`` gives the fine classes, each pair
of a coarse class with different fine labels is split at exactly one part
and sums to zero at every other, so the residual is the largest part
residual.  That telescopes ``J - I`` (one coarse class, every fine label
its own) over the pipeline's stages.  A solution that breaks a premise --
a rank that is not its first disagreement, or parts that do not chain --
is not certified: its residual is ``inf``.

The proof and ``cost_of`` take the parts one at a time, in order.  Each
part is proved once per domain: a proof that holds is recorded on the part
with the domain's bit matrix it read and the part's split residual, and a
later solution holding the same part over the same matrix reads the
record, so the composed ``J - I`` solution reads its stages' proofs (or
they read its).  The chain and label checks run on every call, and a
proof that fails is not recorded.

``oracle_id_pipeline`` builds, from the class's memoized pruning tree
(``ordering._greedy``, the one ``identify_all`` reads), a feasible solution
for ``J - I`` of one scan part per stage, whose cost tracks the per-input
trace cost ``sum_i sqrt(p_i) + sqrt(width)`` without any error-reduction
factor for composing bounded-error stages.  The general algebra this is an
instance of -- direct sums, output-conditioned blocks and tensor products,
on dense parts -- lives with its tests in ``tests/sdp_compose.py``, and
the pair-by-pair check they are held to in ``tests/verify_reference.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bitstrings import BitString, ConceptClass, bit_matrix, generate_class
from .ordering import _checked_scan, _greedy

__all__ = [
    "ScanPart",
    "SdpSolution",
    "LabelTarget",
    "CostFunction",
    "verify_feasible",
    "cost_of",
    "find_first_one_solution",
    "first_disagreement_ranks",
    "OracleIdPipeline",
    "oracle_id_pipeline",
]


@dataclass(frozen=True, eq=False)
class ScanPart:
    """A first-disagreement direct summand kept as its scans.

    block: per input, its block id in ``0..blocks-1``.
    sigma, s: per block, its scan order and its reference string's bits
       (shape (blocks, bits); ``s`` is boolean, by bit position).
    width: per block, the ranks scanned.
    rank: per input, its claimed first disagreement with its block's ``s``
       along ``sigma`` within ``width``, 0 when none.

    A part refuses, when made, no inputs or no bits, arrays of the wrong
    shape or type, ranks or widths outside ``0..bits`` and orders that are
    not permutations of ``0..bits-1``; once checked, its five arrays are
    read-only.

    Its rows (shape (inputs, bits, 1)) are written by ``_scan_rows`` on
    each read of ``u`` or ``v``, so a part holds two numbers per input and
    per block and bit, never its rows.
    """

    block: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    width: np.ndarray
    rank: np.ndarray
    # the domain bits its ranks were proved against and its split
    # residual, set by the rank proof alone (``_proved_residual``)
    _proof: tuple[np.ndarray, float] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        block, sigma, s, width, rank = self.block, self.sigma, self.s, self.width, self.rank
        m, n, blocks = block.size, sigma.shape[-1] if sigma.ndim else 0, width.size
        if m == 0 or n == 0:  # numpy's min and max refuse empty arrays
            raise ValueError("a scan part needs at least one input and one bit")
        if block.shape != (m,) or block.dtype.kind not in "iu" or block.min() < 0:
            raise ValueError(f"block must hold {m} nonnegative integer ids")
        if (sigma.shape != (blocks, n) or s.shape != (blocks, n)
                or rank.shape != (m,) or block.max() >= blocks or s.dtype != bool
                or width.shape != (blocks,) or width.dtype.kind not in "iu"
                or sigma.dtype.kind not in "iu" or rank.dtype.kind not in "iu"):
            raise ValueError(f"a scan part needs {m} integer ranks (one per block id), {blocks} "
                             f"integer widths, ({blocks}, {n}) integer orders and ({blocks}, {n}) boolean s")
        if (rank.min() < 0 or rank.max() > n or width.min() < 0
                or width.max() > n or sigma.min() < 0 or sigma.max() >= n):
            raise ValueError(f"a scan part's ranks and widths must lie in [0, {n}] "
                             f"and its orders in [0, {n - 1}]")
        order = np.sort(sigma, axis=1)  # each row 0..n-1 when a permutation
        order ^= np.arange(n, dtype=order.dtype)  # in place: a second temporary added 8 MiB RSS at M=10^5
        if order.any():
            raise ValueError("a scan part's orders must be permutations of the bit positions")
        for array in (block, sigma, s, width, rank):
            array.setflags(write=False)

    @property
    def u(self) -> np.ndarray:
        return _scan_rows(self.sigma[self.block], self.rank, self.width[self.block])

    v = u


class SdpSolution:
    """A solution on the class ``domain``: the direct sum of its scan
    ``parts``, in order.

    Row ``i`` of every array is ``domain.members[i]``.  Other strings are
    made a class by ``ConceptClass.of`` and must already be in its sorted
    order, so rows never silently re-align.  A part checks itself when made,
    so a solution only checks that each fits: a block id per input, orders
    of the domain's bits.  ``.u`` (equal to ``.v``) and ``.dim`` describe
    the ambient arrays, one coordinate per used block of each part, which
    are built on each access.
    """

    def __init__(self, domain: ConceptClass | Sequence[BitString], parts: Sequence[ScanPart]):
        if not isinstance(domain, ConceptClass):
            rows = tuple(domain)
            domain = ConceptClass.of(rows)
            if domain.members != rows:  # row i must be the class's member i
                raise ValueError("domain strings must be listed in sorted class order")
        m, n = domain.size, domain.n
        for part in parts:
            if not isinstance(part, ScanPart):
                raise TypeError(f"a solution's parts must be scan parts, got {type(part).__name__}")
            if part.block.size != m or part.sigma.shape[1] != n:
                raise ValueError(f"a part of this domain needs {m} block ids and orders of {n} bits")
        self.domain, self.size, self.n_bits = domain, m, n
        self.parts = tuple(parts)

    @property
    def dim(self) -> int:
        return sum(int(np.count_nonzero(np.bincount(p.block))) for p in self.parts)

    @property
    def u(self) -> np.ndarray:
        rows = np.arange(self.size)
        out = np.zeros((self.size, self.n_bits, self.dim))
        lo = 0
        for part in self.parts:
            slot = np.cumsum(np.bincount(part.block) > 0) - 1  # per used block id, its place
            out[rows, :, lo + slot[part.block]] = part.u[:, :, 0]
            lo += int(slot[-1]) + 1
        return out

    v = u


@dataclass(frozen=True)
class CostFunction:
    """Per-input cost ``c(x)`` of the solution it annotates."""

    domain: ConceptClass
    values: np.ndarray

    def __call__(self, x: BitString) -> float:
        return float(self.values[self.domain.index(x)])

    @property
    def max_value(self) -> float:
        return float(self.values.max())


class LabelTarget(NamedTuple):
    """The target ``[coarse_x == coarse_y] - [fine_x == fine_y]``, given by
    one integer label per input on each side.

    ``J - I`` is ``LabelTarget(zeros, arange)``, ``J - F`` is
    ``LabelTarget(zeros, f)`` for any integer coding of ``f``'s outputs, and
    a stage target ``gram(f_{k-1}) - gram(f_k)`` is
    ``LabelTarget(f_{k-1}, f_k)``.  The check reads only the classes the
    labels make.
    """

    coarse: np.ndarray
    fine: np.ndarray


def _codes(labels) -> np.ndarray:
    """Labels as integers in ``0..len-1`` that make the same classes: as
    they are when they already lie there, as a pipeline's codes do, and
    otherwise re-coded as ``0..k-1`` (equal labels, equal codes)."""
    labels = np.asarray(labels)
    if labels.dtype.kind in "iu" and 0 <= labels.min() and labels.max() < len(labels):
        return labels
    return np.unique(labels, return_inverse=True)[1].reshape(-1)


def _same_classes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two vectors of nonnegative integer labels split the inputs
    into the same classes (each label indexes an array of ``max + 1``): each
    refines the other, so equal labels on one side mean equal on the other."""
    for fine, coarse in ((a, b), (b, a)):
        seen = np.empty(int(fine.max()) + 1, dtype=coarse.dtype)
        seen[fine] = coarse
        if not np.array_equal(seen[fine], coarse):
            return False
    return True


def _is_identity_target(dense: np.ndarray) -> bool:
    """Whether the square array is ``J - I``: ``m(m-1)`` ones and a zero
    diagonal leave no room for any other entry."""
    m = len(dense)
    return int(np.count_nonzero(dense == 1.0)) == m * (m - 1) and not np.diagonal(dense).any()


def _split_residual(block: np.ndarray, rank: np.ndarray, blocks: int, n: int) -> float:
    """``max |1 - p**0.25 * p**-0.25|`` over the ranks ``p`` that are the
    smaller rank of a pair in their block (of ``blocks`` ids), 0.0 when
    there are none: the exact residual once the ranks hold and the target's
    labels split the blocks by rank."""
    ramp, spike = _ramp_spike(n)
    later = np.where(rank > 0, rank, n + 1)  # rank 0 is past every rank
    last = np.zeros(blocks, dtype=later.dtype)
    np.maximum.at(last, block, later)
    split = rank[later < last[block]]
    return float(np.abs(1.0 - spike * ramp)[split - 1].max(initial=0.0))


def _proved_residual(part: ScanPart, block: np.ndarray, rank: np.ndarray, bits: np.ndarray) -> float | None:
    """The part's split residual once its ranks (``block`` and ``rank`` its
    own, as ``intp``) are proved against the domain's ``bits``, or None when
    a rank fails.  A proof is recorded on the part with the ``bits`` array
    it read, so the same part over the same array is proved once; a failed
    proof is not recorded."""
    proof = part._proof
    if proof is not None and proof[0] is bits:
        return proof[1]
    if not np.array_equal(_first_disagreements(bits, block, part.sigma, part.s, part.width), rank):
        return None
    residual = _split_residual(block, rank, len(part.width), bits.shape[1])
    object.__setattr__(part, "_proof", (bits, residual))
    return residual


def _scan_chain_residual(target: LabelTarget, sol: SdpSolution) -> float:
    """The exact residual of a solution whose parts chain from the target's
    coarse classes to its fine ones (module docstring), or ``inf`` when a
    rank or the chain fails.  Each part's ranks are proved once per domain
    (``_proved_residual``); the chain and label checks run on every call."""
    bits = sol.domain.bits
    n = bits.shape[1]
    coarse = np.asarray(target.coarse)
    # the classes the next part's blocks must make; None when the first
    # part's blocks are the coarse labels themselves, as a stage target's
    # are, which they make with nothing to check
    own = bool(sol.parts) and np.array_equal(coarse, sol.parts[0].block)
    classes = None if own else _codes(coarse)
    worst = 0.0
    for part in sol.parts:
        # index types for the packing below: a narrow block id times n + 1
        # would wrap, and a uint64 rank added to an intp gives floats
        block = np.asarray(part.block, dtype=np.intp)
        rank = np.asarray(part.rank, dtype=np.intp)
        residual = _proved_residual(part, block, rank, bits)
        if residual is None:
            return math.inf
        if classes is not None and not _same_classes(block, classes):
            return math.inf
        worst = max(worst, residual)
        # ranks lie in 0..n now: (block, rank) packs into one label below
        # blocks * (n + 1), an index as block ids are
        classes = block * (n + 1) + rank
    return worst if _same_classes(classes, _codes(target.fine)) else math.inf


def verify_feasible(A, sol: SdpSolution) -> float:
    """Worst absolute violation of the bilinear constraints against ``A``.

    ``A`` is a `LabelTarget`, or ``J - I`` as an (inputs, inputs) array,
    which one elementwise pass recognises; any other dense target is
    refused.  The check is the rank proof (module docstring): when every
    rank holds and the parts chain from the target's coarse classes to its
    fine ones -- every pipeline stage against its stage target, the
    pipeline's solution against ``J - I`` -- the value is the exact worst
    residual over every input pair, and a value at most the caller's
    tolerance certifies feasibility.  When a premise fails the solution is
    not certified, and the value is ``inf``.  The parts are proved one at
    a time, so one part's arrays, not the whole solution's, set the check's
    memory.  Each part is proved once per domain: a part already proved
    over this domain's bit matrix, by an earlier call on any solution that
    holds it (a pipeline's stage checks, for its ``J - I`` solution), is
    not proved again, and only its chain and labels are checked.
    """
    if not isinstance(sol, SdpSolution):
        raise TypeError(f"a solution must be an SdpSolution, got {type(sol).__name__}")
    m = sol.size
    if isinstance(A, LabelTarget):
        if np.shape(A.coarse) != (m,) or np.shape(A.fine) != (m,):
            raise ValueError(f"label target needs {m} labels per side")
        return _scan_chain_residual(A, sol)
    dense = np.asarray(A, dtype=float)
    if dense.shape != (m, m):
        raise ValueError(f"target must be {m}x{m}, got {dense.shape}")
    if not _is_identity_target(dense):
        if not np.isfinite(dense).all():
            raise ValueError("target entries must be finite")
        raise ValueError("a dense target must be J - I; give any other as a LabelTarget")
    return _scan_chain_residual(LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m)), sol)


def cost_of(sol: SdpSolution) -> CostFunction:
    """The per-input cost ``c(x)``: each part's squared row norm (``u`` is
    ``v``) read off the input's rank and its block's width, added part by
    part in order; no row is written."""
    n = sol.n_bits
    table = _rank_costs(n)
    values = np.zeros(sol.size)
    for part in sol.parts:
        # index types: a narrow width plus n + 1 would wrap, and a uint64
        # rank beside intp widths gives floats
        rank = np.asarray(part.rank, dtype=np.intp)
        width = np.asarray(part.width, dtype=np.intp)[part.block]
        values += table[np.where(rank > 0, rank, n + 1 + width)]
    return CostFunction(sol.domain, values)


@functools.cache
def _ramp_spike(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``t**-0.25`` and ``t**0.25`` for the ranks ``t = 1..n``, read-only."""
    # Python floats: a scalar t**-0.25 gives the same bits
    ramp = np.array([t**-0.25 for t in range(1, n + 1)])
    spike = np.array([t**0.25 for t in range(1, n + 1)])
    ramp.flags.writeable = spike.flags.writeable = False
    return ramp, spike


@functools.cache
def _rank_costs(n: int) -> np.ndarray:
    """A scan row's squared norm by rank, read-only: entry ``p`` (``1..n``)
    is ``sum_{t<p} ramp_t**2 + spike_p**2``, a hit at rank ``p``, and entry
    ``n + 1 + w`` is ``sum_{t<=w} ramp_t**2``, rank 0 through width ``w``
    (entry 0 is unused).  The squares are summed in rank order."""
    ramp, spike = _ramp_spike(n)
    ramps = np.concatenate(([0.0], np.cumsum(ramp * ramp)))  # through rank 0..n
    table = np.concatenate(([0.0], ramps[:-1] + spike * spike, ramps))
    table.flags.writeable = False
    return table


def _scan_rows(sigmas: np.ndarray, ranks: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """First-disagreement vectors, one row per input, shape (inputs, bits, 1).

    Row ``i`` is written along its scan order ``sigmas[i]``: the ramp
    ``t**-0.25`` at ``sigmas[i][t-1]`` for every rank ``t`` before
    ``ranks[i]`` and the spike ``ranks[i]**0.25`` at the rank itself; rank 0
    (no disagreement) writes the ramp through ``widths[i]``.
    """
    m, n = len(ranks), np.shape(sigmas)[-1]
    ramp, spike = _ramp_spike(n)
    ramp_end = np.where(ranks > 0, ranks - 1, widths)
    scanned = np.where(np.arange(1, n + 1) <= ramp_end[:, None], ramp, 0.0)
    hit = np.flatnonzero(ranks)
    scanned[hit, ranks[hit] - 1] = spike[ranks[hit] - 1]
    u = np.zeros((m, n, 1))
    u[np.arange(m)[:, None], sigmas, 0] = scanned
    return u


def find_first_one_solution(
    n: int,
    sigma: Sequence[int] | None = None,
    s: BitString | None = None,
    *,
    domain: ConceptClass | Iterable[BitString] | None = None,
    width: int | None = None,
) -> SdpSolution:
    """Feasible solution for finding the first scan-order disagreement: one
    `ScanPart` with one block.

    The underlying function maps ``x`` to the first rank ``t`` (1-based,
    scanning ``sigma`` up to ``width``) where ``x`` differs from ``s``, all
    inputs agreeing throughout getting one shared label.  Writing ``f`` for
    that rank, the vectors are scalars placed along the scan order:

        coordinate at sigma[t-1] = t**(-1/4)   for t < f   (ramp)
        coordinate at sigma[f-1] = f**(+1/4)   at the hit
        zero afterwards;

    agreeing inputs carry the full ramp.  Ramp times hit weight is 1 at the
    first place two inputs with different labels can disagree, which makes
    the solution feasible for ``J - F``; the cost is

        c(x) = sum_{t<f} 1/sqrt(t) + sqrt(f)  <=  3 sqrt(f).
    """
    s = s if s is not None else BitString.zeros(n)
    width = n if width is None else width
    sigma = _checked_scan(n, s, range(n) if sigma is None else sigma, width)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of the bit positions")
    members = ConceptClass.of(domain) if domain is not None else generate_class("cube", n)
    if members.n != n:
        raise ValueError(f"domain strings have {members.n} bits, not n = {n}")
    part = ScanPart(
        np.zeros(members.size, dtype=np.intp),
        np.array([sigma], dtype=np.intp),
        bit_matrix(n, [s.value]).astype(bool),
        np.array([width], dtype=np.intp),
        first_disagreement_ranks(members, sigma, s, width),
    )
    return SdpSolution(members, [part])


def first_disagreement_ranks(domain: ConceptClass, sigma: Sequence[int], s: BitString, width: int) -> np.ndarray:
    """Rank of the first scan-order disagreement per member (0 when none),
    as ``ordering.first_disagreement_rank`` gives it member by member: an
    ``intp`` array, read-only.  It refuses what that refuses."""
    order = np.array([_checked_scan(domain.n, s, sigma, width)], dtype=np.intp)
    if order.size:
        ranks = _first_disagreements(
            domain.bits, np.zeros(domain.size, dtype=np.intp), order,
            bit_matrix(s.n, [s.value]).astype(bool), np.array([width]),
        )
    else:  # nothing is scanned, so nothing disagrees
        ranks = np.zeros(domain.size, dtype=np.intp)
    ranks.setflags(write=False)
    return ranks


def _first_disagreements(bits, block, sigma, s, width) -> np.ndarray:
    """Per input, the 1-based rank of its first disagreement with its
    block's ``s`` along its block's ``sigma`` within its block's ``width``,
    0 when none: ``bits`` (inputs, bits) 0/1; the rows are the inputs, one
    ``block`` id each; per block a row of ``sigma`` (bit positions), of
    ``s`` (boolean, by bit position) and a ``width``."""
    m, n = bits.shape
    ranks = np.zeros(m, dtype=np.intp)
    # an input of a width-0 block scans nothing: rank 0, left unread
    rows = np.flatnonzero(width[block] > 0)
    block = block[rows]
    # flat index of the bit each scanning input reads at each rank
    order = sigma[block] + np.arange(0, len(rows) * n, n)[:, None]
    differ = (bits[rows] ^ s[block]).ravel()[order]
    # the first disagreement over every rank counts only within the width
    first = differ.argmax(axis=1)
    ranks[rows] = np.where(differ[np.arange(len(rows)), first] & (first < width[block]), first + 1, 0)
    return ranks


@dataclass(frozen=True)
class OracleIdPipeline:
    """Staged feasible solution for identifying a member of a class.

    Stage ``k`` refines the knowledge from stages before it: its target is
    ``gram(f_{k-1}) - gram(f_k)`` where ``f_k`` maps each member to its
    first ``k`` disagreement ranks (0-padded once identification finished);
    ``stage_targets[k-1]`` holds it as the read-only label codes of
    ``f_{k-1}`` and ``f_k``, each member's label numbered in order of first
    appearance.  The solution, the stages side by side, is feasible for
    ``J - I`` since the full rank sequence pins the member down.
    """

    concept_class: ConceptClass
    stage_solutions: tuple[SdpSolution, ...]
    stage_targets: tuple[LabelTarget, ...]
    solution: SdpSolution
    cost: CostFunction


def _first_seen_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` re-coded as ``0..k-1`` in order of first appearance (equal
    keys, equal codes; read-only), and each code's first position."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    recode = np.empty_like(order)
    recode[order] = np.arange(len(order))
    codes = recode[inverse.reshape(-1)]
    codes.setflags(write=False)
    return codes, first[order]


def oracle_id_pipeline(concept_class: ConceptClass) -> OracleIdPipeline:
    """The staged feasible solution for identifying a member of the class.

    Stage ``k`` is one `ScanPart`, the part that output-conditioned
    composition would make of one ``find_first_one_solution`` per
    ``f_{k-1}`` label of two or more members: its block ids are
    ``f_{k-1}``'s codes, each block scans along its group's greedy order and
    reference up to its width, and member ``x``'s rank is the ``k``-th rank
    of its path in the pruning tree -- 0 when there is no hit, so its row
    is the ramp through the width, and zeros for a lone member (width 0).
    A group of two or more members is one tree node, its label the node's
    rank path, which holds that order, reference and width.  The labels are
    never built as tuples: ``f_k``'s classes are those of the pairs
    ``(f_{k-1}(x), rank k of x)``, numbered in order of first appearance.
    """
    n = concept_class.n
    m = concept_class.size
    values = concept_class.values

    # f_k(x) is the first k ranks of x's rank path, 0-padded: a lone member,
    # or the reference of its block, finds no disagreement
    tree = _greedy(n, values)
    nodes = tree.nodes
    stages = 1 + max(map(len, nodes)) if m > 1 else 0
    path_of = {v: path for path, v in tree.members.items()}
    paths = [path_of[v] for v in values]
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=m)
    ranks = np.zeros((m, stages), dtype=np.intp)
    ranks[np.arange(stages) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.intp, count=int(lengths.sum())
    )

    codes = [np.zeros(m, dtype=np.intp)]
    codes[0].setflags(write=False)
    scanned = []  # per stage, its block count and its blocks of two or more members
    refs = []  # the tree node of each such block, stage by stage
    first = np.zeros(1, dtype=np.intp)  # per block, its first member
    for k in range(stages):
        # a block of two or more members is the tree node at its members'
        # first k ranks; a lone member's block is no node, and gets no ramp
        blocks = np.flatnonzero(np.bincount(codes[k]) > 1)
        scanned.append((len(first), blocks))
        refs += [nodes[paths[i][:k]] for i in first[blocks].tolist()]
        # ranks lie in 0..n: (block, rank) packs into one key
        next_codes, first = _first_seen_codes(codes[k] * (n + 1) + ranks[:, k])
        codes.append(next_codes)
    if refs:
        node_sigmas, s_values, node_widths = zip(*refs)
        node_s = bit_matrix(n, s_values).astype(bool)

    stage_parts = []
    lo = 0
    for k, (count, blocks) in enumerate(scanned):
        hi = lo + len(blocks)
        # a lone member's block scans nothing; orders in the narrowest
        # integer type, as late stages have a block per member
        sigmas = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), (count, 1))
        s = np.zeros((count, n), dtype=bool)
        widths = np.zeros(count, dtype=np.intp)
        sigmas[blocks], s[blocks], widths[blocks] = node_sigmas[lo:hi], node_s[lo:hi], node_widths[lo:hi]
        stage_parts.append(ScanPart(codes[k], sigmas, s, widths, ranks[:, k]))
        lo = hi
    stage_targets = tuple(LabelTarget(coarse, fine) for coarse, fine in zip(codes, codes[1:]))
    # the class itself, not its members: a class is taken as it is, unchecked
    stage_solutions = tuple(SdpSolution(concept_class, [p]) for p in stage_parts)
    if stage_parts:
        combined = SdpSolution(concept_class, stage_parts)
    else:  # singleton class: nothing to learn, one block scanning nothing
        combined = find_first_one_solution(n, domain=concept_class, width=0)

    return OracleIdPipeline(
        concept_class=concept_class,
        stage_solutions=stage_solutions,
        stage_targets=stage_targets,
        solution=combined,
        cost=cost_of(combined),
    )
