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

A target comes in one of two forms.  Any (inputs, inputs) array will do;
the targets built here -- ``J - I``, ``J - F`` and the stage targets
``gram(f_{k-1}) - gram(f_k)`` -- are each a difference of two function
Gram matrices and are kept as a ``LabelTarget``: two integer label vectors
whose entry ``(x, y)`` is ``[coarse_x == coarse_y] - [fine_x == fine_y]``.
When ``verify_feasible`` checks pair by pair, it reads either form a block
of rows at a time, so a label target is never held as a dense matrix.
That check is block-local: when the fine labels and every part's blocks
refine the coarse labels, a pair across coarse classes is exactly
``0 - 0``, so only the pairs inside a class are computed.

A solution is stored as a direct sum of *parts*, each of which unpacks as
``(block, u, v)``: ``u`` and ``v`` have shape (inputs, bits, d) and
``block`` gives every input an integer block id; each block owns its own
``d`` coordinates, so ``<u[x, j], v[y, j]>`` counts only when
``block[x] == block[y]``.  The ambient vectors are the parts laid side by
side, the blocks of a part in increasing id order, but checks and costs
never build them: every input has ``d`` coordinates per part, however many
blocks the part has.  An `SdpPart` holds its arrays.  A `ScanPart` is a
first-disagreement part (``d = 1``, ``u is v``) kept as its scans: the
block ids, each block's scan order ``sigma``, reference ``s`` and
``width``, and each input's rank; ``_scan_rows`` writes its rows only when
they are asked for.  The explicit first-disagreement solution is one
`SdpPart` with one block; every pipeline stage is one `ScanPart`.

A scan part is checked from its defining property, in O(inputs * bits),
without touching a pair.  Within a block, take two inputs with ranks
``p < q`` (rank 0, no disagreement within the width, counts as past every
rank).  They agree along ``sigma`` before rank ``p`` and differ at it, and
the rank-``p`` row is zero after it, so their constraint sum is exactly
the one product ``p**0.25 * p**-0.25``; inputs of equal rank sum to
exactly 0.  So once every rank is recomputed from the input bits as the
first disagreement with ``s`` along ``sigma`` within ``width``, and the
target's labels split the blocks by rank, the residual is
``max |1 - p**0.25 * p**-0.25|`` over the ranks ``p`` that are the
smaller rank of a pair in their block -- the very value the pair-by-pair
check computes, bit for bit.  Parts chain the same way: when the first
part's blocks are the coarse classes, part ``k + 1``'s blocks are the
classes of part ``k``'s ``(block, rank)``, and the last ``(block, rank)``
gives the fine classes, each pair of a coarse class with different fine
labels is split at exactly one part and sums to zero at every other, so
the residual is the largest part residual.  That telescopes ``J - I``
(one coarse class, every fine label its own) over the pipeline's stages.
Any other solution or target -- dense parts, a dense target other than
``J - I``, or a failed premise -- is checked pair by pair, so
``verify_feasible`` always returns the exact residual.

``oracle_id_pipeline`` builds, from the exact pruning tree of the final
identification algorithm, a feasible solution for full identification
(target ``J - I``) whose cost tracks the per-input trace cost
``sum_i sqrt(p_i) + sqrt(width)`` without any error-reduction factor for
composing bounded-error stages.  It does not walk the tree itself: it
reads the class's memoized pruning tree (``ordering._tree``, the one
``identify_all`` reads), whose member rank paths give one (inputs,
stages) rank matrix and whose nodes give each block's greedy order,
reference and width.  The stage labels ``f_k`` (the first ``k`` ranks)
are integer codes, never tuples: ``f_k``'s classes are those of
``f_{k-1}`` paired with the ``k``-th rank.  Stage ``k`` is the
output-conditioned composite of one first-disagreement solution per
``f_{k-1}`` label shared by two or more members (a lone member's target
is zero, so it gets zero rows), kept as one scan part; the stages are the
parts of one direct sum.
The solution has one part per stage, with one block per output label of
the stage before, so it stores a rank per input and an order and a
reference per block for each stage, where the rows would be
``stages * inputs * bits`` numbers per side and the ambient arrays
``dim`` times that.  The general algebra
this is an instance of -- direct sums, output-conditioned blocks and
tensor products -- lives with its tests in ``tests/sdp_compose.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bitstrings import BitString, ConceptClass, FunctionTable, bit_matrix
from .ordering import _tree, first_disagreement_rank

__all__ = [
    "SdpPart",
    "ScanPart",
    "SdpSolution",
    "LabelTarget",
    "CostFunction",
    "verify_feasible",
    "cost_of",
    "find_first_one_solution",
    "first_disagreement_table",
    "OracleIdPipeline",
    "oracle_id_pipeline",
]


class SdpPart(NamedTuple):
    """One direct summand: ``u``, ``v`` of shape (inputs, bits, d) and a
    nonnegative block id per input."""

    block: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def d(self) -> int:
        return self.u.shape[2]


@dataclass(frozen=True, eq=False)
class ScanPart:
    """A first-disagreement direct summand kept as its scans.

    block: per input, its block id in ``0..blocks-1``.
    sigma, s: per block, its scan order and its reference string's bits
       (shape (blocks, bits); ``s`` is boolean, by bit position).
    width: per block, the ranks scanned.
    rank: per input, its claimed first disagreement with its block's ``s``
       along ``sigma`` within ``width``, 0 when none.

    A solution refuses a part whose ranks or widths lie outside
    ``0..bits`` or whose orders hold an entry outside ``0..bits-1``; an
    order that is no permutation is taken, and checked pair by pair.

    It unpacks as ``(block, u, u)`` like an `SdpPart`, the rows written
    by ``_scan_rows`` on each unpacking (and on each read of ``u`` or
    ``v``), so a part holds two numbers per input and per block and bit,
    never its rows.
    """

    block: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    width: np.ndarray
    rank: np.ndarray

    d = 1

    @property
    def u(self) -> np.ndarray:
        return _scan_rows(self.sigma[self.block], self.rank, self.width[self.block])

    v = u

    def __iter__(self):
        u = self.u
        return iter((self.block, u, u))

    def ranks_hold(self, bits: np.ndarray) -> bool:
        """Whether every ``sigma`` is a permutation and every ``rank`` is its
        input's first disagreement, read off the inputs' 0/1 ``bits``
        (inputs, bits)."""
        m, n = bits.shape
        if not (np.sort(self.sigma, axis=1) == np.arange(n)).all():
            return False
        # flat index of the bit each input reads at each rank
        order = self.sigma[self.block] + np.arange(0, m * n, n)[:, None]
        differ = (bits ^ self.s[self.block]).ravel()[order]
        differ &= np.arange(n) < self.width[self.block, None]
        first = differ.argmax(axis=1)
        return bool(np.array_equal(np.where(differ[np.arange(m), first], first + 1, 0), self.rank))

    def split_residual(self) -> float:
        """``max |1 - p**0.25 * p**-0.25|`` over the ranks ``p`` that are
        the smaller rank of a pair in their block, 0.0 when there are none;
        the part's exact residual once ``ranks_hold`` and the target's
        labels split the blocks by rank."""
        n = self.sigma.shape[1]
        ramp, spike = _ramp_spike(n)
        later = np.where(self.rank > 0, self.rank, n + 1)  # rank 0 is past every rank
        last = np.zeros(len(self.width), dtype=later.dtype)
        np.maximum.at(last, self.block, later)
        split = self.rank[later < last[self.block]]
        return float(np.abs(1.0 - spike * ramp)[split - 1].max(initial=0.0))


class SdpSolution:
    """A solution on the class ``domain`` stored as a direct sum of parts.

    Row ``i`` of every array is ``domain.members[i]``.  Other strings are
    made a class by ``ConceptClass.of`` and must already be in its sorted
    order, so rows never silently re-align.

    ``SdpSolution(domain, u, v)`` is one part with a single block, ``u`` and
    ``v`` of shape (inputs, bits, dimension); ``SdpSolution.from_parts``
    takes any sequence of ``(block, u, v)`` triples and scan parts.
    ``.u``, ``.v`` and ``.dim`` describe the ambient arrays, which are
    built on each access (only a one-part, one-block `SdpPart` solution
    hands back its own arrays).
    """

    def __init__(self, domain: ConceptClass | Sequence[BitString], u: np.ndarray, v: np.ndarray):
        self._setup(domain, (SdpPart(np.zeros(len(u), dtype=np.intp), u, v),))

    @classmethod
    def from_parts(
        cls, domain: ConceptClass | Sequence[BitString], parts: Sequence[tuple[np.ndarray, ...] | ScanPart]
    ) -> "SdpSolution":
        sol = cls.__new__(cls)
        sol._setup(domain, tuple(
            p if isinstance(p, ScanPart) else SdpPart(np.asarray(p[0]), p[1], p[2]) for p in parts
        ))
        return sol

    def _setup(self, domain, parts: tuple[SdpPart, ...]) -> None:
        if not isinstance(domain, ConceptClass):
            rows = tuple(domain)
            domain = ConceptClass.of(rows)
            if domain.members != rows:  # row i must be the class's member i
                raise ValueError("domain strings must be listed in sorted class order")
        m, n = domain.size, domain.n
        for part in parts:
            block = part.block
            if block.shape != (m,) or block.dtype.kind not in "iu" or block.min() < 0:
                raise ValueError(f"block must hold {m} nonnegative integer ids")
            if isinstance(part, ScanPart):
                blocks = len(part.width)
                if (part.sigma.shape != (blocks, n) or part.s.shape != (blocks, n)
                        or part.rank.shape != (m,) or block.max() >= blocks or part.s.dtype != bool
                        or part.width.shape != (blocks,) or part.width.dtype.kind not in "iu"
                        or part.sigma.dtype.kind not in "iu" or part.rank.dtype.kind not in "iu"):
                    raise ValueError(f"a scan part needs {m} integer ranks, {blocks} integer widths, "
                                     f"({blocks}, {n}) integer orders and ({blocks}, {n}) boolean s")
                if (part.rank.min() < 0 or part.rank.max() > n or part.width.min() < 0
                        or part.width.max() > n or part.sigma.min() < 0 or part.sigma.max() >= n):
                    raise ValueError(f"a scan part's ranks and widths must lie in [0, {n}] "
                                     f"and its orders in [0, {n - 1}]")
                continue
            for name, arr in (("u", part.u), ("v", part.v)):
                if arr.ndim != 3 or arr.shape[0] != m or arr.shape[1] != n:
                    raise ValueError(f"{name} must have shape ({m}, {n}, dim)")
            if part.u.shape[2] != part.v.shape[2]:
                raise ValueError("u and v must share the ambient dimension")
        self.domain = domain
        self.parts = parts

    @property
    def size(self) -> int:
        return self.domain.size

    @property
    def n_bits(self) -> int:
        return self.domain.n

    @property
    def dim(self) -> int:
        return sum(len(np.unique(p.block)) * p.d for p in self.parts)

    @property
    def u(self) -> np.ndarray:
        return self._ambient("u")

    @property
    def v(self) -> np.ndarray:
        return self._ambient("v")

    def _ambient(self, side: str) -> np.ndarray:
        if len(self.parts) == 1 and len(np.unique(self.parts[0].block)) == 1:
            return getattr(self.parts[0], side)
        rows = np.arange(self.size)
        out = np.zeros((self.size, self.n_bits, self.dim))
        lo = 0
        for part in self.parts:
            ids, slot = np.unique(part.block, return_inverse=True)
            w, d = getattr(part, side), part.d
            for c in range(d):
                out[rows, :, lo + slot * d + c] = w[:, :, c]
            lo += len(ids) * d
        return out


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
    ``LabelTarget(zeros, f.codes)``, and a stage target
    ``gram(f_{k-1}) - gram(f_k)`` is ``LabelTarget(f_{k-1}.codes, f_k.codes)``.
    """

    coarse: np.ndarray
    fine: np.ndarray

    def rows(self, lo: int, hi: int, cols: slice = slice(None)) -> np.ndarray:
        """Rows ``lo:hi`` of the target, columns ``cols``, as a dense float
        array."""
        coarse, fine = np.asarray(self.coarse), np.asarray(self.fine)
        out = (coarse[lo:hi, None] == coarse[cols]).astype(float)
        out -= fine[lo:hi, None] == fine[cols]
        return out


# rows checked per step: each step holds two ROW_CHUNK x (at most) inputs
# float arrays, small enough to stay in cache up to a few thousand inputs
ROW_CHUNK = 64


def _codes(labels) -> np.ndarray:
    """Labels re-coded as ``0..k-1``: equal labels, equal codes."""
    return np.unique(np.asarray(labels), return_inverse=True)[1].reshape(-1)


def _refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """Whether two inputs with equal ``fine`` codes always share ``coarse``."""
    seen = np.empty(int(fine.max()) + 1, dtype=coarse.dtype)
    seen[fine] = coarse
    return bool(np.array_equal(seen[fine], coarse))


def _same_classes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two vectors of nonnegative integer labels split the inputs
    into the same classes (each label indexes an array of ``max + 1``)."""
    return _refines(a, b) and _refines(b, a)


def _is_identity_target(dense: np.ndarray) -> bool:
    """Whether the square array is ``J - I``: ``m(m-1)`` ones and a zero
    diagonal leave no room for any other entry."""
    m = len(dense)
    return int(np.count_nonzero(dense == 1.0)) == m * (m - 1) and not np.diagonal(dense).any()


def _scan_chain_residual(target: LabelTarget, sol: SdpSolution) -> float | None:
    """The exact residual of a solution of scan parts that chain from the
    target's coarse classes to its fine ones (module docstring), or None
    when the parts are not all scan parts or a structural check fails."""
    if not sol.parts or not all(isinstance(p, ScanPart) for p in sol.parts):
        return None
    bits = sol.domain.bits
    first = sol.parts[0].block
    # the stage targets' coarse labels are their part's own block ids
    classes = first if np.array_equal(target.coarse, first) else _codes(target.coarse)
    worst = 0.0
    for part in sol.parts:
        if not (part.ranks_hold(bits) and _same_classes(part.block, classes)):
            return None
        # ranks lie in 0..bits now: (block, rank) packs into one label below
        # blocks * (bits + 1), an index as block ids are
        classes = part.block * (bits.shape[1] + 1) + part.rank
        worst = max(worst, part.split_residual())
    return worst if _same_classes(classes, _codes(target.fine)) else None


def verify_feasible(A, sol: SdpSolution) -> float:
    """Worst absolute violation of the bilinear constraints against ``A``.

    ``A`` is an (inputs, inputs) array or a `LabelTarget`.  A return value
    at most the caller's tolerance certifies feasibility.  The value is
    the exact worst residual over every input pair, whichever way it is
    found.

    A solution made of `ScanPart` parts is proven from its ranks, in
    O(parts * inputs * bits): when each part's ranks are the first
    disagreements of its inputs' bits and the parts chain from the
    target's coarse classes to its fine ones, the residual is the largest
    ``split_residual`` (module docstring).  That covers every pipeline
    stage against its stage target and the pipeline's solution against
    ``J - I``, given as ``LabelTarget(zeros, arange)`` or as the dense
    array, which one elementwise pass finds equal to ``J - I``.

    Any other case -- dense parts, a dense target other than ``J - I``,
    or a failed check -- reads every input pair, ``ROW_CHUNK`` rows at a
    time, so memory stays flat; scan parts are unpacked into their rows.
    Per part, the constraint sums of all pairs are ``U1 V0^T + U0 V1^T``,
    one product ``[U1 U0] [V0 V1]^T``, masked to equal blocks, where
    ``U1``/``U0`` keep the ``u[x, j]`` with ``x_j`` = 1/0 (flattened over
    bits and coordinates), and likewise ``V``.

    Pairs of a label target that its labels force to zero are proven
    zero, not computed.  When the ``fine`` labels refine the ``coarse``
    ones and every part's blocks refine ``coarse`` too, a pair with
    different coarse labels has target ``0 - 0`` and shares no block, so
    its residual is exactly 0.  The rows are then taken class by class,
    each chunk against the columns of the classes it touches, and a class
    of one input is skipped: its only pair ``(x, x)`` is ``0 - 0`` as
    well.  Otherwise -- a dense target, labels that do not refine, or a
    single coarse class such as ``J - I`` -- every chunk reads all columns.
    """
    m = sol.size
    if isinstance(A, LabelTarget):
        if np.shape(A.coarse) != (m,) or np.shape(A.fine) != (m,):
            raise ValueError(f"label target needs {m} labels per side")
        labels = A
    else:
        dense = np.asarray(A, dtype=float)
        if dense.shape != (m, m):
            raise ValueError(f"target must be {m}x{m}, got {dense.shape}")
        labels = LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m)) if _is_identity_target(dense) else None
    if labels is not None:
        worst = _scan_chain_residual(labels, sol)
        if worst is not None:
            return worst

    parts = []
    for block, u, v in sol.parts:
        ids, codes = np.unique(block, return_inverse=True)
        parts.append((codes.reshape(-1), len(ids) > 1, u, v))
    if isinstance(A, LabelTarget):
        coarse, fine = _codes(A.coarse), _codes(A.fine)
        # one coarse class leaves no pair to skip: read views of all rows
        local = (
            coarse.max(initial=0) > 0
            and _refines(fine, coarse)
            and all(_refines(b, coarse) for b, _, _, _ in parts)
        )
    else:
        local = False

    if local:
        # rows class by class, classes of one input dropped; row i may only
        # meet the columns window_lo[i]:window_hi[i] of its own class
        sizes = np.bincount(coarse)
        order = np.argsort(coarse, kind="stable")
        order = order[sizes[coarse[order]] > 1]
        ends = np.cumsum(np.where(sizes > 1, sizes, 0))
        window_lo, window_hi = (ends - sizes)[coarse[order]], ends[coarse[order]]
    else:
        order = slice(None)
        window_lo, window_hi = np.zeros(m, dtype=np.intp), np.full(m, m)
    if isinstance(A, LabelTarget):
        target = LabelTarget(coarse[order], fine[order])

        def target_window(a, b, cols):
            return target.rows(a, b, cols)
    else:

        def target_window(a, b, cols):
            return dense[a:b, cols].copy()

    bits = sol.domain.bits[order]
    ones = bits[:, :, None].astype(float)
    zeros = 1.0 - ones
    rows = len(bits)

    def split(w, first, second):
        flat = (rows, w.shape[1] * w.shape[2])
        return np.concatenate([(w * first).reshape(flat), (w * second).reshape(flat)], axis=1)

    factors = []
    for block, blocked, u, v in parts:
        factors.append((
            block[order] if blocked else None,
            split(u[order], ones, zeros),
            split(v[order], zeros, ones),
        ))
    worst = 0.0
    for a in range(0, rows, ROW_CHUNK):
        b = min(a + ROW_CHUNK, rows)
        cols = slice(int(window_lo[a]), int(window_hi[b - 1]))
        # |target - sums| in place: few temporaries, so the heap stays put
        residual = target_window(a, b, cols)
        for block, uu, vv in factors:
            inner = uu[a:b] @ vv[cols].T
            if block is not None:
                inner *= block[a:b, None] == block[None, cols]
            residual -= inner
        worst = max(worst, float(np.abs(residual, out=residual).max()))
    return worst


def cost_of(sol: SdpSolution) -> CostFunction:
    cu = np.zeros(sol.size)
    cv = np.zeros(sol.size)
    for _, u, v in sol.parts:
        norms = np.einsum("xjd,xjd->x", u, u)
        cu += norms
        cv += norms if v is u else np.einsum("xjd,xjd->x", v, v)
    return CostFunction(sol.domain, np.maximum(cu, cv))


def _full_cube(n: int) -> ConceptClass:
    if n > 16:
        raise ValueError("refusing to materialize a cube beyond 2^16 inputs")
    return ConceptClass.from_values(n, range(1 << n))


def _ramp_spike(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``t**-0.25`` and ``t**0.25`` for the ranks ``t = 1..n``."""
    # Python floats: a scalar t**-0.25 gives the same bits
    ramp = np.array([t**-0.25 for t in range(1, n + 1)])
    spike = np.array([t**0.25 for t in range(1, n + 1)])
    return ramp, spike


def _scan_rows(sigmas: np.ndarray, ranks: np.ndarray, widths: np.ndarray | int) -> np.ndarray:
    """First-disagreement vectors, one row per input, shape (inputs, bits, 1).

    Row ``i`` is written along its scan order ``sigmas[i]``: the ramp
    ``t**-0.25`` at ``sigmas[i][t-1]`` for every rank ``t`` before
    ``ranks[i]`` and the spike ``ranks[i]**0.25`` at the rank itself; rank 0
    (no disagreement) writes the ramp through ``widths[i]``.  ``sigmas``
    (inputs, bits) and ``widths`` (inputs,) may be one order and one width
    shared by every row.
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
    """Feasible solution for finding the first scan-order disagreement.

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
    sigma = tuple(sigma) if sigma is not None else tuple(range(n))
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of the bit positions")
    s = s if s is not None else BitString.zeros(n)
    if s.n != n:
        raise ValueError("reference string length mismatch")
    width = n if width is None else width
    if not 0 <= width <= n:
        raise ValueError(f"width must lie in [0, {n}]")
    members = ConceptClass.of(domain) if domain is not None else _full_cube(n)
    ranks = np.array(first_disagreement_table(members, sigma, s, width).outputs, dtype=np.intp)
    u = _scan_rows(np.array(sigma, dtype=np.intp), ranks, width)
    return SdpSolution(members, u, u)


def first_disagreement_table(
    domain: ConceptClass,
    sigma: Sequence[int],
    s: BitString,
    width: int,
) -> FunctionTable:
    """Rank of the first scan-order disagreement per member (0 when none)."""
    outputs = tuple(
        first_disagreement_rank(x, s, sigma, width) or 0 for x in domain.members
    )
    return FunctionTable(domain, outputs)


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
    rank path, which holds that order, reference and width.  The solution
    is the direct sum of the stage parts.

    The labels are never built as tuples: ``f_k``'s classes are those of
    the pairs ``(f_{k-1}(x), rank k of x)``, so each stage's codes come
    from the one (members, stages) rank matrix, numbered in order of first
    appearance as ``FunctionTable.codes`` numbers the rank-path tuples.
    """
    n = concept_class.n
    m = concept_class.size
    values = concept_class.values

    # f_k(x) is the first k ranks of x's rank path, 0-padded: a lone member,
    # or the reference of its block, finds no disagreement
    nodes, tree_paths = _tree(n, values)
    stages = 1 + max(map(len, nodes)) if m > 1 else 0
    paths = [tree_paths[v] for v in values]
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
    stage_solutions = tuple(SdpSolution.from_parts(concept_class, [p]) for p in stage_parts)

    if stage_parts:
        combined = SdpSolution.from_parts(concept_class, stage_parts)
    else:  # singleton class: nothing to learn
        zero = np.zeros((m, n, 1))
        combined = SdpSolution(concept_class, zero, zero)

    return OracleIdPipeline(
        concept_class=concept_class,
        stage_solutions=stage_solutions,
        stage_targets=stage_targets,
        solution=combined,
        cost=cost_of(combined),
    )
