"""Test-only composition algebra for solutions of the query-complexity
vector program, on dense solutions.

``oracleid.sdp`` writes the identification certificate directly, as scan
parts; these general operators are kept here, with their tests, as the
algebra that certificate is an instance of.  They work on `DenseSolution`,
a direct sum of dense ``(block, u, v)`` parts, which the pair-by-pair
``verify_reference.verify_feasible`` checks and ``cost_of`` below costs.

Three composition operators preserve feasibility:

* ``sum_compose``: solutions for A and B give one for A + B with cost at
  most ``c_A + c_B`` pointwise (the parts of both, side by side).
* ``output_conditioned_compose``: per-output-label solutions for the
  restricted targets ``J - G_e`` give one for ``F - F*G`` (elementwise
  product) with cost exactly ``c_{f(x)}(x)`` -- each label gets its own
  blocks, which makes cross-label inner products vanish.
* ``tensor_compose``: an outer solution whose input bits are realized by
  inner function instances gives one for the composed function, with cost
  at most the product of outer and worst inner cost (one dense part).

``boolean_or_solution`` and ``boolean_and_solution`` are the standard
single-output solutions the tensor tests compose.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from helpers import FunctionTable, groups
from oracleid.bitstrings import BitString, ConceptClass
from oracleid.sdp import CostFunction, ScanPart, SdpSolution


class DensePart(NamedTuple):
    """One direct summand: ``u``, ``v`` of shape (inputs, bits, d) and a
    nonnegative block id per input."""

    block: np.ndarray
    u: np.ndarray
    v: np.ndarray


class DenseSolution:
    """A solution on the class ``domain`` stored as a direct sum of
    `DensePart`s, with the surface of `oracleid.sdp.SdpSolution`
    (``domain``, ``size``, ``n_bits``, ``parts``, ``u``, ``v``, ``dim``).

    Each block of a part owns its own ``d`` coordinates, laid out in
    increasing id order.  ``DenseSolution(domain, u, v)`` is one part with
    a single block; ``from_parts`` takes any sequence of ``(block, u, v)``
    triples and scan parts, a scan part written out as its rows.
    """

    def __init__(self, domain, u: np.ndarray, v: np.ndarray):
        self._setup(domain, [(np.zeros(len(u), dtype=np.intp), u, v)])

    @classmethod
    def from_parts(cls, domain, parts) -> "DenseSolution":
        sol = cls.__new__(cls)
        sol._setup(domain, parts)
        return sol

    def _setup(self, domain, parts) -> None:
        self.domain = SdpSolution(domain, ()).domain  # the runtime's domain checks
        self.size, self.n_bits = self.domain.size, self.domain.n
        self.parts = tuple(map(_dense_part, parts))

    @property
    def dim(self) -> int:
        return sum(len(np.unique(p.block)) * p.u.shape[2] for p in self.parts)

    u = property(lambda self: self._ambient("u"))
    v = property(lambda self: self._ambient("v"))

    def _ambient(self, side: str) -> np.ndarray:
        out = np.zeros((self.size, self.n_bits, self.dim))
        lo = 0
        for part in self.parts:
            ids, slot = np.unique(part.block, return_inverse=True)
            w, d = getattr(part, side), part.u.shape[2]
            for c in range(d):
                out[np.arange(self.size), :, lo + slot * d + c] = w[:, :, c]
            lo += len(ids) * d
        return out


def _dense_part(part) -> DensePart:
    if isinstance(part, ScanPart):
        u = part.u  # written once, shared by both sides as in the scan
        return DensePart(part.block, u, u)
    block, u, v = part
    return DensePart(np.asarray(block), u, v)


def cost_of(sol) -> CostFunction:
    """Per-input cost ``max(sum ||u||^2, sum ||v||^2)``, each side summed
    part by part, of a dense or scan solution."""
    cu = np.zeros(sol.size)
    cv = np.zeros(sol.size)
    for part in sol.parts:
        u, v = part.u, part.v
        norms = np.einsum("xjd,xjd->x", u, u)
        cu += norms
        cv += norms if v is u else np.einsum("xjd,xjd->x", v, v)
    return CostFunction(sol.domain, np.maximum(cu, cv))


def sum_compose(a, b) -> DenseSolution:
    """Direct sum: feasible for ``A + B`` with cost at most ``c_A + c_B``."""
    if a.domain != b.domain:
        raise ValueError("solutions must share a domain")
    return DenseSolution.from_parts(a.domain, a.parts + b.parts)


def output_conditioned_compose(
    f: FunctionTable, blocks: Mapping[Hashable, SdpSolution | DenseSolution]
) -> DenseSolution:
    """Stitch per-output solutions into one for ``F - F*G``.

    ``blocks[e]`` must be a solution on exactly the inputs with
    ``f(x) == e`` (for the target ``J - G_e``).  Part ``k`` of every label's
    solution goes into part ``k`` of the result, its block ids shifted past
    those of the labels before it, so inputs with different labels never
    share a block and their constraint sums vanish -- exactly where ``F``
    is zero.  The composite cost at ``x`` equals the cost its own block
    assigned to it.  A label with one input has target ``J - G_e = 0`` and
    may be left out: its input gets zero rows of width 1 in the first part,
    under a block id of its own.
    """
    members = f.domain.members
    pieces = []
    for e, idx in zip(f.labels, groups(f)):
        if e in blocks:
            if blocks[e].domain.members != tuple(members[i] for i in idx):
                raise ValueError(f"block for {e!r} is not defined on exactly f^-1({e!r})")
            pieces.append((idx, blocks[e].parts))
        elif len(idx) == 1:
            pieces.append((idx, (None,)))
        else:
            raise ValueError(f"missing block for output label {e!r}")

    m, n = len(members), f.domain.n
    parts = []
    for k in range(max(len(sub) for _, sub in pieces)):
        layer = [(idx, sub[k]) for idx, sub in pieces if k < len(sub)]
        d = max(1 if p is None else p.u.shape[2] for _, p in layer)
        shared = all(p is None or p.u is p.v for _, p in layer)
        block = np.zeros(m, dtype=np.intp)
        u = np.zeros((m, n, d))
        v = u if shared else np.zeros((m, n, d))
        next_id = 0
        for idx, p in layer:
            if p is None:  # a lone input: its rows stay zero
                block[idx] = next_id
                next_id += 1
                continue
            width = p.u.shape[2]
            u[idx, :, :width] = p.u
            if not shared:
                v[idx, :, :width] = p.v
            block[idx] = next_id + p.block
            next_id += int(p.block.max()) + 1
        parts.append((block, u, v))
    return DenseSolution.from_parts(members, parts)


def tensor_compose(
    outer: DenseSolution,
    inner: Sequence[tuple[DenseSolution, FunctionTable]],
    *,
    domain: Sequence[tuple[BitString, ...]] | None = None,
) -> DenseSolution:
    """Compose an outer solution with inner instances feeding its bits.

    ``inner[i]`` supplies the solution and 0/1-valued function table of the
    instance realizing the outer's ``i``-th input bit.  Composite inputs
    are concatenations of one member per instance; coordinates are tensor
    products ``u_outer[z, i] (x) u_inner[x_i, j]`` with ``z`` the string of
    inner outputs, giving per-pair constraint sums

        sum_i <u_f[z,i], v_f[z',i]> * (J - G_i)[x_i, y_i]  =  (J - F)[z, z'],

    i.e. feasibility for the composed function, and cost at most
    ``c_outer(z) * max_i c_i(x_i)``.
    """
    m = outer.n_bits
    if len(inner) != m:
        raise ValueError(f"need exactly {m} inner instances")
    for sol_i, table_i in inner:
        if set(table_i.outputs) - {0, 1}:
            raise ValueError("inner outputs must be bits")
        if sol_i.domain != table_i.domain:
            raise ValueError("inner solution and table must share a domain")

    if domain is None:
        combos: list[tuple[BitString, ...]] = [()]
        for sol_i, _ in inner:
            combos = [c + (x,) for c in combos for x in sol_i.domain]
            if len(combos) > 4096:
                raise ValueError("composite domain too large; pass one explicitly")
    else:
        combos = [tuple(c) for c in domain]

    widths = [sol_i.n_bits for sol_i, _ in inner]
    n_total = sum(widths)
    inner_uv = [(sol_i.u, sol_i.v) for sol_i, _ in inner]
    d_in = max(iu.shape[2] for iu, _ in inner_uv)
    outer_u, outer_v = outer.u, outer.v
    dim = outer_u.shape[2] * d_in

    members = []
    u = np.zeros((len(combos), n_total, dim))
    v = np.zeros((len(combos), n_total, dim))
    for row, combo in enumerate(combos):
        bits: list[int] = []
        for (sol_i, table_i), part in zip(inner, combo):
            bits.append(table_i(part))
        z = BitString.from_bits(bits)
        zi = outer.domain.index(z)
        value = 0
        offset = 0
        for i, ((sol_i, _), (iu, iv), part) in enumerate(zip(inner, inner_uv, combo)):
            value = (value << part.n) | part.value
            pi = sol_i.domain.index(part)
            for j in range(sol_i.n_bits):
                grid_u = np.outer(outer_u[zi, i], iu[pi, j])
                grid_v = np.outer(outer_v[zi, i], iv[pi, j])
                u[row, offset + j, :] = _pad_grid(grid_u, d_in)
                v[row, offset + j, :] = _pad_grid(grid_v, d_in)
            offset += sol_i.n_bits
        members.append(BitString(n_total, value))
    return DenseSolution(tuple(members), u, v)


def _pad_grid(grid: np.ndarray, d_in: int) -> np.ndarray:
    """Flatten an (outer, inner) coordinate grid, inner side zero-padded to
    the common width so every instance strides identically."""
    if grid.shape[1] == d_in:
        return grid.reshape(-1)
    padded = np.zeros((grid.shape[0], d_in))
    padded[:, : grid.shape[1]] = grid
    return padded.reshape(-1)


def boolean_or_solution(m: int) -> tuple[DenseSolution, FunctionTable]:
    """Standard solution for m-bit OR: ramp on the zero string, one spike
    at the first 1 of everything else; cost sqrt(m) everywhere."""
    return _constant_string_solution(m, 0)


def boolean_and_solution(m: int) -> tuple[DenseSolution, FunctionTable]:
    """Same construction as OR with the roles of 0 and 1 swapped."""
    return _constant_string_solution(m, 1)


def _constant_string_solution(m: int, b: int) -> tuple[DenseSolution, FunctionTable]:
    """The all-``b`` string outputs ``b`` and carries the ramp; every other
    string outputs ``1 - b`` and has one spike at its first bit unequal
    to ``b``."""
    cube = ConceptClass.from_values(m, range(1 << m))
    u = np.zeros((cube.size, m, 1))
    low, high = m**-0.25, m**0.25
    outputs = []
    for idx, x in enumerate(cube.members):
        first = next((j for j in range(m) if x.bit(j) != b), None)
        if first is None:
            u[idx, :, 0] = low
            outputs.append(b)
        else:
            u[idx, first, 0] = high
            outputs.append(1 - b)
    return DenseSolution(cube.members, u, u), FunctionTable(cube, tuple(outputs))
