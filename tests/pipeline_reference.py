"""Test oracle: the staged identification pipeline with its own walk of
the pruning tree.

``oracle_id_pipeline`` below is the level-by-level construction that
``oracleid.sdp.oracle_id_pipeline`` replaced: it rebuilds the pruning tree
from the elimination sets of the reference greedy (``greedy_reference``)
instead of reading the runtime's memoized tree, and gives every lone
member an explicit zero block at every stage.  Its blocks
come from ``find_first_one_solution`` below, the member-by-member writer
that the runtime's vectorised ``_scan_rows`` replaced, and are stitched
with the composition operators of ``sdp_compose`` into dense solutions.  The differential tests
hold the runtime pipeline and the runtime first-disagreement solution to
it exactly, and the runtime cost, which sums each row in rank order
rather than by bit position, to 1e-12 relative.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from greedy_reference import _greedy
from helpers import FunctionTable
from oracleid.bitstrings import BitString, ConceptClass
from oracleid.ordering import first_disagreement_rank
from oracleid.sdp import CostFunction, LabelTarget
from sdp_compose import DenseSolution, cost_of, output_conditioned_compose, sum_compose


class ReferencePipeline(NamedTuple):
    """The runtime pipeline's fields, plus the stage tables ``f_0`` (constant)
    .. ``f_r`` as `FunctionTable`s of rank-path tuples."""

    concept_class: ConceptClass
    stage_tables: tuple[FunctionTable, ...]
    stage_solutions: tuple[DenseSolution, ...]
    stage_targets: tuple[LabelTarget, ...]
    solution: DenseSolution
    cost: CostFunction


def find_first_one_solution(
    n: int, sigma, s: BitString, *, domain, width: int
) -> DenseSolution:
    """The first-disagreement solution on ``domain``, one member at a time:
    the ramp ``t**-0.25`` along ``sigma`` before the member's rank, the
    spike ``rank**0.25`` at it, the ramp through ``width`` without a hit."""
    members = tuple(domain)
    u = np.zeros((len(members), n, 1))
    for idx, x in enumerate(members):
        f = first_disagreement_rank(x, s, sigma, width)
        stop = width + 1 if f is None else f
        for t in range(1, stop):
            u[idx, sigma[t - 1], 0] = t**-0.25
        if f is not None:
            u[idx, sigma[f - 1], 0] = f**0.25
    return DenseSolution(members, u, u)


def oracle_id_pipeline(concept_class: ConceptClass) -> ReferencePipeline:
    n = concept_class.n
    members = concept_class.members
    m = concept_class.size

    paths: dict[int, tuple] = {x.value: () for x in members}
    level: dict[tuple, list[int]] = {(): list(concept_class.values)}
    tables = [FunctionTable(concept_class, tuple(() for _ in members))]
    stage_solutions: list[DenseSolution] = []
    stage_targets: list[LabelTarget] = []

    while any(len(vals) > 1 for vals in level.values()):
        blocks: dict[tuple, DenseSolution] = {}
        next_level: dict[tuple, list[int]] = {}
        for path, vals in level.items():
            block_members = tuple(BitString(n, v) for v in vals)
            if len(vals) == 1:
                zero = np.zeros((1, n, 1))
                blocks[path] = DenseSolution(block_members, zero, zero)
                ranks = {}
            else:
                sigma, s_value, elim, width = _greedy(n, tuple(vals))
                blocks[path] = find_first_one_solution(
                    n, sigma, BitString(n, s_value), domain=block_members, width=width
                )
                ranks = {v: p for p, block in enumerate(elim[:width], start=1) for v in block}
            for v in vals:
                # rank 0: no disagreement within the width (s itself, or a lone member)
                new_path = path + (ranks.get(v, 0),)
                paths[v] = new_path
                next_level.setdefault(new_path, []).append(v)

        f_prev = tables[-1]
        stage_solutions.append(output_conditioned_compose(f_prev, blocks))
        f_next = FunctionTable(
            concept_class, tuple(paths[x.value] for x in members)
        )
        tables.append(f_next)
        stage_targets.append(LabelTarget(f_prev.codes, f_next.codes))
        level = next_level

    if stage_solutions:
        combined = stage_solutions[0]
        for sol in stage_solutions[1:]:
            combined = sum_compose(combined, sol)
    else:  # singleton class: nothing to learn
        zero = np.zeros((m, n, 1))
        combined = DenseSolution(members, zero, zero)

    return ReferencePipeline(
        concept_class=concept_class,
        stage_tables=tuple(tables),
        stage_solutions=tuple(stage_solutions),
        stage_targets=tuple(stage_targets),
        solution=combined,
        cost=cost_of(combined),
    )
