"""One input-set type: the ordering and the SDP certificate take a
`ConceptClass`, and any other set of strings goes through
``ConceptClass.of``, so a repeated or misplaced string is refused, never
silently counted twice or re-aligned."""

import numpy as np
import pytest

from oracleid.bitstrings import BitString, ConceptClass, generate_class
from oracleid.ordering import hegedus_ordering, verify_ordering
from oracleid.sdp import (
    LabelTarget,
    SdpSolution,
    cost_of,
    find_first_one_solution,
    oracle_id_pipeline,
    verify_feasible,
)

A, B, C = (BitString.from_str(t) for t in ("010", "011", "110"))


class TestOf:
    def test_a_class_is_returned_as_it_is(self):
        cls = generate_class("hamming1", 4)
        assert ConceptClass.of(cls) is cls

    def test_strings_are_sorted(self):
        cls = ConceptClass.of(iter([C, A, B]))
        assert cls.members == (A, B, C) and cls.n == 3

    @pytest.mark.parametrize("strings, match", [
        ((), "at least one member"),
        ((A, BitString.from_str("0101")), "declared length"),
        ((A, A, B), "duplicate"),
    ])
    def test_the_class_checks_apply(self, strings, match):
        with pytest.raises(ValueError, match=match):
            ConceptClass.of(strings)


class TestDuplicatesAreRefused:
    def test_hegedus_ordering(self):
        with pytest.raises(ValueError, match="duplicate"):
            hegedus_ordering([A, A, B])

    def test_verify_ordering(self):
        order = hegedus_ordering([A, B])
        with pytest.raises(ValueError, match="duplicate"):
            verify_ordering([A, A, B], order)

    def test_sdp_solution(self):
        part = find_first_one_solution(3, domain=(A, B)).parts[0]
        with pytest.raises(ValueError, match="duplicate"):
            SdpSolution((A, A, B), [])
        with pytest.raises(ValueError, match="duplicate"):
            SdpSolution((A, A, B), [part])

    def test_find_first_one_solution(self):
        with pytest.raises(ValueError, match="duplicate"):
            find_first_one_solution(3, domain=(A, A))


class TestDomainOrder:
    def test_unsorted_domain_is_refused(self):
        part = find_first_one_solution(3, domain=(A, B, C)).parts[0]
        with pytest.raises(ValueError, match="sorted class order"):
            SdpSolution((B, A, C), [])
        with pytest.raises(ValueError, match="sorted class order"):
            SdpSolution((B, A, C), [part])

    def test_sorted_strings_become_the_class(self):
        part = find_first_one_solution(3, domain=(A, B, C), width=0).parts[0]
        sol = SdpSolution([A, B, C], [part])
        assert sol.domain == ConceptClass(3, (A, B, C))
        assert sol.domain.index(C) == 2 and cost_of(sol).domain is sol.domain

    def test_find_first_one_solution_reads_any_order(self):
        sol = find_first_one_solution(3, domain=[C, A, B])
        assert sol.domain.members == (A, B, C)
        assert cost_of(sol)(A) == pytest.approx(1 + 2**0.5)  # first one at rank 2

    def test_default_domain_is_the_cube(self):
        assert find_first_one_solution(3).domain == generate_class("cube", 3)

    def test_default_cube_has_the_class_size_limit(self):
        # the cube is generate_class's, with its limit of 2^20 members
        sol = find_first_one_solution(17)
        assert sol.size == 1 << 17
        target = LabelTarget(np.zeros(sol.size, dtype=np.intp), sol.parts[0].rank)
        assert verify_feasible(target, sol) < 1e-12
        with pytest.raises(ValueError, match="cube of dimension 21 has 2097152 members"):
            find_first_one_solution(21)

    def test_domain_of_another_length_is_named(self):
        # no reference is passed, so the refusal names the domain's length
        with pytest.raises(ValueError, match=r"^domain strings have 4 bits, not n = 3$"):
            find_first_one_solution(3, domain=[BitString(4, 1)])
        with pytest.raises(ValueError, match=r"^domain strings have 3 bits, not n = 4$"):
            find_first_one_solution(4, domain=[BitString.from_str("010")])


def test_pipeline_solutions_share_the_class():
    cls = generate_class("random", 6, size=20, seed=3)
    pipe = oracle_id_pipeline(cls)
    assert pipe.solution.domain is cls and pipe.cost.domain is cls
    assert all(sol.domain is cls for sol in pipe.stage_solutions)
