import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

import pipeline_reference
import verify_reference
from verify_reference import (
    dense_cost,
    dense_gram,
    dense_sums,
    dense_target,
    dense_verify,
    domain_bits,
    rank_cost,
)
from helpers import PIPELINE_CLASSES, FunctionTable, preimage, random_class
from sdp_compose import (
    DenseSolution,
    cost_of as part_cost,
    boolean_and_solution,
    boolean_or_solution,
    output_conditioned_compose,
    sum_compose,
    tensor_compose,
)
from oracleid import bitstrings, sdp
from oracleid.bitstrings import (
    BitString,
    ConceptClass,
    bit_matrix,
    generate_class,
)
from oracleid.identify import identify_all
from oracleid.ordering import clear_ordering_cache, first_disagreement_rank
from oracleid.sdp import (
    LabelTarget,
    ScanPart,
    SdpSolution,
    cost_of,
    find_first_one_solution,
    first_disagreement_ranks,
    oracle_id_pipeline,
    verify_feasible,
)


def bs(text):
    return BitString.from_str(text)


def identity(m):
    return np.ones((m, m)) - np.eye(m)


def rank_target(n, sigma=None, s=None, width=None, domain=None):
    """J - F for the first-disagreement function on the given domain."""
    cls = ConceptClass.of(domain) if domain is not None else generate_class("cube", n)
    sigma = tuple(range(n)) if sigma is None else tuple(sigma)
    s = BitString.zeros(n) if s is None else s
    ranks = first_disagreement_ranks(cls, sigma, s, n if width is None else width)
    return LabelTarget(np.zeros(cls.size, dtype=np.intp), ranks)


class TestVerifyFeasible:
    def test_zero_solution_for_zero_matrix(self):
        # a scan of width 0 writes zero rows; equal labels on both sides
        # make the zero matrix
        sol = find_first_one_solution(2, width=0)
        zeros = np.zeros(4, dtype=np.intp)
        assert verify_feasible(LabelTarget(zeros, zeros), sol) == 0.0

    def test_explicit_solution_is_feasible(self):
        sol = find_first_one_solution(4)
        assert verify_feasible(rank_target(4), sol) < 1e-12

    def test_doubled_hit_weight_breaks_one_constraint(self):
        # a dense solution, so the pair-by-pair oracle checks it
        sol = find_first_one_solution(4)
        u = sol.u.copy()
        idx = sol.domain.index(bs("1000"))  # first disagreement at rank 1
        u[idx, 0, 0] *= 2.0
        broken = DenseSolution(sol.domain, u, u)
        assert verify_reference.verify_feasible(rank_target(4), broken) == pytest.approx(1.0)
        assert dense_verify(rank_target(4), broken) == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        sol = find_first_one_solution(3)
        with pytest.raises(ValueError):
            verify_feasible(np.zeros((4, 4)), sol)
        with pytest.raises(ValueError, match="labels"):
            verify_feasible(LabelTarget(np.zeros(8, dtype=int), np.arange(4)), sol)

    def test_a_dense_target_other_than_identity_is_refused(self):
        sol = find_first_one_solution(4)
        target = dense_target(rank_target(4))
        assert verify_reference.verify_feasible(target, sol) < 1e-12
        for dense in (target, np.zeros((16, 16)), 2.0 * _identity_targets(16)[0]):
            with pytest.raises(ValueError, match="a dense target must be J - I"):
                verify_feasible(dense, sol)

    def test_a_dense_solution_is_refused(self):
        sol = find_first_one_solution(3)
        dense = DenseSolution.from_parts(sol.domain, sol.parts)
        for target in _identity_targets(8) + [rank_target(3)]:
            with pytest.raises(TypeError, match="must be an SdpSolution, got DenseSolution"):
                verify_feasible(target, dense)


class TestNonFinite:
    """A dense target with a non-finite entry is refused, and in the
    pair-by-pair oracle a NaN coordinate gives a NaN residual, as it does
    bit by bit, which passes no tolerance, however small the residual of
    the other chunks."""

    @pytest.fixture(scope="class")
    def pipe(self):
        return oracle_id_pipeline(generate_class("random", 8, size=40, seed=1))

    def test_a_non_finite_dense_target_is_refused(self, pipe):
        one_nan = _identity_targets(40)[0]
        one_nan[3, 5], one_nan[4, 6] = np.nan, 5.0  # and a miss by 4 in its chunk
        for target in (np.full((40, 40), np.nan), one_nan, np.diag(np.full(40, np.inf))):
            with pytest.raises(ValueError, match="target entries must be finite"):
                verify_feasible(target, pipe.solution)
            assert not np.isfinite(verify_reference.verify_feasible(target, pipe.solution))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_a_nan_coordinate_fails_every_tolerance(self, monkeypatch, pipe, chunk):
        monkeypatch.setattr(verify_reference, "ROW_CHUNK", chunk)
        for row in (0, 20, 39):
            parts = list(_unpacked(pipe.solution).parts)
            block, u, v = parts[-1]
            u = u.copy()
            u[row, 0, 0] = np.nan  # on the u side only: one chunk reads it
            parts[-1] = (block, u, v)
            sol = DenseSolution.from_parts(pipe.concept_class, parts)
            for target in _identity_targets(40):
                assert math.isnan(verify_reference.verify_feasible(target, sol))
                assert math.isnan(dense_verify(target, sol))


class TestCostFunction:
    def test_zero_vectors_cost_zero(self):
        sol = find_first_one_solution(2, width=0)  # a scan of width 0: zero rows
        assert cost_of(sol).max_value == 0.0

    def test_immediate_hit_costs_one(self):
        cost = cost_of(find_first_one_solution(4))
        assert cost(bs("1000")) == pytest.approx(1.0)
        assert cost(bs("1111")) == pytest.approx(1.0)

    def test_agreeing_input_carries_the_full_ramp(self):
        cost = cost_of(find_first_one_solution(4))
        assert cost(bs("0000")) == pytest.approx(sum(k**-0.5 for k in range(1, 5)))
        assert cost(bs("0000")) == pytest.approx(2.784457050376173)


class TestCostOffTheRanks:
    """``cost_of`` reads each scan row's squared norm off its rank and its
    block's width, writing no row: byte for byte the scalar sum of
    ``rank_cost``, and the dense rows' sums to rounding."""

    def assert_cost(self, sol, want):
        got = cost_of(sol).values
        assert got.tobytes() == rank_cost(sol).tobytes()
        np.testing.assert_allclose(got, dense_cost(sol), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_hits_before_at_and_past_the_width(self):
        # width 2 on the 3-cube: rank 1, rank 2 (the width itself) and
        # rank 0, which carries the ramp through the width
        sol = find_first_one_solution(3, width=2)
        want = [1 + 2**-0.5 if x.value < 2 else 1 + 2**0.5 if x.value < 4 else 1.0 for x in sol.domain]
        self.assert_cost(sol, want)

    def test_rank_zero_through_the_full_width(self):
        sol = find_first_one_solution(5)
        assert sol.parts[0].rank[0] == 0 and sol.parts[0].width[0] == 5
        self.assert_cost(sol, [sum(t**-0.5 for t in range(1, 6))] + [
            sum(t**-0.5 for t in range(1, p)) + p**0.5 for p in sol.parts[0].rank[1:].tolist()
        ])

    def test_a_lone_member_block_costs_nothing(self):
        # block 1 holds one input and scans nothing (width 0)
        domain = ConceptClass.from_strings(["000", "011", "110"])
        part = ScanPart(
            np.array([0, 0, 1]), np.array([[0, 1, 2], [0, 1, 2]]),
            np.zeros((2, 3), dtype=bool), np.array([3, 0]), np.array([0, 2, 0]),
        )
        self.assert_cost(SdpSolution(domain, [part]), [1 + 2**-0.5 + 3**-0.5, 1 + 2**0.5, 0.0])

    def test_a_one_member_class_and_a_solution_of_no_parts(self):
        cls = ConceptClass.from_strings(["0101"])
        pipe = oracle_id_pipeline(cls)
        assert pipe.cost.values.tobytes() == np.zeros(1).tobytes()
        self.assert_cost(pipe.solution, [0.0])
        self.assert_cost(SdpSolution(generate_class("random", 6, size=10, seed=1), []), np.zeros(10))

    def test_narrow_widths_and_wide_ranks_index_the_table(self):
        # 130 bits: rank 0 through a uint8 width of 130 reads entry 261,
        # past uint8; a uint64 rank beside intp widths would give floats
        n = 130
        domain = ConceptClass.of([BitString(n, 0), BitString(n, 1)])
        part = ScanPart(
            np.zeros(2, dtype=np.uint8), np.arange(n)[None, :], np.zeros((1, n), dtype=bool),
            np.array([n], dtype=np.uint8), np.array([0, n], dtype=np.uint64),
        )
        ramp = sum(t**-0.5 for t in range(1, n))
        self.assert_cost(SdpSolution(domain, [part]), [ramp + n**-0.5, ramp + n**0.5])

    def test_the_build_writes_no_row(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a row was written")

        monkeypatch.setattr(sdp, "_scan_rows", refused)
        pipe = oracle_id_pipeline(generate_class("random", 13, size=400, seed=1))
        assert cost_of(pipe.solution).values.tobytes() == pipe.cost.values.tobytes()


class TestFirstOneSolution:
    def test_explicit_weights(self):
        sol = find_first_one_solution(4)
        x = sol.domain.index(bs("0010"))  # first one at rank 3
        column = sol.u[x, :, 0]
        assert column[0] == pytest.approx(1.0)  # 1^(-1/4)
        assert column[1] == pytest.approx(2.0**-0.25)
        assert column[2] == pytest.approx(3.0**0.25)  # the hit
        assert column[3] == 0.0

    def test_hit_pairs_meet_exactly_once(self):
        sol = find_first_one_solution(4)
        a = sol.domain.index(bs("1000"))
        b = sol.domain.index(bs("0100"))
        total = sum(
            sol.u[a, j, 0] * sol.v[b, j, 0]
            for j in range(4)
            if bs("1000").bit(j) != bs("0100").bit(j)
        )
        assert total == pytest.approx(1.0)

    def test_equal_rank_pairs_contribute_nothing(self):
        sol = find_first_one_solution(4)
        a = sol.domain.index(bs("1010"))
        b = sol.domain.index(bs("1100"))  # both rank 1
        total = sum(
            sol.u[a, j, 0] * sol.v[b, j, 0]
            for j in range(4)
            if bs("1010").bit(j) != bs("1100").bit(j)
        )
        assert total == 0.0

    def test_scan_order_and_reference_variants(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sigma = tuple(int(v) for v in rng.permutation(n))
            s = BitString(n, int(rng.integers(0, 1 << n)))
            sol = find_first_one_solution(n, sigma, s)
            assert verify_feasible(rank_target(n, sigma, s), sol) < 1e-12

    def test_cost_bounded_by_three_sqrt(self):
        # check the bound over every reachable rank value up to width 64
        # using one representative input per rank
        n = 64
        reps = [BitString(n, 1 << (n - 1 - p)) for p in range(n)] + [BitString.zeros(n)]
        sol = find_first_one_solution(n, domain=tuple(sorted(reps)))
        cost = cost_of(sol)
        for x in sol.domain:
            rank = next((j + 1 for j in range(n) if x.bit(j)), n + 1)
            assert cost(x) <= 3.0 * math.sqrt(rank)

    def test_restricted_width_and_domain(self):
        cls = generate_class("hamming1", 3)
        sigma = (0, 1, 2)
        s = bs("010")
        sol = find_first_one_solution(3, sigma, s, domain=cls.members, width=2)
        target = rank_target(3, sigma, s, width=2, domain=cls.members)
        assert verify_feasible(target, sol) < 1e-12

    def test_same_bytes_as_the_member_by_member_writer(self):
        rng = np.random.default_rng(9)

        def assert_same(n, sigma, s, width, domain):
            got = find_first_one_solution(n, sigma, s, domain=domain, width=width)
            want = pipeline_reference.find_first_one_solution(
                n, sigma, s, domain=domain, width=width
            )
            assert got.parts[0].u.tobytes() == want.parts[0].u.tobytes()

        for n in range(1, 9):
            cube = tuple(BitString(n, v) for v in range(1 << n))
            for width in sorted({0, n, *(int(w) for w in rng.integers(0, n + 1, size=3))}):
                sigma = tuple(int(v) for v in rng.permutation(n))
                s = BitString(n, int(rng.integers(0, 1 << n)))
                assert_same(n, sigma, s, width, cube)
                # restricted domains, down to one member
                for size in (1, 2, max(1, len(cube) // 3)):
                    pick = rng.choice(len(cube), size=size, replace=False)
                    assert_same(n, sigma, s, width, tuple(cube[i] for i in sorted(pick)))


class TestSumCompose:
    """The composition algebra, on dense solutions, against the pair-by-pair
    oracle and the part-by-part cost."""

    def test_zero_padding_keeps_cost(self):
        sol = find_first_one_solution(3)
        zero = DenseSolution(sol.domain, np.zeros((8, 3, 1)), np.zeros((8, 3, 1)))
        both = sum_compose(sol, zero)
        assert verify_reference.verify_feasible(rank_target(3), both) < 1e-12
        np.testing.assert_allclose(part_cost(both).values, part_cost(sol).values)

    def test_doubling_doubles_target_and_cost(self):
        sol = find_first_one_solution(3)
        double = sum_compose(sol, sol)
        assert verify_reference.verify_feasible(2.0 * dense_target(rank_target(3)), double) < 1e-12
        np.testing.assert_allclose(
            part_cost(double).values, 2.0 * part_cost(sol).values, atol=1e-14
        )

    def test_cost_subadditivity_is_exact(self):
        rng = np.random.default_rng(2)
        domain = tuple(BitString(3, v) for v in range(8))
        for _ in range(20):
            a = DenseSolution(domain, rng.standard_normal((8, 3, 2)), rng.standard_normal((8, 3, 2)))
            b = DenseSolution(domain, rng.standard_normal((8, 3, 3)), rng.standard_normal((8, 3, 3)))
            lhs = part_cost(sum_compose(a, b)).values
            rhs = part_cost(a).values + part_cost(b).values
            assert np.all(lhs <= rhs + 1e-12)

    def test_violations_add_at_most(self):
        rng = np.random.default_rng(3)
        domain = tuple(BitString(3, v) for v in range(8))
        a = DenseSolution(domain, rng.standard_normal((8, 3, 2)), rng.standard_normal((8, 3, 2)))
        b = DenseSolution(domain, rng.standard_normal((8, 3, 2)), rng.standard_normal((8, 3, 2)))
        ta = rng.standard_normal((8, 8))
        ta = ta + ta.T
        tb = rng.standard_normal((8, 8))
        tb = tb + tb.T
        va = verify_reference.verify_feasible(ta, a)
        vb = verify_reference.verify_feasible(tb, b)
        assert verify_reference.verify_feasible(ta + tb, sum_compose(a, b)) <= va + vb + 1e-12

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sum_compose(find_first_one_solution(3), find_first_one_solution(4))


class TestOutputConditionedCompose:
    def test_constant_function_is_a_single_block(self):
        cls = generate_class("cube", 2)
        f = FunctionTable(cls, (0, 0, 0, 0))
        block = find_first_one_solution(2, domain=cls.members)
        composed = output_conditioned_compose(f, {0: block})
        # F = J here, so the target is J - G
        assert verify_reference.verify_feasible(rank_target(2), composed) < 1e-12
        np.testing.assert_allclose(part_cost(composed).values, part_cost(block).values)

    def test_cross_label_pairs_vanish(self):
        cls = generate_class("cube", 2)
        f = FunctionTable(cls, (0, 0, 1, 1))  # split on the first bit
        blocks = {
            label: find_first_one_solution(2, domain=preimage(f, label))
            for label in (0, 1)
        }
        composed = output_conditioned_compose(f, blocks)
        i = composed.domain.index(bs("00"))
        j = composed.domain.index(bs("10"))
        total = sum(
            composed.u[i, t, :] @ composed.v[j, t, :]
            for t in range(2)
            if bs("00").bit(t) != bs("10").bit(t)
        )
        assert total == 0.0

    def test_cost_equals_own_block_cost_exactly(self):
        cls = generate_class("hamming1", 3)
        order = (0, 1, 2)
        s = bs("010")
        table = FunctionTable(cls, tuple(first_disagreement_ranks(cls, order, s, 2).tolist()))
        blocks = {}
        for label in table.labels:
            members = preimage(table, label)
            blocks[label] = find_first_one_solution(3, domain=members)
        composed = output_conditioned_compose(table, blocks)
        for x in cls.members:
            own = part_cost(blocks[table(x)])(x)
            assert part_cost(composed)(x) == own

    def test_lone_labels_may_be_left_out(self):
        cls = generate_class("random", 6, size=30, seed=8)
        f = FunctionTable(cls, tuple(int(v) % 11 for v in cls.values))
        assert any(len(preimage(f, e)) == 1 for e in f.labels)
        assert any(len(preimage(f, e)) > 1 for e in f.labels)
        blocks = {
            e: find_first_one_solution(6, domain=preimage(f, e))
            for e in f.labels if len(preimage(f, e)) > 1
        }
        zero = np.zeros((1, 6, 1))
        explicit = dict(blocks)
        explicit.update({
            e: DenseSolution(preimage(f, e), zero, zero)
            for e in f.labels if len(preimage(f, e)) == 1
        })
        left_out = output_conditioned_compose(f, blocks)
        given = output_conditioned_compose(f, explicit)
        assert_same_solution(left_out, given)

    def test_missing_block_rejected(self):
        cls = generate_class("cube", 2)
        f = FunctionTable(cls, (0, 0, 1, 1))
        with pytest.raises(ValueError, match="missing block"):
            output_conditioned_compose(
                f, {0: find_first_one_solution(2, domain=preimage(f, 0))}
            )


class TestTensorCompose:
    def test_one_bit_identity_inner_keeps_outer(self):
        outer, _ = boolean_or_solution(2)
        one_bit = ConceptClass.from_values(1, (0, 1))
        inner_sol = DenseSolution(one_bit.members, np.ones((2, 1, 1)), np.ones((2, 1, 1)))
        inner_tab = FunctionTable(one_bit, (0, 1))
        composed = tensor_compose(outer, [(inner_sol, inner_tab)] * 2)
        # inner gram is the identity, so the composite target equals the
        # outer target on relabeled inputs
        or_outputs = tuple(int(x.value != 0) for x in composed.domain)
        F = dense_gram(or_outputs)
        assert verify_reference.verify_feasible(np.ones_like(F) - F, composed) < 1e-12
        np.testing.assert_allclose(
            part_cost(composed).values, part_cost(outer).values, atol=1e-14
        )

    def test_or_of_ands_all_sixteen_inputs(self):
        or_sol, _ = boolean_or_solution(2)
        and_sol, and_tab = boolean_and_solution(2)
        composed = tensor_compose(or_sol, [(and_sol, and_tab)] * 2)
        outputs = tuple(
            int((x.bit(0) and x.bit(1)) or (x.bit(2) and x.bit(3)))
            for x in composed.domain
        )
        F = dense_gram(outputs)
        assert verify_reference.verify_feasible(np.ones_like(F) - F, composed) < 1e-10

    def test_cost_bounded_by_product(self):
        or_sol, _ = boolean_or_solution(2)
        and_sol, and_tab = boolean_and_solution(2)
        composed = tensor_compose(or_sol, [(and_sol, and_tab)] * 2)
        outer_cost = part_cost(or_sol)
        inner_cost = part_cost(and_sol)
        comp_cost = part_cost(composed)
        for x in composed.domain:
            left = BitString.from_bits(x.bits[:2])
            right = BitString.from_bits(x.bits[2:])
            z = BitString.from_bits([and_tab(left), and_tab(right)])
            bound = outer_cost(z) * max(inner_cost(left), inner_cost(right))
            assert comp_cost(x) <= bound + 1e-12

    def test_mixed_inner_dimensions(self):
        # one inner instance widened with a zero block: padding must keep
        # every instance's coordinates on the same stride
        or_sol, _ = boolean_or_solution(2)
        and_sol, and_tab = boolean_and_solution(2)
        wide = DenseSolution(
            and_sol.domain,
            np.concatenate([and_sol.u, np.zeros_like(and_sol.u)], axis=2),
            np.concatenate([and_sol.v, np.zeros_like(and_sol.v)], axis=2),
        )
        composed = tensor_compose(or_sol, [(wide, and_tab), (and_sol, and_tab)])
        outputs = tuple(
            int((x.bit(0) and x.bit(1)) or (x.bit(2) and x.bit(3)))
            for x in composed.domain
        )
        F = dense_gram(outputs)
        assert verify_reference.verify_feasible(np.ones_like(F) - F, composed) < 1e-10

    def test_arity_mismatch_rejected(self):
        or_sol, _ = boolean_or_solution(2)
        and_sol, and_tab = boolean_and_solution(2)
        with pytest.raises(ValueError):
            tensor_compose(or_sol, [(and_sol, and_tab)] * 3)


class TestOracleIdPipeline:
    def test_weight_one_class(self):
        cls = generate_class("hamming1", 3)
        pipe = oracle_id_pipeline(cls)
        assert verify_feasible(identity(3), pipe.solution) < 1e-10
        assert pipe.cost(bs("100")) <= 3 * (1 + math.sqrt(3))

    def test_two_cube(self):
        cls = generate_class("cube", 2)
        pipe = oracle_id_pipeline(cls)
        sol, cost = pipe.solution, pipe.cost
        assert verify_feasible(identity(4), sol) < 1e-10
        assert cost.max_value <= 3 * 2.8284271247461903  # 3 * optimum for (4, 2)

    def test_pair_class_single_stage(self):
        cls = ConceptClass.from_strings(["0010", "1001"])
        pipe = oracle_id_pipeline(cls)
        assert len(pipe.stage_solutions) == 1
        assert verify_feasible(identity(2), pipe.solution) < 1e-10
        assert pipe.cost.max_value <= 3.0  # first disagreement at rank 1

    def test_stage_targets_each_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            cls = random_class(rng, 4, int(rng.integers(2, 12)))
            pipe = oracle_id_pipeline(cls)
            for sol, target in zip(pipe.stage_solutions, pipe.stage_targets):
                assert verify_feasible(target, sol) < 1e-10

    def test_stage_targets_telescope_to_identity(self):
        rng = np.random.default_rng(5)
        cls = random_class(rng, 4, 9)
        pipe = oracle_id_pipeline(cls)
        total = sum(dense_target(t) for t in pipe.stage_targets)
        np.testing.assert_allclose(total, identity(cls.size), atol=0)

    def test_cost_tracks_traces_within_three(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            cls = random_class(rng, 4, int(rng.integers(2, 12)))
            pipe = oracle_id_pipeline(cls)
            traces = identify_all(cls)
            for x in cls.members:
                trace = traces[x]
                budget = sum(math.sqrt(p) for p in trace.positions) + math.sqrt(cls.n)
                assert pipe.cost(x) <= 3.0 * budget

    def test_chained_cost_bounded_by_stage_maxima(self):
        rng = np.random.default_rng(7)
        cls = random_class(rng, 5, 14)
        pipe = oracle_id_pipeline(cls)
        stage_max = sum(cost_of(sol).max_value for sol in pipe.stage_solutions)
        assert pipe.cost.max_value <= stage_max + 1e-12

    def test_singleton_class(self):
        cls = ConceptClass.from_strings(["0101"])
        pipe = oracle_id_pipeline(cls)
        sol, cost = pipe.solution, pipe.cost
        assert verify_feasible(np.zeros((1, 1)), sol) == 0.0
        assert cost.max_value == 0.0

    def test_stage_structure_matches_trace_paths(self):
        rng = np.random.default_rng(8)
        cls = random_class(rng, 4, 10)
        pipe = oracle_id_pipeline(cls)
        traces = identify_all(cls)
        # member x's rank at each stage is its trace's rank, 0 once done
        ranks = np.stack([sol.parts[0].rank for sol in pipe.stage_solutions], axis=1)
        for x in cls.members:
            path = tuple(ranks[cls.index(x)].tolist())
            expected = traces[x].positions + (0,) * (len(path) - len(traces[x].positions))
            assert path == expected


def assert_same_solution(a, b):
    """Equal parts byte for byte, with the same ``u is v`` sharing.  Each
    part is read as the dense part it writes out to: a scan part writes its
    rows on each read, so its ``.u`` and ``.v`` are two arrays."""
    assert a.domain == b.domain and len(a.parts) == len(b.parts)
    for pa, pb in zip(_unpacked(a).parts, _unpacked(b).parts):
        (block_a, ua, va), (block_b, ub, vb) = pa, pb
        assert block_a.dtype == block_b.dtype and block_a.tobytes() == block_b.tobytes()
        for x, y in ((ua, ub), (va, vb)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert (ua is va) == (ub is vb)
    assert a.dim == b.dim


class TestPipelineAgainstReference:
    """The pipeline read off the pruning tree (``ordering._greedy``) equals
    the level walk it replaced, which gave every lone member an explicit
    zero block."""

    CLASSES = PIPELINE_CLASSES

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_same_pipeline(self, name):
        cls = self.CLASSES[name]()
        got = oracle_id_pipeline(cls)
        want = pipeline_reference.oracle_id_pipeline(cls)
        assert len(got.stage_solutions) == len(want.stage_solutions)
        for a, b in zip(got.stage_solutions, want.stage_solutions):
            assert_same_solution(a, b)
        assert_same_solution(got.solution, want.solution)
        # the cost is read off the ranks, so it sums each row in rank order:
        # the scalar sum's bytes, and the dense rows' sums to rounding
        assert got.cost.values.tobytes() == rank_cost(got.solution).tobytes()
        for dense in (want.cost.values, dense_cost(got.solution)):
            np.testing.assert_allclose(got.cost.values, dense, rtol=1e-12, atol=0)
        assert len(got.stage_targets) == len(want.stage_targets)
        for a, b in zip(got.stage_targets, want.stage_targets):
            assert np.array_equal(a.coarse, b.coarse) and np.array_equal(a.fine, b.fine)
        # the stage labels are the codes of the reference's rank-path tables,
        # numbered in first-seen order, and read-only like them
        tables = want.stage_tables
        for k, target in enumerate(got.stage_targets, 1):
            assert np.array_equal(target.coarse, tables[k - 1].codes)
            assert np.array_equal(target.fine, tables[k].codes)
            assert not target.coarse.flags.writeable and not target.fine.flags.writeable

    def test_one_construction_per_stage(self, monkeypatch):
        # each stage is written as one solution, and one more holds the
        # stage parts side by side; no block gets a solution
        cls = generate_class("random", 13, size=400, seed=1)
        calls = []
        init = SdpSolution.__init__

        def counted(self, *args):
            calls.append(1)
            return init(self, *args)

        monkeypatch.setattr(SdpSolution, "__init__", counted)
        pipe = oracle_id_pipeline(cls)
        monkeypatch.undo()
        stages = len(pipe.stage_solutions)
        assert len(calls) == stages + 1 == 9

    def test_no_reference_cycles(self):
        cls = generate_class("random", 13, size=400, seed=1)
        oracle_id_pipeline(cls)  # warm caches and lazy imports
        gc.collect()
        gc.disable()
        try:
            oracle_id_pipeline(cls)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _random_parts(rng, m, n, n_parts, max_blocks=4):
    parts = []
    for _ in range(n_parts):
        d = int(rng.integers(1, 4))
        block = rng.integers(0, max_blocks, size=m)
        u = rng.standard_normal((m, n, d))
        v = u if rng.random() < 0.3 else rng.standard_normal((m, n, d))
        parts.append((block, u, v))
    return parts


def _symmetric(rng, m):
    t = rng.standard_normal((m, m))
    return t + t.T


class TestFactoredAgainstDense:
    """Part-wise checks and costs equal the bit-by-bit dense reference: the
    runtime's on the pipeline, the pair-by-pair oracle's and the part-wise
    cost on any solution."""

    CLASSES = {
        "hamming1-8": lambda: generate_class("hamming1", 8),
        "cube-5": lambda: generate_class("cube", 5),
        "random-10-150": lambda: generate_class("random", 10, size=150, seed=1),
    }

    def assert_agree(self, sol, targets):
        for target in targets:
            assert verify_reference.verify_feasible(target, sol) == pytest.approx(
                dense_verify(target, sol), rel=0, abs=1e-12
            )
        np.testing.assert_allclose(part_cost(sol).values, dense_cost(sol), rtol=1e-12, atol=0)

    def assert_runtime_agrees(self, target, dense, sol):
        """The runtime's residual and cost on a label target are the dense
        reference's, and the oracle's own expansion of the labels is the
        dense target exactly."""
        assert verify_feasible(target, sol) == pytest.approx(dense_verify(dense, sol), rel=0, abs=1e-12)
        assert cost_of(sol).values.tobytes() == rank_cost(sol).tobytes()
        np.testing.assert_allclose(cost_of(sol).values, part_cost(sol).values, rtol=1e-12, atol=0)
        assert np.array_equal(dense_target(target), dense)
        assert verify_reference.verify_feasible(target, sol) == verify_reference.verify_feasible(dense, sol)

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_pipeline_solutions(self, name):
        cls = self.CLASSES[name]()
        pipe = oracle_id_pipeline(cls)
        m = cls.size
        rng = np.random.default_rng(m)
        noise = _symmetric(rng, m)
        dense_identity, identity = _identity_targets(m)
        self.assert_agree(pipe.solution, [dense_identity, dense_identity + noise])
        self.assert_runtime_agrees(identity, dense_identity, pipe.solution)
        assert verify_feasible(dense_identity, pipe.solution) == verify_feasible(identity, pipe.solution)
        # the stage labels as the reference's own rank-path tables
        tables = pipeline_reference.oracle_id_pipeline(cls).stage_tables
        for k, (sol, target) in enumerate(zip(pipe.stage_solutions, pipe.stage_targets), 1):
            dense = dense_gram(tables[k - 1].outputs) - dense_gram(tables[k].outputs)
            self.assert_runtime_agrees(target, dense, sol)
            self.assert_agree(sol, [dense, dense + noise])

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_identity_and_first_disagreement_label_targets(self, name):
        # the two label targets ``verify --suite sdp`` checks, on any class
        cls = self.CLASSES[name]()
        m = cls.size
        pipe = oracle_id_pipeline(cls)
        identity = LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m))
        self.assert_runtime_agrees(identity, np.ones((m, m)) - np.eye(m), pipe.solution)
        sigma = tuple(range(cls.n))
        sol = find_first_one_solution(cls.n, sigma, cls.members[0], domain=cls.members)
        ranks = first_disagreement_ranks(cls, sigma, cls.members[0], cls.n)
        rank = LabelTarget(np.zeros(m, dtype=np.intp), ranks)
        self.assert_runtime_agrees(rank, np.ones((m, m)) - dense_gram(ranks), sol)
        assert verify_feasible(rank, sol) < 1e-12

    def test_random_sum_compose(self):
        rng = np.random.default_rng(11)
        domain = generate_class("random", 6, size=30, seed=2).members
        for _ in range(10):
            a = DenseSolution.from_parts(domain, _random_parts(rng, 30, 6, int(rng.integers(1, 4))))
            b = DenseSolution.from_parts(domain, _random_parts(rng, 30, 6, int(rng.integers(1, 4))))
            both = sum_compose(a, b)
            assert len(both.parts) == len(a.parts) + len(b.parts)
            self.assert_agree(both, [_symmetric(rng, 30), np.zeros((30, 30))])

    def test_random_output_conditioned_compose(self):
        rng = np.random.default_rng(12)
        cls = generate_class("random", 6, size=40, seed=3)
        for _ in range(10):
            f = FunctionTable(cls, tuple(int(e) for e in rng.integers(0, 5, size=40)))
            blocks = {}
            for label in f.labels:
                members = preimage(f, label)
                # labels differ in part count and part width
                parts = _random_parts(rng, len(members), 6, int(rng.integers(1, 4)))
                blocks[label] = DenseSolution.from_parts(members, parts)
            composed = output_conditioned_compose(f, blocks)
            self.assert_agree(composed, [_symmetric(rng, 40)])
            own = np.array([part_cost(blocks[f(x)])(x) for x in cls.members])
            np.testing.assert_allclose(part_cost(composed).values, own, rtol=1e-12, atol=0)

    def test_cross_label_pairs_vanish_in_every_part(self):
        rng = np.random.default_rng(13)
        cls = generate_class("random", 5, size=20, seed=4)
        f = FunctionTable(cls, tuple(int(e) for e in rng.integers(0, 3, size=20)))
        blocks = {
            label: DenseSolution.from_parts(
                preimage(f, label), _random_parts(rng, len(preimage(f, label)), 5, 2)
            )
            for label in f.labels
        }
        composed = output_conditioned_compose(f, blocks)
        G = dense_gram(f.outputs)
        # only same-label pairs may have a nonzero constraint sum
        sums = dense_sums(composed)
        assert np.any(sums[G == 1] != 0.0)
        assert np.all(sums[G == 0] == 0.0)

    def test_row_chunks_do_not_change_the_check(self, monkeypatch):
        rng = np.random.default_rng(15)
        domain = generate_class("random", 6, size=37, seed=6).members
        sol = DenseSolution.from_parts(domain, _random_parts(rng, 37, 6, 3))
        dense = _symmetric(rng, 37)
        labels = LabelTarget(rng.integers(0, 3, size=37), rng.integers(0, 9, size=37))
        whole = [verify_reference.verify_feasible(target, sol) for target in (dense, labels)]
        for chunk in (1, 5, 36):
            monkeypatch.setattr(verify_reference, "ROW_CHUNK", chunk)
            for target, want in zip((dense, labels), whole):
                assert verify_reference.verify_feasible(target, sol) == pytest.approx(want, abs=1e-12)


class TestFactoredStorage:
    def test_pipeline_stores_one_scalar_per_input_bit_and_stage(self):
        cls = generate_class("random", 12, size=300, seed=7)
        pipe = oracle_id_pipeline(cls)
        stages = len(pipe.stage_solutions)
        per_side = stages * cls.size * cls.n
        parts = pipe.solution.parts
        assert sum(p.u.size for p in parts) <= per_side
        assert sum(p.v.size for p in parts) <= per_side
        # the ambient arrays are dim / stages times larger
        assert pipe.solution.dim > 10 * stages
        assert pipe.solution.u.size == pipe.solution.dim * cls.size * cls.n

    def test_certification_never_builds_an_ambient_array(self):
        cls = generate_class("random", 12, size=300, seed=7)
        pipe = oracle_id_pipeline(cls)
        ambient_bytes = pipe.solution.dim * cls.size * cls.n * 8
        target = np.ones((cls.size, cls.size)) - np.eye(cls.size)
        tracemalloc.start()
        try:
            oracle_id_pipeline(cls)
            verify_feasible(target, pipe.solution)
            cost_of(pipe.solution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ambient_bytes / 2

    def test_pipeline_holds_no_inputs_squared_array(self):
        # one (M, M) float64 array would be 30.5 MiB here; the label-coded
        # pipeline peaks near 6.4 MiB, the dense stage targets near 373 MiB
        cls = generate_class("random", 16, size=2000, seed=1)
        clear_ordering_cache()
        tracemalloc.start()
        try:
            pipe = oracle_id_pipeline(cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cls.size**2 * 8
        for target in pipe.stage_targets:
            assert target.coarse.shape == target.fine.shape == (cls.size,)

    def test_first_one_solution_is_one_scan_block(self):
        sigma, s = (2, 0, 3, 1), bs("0110")
        domain = generate_class("random", 4, size=9, seed=2).members
        sol = find_first_one_solution(4, sigma, s, domain=domain, width=3)
        (part,) = sol.parts
        assert isinstance(part, ScanPart) and not part.block.any() and sol.dim == 1
        want = pipeline_reference.find_first_one_solution(4, sigma, s, domain=domain, width=3)
        assert sol.u.tobytes() == want.u.tobytes()

    def test_invalid_parts_rejected(self):
        domain = generate_class("cube", 2)
        part = find_first_one_solution(2, domain=domain).parts[0]
        u = np.zeros((4, 2, 1))
        # a solution holds scan parts only; a dense part is a test-side one
        with pytest.raises(TypeError, match="scan parts"):
            SdpSolution(domain, [(np.zeros(4, dtype=np.intp), u, u)])
        # a part refuses bad block ids when it is made; a block and ranks
        # of different lengths name the block
        with pytest.raises(ValueError, match="block"):
            dataclasses.replace(part, block=np.array([0, 0, -1, 0]))
        with pytest.raises(ValueError, match="block"):
            dataclasses.replace(part, block=np.zeros(3, dtype=np.intp))

    def test_ambient_layout_puts_each_block_in_its_own_range(self):
        domain = generate_class("cube", 2)
        part = ScanPart(np.array([1, 0, 1, 0]), np.array([[0, 1], [1, 0]]),
                        np.zeros((2, 2), dtype=bool), np.array([2, 1]), np.array([0, 1, 2, 1]))
        u = part.u
        for sol in (SdpSolution(domain, [part]), DenseSolution.from_parts(domain, [part])):
            assert sol.dim == 2
            expected = np.zeros((4, 2, 2))
            expected[[1, 3], :, 0] = u[[1, 3], :, 0]  # block 0 first
            expected[[0, 2], :, 1] = u[[0, 2], :, 0]
            np.testing.assert_array_equal(sol.u, expected)
            np.testing.assert_array_equal(sol.v, expected)

    def test_unused_block_ids_take_no_coordinate(self):
        # block ids 1 and 3 are held by no input: each part gets one
        # coordinate per used id, in increasing id order, as the test-side
        # layout (``np.unique``) gives them
        domain = generate_class("cube", 2)
        sigma = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
        sparse = ScanPart(np.array([2, 0, 2, 0]), sigma, np.zeros((4, 2), dtype=bool),
                          np.array([2, 1, 1, 2]), np.array([0, 1, 2, 1]))
        dense = ScanPart(np.array([0, 0, 1, 1]), sigma[:2], np.zeros((2, 2), dtype=bool),
                         np.array([2, 2]), np.array([1, 2, 0, 1]))
        for parts in ([sparse], [dense, sparse, dense]):
            sol, want = SdpSolution(domain, parts), DenseSolution.from_parts(domain, parts)
            assert sol.dim == want.dim == 2 * len(parts)
            assert sol.u.tobytes() == want.u.tobytes()


def _integer_parts(rng, m, n, blocks):
    """One part per block vector, with coordinates in -2..2: every constraint
    sum is then an exact small integer, so two checks agree to the bit
    whatever order BLAS adds the terms in (it depends on the row's place in
    the product), and ``==`` tests which pairs are covered."""
    parts = []
    for block in blocks:
        d = int(rng.integers(1, 3))
        u = rng.integers(-2, 3, size=(m, n, d)).astype(float)
        v = u if rng.random() < 0.3 else rng.integers(-2, 3, size=(m, n, d)).astype(float)
        parts.append((np.asarray(block), u, v))
    return parts


def _refined(rng, labels, spread):
    """Labels that refine ``labels``: each class split into up to ``spread``."""
    return np.asarray(labels) * spread + rng.integers(0, spread, size=len(labels))


class TestBlockLocalCheck:
    """The pair-by-pair oracle (``tests/verify_reference.py``) equals the
    bit-by-bit ``dense_verify`` exactly on integer coordinates, whether or
    not the blocks refine the target's classes, and to 1e-12 on real ones;
    on the pipeline's own solutions the runtime rank proof equals the
    oracle exactly.  The class keeps the name of the block-local window its
    cases were written for."""

    def assert_same(self, target, sol, tol=0.0):
        got = verify_reference.verify_feasible(target, sol)
        assert got == pytest.approx(dense_verify(target, sol), rel=0, abs=tol)
        return got

    @pytest.mark.parametrize("name", sorted(TestPipelineAgainstReference.CLASSES))
    def test_pipeline_stage_and_identity_targets(self, name):
        cls = TestPipelineAgainstReference.CLASSES[name]()
        m = cls.size
        pipe = oracle_id_pipeline(cls)
        identity = LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m))
        checks = list(zip(pipe.stage_targets, pipe.stage_solutions)) + [(identity, pipe.solution)]
        for target, sol in checks:
            assert verify_feasible(target, sol) == verify_reference.verify_feasible(target, sol) < 1e-12

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_random_refining_labels(self, monkeypatch, chunk):
        monkeypatch.setattr(verify_reference, "ROW_CHUNK", chunk)
        rng = np.random.default_rng(21)
        n = 5
        for trial in range(40):
            m = int(rng.integers(1, 90))
            members = ConceptClass.from_values(
                n + 2, (int(v) for v in rng.choice(1 << (n + 2), size=m, replace=False))
            ).members
            # classes of one, two and many inputs side by side
            coarse = rng.integers(0, max(1, m // int(rng.integers(1, 4))), size=m)
            fine = _refined(rng, coarse, 3)
            blocks = [_refined(rng, coarse, int(rng.integers(1, 3))) for _ in range(3)]
            sol = DenseSolution.from_parts(members, _integer_parts(rng, m, n + 2, blocks))
            self.assert_same(LabelTarget(coarse, fine), sol)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_random_labels_that_do_not_refine(self, monkeypatch, chunk):
        monkeypatch.setattr(verify_reference, "ROW_CHUNK", chunk)
        rng = np.random.default_rng(22)
        members = generate_class("random", 6, size=50, seed=5).members
        for trial in range(20):
            coarse = rng.integers(0, 8, size=50)
            fine = rng.integers(0, 12, size=50)  # splits across coarse classes
            blocks = [_refined(rng, coarse, 2), rng.integers(0, 4, size=50)]
            sol = DenseSolution.from_parts(members, _integer_parts(rng, 50, 6, blocks))
            self.assert_same(LabelTarget(coarse, fine), sol)
            self.assert_same(LabelTarget(coarse, fine), DenseSolution.from_parts(members, []))

    def test_fine_labels_across_coarse_classes_are_read(self):
        # every coarse class is one input, so only the cross pairs, whose
        # fine labels agree, can be nonzero: a zero solution misses them by 1
        members = generate_class("random", 5, size=12, seed=3).members
        zero = np.zeros((12, 5, 1))
        sol = DenseSolution.from_parts(members, [(np.arange(12), zero, zero)])
        target = LabelTarget(np.arange(12), np.arange(12) // 2)
        assert self.assert_same(target, sol) == 1.0

    def test_blocks_straddling_coarse_classes_are_read(self):
        rng = np.random.default_rng(23)
        members = generate_class("random", 5, size=12, seed=3).members
        u = rng.integers(1, 3, size=(12, 5, 1)).astype(float)
        # one block spans the coarse classes {0, 1}, {2, 3}, ...: the cross
        # sums are nonzero while the target is zero everywhere
        sol = DenseSolution.from_parts(members, [(np.arange(12) // 4, u, u)])
        pairs = np.arange(12) // 2
        assert self.assert_same(LabelTarget(pairs, pairs), sol) > 0
        # each coarse class of one input, every nonzero pair crosses
        singles = np.arange(12)
        assert self.assert_same(LabelTarget(singles, singles), sol) > 0

    def test_planted_violations(self):
        cls = generate_class("random", 10, size=150, seed=1)
        pipe = oracle_id_pipeline(cls)
        sol, target = pipe.stage_solutions[1], pipe.stage_targets[1]
        (part,) = sol.parts
        block, u = part.block, part.u
        sizes = np.bincount(target.coarse)
        x = int(np.flatnonzero(sizes[target.coarse] > 1)[-1])
        # inside one class: x's hit weight doubled
        bumped = u.copy()
        bumped[x] *= 2.0
        inside = DenseSolution.from_parts(sol.domain, [(block, bumped, u)])
        assert self.assert_same(target, inside, tol=1e-12) > 0.1
        # across classes: x joins the block of an input of another class
        y = int(np.flatnonzero(target.coarse != target.coarse[x])[0])
        moved = block.copy()
        moved[x] = block[y]
        across = DenseSolution.from_parts(sol.domain, [(moved, u, u)])
        assert self.assert_same(target, across, tol=1e-12) > 0.1

    def test_negative_and_non_contiguous_labels(self):
        rng = np.random.default_rng(24)
        members = generate_class("random", 6, size=60, seed=8).members
        spelled = np.array([-(2**40), -7, -1, 3, 1000, 2**50])
        for trial in range(10):
            pick = rng.integers(0, len(spelled), size=60)
            sub = rng.integers(0, 2, size=60)
            coarse, fine = spelled[pick], spelled[pick] * 3 - 5 * sub
            blocks = [np.abs(spelled[pick]) % 1009 * 2 + sub]
            sol = DenseSolution.from_parts(members, _integer_parts(rng, 60, 6, blocks))
            got = self.assert_same(LabelTarget(coarse, fine), sol)
            # the same classes under codes 0..k-1 check the same
            assert got == self.assert_same(LabelTarget(pick, pick * 2 + sub), sol)

    def test_rank_proof_reads_no_target_rows(self, monkeypatch):
        # the stage checks and both forms of J - I read ranks, bits and
        # labels only: no target row is expanded and no solution row written
        cls = generate_class("random", 13, size=400, seed=1)
        pipe = oracle_id_pipeline(cls)
        written = []
        scan_rows = sdp._scan_rows

        def counted_scan_rows(sigmas, ranks, widths):
            written.append(len(ranks))
            return scan_rows(sigmas, ranks, widths)

        monkeypatch.setattr(sdp, "_scan_rows", counted_scan_rows)
        checks = list(zip(pipe.stage_targets, pipe.stage_solutions))
        checks += [(target, pipe.solution) for target in _identity_targets(cls.size)]
        for target, sol in checks:
            assert verify_feasible(target, sol) < 1e-12
        assert len(checks) == 10 and written == []
        # the same counter sees the oracle write both sides' rows
        verify_reference.verify_feasible(pipe.stage_targets[0], pipe.stage_solutions[0])
        assert sum(written) == 2 * cls.size


def _unpacked(sol):
    """The same solution with every part written out as a dense ``(block,
    u, v)`` part."""
    return DenseSolution.from_parts(sol.domain, sol.parts)


def _identity_targets(m):
    """``J - I`` as the dense array and as the label target."""
    return [identity(m), LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m))]


def _scan_ranks(part, bits):
    """Each input's first disagreement with its block's ``s`` along its
    ``sigma`` within its ``width``, one input and one rank at a time."""
    ranks = []
    for row, b in zip(bits, part.block):
        sigma, s, width = part.sigma[b], part.s[b], part.width[b]
        ranks.append(next((t + 1 for t in range(width) if row[sigma[t]] != s[sigma[t]]), 0))
    return np.array(ranks, dtype=np.intp)


def _ranks_hold(part, bits):
    """Whether every ``rank`` of the part is its input's first disagreement,
    as the rank proof recomputes it from the inputs' 0/1 ``bits``."""
    found = sdp._first_disagreements(bits, part.block, part.sigma, part.s, part.width)
    return bool(np.array_equal(found, part.rank))


SCAN_CLASSES = {
    **TestPipelineAgainstReference.CLASSES,
    **{
        f"random-{n}-{m}-seed{seed}": (
            lambda n=n, m=m, seed=seed: generate_class("random", n, size=m, seed=seed)
        )
        for n, m, seed in ((6, 40, 3), (9, 3, 4), (16, 700, 5), (24, 500, 6), (70, 200, 7))
    },
}


class TestScanPartCheck:
    """A pipeline of scan parts is proven from its ranks, and the residual
    the proof returns is the one the all-pairs oracle returns on the same
    parts written out as their rows: equal, not close."""

    @pytest.mark.parametrize("name", sorted(SCAN_CLASSES))
    def test_same_residual_as_the_unpacked_parts(self, name):
        cls = SCAN_CLASSES[name]()
        m = cls.size
        pipe = oracle_id_pipeline(cls)
        dense_identity, identity = _identity_targets(m)
        checks = [(dense_identity, pipe.solution), (identity, pipe.solution)]
        checks += list(zip(pipe.stage_targets, pipe.stage_solutions))
        assert sdp._is_identity_target(dense_identity)
        for target, sol in checks:
            labels = target if isinstance(target, LabelTarget) else identity
            got = verify_feasible(target, sol)
            assert got == sdp._scan_chain_residual(labels, sol)
            assert got == verify_reference.verify_feasible(target, _unpacked(sol))
            assert got < 1e-12

    def test_the_six_cube_check_takes_the_rank_proof(self):
        # the first-disagreement check of ``verify --suite sdp``, exactly
        sol = find_first_one_solution(6)
        ranks = first_disagreement_ranks(sol.domain, tuple(range(6)), BitString.zeros(6), 6)
        assert ranks.dtype == np.intp and not ranks.flags.writeable
        assert np.array_equal(ranks, _scan_ranks(sol.parts[0], domain_bits(sol.domain)))
        target = LabelTarget(np.zeros(sol.size, dtype=np.intp), ranks)
        proof = verify_feasible(target, sol)
        assert proof == verify_reference.verify_feasible(target, _unpacked(sol)) == 2.220446049250313e-16

    @pytest.mark.parametrize("name", sorted(SCAN_CLASSES))
    def test_every_runtime_part_is_a_scan_part(self, name):
        cls = SCAN_CLASSES[name]()
        pipe = oracle_id_pipeline(cls)
        sols = (pipe.solution,) + pipe.stage_solutions
        assert all(isinstance(p, ScanPart) for sol in sols for p in sol.parts)
        # a singleton is one block that scans nothing: zero rows, dim 1
        one = oracle_id_pipeline(ConceptClass(cls.n, cls.members[:1])).solution
        assert isinstance(*one.parts, ScanPart) and one.parts[0].width.tolist() == [0]
        assert one.dim == 1 and one.u.tobytes() == np.zeros((1, cls.n, 1)).tobytes()
        # the first-disagreement solution on a restricted domain and width
        sigma = tuple(np.random.default_rng(cls.size).permutation(cls.n).tolist())
        sol = find_first_one_solution(cls.n, sigma, cls.members[-1],
                                      domain=cls.members[: cls.size // 2 + 1], width=cls.n // 2)
        assert isinstance(*sol.parts, ScanPart) and sol.dim == 1

    def test_ranks_are_the_first_disagreements(self):
        cls = generate_class("random", 10, size=150, seed=1)
        bits = domain_bits(cls.members)
        for part in oracle_id_pipeline(cls).solution.parts:
            assert np.array_equal(part.rank, _scan_ranks(part, bits))
            assert _ranks_hold(part, bits)

    def test_a_scan_part_stores_no_rows(self):
        cls = generate_class("random", 13, size=400, seed=1)
        for part in oracle_id_pipeline(cls).solution.parts:
            u = part.u
            assert u.shape == (cls.size, cls.n, 1)
            stored = sum(a.nbytes for a in (part.block, part.sigma, part.s, part.width, part.rank))
            assert stored < u.nbytes / 2
            assert part.v.tobytes() == u.tobytes()

    def test_invalid_scan_parts_rejected(self):
        part = oracle_id_pipeline(generate_class("cube", 3)).solution.parts[1]
        bad = [
            {"rank": part.rank[:-1]},
            {"rank": part.rank.astype(float)},
            {"sigma": part.sigma[:, :-1]},
            {"s": part.s.astype(np.uint8)},
            {"width": part.width[:-1]},
        ]
        for change in bad:
            with pytest.raises(ValueError, match="scan part"):
                dataclasses.replace(part, **change)

    @pytest.mark.parametrize("arrays", [
        (np.zeros(0, dtype=np.intp), np.array([[0, 1]]), np.zeros((1, 2), dtype=bool),
         np.array([2]), np.zeros(0, dtype=np.intp)),
        (np.zeros(2, dtype=np.intp), np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=bool),
         np.array([0]), np.zeros(2, dtype=np.intp)),
    ], ids=["no inputs", "no bits"])
    def test_an_empty_scan_part_is_refused(self, arrays):
        # refused before numpy's min and max meet an empty array
        with pytest.raises(ValueError, match="^a scan part needs at least one input and one bit$"):
            ScanPart(*arrays)

    @pytest.fixture(scope="class")
    def small_part(self):
        cls = generate_class("random", 6, size=10, seed=1)
        return cls, oracle_id_pipeline(cls).solution.parts[0]

    @pytest.mark.parametrize("field, value", [
        ("rank", 7), ("rank", -1), ("width", 7), ("width", -1), ("sigma", 6), ("sigma", -1),
    ])
    def test_out_of_range_scan_part_rejected(self, small_part, field, value):
        # rank and width lie in 0..N, sigma's entries in 0..N-1
        _, part = small_part
        arr = getattr(part, field).astype(np.intp)
        arr.flat[-1] = value
        with pytest.raises(ValueError, match=r"lie in \[0, 6\] and its orders in \[0, 5\]"):
            dataclasses.replace(part, **{field: arr})

    def test_a_build_checks_each_part_once(self, monkeypatch):
        # the stage solutions and the combined one share the parts, each
        # checked once, when it was made
        checked = []
        post_init = ScanPart.__post_init__

        def counted(part):
            checked.append(part)
            post_init(part)

        monkeypatch.setattr(ScanPart, "__post_init__", counted)
        pipe = oracle_id_pipeline(generate_class("random", 13, size=400, seed=1))
        parts = pipe.solution.parts
        assert len(parts) == 8 and checked == list(parts)
        assert [sol.parts for sol in pipe.stage_solutions] == [(p,) for p in parts]
        SdpSolution(pipe.concept_class, parts)
        assert len(checked) == 8

    def test_a_checked_part_refuses_writes(self):
        # the part keeps the arrays it is given, and makes them read-only
        arrays = (np.array([1, 0, 1, 0]), np.array([[0, 1], [1, 0]]), np.zeros((2, 2), dtype=bool),
                  np.array([2, 1]), np.array([0, 1, 2, 1]))
        names = ("block", "sigma", "s", "width", "rank")
        part = ScanPart(*arrays)
        for name, array in zip(names, arrays):
            assert getattr(part, name) is array and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        parts = oracle_id_pipeline(generate_class("cube", 3)).solution.parts
        assert not any(getattr(p, name).flags.writeable for p in parts for name in names)

    def test_a_part_of_another_domain_is_refused(self, small_part):
        # valid on its own, the part has 10 inputs of 6 bits
        cls, part = small_part
        others = [generate_class("random", 6, size=11, seed=1), generate_class("random", 7, size=10, seed=1)]
        for other in others:
            want = f"a part of this domain needs {other.size} block ids and orders of {other.n} bits"
            with pytest.raises(ValueError, match=f"^{want}$"):
                SdpSolution(other, [part])
        assert SdpSolution(cls, [part]).parts == (part,)

    def test_in_range_scan_part_accepted(self, small_part):
        # the extremes of each range, and any permutation as an order: the
        # check, not construction, finds the part unproven
        cls, part = small_part
        rank, width, sigma = part.rank.copy(), part.width.copy(), part.sigma.astype(np.intp)
        rank[-1], width[-1], sigma[0] = 6, 6, sigma[0, ::-1].copy()
        mutant = dataclasses.replace(part, rank=rank, width=width, sigma=sigma)
        sol = SdpSolution(cls, [mutant])
        assert verify_feasible(_identity_targets(cls.size)[1], sol) == math.inf

    def test_ranks_equal_the_member_by_member_scan(self):
        # the vectorised ranks are ``ordering.first_disagreement_rank``'s,
        # across widths of one 64-bit word and beyond
        rng = np.random.default_rng(26)
        for n in range(1, 71):
            s = BitString(n, int.from_bytes(rng.bytes(9), "big") >> (72 - n))
            values = {s.value, s.value ^ 1}  # no disagreement, and the last bit
            values |= {int.from_bytes(rng.bytes(9), "big") >> (72 - n) for _ in range(30)}
            cls = ConceptClass.from_values(n, sorted(values))
            order = tuple(int(v) for v in rng.permutation(n))
            widths = sorted({0, 1, n, int(rng.integers(0, n + 1))})
            # and the empty order, which scans nothing
            for sigma, width in [(order, w) for w in widths] + [((), 0)]:
                ranks = first_disagreement_ranks(cls, sigma, s, width)
                want = [first_disagreement_rank(x, s, sigma, width) or 0 for x in cls.members]
                assert ranks.tolist() == want
                assert ranks.dtype == np.intp and not ranks.flags.writeable
        with pytest.raises(ValueError, match="reference string length mismatch"):
            first_disagreement_ranks(cls, order, BitString.zeros(71), 70)

    @pytest.mark.parametrize("name", sorted(TestPipelineAgainstReference.CLASSES))
    def test_ranks_equal_the_member_by_member_scan_on_every_tree_node(self, name):
        # the certificate's kernel against the one per-member view, on the
        # (sigma, s, width) of every node of the class's pruning tree
        cls = TestPipelineAgainstReference.CLASSES[name]()
        for sigma, s_value, width in sdp._greedy(cls.n, cls.values).nodes.values():
            s = BitString(cls.n, s_value)
            want = [first_disagreement_rank(x, s, sigma, width) or 0 for x in cls.members]
            assert first_disagreement_ranks(cls, sigma, s, width).tolist() == want

    @pytest.mark.parametrize("sigma, width, message", [
        ((0, 1, 2, 3), 9, r"^width 9 outside \[0, 4\], the scan order's length$"),  # was read as 4
        ((0, 1, 2, 3), -1, r"^width -1 outside \[0, 4\], the scan order's length$"),
        ((-1, 1, 2), 3, r"^scan order entries must lie in \[0, 3\]$"),  # read the member before
        ((0, 1, 7), 3, r"^scan order entries must lie in \[0, 3\]$"),
    ], ids=["width-past-the-order", "negative-width", "negative-entry", "entry-past-the-bits"])
    def test_ranks_refuse_what_the_member_scan_refuses(self, sigma, width, message):
        cls = ConceptClass.from_strings(["0001", "1000", "0110"])
        with pytest.raises(ValueError, match=message):
            first_disagreement_ranks(cls, sigma, BitString.zeros(4), width)
        with pytest.raises(ValueError, match=message):
            first_disagreement_rank(cls.members[1], BitString.zeros(4), sigma, width)

    def test_an_empty_order_has_no_disagreement(self):
        # the argmax over zero ranks raised; the member scan reads None
        cls = ConceptClass.from_strings(["0001", "1000"])
        s = BitString.zeros(4)
        assert [first_disagreement_rank(x, s, (), 0) for x in cls.members] == [None, None]
        ranks = first_disagreement_ranks(cls, (), s, 0)
        assert ranks.tolist() == [0, 0]
        assert ranks.dtype == np.intp and not ranks.flags.writeable

    def test_ranks_refuse_a_bad_entry_past_the_width(self):
        # every entry is read, not only the scanned ones
        cls = ConceptClass.from_strings(["0001", "1000", "0110"])
        with pytest.raises(ValueError, match=r"^scan order entries must lie in \[0, 3\]$"):
            first_disagreement_ranks(cls, (0, 1, -2, 9), BitString.zeros(4), 2)

    def test_the_members_are_transposed_once(self, monkeypatch):
        # one build, the 8 stage checks and J - I read one bit matrix of
        # the members, and one more holds every tree node's reference
        cls = generate_class("random", 13, size=400, seed=1)
        sdp._greedy(cls.n, cls.values)  # the tree's bit columns transpose them too
        cls = generate_class("random", 13, size=400, seed=1)  # no cached bits
        calls = []

        def counted(n, values):
            calls.append(tuple(values))
            return bit_matrix(n, values)

        monkeypatch.setattr(bitstrings, "bit_matrix", counted)
        monkeypatch.setattr(sdp, "bit_matrix", counted)
        pipe = oracle_id_pipeline(cls)
        assert len(pipe.stage_solutions) == 8
        for sol, target in zip(pipe.stage_solutions, pipe.stage_targets):
            assert verify_feasible(target, sol) < 1e-12
        for target in _identity_targets(cls.size):
            assert verify_feasible(target, pipe.solution) < 1e-12
        assert calls.count(cls.values) == 1 and len(calls) == 2


def _every_row_ranks(bits, block, sigma, s, width):
    """The rank kernel as it read every input, width-0 blocks included:
    one gather of every rank of every row, then one argmax per row."""
    m, n = bits.shape
    order = sigma[block] + np.arange(0, m * n, n)[:, None]
    differ = (bits ^ s[block]).ravel()[order]
    first = differ.argmax(axis=1)
    return np.where(differ[np.arange(m), first] & (first < width[block]), first + 1, 0)


class TestProofRecord:
    """The rank proof runs once per part and domain: a part proved against a
    class's bit matrix records the matrix and its split residual, and a
    later solution holding the part over that same matrix reads the record.
    The chain and label checks run on every call, and a failed proof is not
    recorded."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every call of the rank kernel, as the part's rank array it was
        asked to recompute, in order."""
        calls = []
        kernel = sdp._first_disagreements

        def counting(bits, block, sigma, s, width):
            calls.append(block)
            return kernel(bits, block, sigma, s, width)

        monkeypatch.setattr(sdp, "_first_disagreements", counting)
        return calls

    @pytest.mark.parametrize("identity_first", [True, False], ids=["identity-first", "stages-first"])
    def test_one_proof_per_part_in_either_order(self, counted, identity_first):
        cls = generate_class("random", 13, size=400, seed=1)
        pipe = oracle_id_pipeline(cls)
        stages = list(zip(pipe.stage_targets, pipe.stage_solutions))
        identities = [(target, pipe.solution) for target in _identity_targets(cls.size)]
        checks = identities + stages if identity_first else stages + identities
        assert all(verify_feasible(target, sol) < 1e-12 for target, sol in checks)
        assert len(counted) == len(pipe.solution.parts) == 8
        assert all(part._proof[0] is cls.bits for part in pipe.solution.parts)

    def test_another_domain_of_the_same_shape_is_proved_again(self, counted):
        cls = generate_class("random", 13, size=400, seed=1)
        pipe = oracle_id_pipeline(cls)
        target, sol = pipe.stage_targets[0], pipe.stage_solutions[0]
        want = verify_feasible(target, sol)
        assert want < 1e-12 and len(counted) == 1
        # the same members in another class object: another bit matrix,
        # proved again, to the same residual
        copy = ConceptClass(cls.n, cls.members)
        assert verify_feasible(target, SdpSolution(copy, sol.parts)) == want
        assert len(counted) == 2
        # other members of the same shape: proved again, the ranks fail
        other = generate_class("random", 13, size=400, seed=2)
        assert other.bits.shape == cls.bits.shape and other.members != cls.members
        for _ in range(2):
            assert verify_feasible(target, SdpSolution(other, sol.parts)) == math.inf
        assert len(counted) == 4
        # the failures left the last good proof in place
        assert sol.parts[0]._proof[0] is copy.bits
        assert verify_feasible(target, SdpSolution(copy, sol.parts)) == want and len(counted) == 4

    def test_a_wrong_rank_fails_on_every_call(self, counted):
        pipe = oracle_id_pipeline(generate_class("random", 10, size=150, seed=1))
        part = pipe.solution.parts[0]
        rank = part.rank.copy()
        rank[int(np.flatnonzero(rank >= 2)[0])] += 1
        mutant = dataclasses.replace(part, rank=rank)
        sol = SdpSolution(pipe.concept_class, [mutant])
        for _ in range(2):
            assert verify_feasible(pipe.stage_targets[0], sol) == math.inf
        assert len(counted) == 2 and mutant._proof is None

    def test_a_recorded_part_still_checks_the_chain_and_labels(self, counted):
        # every part proved: out of order, one left out or against labels
        # that merge two ranks, the solution is still refused
        pipe = oracle_id_pipeline(generate_class("random", 10, size=150, seed=1))
        domain, parts = pipe.concept_class, pipe.solution.parts
        for target in _identity_targets(domain.size):
            assert verify_feasible(target, pipe.solution) < 1e-12
        proved = len(counted)
        swapped = SdpSolution(domain, (parts[1], parts[0]) + parts[2:])
        dropped = SdpSolution(domain, parts[:2] + parts[3:])
        for sol in (swapped, dropped):
            for target in _identity_targets(domain.size):
                assert verify_feasible(target, sol) == math.inf
        target = pipe.stage_targets[0]
        fine = np.array(target.fine)
        fine[parts[0].rank == 2] = fine[np.flatnonzero(parts[0].rank == 1)[0]]
        assert verify_feasible(LabelTarget(target.coarse, fine), pipe.stage_solutions[0]) == math.inf
        assert len(counted) == proved

    @pytest.mark.parametrize("name", sorted(TestPipelineAgainstReference.CLASSES))
    def test_shared_proofs_give_a_fresh_pipelines_bytes(self, name):
        # J - I, the stages reading its proofs, and J - I again reading
        # theirs, each against the same check on a pipeline of its own
        cls = TestPipelineAgainstReference.CLASSES[name]()
        shared = oracle_id_pipeline(cls)
        identity_target = _identity_targets(cls.size)[1]

        def checks(pipe):
            return [(identity_target, pipe.solution), *zip(pipe.stage_targets, pipe.stage_solutions),
                    (identity_target, pipe.solution)]

        for k, (target, sol) in enumerate(checks(shared)):
            fresh_target, fresh_sol = checks(oracle_id_pipeline(cls))[k]
            assert not any(part._proof for part in fresh_sol.parts)
            got, want = verify_feasible(target, sol), verify_feasible(fresh_target, fresh_sol)
            assert got.hex() == want.hex() and got < 1e-12

    @pytest.mark.parametrize("name", sorted(TestPipelineAgainstReference.CLASSES))
    def test_the_kernel_reads_every_row_alike(self, name):
        # ranks of width-0 blocks are left unread: the same array as when
        # every row was read, on every part of the pipeline
        cls = TestPipelineAgainstReference.CLASSES[name]()
        for part in oracle_id_pipeline(cls).solution.parts:
            args = (cls.bits, part.block, part.sigma, part.s, part.width)
            got, want = sdp._first_disagreements(*args), _every_row_ranks(*args)
            assert got.dtype == want.dtype == np.intp and np.array_equal(got, want)
            assert np.array_equal(got, part.rank)

    def test_width_zero_blocks(self):
        # every block of width 0, and width 0 beside wide blocks, in any
        # integer type; a wrong nonzero rank in a width-0 block is refused
        cls = generate_class("random", 9, size=60, seed=4)
        rng = np.random.default_rng(9)
        block = rng.integers(0, 5, size=cls.size).astype(np.uint8)
        sigma = np.array([rng.permutation(cls.n) for _ in range(5)], dtype=np.uint8)
        s = rng.random((5, cls.n)) < 0.5
        for width in (np.zeros(5, dtype=np.intp), np.array([0, 9, 0, 3, 1], dtype=np.uint16)):
            args = (cls.bits, block, sigma, s, width)
            got = sdp._first_disagreements(*args)
            assert np.array_equal(got, _every_row_ranks(*args))
            assert np.array_equal(got, _scan_ranks(ScanPart(*args[1:], got), cls.bits))
            assert not got[width[block] == 0].any()
            # the blocks are the coarse classes and (block, rank) the fine
            # ones, so the chain holds and only the rank proof can fail
            coarse = block.astype(np.intp)
            target = LabelTarget(coarse, coarse * (cls.n + 1) + got)
            assert verify_feasible(target, SdpSolution(cls, [ScanPart(*args[1:], got)])) < 1e-12
            rank = got.copy()
            rank[int(np.flatnonzero(width[block] == 0)[0])] = 1
            sol = SdpSolution(cls, [ScanPart(*args[1:], rank)])
            for _ in range(2):
                assert verify_feasible(target, sol) == math.inf
        # a pipeline part with a lone member, its claimed rank made 1: the
        # member stays alone in its class, so the chain alone would pass
        pipe = oracle_id_pipeline(cls)
        k, part = next((k, p) for k, p in enumerate(pipe.solution.parts) if (p.width[p.block] == 0).any())
        rank = part.rank.copy()
        rank[int(np.flatnonzero(part.width[part.block] == 0)[0])] = 1
        mutant = dataclasses.replace(part, rank=rank)
        assert verify_feasible(pipe.stage_targets[k], SdpSolution(cls, [mutant])) == math.inf


class TestScanPartMutants:
    """A scan solution or target that breaks a premise of the proof is not
    certified: its residual is ``inf``.  Bit by bit, every mutant but one
    is far outside the tolerance, and the all-pairs oracle agrees; the one,
    the pipeline's stages out of order, is feasible but unprovable."""

    TOLERANCE = 1e-9

    @pytest.fixture(scope="class")
    def pipe(self):
        return oracle_id_pipeline(generate_class("random", 10, size=150, seed=1))

    def assert_caught(self, target, sol):
        assert verify_feasible(target, sol) == math.inf
        dense = dense_verify(target, sol)
        assert verify_reference.verify_feasible(target, sol) == pytest.approx(dense, rel=0, abs=1e-12)
        assert dense > self.TOLERANCE
        return dense

    def assert_part_caught(self, pipe, k, part):
        """Stage ``k`` with ``part`` for its own fails its stage target, and
        the stages with it fail ``J - I``."""
        domain = pipe.concept_class
        self.assert_caught(pipe.stage_targets[k], SdpSolution(domain, [part]))
        parts = list(pipe.solution.parts)
        parts[k] = part
        for target in _identity_targets(domain.size):
            self.assert_caught(target, SdpSolution(domain, parts))

    def test_rank_one_place_late(self, pipe):
        part = pipe.solution.parts[0]
        # a rank of 2 or more: one late, its ramp meets its partners' ramp
        # at its true rank, which no longer sums to 1
        x = int(np.flatnonzero(part.rank >= 2)[0])
        rank = part.rank.copy()
        rank[x] += 1
        self.assert_part_caught(pipe, 0, dataclasses.replace(part, rank=rank))

    def test_two_sigma_entries_swapped(self, pipe):
        # the rank-1 spikes land on the rank-2 bit
        part = pipe.solution.parts[0]
        sigma = part.sigma.copy()
        sigma[0, [0, 1]] = sigma[0, [1, 0]]
        self.assert_part_caught(pipe, 0, dataclasses.replace(part, sigma=sigma))

    def test_sigma_that_is_no_permutation(self, pipe):
        # a block's last rank, past its width, repeats its first bit: the
        # ranks still hold, but the rows would write that bit twice, so the
        # part refuses to be made
        k, b = next(
            (k, b) for k, part in enumerate(pipe.solution.parts)
            for b in range(len(part.width))
            if part.width[b] < pipe.concept_class.n and np.sum(part.block == b) > 1
        )
        part = pipe.solution.parts[k]
        sigma = part.sigma.copy()
        sigma[b, -1] = sigma[b, 0]
        bits = domain_bits(pipe.concept_class)
        found = sdp._first_disagreements(bits, part.block, sigma, part.s, part.width)
        assert np.array_equal(found, part.rank)
        with pytest.raises(ValueError, match="orders must be permutations of the bit positions"):
            dataclasses.replace(part, sigma=sigma)

    def test_flipped_bit_of_s(self, pipe):
        # the ranks recomputed against the flipped reference hold, but the
        # labels no longer split the block by rank
        part = pipe.solution.parts[0]
        s = part.s.copy()
        s[0, part.sigma[0, 0]] ^= True
        mutant = dataclasses.replace(part, s=s)
        mutant = dataclasses.replace(mutant, rank=_scan_ranks(mutant, domain_bits(pipe.concept_class)))
        assert _ranks_hold(mutant, domain_bits(pipe.concept_class))
        self.assert_part_caught(pipe, 0, mutant)

    def test_fine_label_merging_two_ranks(self, pipe):
        target = pipe.stage_targets[0]
        rank = pipe.solution.parts[0].rank
        fine = np.array(target.fine)
        fine[rank == 2] = fine[np.flatnonzero(rank == 1)[0]]
        self.assert_caught(LabelTarget(target.coarse, fine), pipe.stage_solutions[0])
        m = pipe.concept_class.size
        merged = np.arange(m)
        merged[1] = 0
        self.assert_caught(LabelTarget(np.zeros(m, dtype=np.intp), merged), pipe.solution)

    def test_broken_stage_chain(self, pipe):
        # a stage left out, and the first stage alone
        domain, parts = pipe.concept_class, pipe.solution.parts
        dropped = SdpSolution(domain, parts[:2] + parts[3:])
        for sol in (dropped, pipe.stage_solutions[0]):
            for target in _identity_targets(domain.size):
                self.assert_caught(target, sol)

    def test_stages_out_of_order_are_feasible_but_unprovable(self, pipe):
        # the same direct sum in another order is still feasible, but the
        # chain of the proof starts at the first part: the check certifies
        # nothing, though bit by bit the residual is within the tolerance
        domain, parts = pipe.concept_class, pipe.solution.parts
        swapped = SdpSolution(domain, (parts[1], parts[0]) + parts[2:])
        dense_identity, identity = _identity_targets(domain.size)
        for target in (dense_identity, identity):
            assert verify_feasible(target, swapped) == math.inf
        assert dense_verify(identity, swapped) < 1e-12
        got = verify_reference.verify_feasible(identity, swapped)
        assert got == verify_reference.verify_feasible(identity, pipe.solution) < 1e-12

    def test_dense_target_one_entry_off_identity(self, pipe):
        # one entry off J - I is a dense target the check refuses; bit by
        # bit the solution misses it
        m = pipe.concept_class.size
        for i, j, value in ((3, 7, 1 - 1e-6), (5, 5, 1e-6), (0, 1, 0.0)):
            target = np.ones((m, m)) - np.eye(m)
            target[i, j] = value
            assert not sdp._is_identity_target(target)
            with pytest.raises(ValueError, match="a dense target must be J - I"):
                verify_feasible(target, pipe.solution)
            assert dense_verify(target, pipe.solution) > self.TOLERANCE


class TestDomainBits:
    def test_matches_bit_by_bit_reference(self):
        rng = np.random.default_rng(25)
        for n in range(1, 71):
            values = {0, (1 << n) - 1} | {int(v) for v in rng.integers(0, 1 << min(n, 62), size=5)}
            values |= {((1 << n) - 1) ^ v for v in list(values)}
            domain = tuple(BitString(n, v) for v in sorted(values))
            got = bit_matrix(n, [x.value for x in domain])
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, domain_bits(domain))

    def test_one_member(self):
        domain = (BitString.from_str("1011001"),)
        np.testing.assert_array_equal(bit_matrix(7, [domain[0].value]), [[1, 0, 1, 1, 0, 0, 1]])


CHAIN_CLASSES = {
    "cube-3": lambda: generate_class("cube", 3),
    "hamming1-8": lambda: generate_class("hamming1", 8),
    "random-6-10": lambda: generate_class("random", 6, size=10, seed=1),
    **{
        f"random-13-400-seed{seed}": (lambda seed=seed: generate_class("random", 13, size=400, seed=seed))
        for seed in (1, 2, 3)
    },
    "one-member": lambda: ConceptClass.from_strings(["0101"]),
}


def _stacked_parts(parts, per):
    """``parts`` rebuilt so that each run of ``per`` of them (every part
    when ``per`` is None) shares its buffers: a run's block ids and ranks
    are the strided columns of one (inputs, run) array each, and its
    orders, reference bits and widths are row slices of one array each."""
    per = per or max(len(parts), 1)
    stacked = []
    for i in range(0, len(parts), per):
        run = parts[i:i + per]
        block = np.stack([p.block for p in run], axis=1)
        rank = np.stack([p.rank for p in run], axis=1)
        sigma, s, width = (np.concatenate([getattr(p, f) for p in run]) for f in ("sigma", "s", "width"))
        start = np.cumsum([0] + [p.width.size for p in run])
        for j, (lo, hi) in enumerate(zip(start[:-1], start[1:])):
            stacked.append(ScanPart(block[:, j], sigma[lo:hi], s[lo:hi], width[lo:hi], rank[:, j]))
    for p, q in zip(parts, stacked, strict=True):
        assert all(np.array_equal(getattr(p, f), getattr(q, f)) for f in ("block", "sigma", "s", "width", "rank"))
    return stacked


class TestStackedPasses:
    """The rank proof takes a solution's parts one at a time: for each part
    it recomputes the ranks, checks that its blocks make the classes of the
    part before it and takes its split residual.  Whether a part owns its
    arrays or views buffers stacked with other parts -- one part a buffer,
    three, or every part in one -- the check equals the pair-by-pair oracle
    exactly and refuses the same broken chains; the cost, read off the
    ranks part by part, keeps its bytes."""

    BUDGETS = {"one-part": 1, "three-parts": 3, "unbounded": None}

    @pytest.fixture(scope="class", params=sorted(CHAIN_CLASSES))
    def checked(self, request):
        """A class's pipeline, its ``(target, solution)`` checks and the
        oracle's value of each."""
        cls = CHAIN_CLASSES[request.param]()
        m = cls.size
        pipe = oracle_id_pipeline(cls)
        identity_target = LabelTarget(np.zeros(m, dtype=np.intp), np.arange(m))
        checks = list(zip(pipe.stage_targets, pipe.stage_solutions))
        checks += [(identity_target, pipe.solution), (identity(m), pipe.solution)]
        want = [verify_reference.verify_feasible(t, s) for t, s in checks]
        return pipe, checks, want

    def restacked(self, sol, budget):
        return SdpSolution(sol.domain, _stacked_parts(list(sol.parts), self.BUDGETS[budget]))

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_same_residual_as_the_pair_loop(self, checked, budget):
        _, checks, want = checked
        got = [verify_feasible(t, self.restacked(s, budget)) for t, s in checks]
        assert got == want and max(got) < 1e-12

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_same_cost_bytes(self, checked, budget):
        pipe, _, _ = checked
        for sol in (pipe.solution, *pipe.stage_solutions):
            sol = self.restacked(sol, budget)
            assert cost_of(sol).values.tobytes() == rank_cost(sol).tobytes()
        assert cost_of(self.restacked(pipe.solution, budget)).values.tobytes() == pipe.cost.values.tobytes()

    @pytest.fixture(scope="class")
    def pipe(self):
        return oracle_id_pipeline(generate_class("random", 13, size=400, seed=1))

    def broken(self, pipe):
        """Pipeline parts that break the chain three ways, each with ranks
        that hold or not as named."""
        parts = list(pipe.solution.parts)
        bits = domain_bits(pipe.concept_class)
        # a middle part with one rank one place late
        k = len(parts) // 2
        middle = parts[k]
        rank = middle.rank.copy()
        x = int(np.flatnonzero((middle.rank > 0) & (middle.rank < pipe.concept_class.n))[0])
        rank[x] += 1
        wrong_rank = parts[:k] + [dataclasses.replace(middle, rank=rank)] + parts[k + 1:]
        # a last part of one block across every class before it, its ranks
        # recomputed so that they hold
        last = parts[-1]
        merged = dataclasses.replace(last, block=np.zeros_like(last.block))
        merged = dataclasses.replace(merged, rank=_scan_ranks(merged, bits))
        assert _ranks_hold(merged, bits)
        # a last part of one block per input, each scanning as its old block
        # did: the ranks hold and the last (block, rank) tells every input
        # apart, but inputs the parts before it never split meet in no block
        split = ScanPart(np.arange(len(bits)), last.sigma[last.block], last.s[last.block],
                         last.width[last.block], last.rank)
        assert _ranks_hold(split, bits)
        return {
            "wrong-middle-rank": wrong_rank,
            "last-blocks-coarser": parts[:-1] + [merged],
            "last-blocks-finer": parts[:-1] + [split],
            "reversed": parts[::-1],
        }

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize(
        "how", ["wrong-middle-rank", "last-blocks-coarser", "last-blocks-finer", "reversed"]
    )
    def test_broken_chains_are_not_certified(self, pipe, budget, how):
        domain = pipe.concept_class
        sol = SdpSolution(domain, _stacked_parts(self.broken(pipe)[how], self.BUDGETS[budget]))
        for target in _identity_targets(domain.size):
            assert verify_feasible(target, sol) == math.inf

    def test_finer_last_blocks_are_infeasible(self, pipe):
        # the chain check is what refuses them: the pair loop misses by 1
        sol = SdpSolution(pipe.concept_class, self.broken(pipe)["last-blocks-finer"])
        assert verify_reference.verify_feasible(_identity_targets(sol.size)[1], sol) == 1.0

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_a_solution_of_no_parts(self, budget):
        # no part proves nothing: the value is 0.0 exactly when the target's
        # coarse and fine labels make the same classes, else inf
        for cls in (generate_class("random", 6, size=10, seed=1), ConceptClass.from_strings(["0101"])):
            m = cls.size
            sol = SdpSolution(cls, _stacked_parts([], self.BUDGETS[budget]))
            want = 0.0 if m == 1 else math.inf
            for target in _identity_targets(m):
                assert verify_feasible(target, sol) == want
            same = LabelTarget(np.arange(m) % 3, np.arange(m) % 3 * 5 + 7)
            assert verify_feasible(same, sol) == 0.0
            assert cost_of(sol).values.tobytes() == np.zeros(m).tobytes() and sol.dim == 0

    @pytest.mark.parametrize("field, dtype, n, m", [
        ("block", np.uint8, 13, 200),
        ("block", np.uint16, 13, 400),
        ("rank", np.uint8, 13, 200),
        ("rank", np.uint64, 13, 200),
    ])
    def test_ids_of_any_integer_type(self, field, dtype, n, m):
        # a part may store its block ids and ranks in any integer type that
        # holds them; the proof packs (block, rank) as an index, where a
        # uint8 block id times n + 1 would wrap and a uint64 rank would
        # make the label a float
        pipe = oracle_id_pipeline(generate_class("random", n, size=m, seed=1))
        domain = pipe.concept_class
        parts = pipe.solution.parts
        typed = [dataclasses.replace(p, **{field: getattr(p, field).astype(dtype)}) for p in parts]
        assert all(np.array_equal(getattr(q, field), getattr(p, field)) for p, q in zip(parts, typed))
        assert max(int(p.block.max()) for p in parts) * (n + 1) > np.iinfo(np.uint8).max
        assert cost_of(SdpSolution(domain, typed)).values.tobytes() == pipe.cost.values.tobytes()
        for target in _identity_targets(domain.size):
            want = verify_feasible(target, pipe.solution)
            assert want < 1e-12
            assert verify_feasible(target, SdpSolution(domain, typed)) == want
            swapped = typed[:-2] + typed[-2:][::-1]
            assert verify_feasible(target, SdpSolution(domain, swapped)) == math.inf
        for target, sol, part in zip(pipe.stage_targets, pipe.stage_solutions, typed):
            assert verify_feasible(target, SdpSolution(domain, [part])) == verify_feasible(target, sol)
