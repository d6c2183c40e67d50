import gc
import math
import pickle
import time

import numpy as np
import pytest

import greedy_reference
from classical_reference import classical_identify_reference
from helpers import random_class, subsets_of_cube
from oracleid import qsim
from oracleid.bitstrings import BitString, ConceptClass, generate_class
from oracleid.bounds import brute_force_cost, closed_form_cost, gamma_hat
from oracleid.identify import (
    IdealFinder,
    PromiseViolation,
    QuantumFinder,
    RunTrace,
    classical_identify,
    identify_all,
    make_engine,
    run_final,
    run_halving_basic,
    run_halving_improved,
)
from oracleid.ordering import clear_ordering_cache


def bs(text):
    return BitString.from_str(text)


ALGORITHMS = (run_halving_basic, run_halving_improved, run_final)


class TestBasicHalving:
    def test_two_cube(self):
        cls = generate_class("cube", 2)
        trace = run_halving_basic(cls, bs("10"))
        assert trace.identified == bs("10")
        assert trace.iterations <= 3

    def test_weight_one(self):
        cls = generate_class("hamming1", 3)
        trace = run_halving_basic(cls, bs("001"))
        assert trace.identified == bs("001")
        assert trace.positions == (3,)  # absolute position of the lone 1

    def test_singleton(self):
        cls = ConceptClass.from_strings(["0110"])
        trace = run_halving_basic(cls, bs("0110"))
        assert trace.iterations == 1 and trace.r == 0
        assert trace.ideal_cost == pytest.approx(2.0)  # one sqrt(N) check

    def test_iteration_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            cls = random_class(rng, 6, int(rng.integers(2, 33)))
            for x in cls.members:
                trace = run_halving_basic(cls, x)
                assert trace.identified == x
                assert trace.r <= math.ceil(math.log2(cls.size))
                assert trace.iterations <= math.ceil(math.log2(cls.size)) + 1


class TestImprovedHalving:
    def test_all_zeros_learns_one_bit_at_a_time(self):
        # majority of the full cube ties to all-ones, so the all-zeros
        # input disagrees at effective position 1 every round
        cls = generate_class("cube", 4)
        trace = run_halving_improved(cls, bs("0000"))
        assert trace.positions == (1, 1, 1, 1)
        assert trace.identified == bs("0000")

    def test_all_ones_is_the_majority_itself(self):
        cls = generate_class("cube", 4)
        trace = run_halving_improved(cls, bs("1111"))
        assert trace.r == 0
        assert trace.identified == bs("1111")
        assert trace.ideal_cost == pytest.approx(2.0)

    def test_weight_one_last_position(self):
        cls = generate_class("hamming1", 4)
        trace = run_halving_improved(cls, bs("0001"))
        assert trace.identified == bs("0001")
        assert trace.sum_positions <= 4

    def test_singleton_costs_one_full_check(self):
        cls = ConceptClass.from_strings(["0101"])
        trace = run_halving_improved(cls, bs("0101"))
        assert trace.r == 0
        assert trace.ideal_cost == pytest.approx(2.0)

    def test_position_sum_and_loop_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            cls = random_class(rng, 7, int(rng.integers(2, 40)))
            for x in cls.members:
                trace = run_halving_improved(cls, x)
                assert trace.identified == x
                assert trace.sum_positions <= 7
                assert trace.r <= math.ceil(math.log2(cls.size))

    def test_cost_within_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            cls = random_class(rng, n, int(rng.integers(2, min(40, 1 << n) + 1)))
            bound = 4 * math.sqrt(n * math.log2(cls.size)) + math.sqrt(n)
            for x in cls.members:
                assert run_halving_improved(cls, x).ideal_cost <= bound


class TestFinalAlgorithm:
    def test_weight_one_first_member(self):
        cls = generate_class("hamming1", 3)
        trace = run_final(cls, bs("100"))
        assert trace.positions == (1,) and trace.r == 1
        assert trace.identified == bs("100")
        assert trace.ideal_cost == pytest.approx(1.0)

    def test_weight_one_reference_string_itself(self):
        cls = generate_class("hamming1", 3)
        trace = run_final(cls, bs("010"))
        assert trace.positions == ()
        assert trace.identified == bs("010")
        assert trace.ideal_cost == pytest.approx(math.sqrt(2))  # width-2 check

    def test_six_cube_never_beats_the_program_optimum(self):
        cls = generate_class("cube", 6)
        budget, _ = brute_force_cost(64, 6)
        traces = identify_all(cls)
        worst = max(t.ideal_cost for t in traces.values())
        assert worst <= budget + 1e-12
        assert worst == pytest.approx(6.0)  # the all-zeros member is tight

    def test_trace_bounds_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            cls = random_class(rng, n, int(rng.integers(1, min(33, 1 << n) + 1)))
            for trace in identify_all(cls).values():
                assert trace.satisfies_trace_bounds(cls)
                assert trace.identified == trace.x

    def test_cost_within_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            cls = random_class(rng, n, int(rng.integers(2, min(40, 1 << n) + 1)))
            bound = 4 * closed_form_cost(cls.size, n) + math.sqrt(n)
            for trace in identify_all(cls).values():
                assert trace.ideal_cost <= bound

    def test_wide_class_with_few_members(self):
        # the greedy stops scanning bits once one candidate is left, so a
        # run costs a few bit scans, not N of them: ~0.04 s for all four
        cls = generate_class("random", 5000, size=4)
        clear_ordering_cache()
        start = time.perf_counter()
        for x in cls.members:
            assert run_final(cls, x, "quantum", seed=1).identified == x
        assert time.perf_counter() - start < 5.0

    def test_identify_all_leaves_no_reference_cycles(self):
        # a dropped result is freed at once, not kept for the cyclic collector
        cls = generate_class("random", 13, size=400, seed=1)
        identify_all(cls)
        gc.collect()
        gc.disable()
        try:
            identify_all(cls)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_identify_all_hands_back_the_class_members(self):
        cls = generate_class("random", 13, size=400, seed=1)
        traces = identify_all(cls)
        own = {x.value: x for x in cls.members}
        assert len(traces) == cls.size
        for key, trace in traces.items():
            assert key is own[key.value]
            assert trace.x is key and trace.identified is key

    def test_position_sum_bounded_by_elimination_rate(self):
        # every learned bit prunes at least a gamma_hat fraction, so the
        # learned-position total cannot exceed log2(M) / gamma_hat
        rng = np.random.default_rng(5)
        for _ in range(25):
            cls = random_class(rng, 6, int(rng.integers(2, 13)))
            limit = math.log2(cls.size) / float(gamma_hat(cls).value)
            for trace in identify_all(cls).values():
                assert trace.sum_positions <= limit + 1e-9


class TestExhaustiveCorrectness:
    def test_every_class_over_three_bits(self):
        for subset in subsets_of_cube(3):
            cls = ConceptClass(3, tuple(subset))
            for runner in ALGORITHMS:
                for x in cls.members:
                    assert runner(cls, x).identified == x

    def test_identify_all_matches_run_final(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            cls = random_class(rng, 5, int(rng.integers(1, 20)))
            traces = identify_all(cls)
            for x in cls.members:
                assert traces[x] == run_final(cls, x)


class TestFinalAgainstReference:
    """``run_final`` walks the class's pruning tree; the reference loop runs
    the value-tuple greedy on each surviving set.  Quantum runs agree trace
    for trace, for members and for hidden strings outside the class, whose
    runs scan to late ranks and end in misidentification."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quantum_runs_match_the_value_tuple_loop(self, seed):
        cls = generate_class("random", 24, size=200, seed=seed)
        rng = np.random.default_rng(seed)
        drawn = [BitString(24, v) for v in rng.integers(0, 1 << 24, 40).tolist()]
        outside = [x for x in drawn if x not in cls][:20]
        clear_ordering_cache()
        for i, x in enumerate(list(cls.members) + outside):
            trace = run_final(cls, x, "quantum", seed=(seed, i))
            assert trace == greedy_reference.run_final(cls, x, "quantum", seed=(seed, i))
            assert trace.identified in cls


class TestClassicalBaseline:
    def test_singleton_is_free(self):
        cls = ConceptClass.from_strings(["101"])
        assert classical_identify(cls, bs("101")) == (bs("101"), 0)

    def test_cube_costs_at_most_n(self):
        cls = generate_class("cube", 4)
        for x in cls.members:
            identified, queries = classical_identify(cls, x)
            assert identified == x and queries <= 4

    def test_weight_one_worst_case(self):
        cls = generate_class("hamming1", 5)
        worst = max(classical_identify(cls, x)[1] for x in cls.members)
        assert worst <= 4  # min(M - 1, N) = 4

    def test_query_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            cls = random_class(rng, n, int(rng.integers(1, min(33, 1 << n) + 1)))
            for x in cls.members:
                identified, queries = classical_identify(cls, x)
                assert identified == x
                assert queries <= min(cls.size - 1, n)

    @staticmethod
    def _assert_matches_reference(cls, rng, outsiders=20):
        for x in cls.members:
            assert classical_identify(cls, x) == classical_identify_reference(cls, x)
        n = cls.n
        for _ in range(outsiders):
            x = BitString(n, int.from_bytes(rng.bytes(-(-n // 8)), "big") >> (-n % 8))
            assert classical_identify(cls, x) == classical_identify_reference(cls, x)

    def test_matches_reference_on_random_classes(self):
        # n up to 70 so that member values pass 64 bits
        rng = np.random.default_rng(11)
        for n in range(1, 71):
            size = int(rng.integers(1, min(60, 1 << n) + 1))
            cls = generate_class("random", n, size=size, seed=n)
            self._assert_matches_reference(cls, rng)

    @pytest.mark.parametrize(
        "cls",
        [
            generate_class("cube", 5),
            generate_class("hamming", 9, k=3),
            generate_class("hamming1", 33),
            generate_class("hamming-pair", 8, k=4),
            generate_class("prefix", 10, free_bits=5),
            ConceptClass.from_strings(["0110"]),
        ],
        ids=["cube-5", "hamming-9-3", "hamming1-33", "hamming-pair-8-4", "prefix-10-5", "one-member"],
    )
    def test_matches_reference_on_families(self, cls):
        self._assert_matches_reference(cls, np.random.default_rng(cls.size))

    def test_hamming1_at_scale(self):
        # too large for the reference loop, which recounts every bit over
        # every candidate at each level
        n = 512
        cls = generate_class("hamming1", n)
        queries = [classical_identify(cls, x) for x in cls.members]
        assert all(identified == x for (identified, _), x in zip(queries, cls.members))
        counts = [q for _, q in queries]
        assert max(counts) == min(cls.size - 1, n) == 511
        assert sum(counts) == n * (n - 1) // 2 + n - 1 == 131327


class TestPromiseViolations:
    def test_detected_when_candidates_vanish(self):
        cls = ConceptClass.from_strings(["00", "01"])
        outside = bs("10")
        for runner in (run_halving_basic, run_halving_improved):
            with pytest.raises(PromiseViolation):
                runner(cls, outside)
        # the classical baseline only ever prunes by a splitting bit, so it
        # mis-identifies within the class instead of emptying it
        assert classical_identify(cls, outside)[0] in cls

    def test_final_algorithm_never_empties_the_set(self):
        # the greedy order guarantees a first-disagreer at every rank it
        # scans, so a broken promise surfaces as a wrong in-class answer
        # rather than an empty candidate set
        import itertools

        for size in (2, 3, 4):
            for combo in itertools.combinations(range(8), size):
                cls = ConceptClass.from_values(3, combo)
                for xv in set(range(8)) - set(combo):
                    trace = run_final(cls, BitString(3, xv))
                    assert trace.identified in cls

    def test_length_mismatch_rejected(self):
        cls = generate_class("cube", 2)
        with pytest.raises(ValueError):
            run_final(cls, bs("101"))


class TestEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_engine("samples")

    def test_quantum_engine_exact_on_small_widths(self):
        # widths at most the classical threshold resolve classically, so
        # small-class runs are always correct and need few queries
        cls = generate_class("cube", 2)
        for x in cls.members:
            trace = run_final(cls, x, "quantum", seed=123)
            assert trace.identified == x
            assert trace.raw_queries <= 4

    def test_quantum_engine_counts_queries(self):
        cls = generate_class("hamming1", 8)
        trace = run_final(cls, bs("00000001"), "quantum", seed=5)
        assert trace.raw_queries > 0
        assert trace.engine == "quantum"

    def test_quantum_engine_honours_its_norm_tol(self, monkeypatch):
        # every probability 2e-6 too large: the simulated norm is off by
        # about 1e-6, while the measured distribution is unchanged
        exact = qsim.grover_probabilities
        rounds = []

        def skewed(dim, marked, iterations):
            rounds.append(iterations)
            return tuple(p * (1 + 2e-6) for p in exact(dim, marked, iterations))

        monkeypatch.setattr(qsim, "grover_probabilities", skewed)
        cls = generate_class("hamming1", 16)
        x = bs("0000000000000001")  # found at rank 15, past the windows read directly
        loose = QuantumFinder(qsim.SearchConfig(norm_tol=1e-3))
        trace = run_final(cls, x, loose, seed=0)
        assert rounds  # the amplified search ran
        assert trace.norm_drift == pytest.approx(1e-6, rel=1e-3)
        with pytest.raises(RuntimeError, match="norm drifted"):
            run_final(cls, x, QuantumFinder(), seed=0)

    def test_find_any_refuses_a_reference_of_another_length(self):
        # both finders check through the one validator: the ideal one
        # returned position -2 here
        for finder in (IdealFinder(), QuantumFinder()):
            ctx = qsim.EngineContext(np.random.default_rng(0), 1 / 15)
            with pytest.raises(ValueError, match="^reference string length mismatch$"):
                finder.find_any(BitString(3, 0), BitString(5, 16), ctx)

    def test_quantum_determinism(self):
        cls = generate_class("hamming1", 8)
        a = run_final(cls, bs("00000010"), "quantum", seed=17)
        b = run_final(cls, bs("00000010"), "quantum", seed=17)
        assert a == b

    def test_quantum_basic_and_improved(self):
        cls = generate_class("hamming1", 6)
        for runner in (run_halving_basic, run_halving_improved):
            hits = sum(
                runner(cls, x, "quantum", seed=(31, i)).identified == x
                for i, x in enumerate(cls.members)
            )
            assert hits >= 4  # bounded error, 6 runs


class TestRunTrace:
    """A trace is a named tuple that keeps the frozen record's interface:
    equal by value, hashed by its fields, immutable, picklable (the CLI
    hands traces across a process pool) and written out by ``to_dict`` in
    the same key order."""

    FIELDS = ("x", "identified", "positions", "ideal_cost", "raw_queries",
              "iterations", "norm_drift", "engine")

    @pytest.fixture(scope="class")
    def traces(self):
        cls = generate_class("random", 10, size=60, seed=4)
        return (
            [identify_all(cls)[x] for x in cls.members[:5]]
            + [run_final(cls, x, "quantum", seed=(9, i)) for i, x in enumerate(cls.members[:5])]
        )

    def test_fields_in_order(self):
        assert RunTrace._fields == self.FIELDS

    def test_equal_traces_compare_and_hash_equal(self, traces):
        cls = generate_class("random", 10, size=60, seed=4)
        again = [identify_all(cls)[x] for x in cls.members[:5]]
        again += [run_final(cls, x, "quantum", seed=(9, i)) for i, x in enumerate(cls.members[:5])]
        for a, b in zip(traces, again):
            assert a is not b and a == b and hash(a) == hash(b)
            # the hash the frozen record had: that of its fields in order
            assert hash(a) == hash(tuple(getattr(a, f) for f in self.FIELDS))
        assert traces[0] != traces[1]

    def test_setting_an_attribute_raises(self, traces):
        trace = traces[0]
        for name in ("positions", "ideal_cost", "r", "anything"):
            with pytest.raises(AttributeError):
                setattr(trace, name, 0)

    def test_pickle_round_trip(self, traces):
        for trace in traces:
            back = pickle.loads(pickle.dumps(trace))
            assert type(back) is RunTrace and back == trace
            assert back.to_dict() == trace.to_dict()

    def test_to_dict_keys_in_order(self, traces):
        for trace in traces:
            row = trace.to_dict()
            assert list(row) == ["x", "identified", "positions", "r", "ideal_cost",
                                 "raw_queries", "iterations", "norm_drift", "engine"]
            assert row["r"] == len(trace.positions) and row["positions"] == list(trace.positions)

    def test_bound_properties(self, traces):
        cls = generate_class("random", 10, size=60, seed=4)
        for trace in traces:
            product = 1
            for p in trace.positions:
                product *= max(2, p)
            assert trace.pruning_product == product
            assert trace.sum_positions == sum(trace.positions)
            assert trace.satisfies_trace_bounds(cls) == (
                sum(trace.positions) <= cls.n and product <= cls.size
            )
        # one bound broken at a time: the sum, then the product (2**6 > 60)
        assert not traces[0]._replace(positions=(cls.n + 1,)).satisfies_trace_bounds(cls)
        assert not traces[0]._replace(positions=(1,) * 6).satisfies_trace_bounds(cls)
        assert traces[0]._replace(positions=(1,) * 5).satisfies_trace_bounds(cls)
