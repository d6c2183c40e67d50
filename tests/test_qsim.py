import math

import numpy as np
import pytest

import statevector as ref
from oracleid.bitstrings import BitString
from oracleid import qsim
from oracleid.qsim import (
    QueryCounter,
    ScanState,
    SimStats,
    find_first_one,
    grover_probabilities,
    grover_search_unknown_count,
    quantum_disagreement_finder,
    repetitions_for_budget,
)


def bs(text):
    return BitString.from_str(text)


class TestStateVector:
    def test_basis_and_norm(self):
        amps = ref.basis(3, index=5)
        assert np.linalg.norm(amps) == pytest.approx(1.0)
        assert amps[5] == 1.0

    def test_uniform_with_minus_target(self):
        amps = ref.uniform_with_minus_target(2)
        assert amps.size == 8
        assert np.linalg.norm(amps) == pytest.approx(1.0)
        assert np.allclose(ref.index_probabilities(amps), 0.25)


class TestApplyOracle:
    def test_set_bit_flips_target(self):
        # x = "10": index value 0 addresses the leading 1
        amps = ref.basis(2, index=0b00)  # |v=0, b=0>
        ref.apply_oracle(amps, bs("10"))
        expect = np.zeros(4, dtype=complex)
        expect[0b01] = 1.0  # |v=0, b=1>
        assert np.array_equal(amps, expect)

    def test_clear_bit_is_identity(self):
        amps = ref.basis(2, index=0b10)  # |v=1, b=0>
        ref.apply_oracle(amps, bs("10"))
        expect = np.zeros(4, dtype=complex)
        expect[0b10] = 1.0
        assert np.array_equal(amps, expect)

    def test_linearity_on_uniform_superposition(self):
        amps = np.zeros(4, dtype=complex)
        amps[0::2] = 1 / math.sqrt(2)  # uniform over v, b = 0
        ref.apply_oracle(amps, bs("11"))
        assert np.allclose(amps[1::2], 1 / math.sqrt(2))
        assert np.allclose(amps[0::2], 0)
        assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_padding_indices_act_as_identity(self):
        amps = ref.basis(3, index=0b110)  # |v=3, b=0>, x has 2 bits
        ref.apply_oracle(amps, bs("11"))
        assert amps[0b110] == 1.0

    def test_narrow_register_rejected(self):
        with pytest.raises(ValueError):
            ref.apply_oracle(ref.basis(2), bs("10101"))

    def test_counter_increments_once_per_application(self):
        counter = QueryCounter()
        amps = ref.basis(3)
        for k in range(1, 6):
            ref.apply_oracle(amps, bs("1010"), counter)
            assert counter.count == k

    def test_counter_never_decrements(self):
        counter = QueryCounter()
        with pytest.raises(ValueError):
            counter.tick(-1)


class TestTwoAmplitudeModel:
    def test_matches_reference_statevector(self):
        rng = np.random.default_rng(0)
        for k in range(1, 8):
            dim = 1 << k
            for n_marked in sorted(K for K in {0, 1, 3, dim // 2, dim} if K <= dim):
                marked = np.zeros(dim, dtype=bool)
                marked[rng.choice(dim, size=n_marked, replace=False)] = True
                amps = ref.uniform_with_minus_target(k)
                for j in range(int(2 * math.sqrt(dim)) + 1):
                    p_marked, p_unmarked = grover_probabilities(dim, n_marked, j)
                    np.testing.assert_allclose(
                        np.where(marked, p_marked, p_unmarked),
                        ref.index_probabilities(amps),
                        rtol=0, atol=1e-12,
                        err_msg=f"dim={dim} K={n_marked} j={j}",
                    )
                    ref.grover_run(amps, marked, 1)

    def test_amplifies_single_marked(self):
        p_marked, _ = grover_probabilities(16, 1, 3)  # near-optimal for K=1
        assert p_marked > 0.9


class TestUnknownCountSearch:
    def test_all_marked_found_immediately(self):
        counter = QueryCounter()
        v = grover_search_unknown_count(
            bs("11111111"), 8, rng=np.random.default_rng(0), counter=counter
        )
        assert v is not None and 0 <= v < 8
        assert counter.count <= 5  # first round measures the uniform state

    def test_none_marked_gives_up_within_budget(self):
        counter = QueryCounter()
        v = grover_search_unknown_count(
            bs("00000000"), 8, rng=np.random.default_rng(1), counter=counter
        )
        assert v is None
        # iteration budget 9*sqrt(8), plus one verification per round
        assert counter.count <= 3 * 9 * math.sqrt(8)

    def test_single_marked_statistics(self):
        hits, queries = 0, []
        trials = 500
        for t in range(trials):
            counter = QueryCounter()
            x = BitString(16, 1 << (t % 16))
            v = grover_search_unknown_count(
                x, 16, rng=np.random.default_rng((2, t)), counter=counter
            )
            hits += v is not None and x.bit(v) == 1
            queries.append(counter.count)
        assert hits / trials >= 0.60
        assert 1 * math.sqrt(16) <= np.mean(queries) <= 10 * math.sqrt(16)

    def test_marked_via_reference_string(self):
        # marking is disagreement with s, not bit value
        counter = QueryCounter()
        v = grover_search_unknown_count(
            bs("1011"),
            4,
            s=bs("1111"),
            rng=np.random.default_rng(5),
            counter=counter,
        )
        assert v == 1  # the only disagreement

    def test_zero_width(self):
        assert grover_search_unknown_count(bs("1"), 0, rng=np.random.default_rng(0)) is None


class TestFindFirstOne:
    def test_first_one_mid_string(self):
        counter = QueryCounter()
        res = find_first_one(bs("0010"), 4, rng=np.random.default_rng(3), counter=counter)
        assert res.position == 2 and res.exact
        assert counter.count == 3  # classical scan of the short prefix

    def test_all_zero(self):
        res = find_first_one(bs("0000"), 4, rng=np.random.default_rng(3))
        assert res.position is None and res.exact

    def test_all_ones(self):
        counter = QueryCounter()
        res = find_first_one(bs("1111"), 4, rng=np.random.default_rng(3), counter=counter)
        assert res.position == 0 and res.exact
        assert counter.count == 1

    @pytest.mark.parametrize("n", [8, 16])
    def test_success_rate(self, n):
        trials = 500
        hits = 0
        for t in range(trials):
            p0 = t % n
            x = BitString(n, 1 << (n - 1 - p0))
            res = find_first_one(x, n, rng=np.random.default_rng((4, n, t)))
            hits += res.position == p0
        assert hits / trials >= 0.60

    def test_mean_queries_scale_with_answer(self):
        # the per-call constant is measured, not designed: ~43 here, the
        # round-by-round verification queries included; assert a bracket
        # above it and that the growth tracks sqrt(position)
        n = 64
        means = {}
        for p0 in (8, 20, 50):
            qs = []
            for t in range(60):
                counter = QueryCounter()
                x = BitString(n, 1 << (n - 1 - p0))
                find_first_one(x, n, rng=np.random.default_rng((5, p0, t)), counter=counter)
                qs.append(counter.count)
            means[p0] = np.mean(qs)
            assert means[p0] <= 60 * math.sqrt(p0 + 1)
        assert means[50] / means[8] <= 2 * math.sqrt(50 / 8)

    def test_never_returns_an_unmarked_position(self):
        rng_master = np.random.default_rng(77)
        for t in range(200):
            value = int(rng_master.integers(0, 1 << 12))
            x = BitString(12, value)
            res = find_first_one(x, 12, rng=np.random.default_rng((6, t)))
            if res.position is not None:
                assert x.bit(res.position) == 1

    def test_search_wider_than_64_bits(self):
        # the model holds two amplitudes, so the width is not memory-capped
        n = 100
        x = BitString(n, 1 << (n - 1 - 70))
        for t in range(20):
            res = find_first_one(x, n, rng=np.random.default_rng((10, t)))
            assert res.position in (70, None)

    def test_shared_scan_state_is_reused(self):
        scan = ScanState()
        counter = QueryCounter()
        find_first_one(bs("0000"), 4, rng=np.random.default_rng(0), counter=counter, scan=scan)
        assert scan.cleared == 4
        before = counter.count
        res = find_first_one(bs("0000"), 4, rng=np.random.default_rng(0), counter=counter, scan=scan)
        assert res == qsim.FirstOneResult(None, True)
        assert counter.count == before  # nothing left to query


class TestDisagreementFinder:
    def test_examples(self):
        cases = [("100", "010", 1), ("010", "010", None), ("001", "010", 2)]
        for xs, ss, expect in cases:
            res = quantum_disagreement_finder(
                bs(xs), bs(ss), (0, 1, 2), 3, 1 / 15,
                rng=np.random.default_rng(4), counter=QueryCounter(),
            )
            assert res.rank == expect

    def test_scan_order_is_respected(self):
        # bits 1 and 2 differ; under sigma starting at bit 2 the first
        # disagreement sits at rank 1
        res = quantum_disagreement_finder(
            bs("011"), bs("010"), (2, 1, 0), 3, 1 / 15,
            rng=np.random.default_rng(8), counter=QueryCounter(),
        )
        assert res.rank == 1

    def test_statistics_beyond_classical_prefix(self):
        n, trials, hits = 32, 400, 0
        for t in range(trials):
            p0 = 5 + (t % 24)
            x = BitString(n, 1 << (n - 1 - p0))
            res = quantum_disagreement_finder(
                x, BitString.zeros(n), tuple(range(n)), n, 1 / 15,
                rng=np.random.default_rng((9, t)), counter=QueryCounter(),
            )
            hits += res.rank == p0 + 1
        assert hits / trials >= 0.60

    def test_repetition_count(self):
        cfg = qsim.DEFAULT_CONFIG
        assert repetitions_for_budget(cfg, 1 / 15) == 3
        assert repetitions_for_budget(cfg, 1 / 28) == 4
        assert repetitions_for_budget(cfg, 1 / 100) == 5
        with pytest.raises(ValueError):
            repetitions_for_budget(cfg, 0.0)


class TestDeterminismAndNorm:
    def test_identical_seeds_identical_outcomes(self):
        for seed in (0, 1, 99):
            runs = []
            for _ in range(2):
                counter = QueryCounter()
                res = find_first_one(
                    bs("0000000000000001"), 16,
                    rng=np.random.default_rng(seed), counter=counter,
                )
                runs.append((res, counter.count))
            assert runs[0] == runs[1]

    def test_norm_preserved_across_many_operations(self):
        stats = SimStats()
        dim, n_marked = 32, 3
        for j in range(10_001):
            p_marked, p_unmarked = grover_probabilities(dim, n_marked, j)
            stats.observe(math.sqrt(n_marked * p_marked + (dim - n_marked) * p_unmarked))
        assert stats.max_drift < 1e-9

    def test_stats_raise_on_blown_norm(self):
        with pytest.raises(RuntimeError):
            SimStats().observe(2.0)
