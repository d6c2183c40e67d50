import bisect
import math
from collections import Counter

import numpy as np
import pytest

import statevector as ref
from bbht_reference import bbht_reference, first_one_reference, repeats
from empty_window_cost import empty_window_cost
from oracleid.bitstrings import BitString, generate_class
from oracleid import identify, qsim
from oracleid.identify import QuantumFinder, _new_context, run_final
from oracleid.ordering import _greedy, clear_ordering_cache
from oracleid.qsim import (
    EngineContext,
    grover_probabilities,
    quantum_disagreement_finder,
    repetitions_for_budget,
    scan_failure,
)


def bs(text):
    return BitString.from_str(text)


def ctx_for(seed, error_budget=1 / 15):
    """A fresh run state: the seeded generator, no queries, no drift."""
    return EngineContext(np.random.default_rng(seed), error_budget)


def effective(x, width, s=None):
    """``x`` against ``s`` (zeros by default) in natural order, ``width`` ranks."""
    return qsim._Effective(x, BitString.zeros(x.n) if s is None else s, range(x.n), width)


def unknown_count_search(x, width, ctx, *, s=None, config=qsim.DEFAULT_CONFIG):
    """One ``_bbht`` call over ranks [0, width) of ``x`` against ``s``."""
    return qsim._bbht(effective(x, width, s), width, ctx, config)


def first_one(x, ctx):
    """The first 1 of ``x`` as a 1-based rank.  At these widths
    ``scan_failure`` is within ``ctx_for``'s budget, so the finder runs one
    scan."""
    assert scan_failure(x.n) <= ctx.error_budget
    return quantum_disagreement_finder(x, BitString.zeros(x.n), range(x.n), x.n, ctx)


class TestSearchConfig:
    # constructed only: a search at growth <= 1 never returns, a negative
    # cutoff breaks the failure DP and an infinite one overflows it
    @pytest.mark.parametrize("growth", [1.0, 0.5, float("nan")])
    def test_growth_must_exceed_one(self, growth):
        with pytest.raises(ValueError, match="growth must be greater than 1"):
            qsim.SearchConfig(growth=growth)

    @pytest.mark.parametrize("cutoff", [-1.0, -1e-12, float("nan"), math.inf])
    def test_cutoff_must_be_non_negative(self, cutoff):
        with pytest.raises(ValueError, match="^cutoff_coeff must be non-negative and finite, got "):
            qsim.SearchConfig(cutoff_coeff=cutoff)

    # a negative tolerance fails even a search with nothing marked, whose
    # norm is exactly 1; NaN would turn the check off
    @pytest.mark.parametrize("tol", [-1e-9, -math.inf, float("nan")])
    def test_norm_tol_must_be_non_negative(self, tol):
        with pytest.raises(ValueError, match="norm_tol must be non-negative, got"):
            qsim.SearchConfig(norm_tol=tol)

    # a negative width ran as 0 and a float raised inside the first scan
    @pytest.mark.parametrize("width", [-3, -1, 2.5, 4.0, True, False, "4", None])
    def test_classical_width_must_be_a_non_negative_int(self, width):
        with pytest.raises(ValueError, match=r"^classical_width must be a non-negative integer, got "):
            qsim.SearchConfig(classical_width=width)

    def test_edge_values_are_accepted(self):
        config = qsim.SearchConfig(growth=1.0001, cutoff_coeff=0.0, norm_tol=0.0, classical_width=0)
        assert (config.growth, config.cutoff_coeff, config.norm_tol) == (1.0001, 0.0, 0.0)
        assert config.classical_width == 0
        # a zero tolerance still passes the exact norm of an unmarked search
        ctx = ctx_for(0)
        assert unknown_count_search(bs("00000000"), 8, ctx, config=config) is None
        assert ctx.max_drift == 0.0


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
        counter = ref.OracleCounter()
        amps = ref.basis(3)
        for k in range(1, 6):
            ref.apply_oracle(amps, bs("1010"), counter)
            assert counter.count == k


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
        ctx = ctx_for(0)
        v = unknown_count_search(bs("11111111"), 8, ctx)
        assert v is not None and 0 <= v < 8
        assert ctx.queries <= 5  # first round measures the uniform state

    def test_none_marked_gives_up_within_budget(self):
        ctx = ctx_for(1)
        v = unknown_count_search(bs("00000000"), 8, ctx)
        assert v is None
        # iteration budget 9*sqrt(8), plus one verification per round
        assert ctx.queries <= 3 * 9 * math.sqrt(8)

    def test_single_marked_statistics(self):
        hits, queries = 0, []
        trials = 500
        for t in range(trials):
            ctx = ctx_for((2, t))
            x = BitString(16, 1 << (t % 16))
            v = unknown_count_search(x, 16, ctx)
            hits += v is not None and x.bit(v) == 1
            queries.append(ctx.queries)
        assert hits / trials >= 0.60
        assert 1 * math.sqrt(16) <= np.mean(queries) <= 10 * math.sqrt(16)

    def test_marked_via_reference_string(self):
        # marking is disagreement with s, not bit value
        v = unknown_count_search(bs("1011"), 4, ctx_for(5), s=bs("1111"))
        assert v == 1  # the only disagreement

    def test_zero_width(self):
        ctx = ctx_for(0)
        assert unknown_count_search(bs("1"), 0, ctx) is None
        assert ctx.queries == 0


def _marked_sets(limit, rng):
    """Empty, one rank, a few ranks and every rank of [0, limit)."""
    few = rng.choice(limit, size=min(3, limit), replace=False)
    return [(), (int(rng.integers(limit)),), tuple(int(t) for t in few), tuple(range(limit))]


class TestSamplerMatchesReference:
    """``_bbht`` against the per-round sampler kept in ``bbht_reference``.
    Each side gets a view of its own: the reference keeps its own record of
    the ranks it verified and charges every verification, so ``_bbht``
    charges its queries minus its repeats."""

    @pytest.mark.parametrize("config", [
        qsim.DEFAULT_CONFIG,
        qsim.SearchConfig(growth=2.0),
        qsim.SearchConfig(cutoff_coeff=3.0),
        qsim.SearchConfig(cutoff_coeff=0.0),
        qsim.SearchConfig(classical_width=0),
    ], ids=["default", "growth2", "cutoff3", "cutoff0", "cw0"])
    def test_same_outcome_queries_drift_and_generator_state(self, config):
        # at classical_width 0 windows of 2 to 4 ranks are amplified too
        rng, offsets = np.random.default_rng(2024), np.random.default_rng(2025)
        # every limit to 130, then either side of the powers of two 256, 512
        # and 1024, where nothing marked measures floor(u * dim)
        for limit in [*range(1, 131), 255, 256, 257, 511, 1000, 1024]:
            for ranks in _marked_sets(limit, rng):
                window = [int(t in ranks) for t in range(limit)]
                # the window at rank 0, and at an offset among random ranks
                # that must not be read
                offset = int(offsets.integers(1, 40))
                outside = offsets.integers(2, size=offset + 7).tolist()
                for start, bits in ((0, window), (offset, outside[:offset] + window + outside[offset:])):
                    eff = effective(BitString.from_bits(bits), len(bits))
                    seed = (limit, len(ranks))
                    new, old = ctx_for(seed), ctx_for(seed)
                    verified = Counter()
                    got = qsim._bbht(eff, start + limit, new, config, start)
                    want = bbht_reference(bits, start + limit, old, config, verified, start)
                    where = f"start={start} limit={limit} marked={ranks}"
                    assert got == want, where
                    assert (new.queries, new.max_drift) == (old.queries - repeats(verified), old.max_drift), where
                    assert new.rng.bit_generator.state == old.rng.bit_generator.state, where

    def test_one_distribution_per_iteration_count(self, monkeypatch):
        # at dim 64 the drawn counts take at most ceil(sqrt(64)) = 8 values
        exact = qsim.grover_probabilities
        calls = []

        def counted(dim, marked, iterations):
            calls.append(iterations)
            return exact(dim, marked, iterations)

        monkeypatch.setattr(qsim, "grover_probabilities", counted)
        # nothing marked: every round runs, and measures floor(u * dim)
        # without building a distribution
        x = BitString(64, 0)
        assert bbht_reference(x.bits, 64, ctx_for(3), qsim.DEFAULT_CONFIG, Counter()) is None
        rounds = len(calls)
        calls.clear()
        assert qsim._bbht(effective(x, 64), 64, ctx_for(3), qsim.DEFAULT_CONFIG) is None
        assert rounds > 20
        assert calls == []
        # rank 0 marked: this seed misses it for 20 rounds
        x = BitString(64, 1 << 63)
        assert bbht_reference(x.bits, 64, ctx_for(31988), qsim.DEFAULT_CONFIG, Counter()) == 0
        rounds = len(calls)
        calls.clear()
        assert qsim._bbht(effective(x, 64), 64, ctx_for(31988), qsim.DEFAULT_CONFIG) == 0
        assert rounds >= 20
        assert len(calls) == len(set(calls)) <= 8


class TestWindowedSearch:
    """A search over the window [start, limit) is a search of its own
    register: it draws as one over [0, limit - start) of the sliced view."""

    def test_a_window_draws_as_its_slice(self):
        rng = np.random.default_rng(31)
        for limit in range(1, 131):
            for ranks in _marked_sets(limit, rng):
                start = int(rng.integers(1, 40))
                window = [int(t in ranks) for t in range(limit)]
                # ranks outside the window are random, and must not be read
                outside = rng.integers(2, size=start + 7).tolist()
                x = BitString.from_bits(outside[:start] + window + outside[start:])
                eff = effective(x, x.n)
                view = effective(BitString.from_bits(window), limit)
                seed = (limit, len(ranks))
                new, old = ctx_for(seed), ctx_for(seed)
                got = qsim._bbht(eff, start + limit, new, qsim.DEFAULT_CONFIG, start)
                want = qsim._bbht(view, limit, old, qsim.DEFAULT_CONFIG)
                where = f"start={start} limit={limit} marked={ranks}"
                assert got == (None if want is None else start + want), where
                assert (new.queries, new.max_drift) == (old.queries, old.max_drift), where
                assert new.rng.bit_generator.state == old.rng.bit_generator.state, where

    @pytest.mark.parametrize("width", [40, 64, 100])
    def test_stages_search_disjoint_windows(self, monkeypatch, width):
        # every stage and reduction is one search: record each one's range
        # [start, limit) and answer; the stages run until one finds, and
        # the reductions after it
        cw = qsim.DEFAULT_CONFIG.classical_width
        tops = qsim._stage_ladder(cw, width)
        bbht, calls = qsim._bbht, []

        def record(eff, limit, ctx, config, start=0):
            found = bbht(eff, limit, ctx, config, start)
            calls.append((start, limit, found))
            return found

        monkeypatch.setattr(qsim, "_bbht", record)
        rng = np.random.default_rng(width)
        patterns = [()] + [
            tuple(int(t) for t in rng.choice(range(cw, width), size=k, replace=False))
            for k in (1, 1, 2, 5, width // 4) for _ in range(3)
        ]
        for i, marked in enumerate(patterns):
            x = BitString.from_bits([int(t in marked) for t in range(width)])
            calls.clear()
            res = qsim._first_one(effective(x, width), ctx_for((32, width, i)), qsim.DEFAULT_CONFIG)
            n_stages = next((k + 1 for k, call in enumerate(calls) if call[2] is not None), len(calls))
            stages, reductions = calls[:n_stages], calls[n_stages:]
            # ascending, disjoint and contiguous from rank 0 up the ladder
            assert [hi for _, hi, _ in stages] == tops[:n_stages], marked
            assert [lo for lo, _, _ in stages] == [0] + [hi for _, hi, _ in stages[:-1]], marked
            if res.rank is None:
                assert n_stages == len(tops) and not reductions, marked
                continue
            # each reduction searches the window below the candidate, until
            # one finds nothing
            lo, _, best = stages[-1]
            for call in reductions:
                assert call[:2] == (lo, best), (marked, call, lo, best)
                best = best if call[2] is None else call[2]
            assert reductions[-1][2] is None and res.rank == best + 1, marked

    @pytest.mark.parametrize("cutoff,cw", [
        pytest.param(cutoff, cw, id=f"{cutoff}" if cw == 4 else f"{cutoff}-cw{cw}")
        for cw in (4, 0) for cutoff in (0.5, 1.0, 9.0)
    ])
    def test_an_exact_answer_is_the_first_marked_rank(self, cutoff, cw):
        # repetitions share the known ranks, so later scans start some
        # windows above the known zeros and some at them; at cutoffs 0.5
        # and 1 windows miss
        config = qsim.SearchConfig(cutoff_coeff=cutoff, classical_width=cw)
        rng = np.random.default_rng(33)
        exact = missed = 0
        for trial in range(400):
            width = int(rng.integers(1, 48))
            density = rng.choice([0.0, 0.03, 0.1, 0.5])
            bits = (rng.random(width) < density).astype(int).tolist()
            true_first = bits.index(1) + 1 if 1 in bits else None
            eff = effective(BitString.from_bits(bits), width)
            ctx = ctx_for((34, trial))
            for _ in range(3):
                res = qsim._first_one(eff, ctx, config)
                if res.rank is not None:
                    assert bits[res.rank - 1] == 1, (bits, res)
                if res.exact:
                    assert res.rank == true_first, (bits, res)
                    exact += 1
                else:
                    missed += res.rank != true_first
                # the known zeros are zeros
                assert not any(bits[: eff.cleared]), (bits, eff.cleared)
        assert exact > 0
        if cutoff < 9:
            assert missed > 0


class TestDirectReads:
    """A region of at most ``classical_width`` ranks is read rank by rank,
    whichever finder asks: nothing is drawn, and its first 1 is the answer."""

    def test_narrow_stage_windows_are_read_not_amplified(self):
        # at classical_width 4 the ladder's windows [0, 4) and [4, 8) are
        # both four ranks wide
        ctx = ctx_for(36)
        state = ctx.rng.bit_generator.state
        res = qsim._first_one(effective(BitString.zeros(8), 8), ctx, qsim.SearchConfig(classical_width=4))
        assert res == qsim.DisagreementResult(None, True)
        assert ctx.queries == 8
        assert ctx.rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_narrow_any_search_reads_the_first_disagreement(self, n):
        # every n-bit pair at n <= classical_width: each repetition after
        # the first reads known ranks, free
        assert n <= qsim.DEFAULT_CONFIG.classical_width
        for value in range(1 << n):
            for ref_value in range(1 << n):
                ctx = ctx_for((37, n, value, ref_value))
                state = ctx.rng.bit_generator.state
                got = qsim.quantum_any_disagreement(BitString(n, value), BitString(n, ref_value), ctx)
                diff = value ^ ref_value
                assert got == (n - diff.bit_length() if diff else None), (value, ref_value)
                assert ctx.queries == (n if got is None else got + 1)
                assert ctx.rng.bit_generator.state == state


class CountingRng:
    """The two draws a search makes, forwarded to a seeded generator, with
    the drawn iteration counts summed: a search charges those plus its
    verifications."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.iterations = 0

    def integers(self, low, high):
        j = self.rng.integers(low, high)
        self.iterations += int(j)
        return j

    def random(self):
        return self.rng.random()


class TestKnownRanks:
    """Every rank a view's queries read is known to it, and charged once."""

    @staticmethod
    def _verifications(ctx):
        return ctx.queries - ctx.rng.iterations

    @pytest.mark.parametrize("config", [
        qsim.DEFAULT_CONFIG,
        qsim.SearchConfig(classical_width=0),
        qsim.SearchConfig(cutoff_coeff=1.0),
    ], ids=["default", "cw0", "cutoff1"])
    def test_no_rank_is_charged_twice_across_scans(self, config):
        # stages, reductions and three repetitions on one view: every
        # verification charged made a rank known, and a known rank stays
        rng = np.random.default_rng(41)
        for trial in range(200):
            width = int(rng.integers(1, 80))
            density = rng.choice([0.0, 0.02, 0.1, 0.5])
            bits = (rng.random(width) < density).astype(int).tolist()
            eff = effective(BitString.from_bits(bits), width)
            ctx = EngineContext(CountingRng((42, trial)), 1 / 15)
            known = bytes(width)
            for _ in range(3):
                qsim._first_one(eff, ctx, config)
                assert self._verifications(ctx) == eff.known.count(1), bits
                assert all(eff.known[t] for t in range(width) if known[t]), bits
                known = bytes(eff.known)

    def test_no_position_is_charged_twice_across_any_searches(self, monkeypatch):
        # the repetitions of quantum_any_disagreement share one view
        views = []
        bbht = qsim._bbht

        def record(eff, limit, ctx, config, start=0):
            views.append(eff)
            return bbht(eff, limit, ctx, config, start)

        monkeypatch.setattr(qsim, "_bbht", record)
        zeros = BitString.zeros(16)
        for value in (0, 1 << 3, 0b1010_0000_0000_0001):
            views.clear()
            ctx = EngineContext(CountingRng((43, value)), 1e-12)
            qsim.quantum_any_disagreement(BitString(16, value), zeros, ctx)
            assert len(set(map(id, views))) == 1
            assert self._verifications(ctx) == views[0].known.count(1) <= 16
            if not value:
                # nothing marked: no repetition returns, so every one runs
                assert len(views) >= 2

    def test_a_scan_draws_as_the_reference_scan(self):
        # what a view knows shapes the draws: a window whose every rank is
        # known is read for free, and an empty window's search stops at
        # its last unknown rank; the reference keeps its own record of
        # what it verified, shared by three repetitions as the view is,
        # and charges every verification, so its repeats are the difference
        rng = np.random.default_rng(44)
        configs = [qsim.DEFAULT_CONFIG, qsim.SearchConfig(classical_width=0),
                   qsim.SearchConfig(cutoff_coeff=1.0), qsim.SearchConfig(cutoff_coeff=0.5)]
        saved = 0
        for trial in range(400):
            config = configs[trial % len(configs)]
            width = int(rng.integers(1, 130))
            density = rng.choice([0.0, 0.01, 0.05, 0.3])
            bits = (rng.random(width) < density).astype(int).tolist()
            eff = effective(BitString.from_bits(bits), width)
            new, old = ctx_for((45, trial)), ctx_for((45, trial))
            verified = Counter()
            for rep in range(3):
                got = qsim._first_one(eff, new, config)
                want = first_one_reference(tuple(bits), old, config, verified)
                where = (trial, rep, bits)
                assert got.rank == want, where
                assert new.queries == old.queries - repeats(verified), where
                assert new.max_drift == old.max_drift, where
                assert new.rng.bit_generator.state == old.rng.bit_generator.state, where
                assert bytes(eff.known) == bytes(t in verified for t in range(width)), where
            saved += repeats(verified)
        assert saved > 0

    def test_a_one_rank_window_extends_the_known_zeros(self):
        # at classical_width 0 the first stages are one-rank searches: each
        # is a verification, and the zeros it finds count, so repeated
        # scans come back exact without charging a rank twice
        config = qsim.SearchConfig(classical_width=0)
        eff = effective(BitString.from_bits([int(t == 10) for t in range(16)]), 16)
        ctx = EngineContext(CountingRng(46), 1 / 15)
        results = [qsim._first_one(eff, ctx, config) for _ in range(3)]
        assert [res.rank for res in results] == [11] * 3
        assert results[1].exact and results[2].exact
        assert eff.cleared == 10
        assert self._verifications(ctx) == eff.known.count(1) <= 16


def _known_at_entry(limit, rng):
    """Views of ``limit`` ranks as ``(bits, known)``: the ranks marked and
    those known at entry, in patterns that leave some ranks unknown, only
    the zeros, nothing, or every rank but one zero or but one marked rank."""
    for _ in range(6):
        bits = (rng.random(limit) < rng.choice([0.0, 0.1, 0.3])).astype(int).tolist()
        yield bits, (rng.random(limit) < rng.choice([0.3, 0.8, 0.95])).astype(int).tolist()
        yield bits, bits
        yield bits, [1] * limit
        for value in (0, 1):
            if value in bits:
                hidden = rng.choice([t for t in range(limit) if bits[t] == value])
                yield bits, [int(t != hidden) for t in range(limit)]


class TestFullKnowledge:
    """A search ends once every rank of its window is known: at entry it
    draws nothing, and in a round it stops at the verification of the last
    unknown rank.  An unknown marked rank is returned by the round that
    measures it, so until then the draws are those of a search with no
    stop, and ``_miss_by_marked`` is still its miss law."""

    CONFIGS = [qsim.DEFAULT_CONFIG, qsim.SearchConfig(classical_width=0), qsim.SearchConfig(cutoff_coeff=1.0)]

    @staticmethod
    def _both(bits, known, limit, config, seed, stop):
        eff = effective(BitString.from_bits(bits), limit)
        eff.known[:] = bytes(known)
        verified = Counter(t for t in range(limit) if known[t])
        new, old = ctx_for(seed), ctx_for(seed)
        got = qsim._bbht(eff, limit, new, config)
        want = bbht_reference(bits, limit, old, config, verified, stop=stop)
        where = f"limit={limit} bits={bits} known={known}"
        assert got == want, where
        assert (new.queries, new.max_drift) == (old.queries - repeats(verified), old.max_drift), where
        assert new.rng.bit_generator.state == old.rng.bit_generator.state, where
        assert bytes(eff.known) == bytes(t in verified for t in range(limit)), where

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "cw0", "cutoff1"])
    def test_an_unknown_marked_rank_draws_as_with_no_stop(self, config):
        rng = np.random.default_rng(47)
        checked = 0
        for limit in [*range(2, 40), 63, 64, 100]:
            for k, (bits, known) in enumerate(_known_at_entry(limit, rng)):
                if any(b and not kn for b, kn in zip(bits, known)):
                    self._both(bits, known, limit, config, (47, limit, k), stop=False)
                    checked += 1
        assert checked > 200

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "cw0", "cutoff1"])
    def test_known_ranks_at_entry_draw_as_the_reference(self, config):
        # every pattern, against the reference that stops on its own record
        rng = np.random.default_rng(48)
        for limit in [*range(1, 40), 63, 64, 100]:
            for k, (bits, known) in enumerate(_known_at_entry(limit, rng)):
                self._both(bits, known, limit, config, (48, limit, k), stop=True)

    @pytest.mark.parametrize("limit", [5, 16, 64, 100])
    def test_a_fully_known_window_draws_nothing(self, limit):
        rng = np.random.default_rng(limit)
        for density in (0.0, 0.1, 0.5):
            bits = (rng.random(limit + 10) < density).astype(int).tolist()
            eff = effective(BitString.from_bits(bits), limit + 10)
            eff.known[:] = bytes([1]) * (limit + 10)
            ctx = ctx_for(49)
            state = ctx.rng.bit_generator.state
            got = qsim._bbht(eff, limit + 10, ctx, qsim.DEFAULT_CONFIG, 10)
            assert got == next((t for t in range(10, limit + 10) if bits[t]), None), bits
            assert (ctx.queries, ctx.max_drift) == (0, 0.0)
            assert ctx.rng.bit_generator.state == state


def _node_view(cls, x, path=(), with_node=True):
    """The view a quantum ``run_final`` scan at the node ``path`` has of
    ``x``: with the node's candidates, or (``with_node=False``) without."""
    tree = _greedy(cls.n, cls.values)
    sigma, s_value, width = tree.nodes[path]
    node = (tree, path) if with_node else None
    return qsim._Effective(x, BitString(cls.n, s_value), sigma, width, node)


class TestSkipUnderThePromise:
    """An amplified window that no candidate agreeing with the known ranks
    has a 1 in returns None, drawing and charging nothing; any other window
    draws exactly as it would with no candidates."""

    def test_a_skipped_window_draws_and_charges_nothing(self):
        cls = generate_class("hamming1", 64)
        skipped = 0
        for x in cls.members:
            eff = _node_view(cls, x)
            if eff.ranks.count(1) != 2:
                continue  # the reference, or the member whose bit is past the width
            # the first disagreement, x's own bit; every candidate with a 1
            # there has its other 1 at the reference's bit, the last rank
            hit = eff.ranks.index(1)
            eff.query(hit, ctx_for(0))
            known = bytes(eff.known)
            for start in range(0, hit - qsim.DEFAULT_CONFIG.classical_width):
                ctx = ctx_for((51, x.value, start))
                state = ctx.rng.bit_generator.state
                assert qsim._bbht(eff, hit, ctx, qsim.DEFAULT_CONFIG, start) is None
                assert (ctx.queries, ctx.max_drift) == (0, 0.0)
                assert ctx.rng.bit_generator.state == state
                assert bytes(eff.known) == known
                skipped += 1
        assert skipped > 1000

    @pytest.mark.parametrize("cls", [generate_class("hamming1", 64), generate_class("hamming", 16, k=2)],
                             ids=["hamming1-64", "hamming-16-2"])
    def test_a_window_a_candidate_may_hold_draws_as_with_no_candidates(self, cls):
        rng = np.random.default_rng(52)
        config = qsim.DEFAULT_CONFIG
        checked = marked = 0
        for k, x in enumerate(cls.members):
            node, plain = _node_view(cls, x), _node_view(cls, x, with_node=False)
            width = len(node.ranks)
            # the same ranks known to both views, a few of them
            for t in rng.choice(width, size=int(rng.integers(0, 4)), replace=False).tolist():
                node.query(t, ctx_for(0))
                plain.query(t, ctx_for(0))
            for _ in range(4):
                start = int(rng.integers(0, width - config.classical_width))
                limit = int(rng.integers(start + config.classical_width + 1, width + 1))
                if not node.holds_one(start, limit):
                    continue
                new, old = ctx_for((52, k, start, limit)), ctx_for((52, k, start, limit))
                known = bytes(node.known)
                got = qsim._bbht(node, limit, new, config, start)
                assert got == qsim._bbht(plain, limit, old, config, start)
                assert (new.queries, new.max_drift) == (old.queries, old.max_drift)
                assert new.rng.bit_generator.state == old.rng.bit_generator.state
                assert bytes(node.known) == bytes(plain.known)
                node.known[:] = plain.known[:] = known  # the next window starts as this one did
                checked += 1
                marked += 1 in node.ranks[start:limit]
        assert checked > 50 and 0 < marked < checked

    def test_every_empty_reduction_on_hamming1_is_skipped(self, monkeypatch):
        # a reduction searches [start, v) after a hit at v; on hamming1 it
        # holds a 1 only after a hit at the reference's own bit, the last
        # rank, and every other amplified reduction draws nothing
        cls = generate_class("hamming1", 64)
        calls = []
        bbht = qsim._bbht

        def record(eff, limit, ctx, config, start=0):
            before = ctx.queries, ctx.rng.bit_generator.state
            got = bbht(eff, limit, ctx, config, start)
            drew = (ctx.queries, ctx.rng.bit_generator.state) != before
            calls.append((eff, start, limit, got, drew))
            return got

        monkeypatch.setattr(qsim, "_bbht", record)
        clear_ordering_cache()
        for x in cls.members:
            for trial in range(4):
                calls.clear()
                trace = run_final(cls, x, "quantum", seed=(53, x.value, trial))
                assert trace.identified == x
                for prev, (eff, start, limit, _, drew) in zip(calls, calls[1:]):
                    if prev[0] is not eff or prev[3] != limit:
                        continue  # not a reduction
                    if limit - start <= qsim.DEFAULT_CONFIG.classical_width:
                        continue  # read directly
                    assert drew == (limit == len(eff.ranks) - 1), (x, trial, start, limit)

    def test_no_agreeing_candidate_raises(self):
        assert identify.PromiseViolation is qsim.PromiseViolation
        cls = generate_class("hamming1", 16)
        outside = BitString(16, 0b110)  # weight 2: not a member
        with pytest.raises(qsim.PromiseViolation, match="no candidate agrees"):
            run_final(cls, outside, "quantum", seed=1)
        # every rank known: no member of weight 1 has outside's ranks
        eff = _node_view(cls, outside)
        for t in range(len(eff.ranks)):
            eff.query(t, ctx_for(0))
        with pytest.raises(qsim.PromiseViolation):
            eff.holds_one(0, len(eff.ranks))


class TestEmptyWindowCost:
    """Expected raw queries of an amplified search over a window with
    nothing marked, against the exact DP of ``tests/empty_window_cost.py``."""

    @pytest.mark.parametrize("limit", [5, 6, 8, 12, 16, 31])
    @pytest.mark.parametrize("known", [0, 2])
    def test_seeded_searches_match_the_dp(self, limit, known):
        config = qsim.DEFAULT_CONFIG
        x = BitString.zeros(limit)
        costs = []
        for t in range(1500):
            eff = effective(x, limit)
            eff.known[limit - known :] = bytes([1]) * known
            ctx = ctx_for((50, limit, known, t))
            assert qsim._bbht(eff, limit, ctx, config) is None
            costs.append(ctx.queries)
        want = empty_window_cost(limit, known, config)
        sigma = np.std(costs) / math.sqrt(len(costs))
        assert abs(np.mean(costs) - want) <= 4 * sigma, (np.mean(costs), want, sigma)

    def test_the_stop_never_costs_more(self):
        for limit in range(5, 65):
            for known in (0, 2):
                stopped = empty_window_cost(limit, known, qsim.DEFAULT_CONFIG)
                assert stopped <= empty_window_cost(limit, known, qsim.DEFAULT_CONFIG, stop=False), limit

    def test_an_amplified_empty_window_costs_more_than_reading_it(self):
        # at the default cutoff every window wider than classical_width
        # and narrower than 64 ranks costs more to search than to read
        assert empty_window_cost(5, 0, qsim.DEFAULT_CONFIG) == pytest.approx(18.74, abs=0.01)
        for limit in range(qsim.DEFAULT_CONFIG.classical_width + 1, 64):
            assert empty_window_cost(limit, 0, qsim.DEFAULT_CONFIG) > limit


class TestNothingMarked:
    """With nothing marked a round measures ``floor(u * dim)``: the closed
    form of bisecting the uniform distribution's cumulative sums."""

    DIMS = [1 << k for k in range(1, 13)]

    def test_uniform_distribution_is_exact(self):
        for dim in self.DIMS:
            for j in range(math.ceil(math.sqrt(dim))):
                p_marked, p_unmarked = grover_probabilities(dim, 0, j)
                assert (p_marked, p_unmarked) == (0.0, 1 / dim), (dim, j)
                drift = abs(math.sqrt(0 * p_marked + dim * p_unmarked) - 1.0)
                assert drift == 0.0, (dim, j)

    def test_floor_is_the_bisection(self):
        rng = np.random.default_rng(7)
        for dim in self.DIMS:
            cum = np.cumsum(np.where(np.zeros(dim, dtype=bool), 0.0, 1 / dim)).tolist()
            assert cum[-1] == 1.0
            steps = [k / dim for k in range(dim)]
            us = steps + [math.nextafter(u, 0.0) for u in steps[1:]] + [math.nextafter(u, 1.0) for u in steps]
            us += rng.random(10_000).tolist()
            for u in us:
                assert int(u * dim) == bisect.bisect_right(cum, u * cum[-1]), (dim, u)


class TestEffectiveRanks:
    @pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
    def test_ranks_are_the_bitwise_disagreements(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x, s = (BitString.from_bits(rng.integers(2, size=n).tolist()) for _ in range(2))
            order = rng.permutation(n).tolist()
            for width in range(n + 1):
                eff = qsim._Effective(x, s, order, width)
                assert eff.ranks == tuple(x.bit(j) ^ s.bit(j) for j in order[:width])
                assert eff.cleared == 0

    def test_a_reference_of_another_length_is_refused(self):
        # a width outside the order: TestDisagreementFinder
        with pytest.raises(ValueError, match="^reference string length mismatch$"):
            qsim._Effective(bs("0110"), bs("000"), range(4), 4)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_a_scanned_position_outside_the_string_is_refused(self, bad):
        order = [0, 1, bad, 2]
        with pytest.raises(ValueError, match=r"^scan order entries must lie in \[0, 3\]$"):
            qsim._Effective(bs("0110"), bs("0000"), order, 3)
        # past the width too: every entry is checked, as the batch form's
        with pytest.raises(ValueError, match=r"^scan order entries must lie in \[0, 3\]$"):
            qsim._Effective(bs("0110"), bs("0000"), order, 2)


class TestFindFirstOne:
    def test_first_one_mid_string(self):
        ctx = ctx_for(3)
        res = first_one(bs("0010"), ctx)
        assert res.rank == 3 and res.exact
        assert ctx.queries == 3  # a direct read of the first window

    def test_all_zero(self):
        res = first_one(bs("0000"), ctx_for(3))
        assert res.rank is None and res.exact

    def test_all_ones(self):
        ctx = ctx_for(3)
        res = first_one(bs("1111"), ctx)
        assert res.rank == 1 and res.exact
        assert ctx.queries == 1

    @pytest.mark.parametrize("n", [8, 16])
    def test_success_rate(self, n):
        trials = 500
        hits = 0
        for t in range(trials):
            p0 = t % n
            x = BitString(n, 1 << (n - 1 - p0))
            res = first_one(x, ctx_for((4, n, t)))
            hits += res.rank == p0 + 1
        assert hits / trials >= 0.60

    def test_mean_queries_scale_with_answer(self):
        # the constant is measured, not designed: the mean over
        # sqrt(p0 + 1) is ~10 at p0 = 8 and ~24 at 50, each rank's first
        # verification included; a search that proves a short window empty
        # reads most of its ranks once and then pays only iterations, so
        # small answers are cheap and the growth is steeper than sqrt;
        # assert a bracket above each mean and that the means grow
        n = 64
        means = {}
        for p0 in (8, 20, 50):
            qs = []
            for t in range(60):
                ctx = ctx_for((5, p0, t))
                x = BitString(n, 1 << (n - 1 - p0))
                first_one(x, ctx)
                qs.append(ctx.queries)
            means[p0] = np.mean(qs)
            assert means[p0] <= 30 * math.sqrt(p0 + 1)
        assert means[8] < means[20] < means[50]

    def test_never_returns_an_unmarked_position(self):
        rng_master = np.random.default_rng(77)
        for t in range(200):
            value = int(rng_master.integers(0, 1 << 12))
            x = BitString(12, value)
            res = first_one(x, ctx_for((6, t)))
            if res.rank is not None:
                assert x.bit(res.rank - 1) == 1

    def test_search_wider_than_64_bits(self):
        # the model holds two amplitudes, so the width is not memory-capped
        n = 100
        x = BitString(n, 1 << (n - 1 - 70))
        for t in range(20):
            res = first_one(x, ctx_for((10, t)))
            assert res.rank in (71, None)


class TestDisagreementFinder:
    def test_examples(self):
        cases = [("100", "010", 1), ("010", "010", None), ("001", "010", 2)]
        for xs, ss, expect in cases:
            res = quantum_disagreement_finder(bs(xs), bs(ss), (0, 1, 2), 3, ctx_for(4))
            assert res.rank == expect

    def test_scan_order_is_respected(self):
        # bits 1 and 2 differ; under sigma starting at bit 2 the first
        # disagreement sits at rank 1
        res = quantum_disagreement_finder(bs("011"), bs("010"), (2, 1, 0), 3, ctx_for(8))
        assert res.rank == 1

    def test_statistics_beyond_classical_prefix(self):
        n, trials, hits = 32, 400, 0
        for t in range(trials):
            p0 = 5 + (t % 24)
            x = BitString(n, 1 << (n - 1 - p0))
            res = quantum_disagreement_finder(
                x, BitString.zeros(n), tuple(range(n)), n, ctx_for((9, t))
            )
            hits += res.rank == p0 + 1
        assert hits / trials >= 0.60

    def test_repetitions_share_the_cleared_prefix(self, monkeypatch):
        # nothing is marked and no scan of 64 ranks reads them all, so
        # several repetitions run; each starts at the known zeros the
        # earlier ones left, so the windows [0, 4) and [4, 8), read
        # directly, are read only once
        width = 64
        scanned, searches, views = [], [], set()
        query, bbht = qsim._Effective.query, qsim._bbht

        def record_query(eff, t, ctx):
            scanned.append(t)
            return query(eff, t, ctx)

        def record_search(eff, limit, ctx, config, start=0):
            views.add(eff)
            searches.append((start, limit, eff.cleared))
            return bbht(eff, limit, ctx, config, start)

        # with nothing marked only a direct read queries rank by rank
        monkeypatch.setattr(qsim._Effective, "query", record_query)
        monkeypatch.setattr(qsim, "_bbht", record_search)
        zeros = BitString.zeros(width)
        res = quantum_disagreement_finder(zeros, zeros, range(width), width, ctx_for(0, 1e-12))
        (eff,) = views
        assert res == qsim.DisagreementResult(None, eff.cleared == width)
        assert sum(limit == width for _, limit, _ in searches) >= 2  # one per repetition
        assert all(start >= cleared for start, _, cleared in searches)
        assert sorted(t for t in scanned if t < 8) == list(range(8))

    def test_an_answer_is_exact_once_the_repetitions_prove_the_ranks_below_it(self, monkeypatch):
        # at this seed four repetitions find rank 18 with ranks 8-16 unread,
        # and the fifth finds nothing but reads them all: the call's answer
        # is exact though no repetition's is
        x = bs("0" * 17 + "1" + "0" * 19)
        config = qsim.SearchConfig(cutoff_coeff=1.0)
        scans, first_one = [], qsim._first_one

        def record(eff, ctx, config):
            scans.append((first_one(eff, ctx, config), eff.cleared))
            return scans[-1][0]

        monkeypatch.setattr(qsim, "_first_one", record)
        res = quantum_disagreement_finder(x, BitString.zeros(37), range(37), 37, ctx_for((0, 3419), 0.01), config)
        assert res == qsim.DisagreementResult(18, True)
        assert not any(scan.exact for scan, _ in scans)
        assert [cleared for _, cleared in scans] == [8, 8, 8, 8, 17]

    def test_any_marked_search_repeats_to_the_budget(self, monkeypatch):
        # nothing marked: every repetition runs and misses
        n, budget = 16, 1e-12
        limits = []
        bbht = qsim._bbht
        monkeypatch.setattr(qsim, "_bbht", lambda *a: limits.append(a[1]) or bbht(*a))
        zeros = BitString.zeros(n)
        assert QuantumFinder().find_any(zeros, zeros, ctx_for(0, budget)) is None
        repetitions = repetitions_for_budget(budget, qsim.bbht_failure(qsim.search_dim(n)))
        assert repetitions >= 2
        assert limits == [n] * repetitions

    @pytest.mark.parametrize("width", [-1, 5])
    def test_a_width_outside_the_scan_order_is_refused(self, width):
        with pytest.raises(ValueError, match=rf"width {width} outside \[0, 4\]"):
            quantum_disagreement_finder(bs("0110"), bs("0000"), range(4), width, ctx_for(0))

    def test_repetition_count(self):
        assert repetitions_for_budget(1 / 15, 1 / 3) == 3
        assert repetitions_for_budget(1 / 28, 1 / 3) == 4
        assert repetitions_for_budget(1 / 100, 1 / 3) == 5
        with pytest.raises(ValueError):
            repetitions_for_budget(0.0, 1 / 3)


def _enumerated_miss(limit, marked, config):
    """Probability that ``_bbht`` misses, by walking its draw tree path by path.

    Success probabilities come from the reference statevector.  Runs that
    draw zero iterations stay put, so the tree is infinite; paths below
    1e-20 are cut, and their total is returned beside the miss.
    """
    dim = 1 << (limit - 1).bit_length()
    qubits = dim.bit_length() - 1
    hit = []
    for j in range(math.ceil(math.sqrt(dim))):
        amps = ref.grover_run(ref.uniform_with_minus_target(qubits), marked, j)
        hit.append(ref.index_probabilities(amps)[marked].sum())
    budget = config.cutoff_coeff * math.sqrt(limit)
    miss = cut = 0.0
    stack = [(1.0, 0, 1.0)]  # path probability, iterations used, window m
    while stack:
        prob, used, m = stack.pop()
        if used > budget:
            miss += prob
        elif prob < 1e-20:
            cut += prob
        else:
            draws = math.ceil(m)
            m_next = min(m * config.growth, math.sqrt(dim))
            for j in range(draws):
                stack.append((prob / draws * (1.0 - hit[j]), used + j, m_next))
    return miss, cut


class TestFailureBound:
    def test_dp_matches_draw_tree_enumeration(self):
        config = qsim.SearchConfig(cutoff_coeff=1.0)
        rng = np.random.default_rng(13)
        for dim in (2, 4, 8):
            for limit in range(dim // 2 + 1, dim + 1):
                dp = qsim._miss_by_marked(limit, config)
                for n_marked in range(1, limit + 1):
                    marked = np.zeros(dim, dtype=bool)
                    marked[rng.choice(limit, size=n_marked, replace=False)] = True
                    miss, cut = _enumerated_miss(limit, marked, config)
                    assert cut < 1e-13
                    assert dp[n_marked - 1] == pytest.approx(miss, rel=0, abs=1e-12), (
                        f"limit={limit} K={n_marked}"
                    )

    @pytest.mark.parametrize(
        "cutoff,limit,n_marked", [(0.5, 32, 1), (0.5, 12, 1), (0.3, 8, 4)]
    )
    def test_dp_matches_monte_carlo(self, cutoff, limit, n_marked):
        config = qsim.SearchConfig(cutoff_coeff=cutoff)
        p = qsim._miss_by_marked(limit, config)[n_marked - 1]
        trials, misses = 4000, 0
        for t in range(trials):
            x = BitString(limit, sum(1 << (2 * i + 1) for i in range(n_marked)))
            v = unknown_count_search(x, limit, ctx_for((12, limit, t)), config=config)
            misses += v is None
        assert p > 0.05  # the band below is only informative where misses are common
        assert abs(misses / trials - p) <= 4 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("cutoff,width", [(2.0, 8), (3.0, 16)])
    def test_observed_scans_stay_within_the_bound(self, cutoff, width):
        # at these configs the union bound is computed (below 1/3), not
        # assumed; every single-marked pattern and a few multi-marked ones
        config = qsim.SearchConfig(cutoff_coeff=cutoff)
        bound = scan_failure(width, config)
        assert bound < 1 / 3
        trials = 300
        sigma = math.sqrt(bound * (1 - bound) / trials)
        patterns = [(p,) for p in range(width)]
        patterns += [(1, 5), (width - 3, width - 1), (0, width - 1), tuple(range(width // 2, width))]
        for i, marked in enumerate(patterns):
            x = BitString.from_bits([int(t in marked) for t in range(width)])
            wrong = 0
            for trial in range(trials):
                ctx = ctx_for((35, width, i, trial))
                res = qsim._first_one(effective(x, width), ctx, config)
                wrong += res.rank != min(marked) + 1
            assert wrong / trials <= bound + 3 * sigma, (marked, wrong)

    def test_worst_case_at_default_constants(self):
        worst = max(qsim.bbht_failure(1 << k) for k in range(8))  # every limit <= 128
        assert worst == pytest.approx(3.23e-5, abs=1e-7)

    def test_smallest_limit_bounds_its_class(self):
        for dim in (4, 16, 32):
            for limit in range(dim // 2 + 1, dim + 1):
                assert qsim._miss_by_marked(limit, qsim.DEFAULT_CONFIG).max() <= (
                    qsim.bbht_failure(dim)
                )

    def test_failure_non_increasing_in_cutoff(self):
        for dim in (4, 16, 64):
            values = [
                qsim.bbht_failure(dim, qsim.SearchConfig(cutoff_coeff=c))
                for c in (1.0, 2.0, 3.0, 4.5, 9.0, 12.0)
            ]
            assert all(a >= b for a, b in zip(values, values[1:])), values

    def test_single_candidate_and_bad_dim(self):
        assert qsim.bbht_failure(1) == 0.0
        with pytest.raises(ValueError):
            qsim.bbht_failure(12)

    def test_scan_bound_is_the_union_bound(self):
        worst = max(qsim.bbht_failure(1 << k) for k in range(1, 7))
        assert scan_failure(63) == pytest.approx((5 + 63) * worst)  # ladder 4..63
        assert scan_failure(63) == pytest.approx(2.2e-3, abs=1e-4)
        assert scan_failure(1) == 0.0
        assert scan_failure(200, qsim.SearchConfig(cutoff_coeff=1.0)) == 1 / 3

    def test_wide_scans_skip_the_costly_dims(self, monkeypatch):
        limits = []
        dp = qsim._miss_by_marked

        def recording(limit, config):
            limits.append(limit)
            return dp(limit, config)

        monkeypatch.setattr(qsim, "_miss_by_marked", recording)
        # past MAX_CERTIFIED_DIM nothing runs: the textbook 1/3, assumed
        assert scan_failure(20000) == 1 / 3
        assert qsim.bbht_failure(2 * qsim.MAX_CERTIFIED_DIM) == 1 / 3
        assert limits == []
        # with a small cutoff (a config no other test memoizes) the union
        # bound reaches 1/3 at a small dim, and the larger DPs never run
        assert scan_failure(1000, qsim.SearchConfig(cutoff_coeff=1.25)) == 1 / 3
        assert limits == [2]

    def test_wide_quantum_finders_run_no_dp(self, monkeypatch):
        limits = []
        dp = qsim._miss_by_marked
        monkeypatch.setattr(qsim, "_miss_by_marked", lambda *a: limits.append(a) or dp(*a))
        n, p0 = 20000, 12345
        x = BitString(n, 1 << (n - 1 - p0))
        zeros = BitString.zeros(n)
        res = quantum_disagreement_finder(x, zeros, range(n), n, ctx_for(4, 1 / 21))
        assert res.rank == p0 + 1
        assert QuantumFinder().find_any(x, zeros, ctx_for(5, 1 / 21)) == p0
        assert limits == []

    def test_certified_repetitions_hamming1_64(self):
        budget = _new_context(generate_class("hamming1", 64), 0).error_budget
        assert repetitions_for_budget(budget, scan_failure(63)) == 1

    def test_repetition_rule_with_certified_rate(self):
        assert repetitions_for_budget(1 / 33, 0.0334) == 2
        assert repetitions_for_budget(1 / 33, 0.0) == 1
        assert repetitions_for_budget(0.01, 0.01) == 1
        with pytest.raises(ValueError):
            repetitions_for_budget(0.1, 1.0)

    def test_memo_outlives_the_ordering_cache(self):
        scan_failure(40)
        size = qsim.bbht_failure.cache_info().currsize
        clear_ordering_cache()
        hits = scan_failure.cache_info().hits
        scan_failure(40)
        assert scan_failure.cache_info().hits == hits + 1
        assert qsim.bbht_failure.cache_info().currsize == size


class TestDeterminismAndNorm:
    def test_identical_seeds_identical_outcomes(self):
        for seed in (0, 1, 99):
            runs = []
            for _ in range(2):
                ctx = ctx_for(seed)
                res = first_one(bs("0000000000000001"), ctx)
                runs.append((res, ctx.queries, ctx.max_drift))
            assert runs[0] == runs[1]

    def test_norm_preserved_across_many_operations(self):
        dim, n_marked = 32, 3
        worst = 0.0
        for j in range(10_001):
            p_marked, p_unmarked = grover_probabilities(dim, n_marked, j)
            norm = math.sqrt(n_marked * p_marked + (dim - n_marked) * p_unmarked)
            worst = max(worst, abs(norm - 1.0))
        assert worst < 1e-9

    def test_a_raise_charges_what_the_reference_charges(self, monkeypatch):
        # rounds that draw j = 0 pass; the first j > 0 fails its norm check
        exact = qsim.grover_probabilities
        monkeypatch.setattr(qsim, "grover_probabilities",
                            lambda dim, marked, j: exact(dim, marked, j) if j == 0 else (1.0, 1.0))
        x = bs("0001000000000000")
        new, old = ctx_for(4), ctx_for(4)
        verified = Counter()
        with pytest.raises(RuntimeError, match="norm drifted"):
            qsim._bbht(effective(x, 16), 16, new, qsim.DEFAULT_CONFIG)
        with pytest.raises(RuntimeError, match="norm drifted"):
            bbht_reference(x.bits, 16, old, qsim.DEFAULT_CONFIG, verified)
        assert new.queries > 0
        assert (new.queries, new.max_drift) == (old.queries - repeats(verified), old.max_drift)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state

    def test_blown_norm_raises_in_the_search(self, monkeypatch):
        monkeypatch.setattr(qsim, "grover_probabilities", lambda dim, marked, j: (1.0, 1.0))
        ctx = ctx_for(0)
        with pytest.raises(RuntimeError, match="norm drifted"):
            unknown_count_search(bs("00010000"), 8, ctx)
        assert ctx.max_drift == pytest.approx(math.sqrt(8) - 1.0)
