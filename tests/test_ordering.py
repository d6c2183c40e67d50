import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import greedy_reference
from helpers import PIPELINE_CLASSES, random_class, subsets_of_cube
from partition_reference import filter_by_disagreement, verify_ordering_walk
from oracleid import qsim, sdp
from oracleid.bitstrings import BitString, ConceptClass, bit_columns, generate_class
from oracleid.identify import identify_all, run_final, run_halving_basic, run_halving_improved
from oracleid.ordering import (
    Ordering,
    _greedy,
    _rank_view,
    clear_ordering_cache,
    first_disagreement_rank,
    hegedus_ordering,
    node_candidates,
    verify_ordering,
)


def bs(text):
    return BitString.from_str(text)


class TestGreedyExamples:
    def test_full_two_cube(self):
        # ties everywhere: lowest bit first, majority tie resolves to 1
        order = hegedus_ordering(generate_class("cube", 2))
        assert order.sigma == (0, 1)
        assert order.s == bs("11")
        assert [len(b) for b in order.elim_sets] == [2, 1]
        assert verify_ordering(generate_class("cube", 2), order) == pytest.approx(1.0)

    def test_weight_one_three_bits(self):
        cls = generate_class("hamming1", 3)
        order = hegedus_ordering(cls)
        assert order.sigma == (0, 1, 2)
        assert order.s == bs("010")
        assert [len(b) for b in order.elim_sets] == [1, 1, 0]
        assert verify_ordering(cls, order) == pytest.approx(2 / 3)

    def test_singleton(self):
        order = hegedus_ordering([bs("0110")])
        assert order.sigma == (0, 1, 2, 3)
        assert order.s == bs("0110")
        assert all(len(b) == 0 for b in order.elim_sets)
        assert order.width == 0
        assert verify_ordering([bs("0110")], order) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hegedus_ordering([])


class TestGuarantee:
    def test_exhaustive_three_cube_subsets(self):
        for subset in subsets_of_cube(3):
            order = hegedus_ordering(subset)
            assert verify_ordering(subset, order) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 20))
    def test_random_sets_n6(self, seed, size):
        cls = random_class(np.random.default_rng(seed), 6, size)
        order = hegedus_ordering(cls)
        assert verify_ordering(cls, order) <= 1.0

    def test_elimination_sizes_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            cls = random_class(rng, 5, int(rng.integers(2, 20)))
            sizes = [len(b) for b in hegedus_ordering(cls).elim_sets]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_first_disagreement_partition(self):
        # elimination sets partition the members, up to s itself
        rng = np.random.default_rng(9)
        for _ in range(80):
            cls = random_class(rng, 5, int(rng.integers(1, 20)))
            order = hegedus_ordering(cls)
            total = sum(len(b) for b in order.elim_sets)
            if order.s in cls:
                assert total + 1 == cls.size
            else:
                assert total == cls.size

    def test_elim_sets_match_their_definition(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            cls = random_class(rng, 5, int(rng.integers(2, 16)))
            order = hegedus_ordering(cls)
            for p, block in enumerate(order.elim_sets, start=1):
                expected = {
                    y
                    for y in cls.members
                    if first_disagreement_rank(y, order.s, order.sigma) == p
                }
                assert set(block) == expected


class TestVerifyOrdering:
    def test_detects_bad_orderings(self):
        # all variation in the last two bits, scanned last: rank 3 holds two
        # of the four strings, ratio 2 * 3 / 4 = 1.5
        cls = ConceptClass.from_values(4, range(4))
        bad = Ordering(
            sigma=(0, 1, 2, 3),
            s=bs("0000"),
            elim_sets=((),) * 4,
            width=4,
        )
        assert verify_ordering(cls, bad) == pytest.approx(1.5)

    def test_requires_permutation(self):
        cls = generate_class("cube", 2)
        order = Ordering(sigma=(0, 0), s=bs("11"), elim_sets=((), ()), width=2)
        with pytest.raises(ValueError):
            verify_ordering(cls, order)

    @staticmethod
    def _random_order(rng, n):
        sigma = tuple(int(v) for v in rng.permutation(n))
        return Ordering(sigma, BitString(n, int(rng.integers(0, 1 << n))), (), n)

    def test_same_ratio_as_the_walk_on_every_subset_of_the_3_cube(self):
        rng = np.random.default_rng(33)
        for subset in subsets_of_cube(3):
            for order in (hegedus_ordering(subset), self._random_order(rng, 3)):
                assert verify_ordering(subset, order) == verify_ordering_walk(subset, order)

    def test_same_ratio_as_the_walk_on_seeded_subsets_of_the_4_cube(self):
        rng = np.random.default_rng(34)
        for _ in range(400):
            cls = random_class(rng, 4, int(rng.integers(1, 17)))
            for order in (hegedus_ordering(cls), self._random_order(rng, 4)):
                assert verify_ordering(cls, order) == verify_ordering_walk(cls, order)

    def test_requires_a_reference_of_the_class_length(self):
        # a 5-bit reference whose low 3 bits are a good one is still refused
        cls = generate_class("cube", 3)
        good = hegedus_ordering(cls)
        long = Ordering(good.sigma, BitString(5, 0b11000 | good.s.value), good.elim_sets,
                        good.width)
        with pytest.raises(ValueError, match="reference string length mismatch"):
            verify_ordering(cls, long)


class TestWidth:
    def test_width_bounds_every_disagreement_rank(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            cls = random_class(rng, 6, int(rng.integers(2, 24)))
            order = hegedus_ordering(cls)
            for y in cls.members:
                rank = first_disagreement_rank(y, order.s, order.sigma)
                assert rank is None or rank <= order.width

    def test_survivor_beyond_width_is_unique(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            cls = random_class(rng, 6, int(rng.integers(1, 24)))
            order = hegedus_ordering(cls)
            agreeing = [
                y
                for y in cls.members
                if first_disagreement_rank(y, order.s, order.sigma, order.width) is None
            ]
            assert len(agreeing) <= 1
            # and when someone survives, s extends them exactly
            for y in agreeing:
                assert y == order.s


class TestFirstDisagreementRank:
    def test_examples(self):
        sigma = (0, 1, 2)
        assert first_disagreement_rank(bs("100"), bs("010"), sigma) == 1
        assert first_disagreement_rank(bs("001"), bs("010"), sigma) == 2
        assert first_disagreement_rank(bs("010"), bs("010"), sigma) is None

    def test_respects_width(self):
        assert first_disagreement_rank(bs("001"), bs("000"), (0, 1, 2), width=2) is None

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="reference string length mismatch"):
            first_disagreement_rank(bs("000"), bs("0001"), (0, 1, 2))

    @pytest.mark.parametrize("sigma, width", [
        ((0, 1, 2, 3), 9),  # was scanned as 4
        ((0, 1, 2, 3), 5),
        ((0, 1, 2, 3), -1),
        ((), 1),
    ], ids=["width-9-of-4", "width-5-of-4", "negative-width", "empty-order"])
    def test_a_width_outside_the_order_is_refused(self, sigma, width):
        with pytest.raises(ValueError, match=rf"^width {width} outside \[0, {len(sigma)}\], the scan order's length$"):
            first_disagreement_rank(bs("1000"), bs("0000"), sigma, width)

    @pytest.mark.parametrize("sigma, width", [
        ((0, 4, 1, 2), None),  # past the first hit: a lazy scan never read it
        ((0, 1, 2, 9), 4),
        ((-1, 0, 1, 2), 4),  # before the first hit
        ((3, -4), 2),
    ], ids=["past-the-bits-after-the-hit", "past-the-bits-last", "negative-before-the-hit", "negative-last"])
    def test_order_entries_outside_the_bits_are_refused(self, sigma, width):
        with pytest.raises(ValueError, match=r"^scan order entries must lie in \[0, 3\]$"):
            first_disagreement_rank(bs("1000"), bs("0000"), sigma, width)

    def test_entries_past_the_width_are_refused(self):
        # every entry is checked, as the batch form reads every entry
        for sigma, width in [((0, 1, 2, 9), 3), ((3, -1), 1), ((9,), 0)]:
            with pytest.raises(ValueError, match=r"^scan order entries must lie in \[0, 3\]$"):
                first_disagreement_rank(bs("0001"), bs("0000"), sigma, width)


# every form of the first-disagreement rank, called on one member ``x``
RANK_FORMS = {
    "member": lambda x, s, order, width: first_disagreement_rank(x, s, order, width),
    "view": lambda x, s, order, width: qsim._Effective(x, s, order, width).ranks,
    "batch": lambda x, s, order, width: sdp.first_disagreement_ranks(
        ConceptClass.of([x]), order, s, width),
    "solution": lambda x, s, order, width: sdp.find_first_one_solution(
        x.n, order, s, domain=[x], width=width).parts[0].rank,
}

WIDTH_MESSAGE = r"^width {} outside \[0, {}\], the scan order's length$"
ENTRY_MESSAGE = r"^scan order entries must lie in \[0, 3\]$"
NOT_AN_INTEGER = r"^scan order entries must be integers$"


class TestOneRule:
    """Every form refuses every input that any of them refuses, with one
    message: the rows of each form's own refusal tests, and the inputs the
    forms once read differently."""

    ROWS = {
        # the reference's length
        "reference-short": ("0110", "000", range(4), 4, "^reference string length mismatch$"),
        "reference-long": ("000", "0001", (0, 1, 2), 3, "^reference string length mismatch$"),
        # the width, in [0, len(order)]
        "width-9-of-4": ("1000", "0000", (0, 1, 2, 3), 9, WIDTH_MESSAGE.format(9, 4)),
        "width-5-of-4": ("1000", "0000", (0, 1, 2, 3), 5, WIDTH_MESSAGE.format(5, 4)),
        "negative-width": ("1000", "0000", (0, 1, 2, 3), -1, WIDTH_MESSAGE.format(-1, 4)),
        "width-past-the-empty-order": ("1000", "0000", (), 1, WIDTH_MESSAGE.format(1, 0)),
        "width-past-a-short-order": ("1000", "0000", (0, 1, 2), 4, WIDTH_MESSAGE.format(4, 3)),
        # a width that is no integer: 2.5 was truncated by the batch form
        "fractional-width": ("1000", "0000", (0, 1, 2, 3), 2.5, r"^width must be an integer, got 2\.5$"),
        "float-width": ("1000", "0000", (0, 1, 2, 3), 2.0, r"^width must be an integer, got 2\.0$"),
        "bool-width": ("1000", "0000", (0, 1, 2, 3), True, "^width must be an integer, got True$"),
        "text-width": ("1000", "0000", (0, 1, 2, 3), "3", "^width must be an integer, got '3'$"),
        "numpy-float-width": ("1000", "0000", (0, 1, 2, 3), np.float64(3), "^width must be an integer"),
        # entries outside the bits, within the width
        "past-the-bits-after-the-hit": ("1000", "0000", (0, 4, 1, 2), 4, ENTRY_MESSAGE),
        "past-the-bits-last": ("1000", "0000", (0, 1, 2, 9), 4, ENTRY_MESSAGE),
        "negative-before-the-hit": ("1000", "0000", (-1, 0, 1, 2), 4, ENTRY_MESSAGE),
        "negative-last": ("1000", "0000", (3, -4), 2, ENTRY_MESSAGE),
        "negative-in-a-short-order": ("1000", "0000", (-1, 1, 2), 3, ENTRY_MESSAGE),
        "past-the-bits-in-a-short-order": ("1000", "0000", (0, 1, 7), 3, ENTRY_MESSAGE),
        # entries outside the bits past the width: every entry is checked
        "past-the-bits-past-the-width": ("0001", "0000", (0, 1, 2, 9), 3, ENTRY_MESSAGE),
        "negative-past-the-width": ("0001", "0000", (3, -1), 1, ENTRY_MESSAGE),
        "past-the-bits-at-width-0": ("0001", "0000", (9,), 0, ENTRY_MESSAGE),
        "negative-after-the-scan": ("0110", "0000", (0, 1, -1, 2), 2, ENTRY_MESSAGE),
        "past-the-bits-after-the-scan": ("0110", "0000", (0, 1, 4, 2), 2, ENTRY_MESSAGE),
        "both-past-the-width": ("0001", "0000", (0, 1, -2, 9), 2, ENTRY_MESSAGE),
        # entries that are no integers, scanned or not
        "fractional-entry": ("1000", "0000", (0, 1, 2.5, 3), 4, NOT_AN_INTEGER),
        "float-entry": ("1000", "0000", (0, 1.0, 2, 3), 4, NOT_AN_INTEGER),
        "text-entry-past-the-width": ("1000", "0000", (0, 1, 2, "3"), 3, NOT_AN_INTEGER),
        "none-entry-past-the-width": ("1000", "0000", (0, 1, 2, None), 1, NOT_AN_INTEGER),
        "numpy-float-entries": ("1000", "0000", np.arange(4.0), 4, NOT_AN_INTEGER),
    }

    @pytest.mark.parametrize("form", sorted(RANK_FORMS))
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_every_form_refuses_with_one_message(self, form, row):
        x, s, order, width, message = self.ROWS[row]
        with pytest.raises(ValueError, match=message):
            RANK_FORMS[form](bs(x), bs(s), order, width)

    @pytest.mark.parametrize("form", sorted(RANK_FORMS))
    def test_numpy_integers_are_integers(self, form):
        x, s = bs("0010"), bs("0000")
        want = RANK_FORMS[form](x, s, (3, 2, 1, 0), 3)
        got = RANK_FORMS[form](x, s, np.arange(4)[::-1], np.int64(3))
        assert np.array_equal(got, want)


class TestPartitionAgainstReference:
    @pytest.mark.parametrize("cls", [
        generate_class("hamming1", 16),
        generate_class("random", 12, size=200, seed=1),
    ], ids=["hamming1-16", "random-12-200"])
    def test_elimination_sets_are_the_survivors(self, cls):
        # every node of the pruning tree is the greedy ordering of its own
        # members, and its block for rank p is what bit-by-bit pruning
        # after a hit at rank p keeps
        nodes, members = _greedy(cls.n, cls.values)[:2]
        path_of = {v: path for path, v in members.items()}
        for path, (sigma, s_value, width) in nodes.items():
            below = [x for x in cls.members if path_of[x.value][: len(path)] == path]
            order = hegedus_ordering(below)
            assert (order.sigma, order.s.value, order.width) == (sigma, s_value, width)
            for p in range(1, width + 1):
                kept = filter_by_disagreement(below, sigma, order.s, p, True)
                assert kept == order.elim_sets[p - 1]
                assert (len(kept) > 1) == (path + (p,) in nodes)
            # past the width only s itself agrees
            assert filter_by_disagreement(below, sigma[:width], order.s, None, False) == (order.s,)


def _reference_tree(n, values):
    """Nodes and settled members of the pruning tree, walked with the
    reference greedy in the order ``identify_all`` settles members."""
    nodes, members = {}, {}

    def grow(vals, path):
        sigma, s_value, elim, width = greedy_reference._greedy(n, tuple(vals))
        nodes[path] = (sigma, s_value, width)
        for p, block in enumerate(elim[:width], start=1):
            if len(block) == 1:
                members[path + (p,)] = block[0]
            else:
                grow(block, path + (p,))
        members[path] = s_value

    grow(values, ())
    return nodes, members


def _assert_ordering_matches_reference(n, values):
    order = hegedus_ordering(ConceptClass.from_values(n, values))
    sigma, s_value, elim, width = greedy_reference._greedy(n, tuple(values))
    assert (order.sigma, order.s.value, order.width) == (sigma, s_value, width)
    assert tuple(tuple(x.value for x in block) for block in order.elim_sets) == elim


def _assert_tree_matches_reference(n, values):
    nodes, members = _greedy(n, values)[:2]
    want_nodes, want_members = _reference_tree(n, values)
    assert nodes == want_nodes
    assert list(members.items()) == list(want_members.items())


def _differential_classes():
    rng = np.random.default_rng(41)
    out = {}
    for n in (1, 2, 3, 5, 8, 13, 20):
        for size in (1, 2, 3, 17, 60):
            if size <= 1 << n:
                out[f"random-{n}-{size}"] = random_class(rng, n, size)
    # ties everywhere: every bit splits the cube evenly
    out["cube-4"] = generate_class("cube", 4)
    out["prefix-9-3"] = generate_class("prefix", 9, free_bits=3)
    for n in (2, 7, 33, 128):
        out[f"hamming1-{n}"] = generate_class("hamming1", n)
    out["hamming-12-2"] = generate_class("hamming", 12, k=2)
    out["hamming-pair-9-3"] = generate_class("hamming-pair", 9, k=3)
    # more than 64 bits, and bit counts that are no multiple of 8
    out["random-70-40"] = generate_class("random", 70, size=40, seed=3)
    out["random-131-25"] = generate_class("random", 131, size=25, seed=4)
    out["random-13-300"] = generate_class("random", 13, size=300, seed=5)
    return out


DIFFERENTIAL = _differential_classes()


class TestGreedyAgainstReference:
    """The bit-column greedy and the pruning tree agree exactly with the
    value-tuple greedy they replaced, tie-breaks and block order included."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_greedy_matches(self, name):
        cls = DIFFERENTIAL[name]
        values = cls.values
        for vals in (values, values[: len(values) // 2 + 1]):
            _assert_ordering_matches_reference(cls.n, vals)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_tree_matches(self, name):
        cls = DIFFERENTIAL[name]
        clear_ordering_cache()
        _assert_tree_matches_reference(cls.n, cls.values)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 10), st.integers(1, 40))
    def test_random_small_classes(self, seed, n, size):
        cls = random_class(np.random.default_rng(seed), n, min(size, 1 << n))
        _assert_ordering_matches_reference(n, cls.values)
        _assert_tree_matches_reference(n, cls.values)


class TestColumns:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
    def test_bit_i_of_column_j_is_bit_j_of_member_i(self, n):
        rng = np.random.default_rng(n)
        values = [int.from_bytes(rng.bytes(-(-n // 8)), "big") >> (-n % 8) for _ in range(37)]
        cols = bit_columns(n, values)
        assert len(cols) == n
        for j, col in enumerate(cols):
            for i, v in enumerate(values):
                assert (col >> i) & 1 == (v >> (n - 1 - j)) & 1


NODE_CLASSES = {
    **PIPELINE_CLASSES,
    **{f"hamming1-{n}": (lambda n=n: generate_class("hamming1", n)) for n in (16, 32, 64)},
    "hamming-16-2": lambda: generate_class("hamming", 16, k=2),
}


class TestNodeCandidates:
    """A pruning-tree node's candidates are the members whose rank path
    passes through it, and only an amplified search window builds them."""

    @pytest.mark.parametrize("name", sorted(NODE_CLASSES))
    def test_candidates_are_the_members_below(self, name):
        cls = NODE_CLASSES[name]()
        clear_ordering_cache()
        tree = _greedy(cls.n, cls.values)
        path_of = {x.value: trace.positions for x, trace in identify_all(cls).items()}
        settled = list(tree.members.values())
        for path, (sigma, s_value, width) in tree.nodes.items():
            everyone, cols = node_candidates(tree, path)
            lo, hi = tree.spans[path]
            cands = settled[lo:hi]
            assert sorted(cands) == sorted(v for v in cls.values if path_of[v][: len(path)] == path)
            assert everyone == (1 << len(cands)) - 1 and len(cols) == width
            # bit i of column t is rank t of the i-th candidate
            for i, v in enumerate(cands):
                ranks = tuple(col >> i & 1 for col in cols)
                assert ranks == _rank_view(v ^ s_value, cls.n, sigma[:width])
        assert set(tree.candidates) == set(tree.nodes)
        clear_ordering_cache()
        assert not _greedy(cls.n, cls.values).candidates

    @pytest.mark.parametrize("name", ["hamming1-64", "random-13-400"])
    def test_only_amplified_windows_build_them(self, name):
        cls = NODE_CLASSES[name]()
        clear_ordering_cache()
        identify_all(cls)
        pipe = sdp.oracle_id_pipeline(cls)
        for solution, target in zip(pipe.stage_solutions, pipe.stage_targets):
            sdp.verify_feasible(target, solution)
        sdp.verify_feasible(np.ones((cls.size,) * 2) - np.eye(cls.size), pipe.solution)
        x = cls.members[0]
        run_final(cls, x)
        for runner in (run_halving_basic, run_halving_improved):
            runner(cls, x, "quantum", seed=1)
        tree = _greedy(cls.n, cls.values)
        assert not tree.candidates
        # a quantum run reads them at its first amplified window: hamming1's
        # one node scans 63 ranks; the random class's widest scans 9, so
        # its windows are at most 4 ranks wide and read directly
        run_final(cls, x, "quantum", seed=1)
        assert list(tree.candidates) == ([()] if name.startswith("hamming1") else [])
