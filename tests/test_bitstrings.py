import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import FunctionTable, majority_string, preimage, subsets_of_cube
from partition_reference import filter_by_disagreement
from oracleid.bitstrings import (
    BitString,
    ConceptClass,
    bit_matrix,
    generate_class,
)


def bs(text):
    return BitString.from_str(text)


class TestBitString:
    def test_round_trip(self):
        for text in ["0", "1", "0110", "00001"]:
            assert str(bs(text)) == text

    def test_bit_indexing_msb_first(self):
        x = bs("0110")
        assert x.bits == (0, 1, 1, 0)
        assert x.bit(1) == 1 and x.bit(3) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bs("01a")
        with pytest.raises(ValueError):
            BitString(0, 0)
        with pytest.raises(ValueError):
            BitString(2, 4)

    def test_lexicographic_order_matches_numeric(self):
        xs = [bs("10"), bs("01"), bs("11"), bs("00")]
        assert [str(x) for x in sorted(xs)] == ["00", "01", "10", "11"]

    def test_equality_and_hash_read_the_length_and_the_value(self):
        assert BitString(3, 1) == bs("001") and hash(BitString(3, 1)) == hash(bs("001"))
        assert BitString(3, 1) != BitString(4, 1) and BitString(3, 1) != BitString(3, 2)
        assert BitString(3, 1) != 1 and BitString(3, 1) != (3, 1)
        # shorter strings still sort first, as the dataclass's (n, value) order has it
        assert sorted([BitString(4, 1), BitString(3, 7), BitString(3, 1)]) == [
            BitString(3, 1), BitString(3, 7), BitString(4, 1)]
        assert len({BitString(3, 1), BitString(4, 1), bs("001")}) == 2

    def test_a_fresh_equal_string_finds_its_row(self):
        cls = generate_class("random", 12, size=200, seed=3)
        for i, x in enumerate(cls.members):
            fresh = BitString(x.n, x.value)
            assert fresh is not x and cls.index(fresh) == i and fresh in cls
        assert BitString(13, cls.members[0].value) not in cls


class TestMajority:
    def test_tie_forced_to_one(self):
        assert majority_string([bs("0"), bs("1")]) == bs("1")

    def test_hand_enumerated(self):
        assert majority_string([bs("00"), bs("01"), bs("11")]) == bs("01")

    def test_singleton(self):
        assert majority_string([bs("0110")]) == bs("0110")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            majority_string([])

    def test_result_may_leave_the_set(self):
        members = [bs("110"), bs("101"), bs("011")]
        assert majority_string(members) == bs("111")

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
    def test_minority_never_exceeds_half(self, values):
        members = [BitString(4, v) for v in values]
        maj = majority_string(members)
        for i in range(4):
            disagree = sum(1 for y in members if y.bit(i) != maj.bit(i))
            assert 2 * disagree <= len(members)

    def test_minority_bound_exhaustive_n3(self):
        for subset in subsets_of_cube(3):
            maj = majority_string(subset)
            for i in range(3):
                disagree = sum(1 for y in subset if y.bit(i) != maj.bit(i))
                assert 2 * disagree <= len(subset)


class TestFilterByDisagreement:
    S = (bs("100"), bs("010"), bs("001"))

    def test_found_keeps_prefix_agreers_that_flip(self):
        got = filter_by_disagreement(self.S, (0, 1, 2), bs("010"), 1, True)
        assert got == (bs("100"),)

    def test_not_found_keeps_full_agreement_only(self):
        got = filter_by_disagreement(self.S, (0, 1, 2), bs("010"), None, False)
        assert got == (bs("010"),)

    def test_found_on_full_cube(self):
        cube = generate_class("cube", 2)
        got = filter_by_disagreement(cube.members, (0, 1), bs("11"), 2, True)
        assert got == (bs("10"),)

    def test_found_and_not_found_are_disjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.choice(16, size=int(rng.integers(1, 9)), replace=False)
            members = tuple(BitString(4, int(v)) for v in values)
            sigma = tuple(rng.permutation(4))
            s = BitString(4, int(rng.integers(0, 16)))
            missing = set(filter_by_disagreement(members, sigma, s, None, False))
            for p in range(1, 5):
                found = set(filter_by_disagreement(members, sigma, s, p, True))
                assert not (found & missing)
                assert s not in found

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            filter_by_disagreement(self.S, (0, 1, 2), bs("010"), 4, True)


def code_gram(f):
    """The Gram matrix ``[f(x) == f(y)]`` read off the table's label codes."""
    codes = f.codes
    return (codes[:, None] == codes[None, :]).astype(float)


class TestGram:
    """The test-side ``helpers.FunctionTable``, which the composition algebra
    and the reference pipeline take functions in: its label codes and the
    Gram matrix they give."""

    def test_identity_function_gives_identity_matrix(self):
        cls = generate_class("cube", 2)
        f = FunctionTable(cls, tuple(str(m) for m in cls.members))
        assert np.array_equal(f.codes, np.arange(4))
        assert np.array_equal(code_gram(f), np.eye(4))

    def test_constant_function_gives_all_ones(self):
        cls = generate_class("cube", 2)
        f = FunctionTable(cls, (7, 7, 7, 7))
        assert np.array_equal(f.codes, np.zeros(4))
        assert np.array_equal(code_gram(f), np.ones((4, 4)))

    def test_equal_outputs_give_ones_block(self):
        cls = ConceptClass.from_strings(["10", "11"])
        f = FunctionTable(cls, (1, 1))  # both have a 1 in first position
        assert np.array_equal(code_gram(f), np.ones((2, 2)))

    def test_symmetric_unit_diagonal_binary(self):
        rng = np.random.default_rng(11)
        cls = generate_class("random", 5, size=10, seed=3)
        f = FunctionTable(cls, tuple(int(v) for v in rng.integers(0, 3, size=10)))
        g = code_gram(f)
        assert np.array_equal(g, g.T)
        assert np.array_equal(np.diag(g), np.ones(10))
        assert set(np.unique(g)) <= {0.0, 1.0}

    def test_matches_pairwise_comparison_and_label_order(self):
        # tuple labels, as the SDP pipeline's stage tables use
        rng = np.random.default_rng(12)
        cls = generate_class("random", 6, size=40, seed=4)
        outs = tuple(tuple(int(v) for v in rng.integers(0, 2, size=3)) for _ in range(40))
        f = FunctionTable(cls, outs)
        pairwise = np.array([[float(a == b) for b in outs] for a in outs])
        assert np.array_equal(code_gram(f), pairwise)
        first_seen = []
        for out in outs:
            if out not in first_seen:
                first_seen.append(out)
        assert f.labels == tuple(first_seen)
        assert [f.labels[c] for c in f.codes] == list(outs)

    def test_labels_and_codes_are_computed_once_and_read_only(self):
        cls = generate_class("cube", 3)
        f = FunctionTable(cls, (0, 1, 0, 2, 1, 0, 3, 3))
        assert f.codes is f.codes and f.labels is f.labels
        assert not f.codes.flags.writeable
        with pytest.raises(ValueError):
            f.codes[0] = 1
        assert f == FunctionTable(cls, f.outputs)
        assert hash(f) == hash(FunctionTable(cls, f.outputs))

    def test_groups_are_the_preimages_in_label_order(self):
        rng = np.random.default_rng(13)
        cls = generate_class("random", 6, size=40, seed=5)
        f = FunctionTable(cls, tuple(int(v) for v in rng.integers(0, 7, size=40)))
        groups = helpers.groups(f)
        assert len(groups) == len(f.labels)
        for label, idx in zip(f.labels, groups):
            assert tuple(cls.members[i] for i in idx) == preimage(f, label)


class TestGenerateClass:
    def test_cube(self):
        cls = generate_class("cube", 2)
        assert [str(m) for m in cls.members] == ["00", "01", "10", "11"]

    def test_hamming1(self):
        cls = generate_class("hamming1", 3)
        assert {str(m) for m in cls.members} == {"100", "010", "001"}

    def test_prefix(self):
        cls = generate_class("prefix", 4, free_bits=2)
        assert {str(m) for m in cls.members} == {"0000", "0100", "1000", "1100"}

    def test_hamming_pair_weights(self):
        cls = generate_class("hamming-pair", 5, k=2)
        assert {m.weight() for m in cls.members} == {1, 2}
        assert cls.size == 5 + 10

    def test_random_deterministic_and_distinct(self):
        a = generate_class("random", 8, size=20, seed=7)
        b = generate_class("random", 8, size=20, seed=7)
        assert a == b
        assert len(set(a.values)) == 20

    @pytest.mark.parametrize("n", [64, 100])
    def test_random_beyond_int64(self, n):
        a = generate_class("random", n, size=30, seed=7)
        assert a == generate_class("random", n, size=30, seed=7)
        assert a != generate_class("random", n, size=30, seed=8)
        assert a.n == n and len(set(a.values)) == 30
        assert all(len(str(m)) == n for m in a.members)
        assert any(m.bit(0) for m in a.members)  # the top bit is drawn too

    def test_infeasible_size(self):
        with pytest.raises(ValueError):
            generate_class("random", 3, size=9, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_class("mystery", 3)

    @pytest.mark.parametrize("name", ["full-cube", "hamming-weight-k", "hamming-weight-pair"])
    def test_a_kind_has_one_name(self, name):
        with pytest.raises(ValueError, match="unknown class kind"):
            generate_class(name, 3, k=1)

    @pytest.mark.parametrize("kind, params, unread", [
        ("hamming1", {"k": 3}, "k"),
        ("cube", {"size": 3, "free_bits": 1}, "free_bits or size"),
        ("hamming", {"k": 2, "size": 3}, "size"),
        ("prefix", {"free_bits": 2, "k": 1}, "k"),
        ("random", {"size": 3, "free_bits": 1}, "free_bits"),
    ])
    def test_parameters_the_kind_does_not_read_are_refused(self, kind, params, unread):
        with pytest.raises(ValueError, match=f"does not read {unread}$"):
            generate_class(kind, 4, **params)

    @pytest.mark.parametrize("kind", ["cube", "hamming1"])
    def test_every_kind_takes_a_seed(self, kind):
        assert generate_class(kind, 3, seed=1) == generate_class(kind, 3)


class TestConceptClassSerialization:
    def test_json_round_trip(self):
        cls = generate_class("random", 6, size=9, seed=1)
        again = ConceptClass.from_json(cls.to_json())
        assert again == cls

    def test_json_shape(self):
        payload = json.loads(generate_class("hamming1", 3).to_json())
        assert payload == {"n": 3, "members": ["001", "010", "100"]}

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConceptClass.from_strings(["01", "01"])

    def test_members_canonically_sorted(self):
        cls = ConceptClass.from_strings(["11", "00", "10"])
        assert [str(m) for m in cls.members] == ["00", "10", "11"]


class TestConceptClassIndex:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_index_and_membership_agree_with_a_linear_scan(self, n):
        rng = np.random.default_rng(n)
        for size in (1, int(rng.integers(2, 1 << n, endpoint=True)), 1 << n):
            cls = helpers.random_class(rng, n, size)
            probes = [BitString(n, v) for v in range(1 << n)]
            # a member's value at the wrong length is not a member
            probes.append(BitString(n + 1, cls.members[-1].value))
            if n > 1 and cls.members[0].value < 1 << (n - 1):
                probes.append(BitString(n - 1, cls.members[0].value))
            for x in probes:
                scan = [i for i, y in enumerate(cls.members) if y == x]
                if scan:
                    assert cls.index(x) == scan[0]
                    assert x in cls
                else:
                    with pytest.raises(KeyError, match="is not a member"):
                        cls.index(x)
                    assert x not in cls


class TestConceptClassBits:
    @pytest.mark.parametrize("n", (1, 5, 8, 13, 70))
    def test_the_members_bit_matrix_read_only(self, n):
        cls = generate_class("random", n, size=min(1 << n, 40), seed=n)
        bits = cls.bits
        assert bits.dtype == np.uint8 and bits.shape == (cls.size, n)
        np.testing.assert_array_equal(bits, bit_matrix(n, cls.values))
        np.testing.assert_array_equal(bits, [x.bits for x in cls.members])
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0, 0] = 1
        assert cls.bits is bits  # built once

    def test_not_part_of_equality_hash_or_repr(self):
        cls = generate_class("random", 6, size=9, seed=1)
        fresh = generate_class("random", 6, size=9, seed=1)
        before = repr(cls)
        cls.bits, cls.index(cls.members[3])  # fill both caches on one side only
        assert cls == fresh and hash(cls) == hash(fresh)
        assert repr(cls) == before == repr(fresh)
