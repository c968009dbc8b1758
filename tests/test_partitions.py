import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobcalc.partitions import Partition, concat, enumerate_partitions

from conftest import PARTITION_COUNTS


class TestPartitionType:
    def test_canonical_order_and_weight(self):
        p = Partition((2, 4, 2))
        assert tuple(p) == (4, 2, 2)
        assert p.weight == 8

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((-1,))
        with pytest.raises(ValueError, match="parts must be positive integers"):
            Partition([True, 2])

    def test_empty(self):
        assert Partition().weight == 0
        assert Partition().is_even()

    def test_is_even_examples(self):
        assert Partition((4, 2)).is_even()
        assert not Partition((3, 2)).is_even()
        assert Partition().is_even()

    def test_is_ladic_examples(self):
        assert Partition((2,)).is_ladic(3)
        assert not Partition((4,)).is_ladic(3)
        assert Partition((8, 4)).is_ladic(3)

    def test_concat_examples(self):
        assert concat((4,), (2,)) == Partition((4, 2))
        assert concat((), (5, 1)) == Partition((5, 1))
        assert concat((2, 2), (4,)) == Partition((4, 2, 2))


parts_strategy = st.lists(st.integers(min_value=1, max_value=12), max_size=6).map(Partition)


class TestConcatMonoid:
    @given(parts_strategy, parts_strategy)
    def test_commutative(self, a, b):
        assert a.concat(b) == b.concat(a)

    @given(parts_strategy, parts_strategy, parts_strategy)
    def test_associative(self, a, b, c):
        assert a.concat(b).concat(c) == a.concat(b.concat(c))

    @given(parts_strategy)
    def test_identity(self, a):
        assert a.concat(()) == a

    @given(parts_strategy, parts_strategy)
    def test_weight_adds(self, a, b):
        assert a.concat(b).weight == a.weight + b.weight


class TestEnumeration:
    def test_examples(self):
        assert enumerate_partitions(4, "even") == [Partition((4,)), Partition((2, 2))]
        assert enumerate_partitions(8, "even-non-ladic", 3) == [Partition((4, 4))]
        assert enumerate_partitions(3, "even") == []

    def test_canonical_order(self):
        assert [tuple(p) for p in enumerate_partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    @pytest.mark.parametrize("w", range(0, 31))
    def test_counts_match_pentagonal_recurrence(self, w):
        assert len(enumerate_partitions(w)) == PARTITION_COUNTS[w]

    @pytest.mark.parametrize("w", range(0, 41, 2))
    def test_even_count_is_halved_partition_count(self, w):
        assert len(enumerate_partitions(w, "even")) == PARTITION_COUNTS[w // 2]

    @pytest.mark.parametrize("w", range(1, 41, 2))
    def test_odd_weight_has_no_even_partition(self, w):
        assert enumerate_partitions(w, "even") == []

    def test_distinct_and_correct_weight(self):
        for w in range(12):
            out = enumerate_partitions(w)
            assert len(set(out)) == len(out)
            assert all(p.weight == w for p in out)

    def test_predicate_validation(self):
        with pytest.raises(ValueError):
            enumerate_partitions(4, "odd")
        with pytest.raises(ValueError):
            enumerate_partitions(4, "even-non-ladic")  # missing prime

    def test_negative_weight_is_refused(self):
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            enumerate_partitions(-1)

    @pytest.mark.parametrize("w", [0, 1, 4, 5])
    @pytest.mark.parametrize("ell", [None, 2, 4, 9])
    def test_prime_is_checked_for_every_weight(self, w, ell):
        # an odd weight lists nothing, but a bad prime is still refused
        with pytest.raises(ValueError):
            enumerate_partitions(w, "even-non-ladic", ell)

    def test_ladic_filter_drops_all_relevant_parts(self):
        for p in enumerate_partitions(12, "even-non-ladic", 3):
            assert not p.is_ladic(3)
            assert p.is_even()
