import pytest

from cobcalc.adams import (
    MAX_DECOMPOSITION_WEIGHT,
    MAX_RANK_D,
    decomposition_check,
    e2_rank,
    e2_rank_from_generators,
    e2_ranks,
    e2_ranks_from_generators,
)
from cobcalc.partitions import enumerate_partitions

from conftest import PARTITION_COUNTS


def enumerate_milnor_exponents(q: int, ell: int) -> list[tuple[int, ...]]:
    """Oracle: explicit enumeration of exponent sequences of weight q."""
    weights = []
    w = ell - 1
    while w <= q:
        weights.append(w)
        w = (w + 1) * ell - 1
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(weights):
            return
        w = weights[idx]
        for r in range(remaining // w + 1):
            rec(idx + 1, remaining - r * w, acc + [r])

    rec(0, q, [])
    return out


class TestDecomposition:
    def test_small_weights_prime_3(self):
        report = decomposition_check(8, 3)
        by_weight = {r.weight: r for r in report.rows}
        assert by_weight[2].even_partition_count == 1
        assert by_weight[2].module_count == 1
        assert by_weight[8].even_partition_count == 5
        assert by_weight[8].module_count == 5

    @pytest.mark.parametrize("ell", [3, 5])
    def test_all_even_weights_up_to_60(self, ell):
        report = decomposition_check(60, ell)
        assert report.all_equal
        assert [r.weight for r in report.rows] == list(range(0, 61, 2))

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_rows_against_enumeration(self, ell):
        # the counted rows against explicit enumeration, the small-weight oracle
        for row in decomposition_check(30, ell).rows:
            w = row.weight
            assert row.even_partition_count == len(enumerate_partitions(w, "even"))
            module_count = sum(
                len(enumerate_partitions(v, "even-non-ladic", ell))
                * len(enumerate_milnor_exponents(w - v, ell))
                for v in range(0, w + 1, 2)
            )
            assert row.module_count == module_count

    def test_weight_200(self):
        report = decomposition_check(200, 3)
        assert report.all_equal
        assert [r.even_partition_count for r in report.rows] == PARTITION_COUNTS[:101]

    def test_weight_cap(self):
        with pytest.raises(ValueError, match=f"0..{MAX_DECOMPOSITION_WEIGHT}, got 4001"):
            decomposition_check(MAX_DECOMPOSITION_WEIGHT + 1, 3)

    def test_odd_weights_vacuous(self):
        for w in (1, 3, 11):
            assert enumerate_partitions(w, "even") == []


class TestRanks:
    def test_examples(self):
        assert e2_rank(1) == 1
        assert e2_rank(2) == 2
        assert e2_rank(4) == 5

    @pytest.mark.parametrize("d", range(1, 31))
    def test_matches_partition_function(self, d):
        assert e2_rank(d) == PARTITION_COUNTS[d]

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("d", range(1, 31))
    def test_generator_route_agrees_and_is_prime_free(self, d, ell):
        assert e2_rank_from_generators(d, ell) == e2_rank(d)

    def test_column_against_enumeration(self):
        assert e2_ranks(20) == [len(enumerate_partitions(d)) for d in range(1, 21)]

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_columns_agree_to_400(self, ell):
        assert e2_ranks_from_generators(400, ell) == e2_ranks(400)

    @pytest.mark.parametrize("d_max", [0, -3])
    def test_columns_refuse_an_empty_range(self, d_max):
        with pytest.raises(ValueError, match="d_max must be positive"):
            e2_ranks(d_max)
        with pytest.raises(ValueError, match="d_max must be positive"):
            e2_ranks_from_generators(d_max, 3)

    @pytest.mark.parametrize("d_max", [MAX_RANK_D + 1, 10**10])
    def test_columns_refuse_beyond_the_limit(self, d_max):
        with pytest.raises(ValueError, match=f"at most {MAX_RANK_D}, got {d_max}"):
            e2_ranks(d_max)
        with pytest.raises(ValueError, match=f"at most {MAX_RANK_D}, got {d_max}"):
            e2_ranks_from_generators(d_max, 3)

    def test_even_partitions_self_consistency(self):
        for d in range(1, 16):
            assert len(enumerate_partitions(2 * d, "even")) == PARTITION_COUNTS[d]
