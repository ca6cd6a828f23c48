"""Encodings, ball deletion (the check oracle's) and partitions."""

import pytest
from hypothesis import given, strategies as st

from check_oracle import EMPTY, delete_ball
from compstruct.composition import (Composition, Partition, enumerate_compositions,
                                    enumerate_partitions)


def compositions(max_n=9):
    return st.integers(1, (1 << max_n) - 1).flatmap(
        lambda code: st.just(
            Composition.from_code(code | (1 << code.bit_length() - 1),
                                  code.bit_length())))


class TestEncodings:
    def test_binary_roundtrip_examples(self):
        c = Composition((2, 4, 1, 2))
        assert c.to_binary() == "101000110"
        assert Composition.from_binary("101000110") == c
        assert Composition.from_code(c.code, c.n) == c

    def test_single_part(self):
        c = Composition((5,))
        assert c.to_binary() == "10000"
        assert c.num_parts == 1 and c.n == 5

    def test_all_singletons(self):
        assert Composition.from_binary("1111").parts == (1, 1, 1, 1)

    def test_binary_must_start_with_one(self):
        with pytest.raises(ValueError):
            Composition.from_binary("0110")

    @given(compositions())
    def test_roundtrip_property(self, c):
        assert Composition.from_binary(c.to_binary()) == c
        assert Composition.from_code(c.code, c.n) == c

    @given(compositions())
    def test_reverse_involution(self, c):
        assert c.reverse().reverse() == c
        assert c.reverse().n == c.n

    def test_enumeration_count_and_order(self):
        for n in range(1, 9):
            comps = enumerate_compositions(n)
            assert len(comps) == 1 << (n - 1)
            codes = [c.code for c in comps]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            enumerate_compositions(17)

    def test_composition_needs_one_part(self):
        with pytest.raises(ValueError, match="at least one part"):
            Composition(())

    @pytest.mark.parametrize("parts", [(0,), (2, 0, 1), (3, -1)])
    def test_parts_must_be_positive(self, parts):
        with pytest.raises(ValueError, match="parts must be positive"):
            Composition(parts)


class TestRank:
    def test_rank_sorts_parts(self):
        assert Composition((1, 3, 2)).rank() == Partition((3, 2, 1))

    @given(compositions())
    def test_rank_is_permutation(self, c):
        assert sorted(c.rank().parts) == sorted(c.parts)

    def test_distinct_arrangements(self):
        lam = Partition((2, 1, 1))
        arrs = set(lam.distinct_arrangements())
        assert arrs == {Composition((2, 1, 1)), Composition((1, 2, 1)),
                        Composition((1, 1, 2))}

    def test_distinct_arrangements_of_many_equal_parts(self):
        assert list(Partition((1,) * 16).distinct_arrangements()) == [Composition((1,) * 16)]
        arrs = list(Partition((2,) + (1,) * 14).distinct_arrangements())
        assert len(arrs) == len(set(arrs)) == 15
        assert arrs[0] == Composition((2,) + (1,) * 14)

    @given(compositions())
    def test_distinct_arrangements_are_the_rank_class(self, c):
        lam = c.rank()
        arrs = list(lam.distinct_arrangements())
        # each once, lexicographically largest first, and all of the class
        assert sorted(arrs, key=lambda a: a.parts, reverse=True) == arrs
        assert len(set(arrs)) == len(arrs)
        assert set(arrs) == {d for d in enumerate_compositions(lam.n) if d.rank() == lam}

    def test_partition_parts_must_be_positive_and_sorted(self):
        with pytest.raises(ValueError, match="invalid partition parts"):
            Partition((2, 0))
        for parts in ((1, 2), (2, 1, 3)):
            with pytest.raises(ValueError, match="sorted descending"):
                Partition(parts)
        assert Partition((3, 1, 1)).parts == (3, 1, 1)

    def test_partition_count(self):
        # p(1..8) = 1, 2, 3, 5, 7, 11, 15, 22
        assert [len(enumerate_partitions(n)) for n in range(1, 9)] == \
            [1, 2, 3, 5, 7, 11, 15, 22]


class TestBallDeletion:
    def test_middle_ball_splits_nothing(self):
        # deleting ball 4 of (2,4,1,2) shrinks the second box
        assert delete_ball(Composition((2, 4, 1, 2)), 4) == Composition((2, 3, 1, 2))

    def test_singleton_box_vanishes(self):
        assert delete_ball(Composition((2, 4, 1, 2)), 7) == Composition((2, 4, 2))

    def test_delete_last_ball_of_one(self):
        assert delete_ball(Composition((1,)), 1) is EMPTY

    @given(compositions(), st.randoms())
    def test_deletion_reduces_size(self, c, rnd):
        pos = rnd.randint(1, c.n)
        smaller = delete_ball(c, pos)
        if c.n == 1:
            assert smaller is EMPTY
        else:
            assert smaller.n == c.n - 1

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            delete_ball(Composition((2, 1)), 4)
