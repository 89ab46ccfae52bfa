from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_terms.partitions import (
    Partition,
    factorial_of_partition,
    partitions_of,
    z_of,
)

# number of partitions of 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestPartition:
    def test_basic_properties(self):
        lam = Partition((4, 2, 2, 1))
        assert lam.q == 9
        assert lam.k == 4
        assert len(lam) == 4
        assert lam[0] == 4
        assert list(lam) == [4, 2, 2, 1]
        assert str(lam) == "4+2+2+1"
        assert str(Partition(())) == "0"

    def test_beta_round_trip(self):
        lam = Partition((5, 3, 3, 1, 1, 1))
        beta = lam.beta()
        assert len(beta) == lam.q
        assert beta[0] == 3 and beta[2] == 2 and beta[4] == 1
        assert Partition.from_beta(beta) == lam

    def test_counts(self):
        lam = Partition((3, 3, 1))
        assert lam.counts() == {3: 2, 1: 1}

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_part(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_immutable(self):
        lam = Partition((2, 1))
        with pytest.raises(AttributeError):
            lam.parts = (3,)

    def test_hashable(self):
        assert len({Partition((2, 1)), Partition((2, 1)), Partition((3,))}) == 2


class TestPartitionsOf:
    def test_counts(self):
        for q, expected in enumerate(PARTITION_COUNTS):
            assert len(partitions_of(q)) == expected

    def test_reverse_lexicographic_order(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero(self):
        assert partitions_of(0) == [Partition(())]

    def test_distinct_and_correct_sum(self):
        for q in range(11):
            parts = partitions_of(q)
            assert len(set(parts)) == len(parts)
            assert all(p.q == q for p in parts)

    def test_divisor_constraint(self):
        assert [p.parts for p in partitions_of(6, divisor_constraint=3)] == [
            (6,),
            (3, 3),
        ]
        assert partitions_of(5, divisor_constraint=3) == []
        assert [p.parts for p in partitions_of(12, divisor_constraint=4)] == [
            (12,),
            (8, 4),
            (4, 4, 4),
        ]

    def test_constraint_matches_filter(self):
        for q in range(1, 13):
            for d in (2, 3, 4):
                constrained = partitions_of(q, divisor_constraint=d)
                filtered = [p for p in partitions_of(q)
                            if all(part % d == 0 for part in p)]
                assert constrained == filtered

    @given(q=st.integers(min_value=0, max_value=9))
    @settings(deadline=None)
    def test_from_beta_round_trip_all(self, q):
        for lam in partitions_of(q):
            assert Partition.from_beta(lam.beta()) == lam


class TestZOf:
    def test_examples(self):
        assert z_of(Partition((2,))) == 2
        assert z_of(Partition((1, 1))) == 2
        assert z_of(Partition((2, 1, 1))) == 4
        assert z_of(Partition((2, 2))) == 8
        assert z_of(Partition(())) == 1

    def test_conjugacy_class_sizes_sum_to_group_order(self):
        # q!/z_lambda counts permutations of cycle type lambda
        for q in range(1, 11):
            assert sum(factorial(q) // z_of(lam) for lam in partitions_of(q)) \
                == factorial(q)

    def test_class_size_is_integer(self):
        for q in range(1, 11):
            for lam in partitions_of(q):
                assert factorial(q) % z_of(lam) == 0


class TestFactorialOfPartition:
    def test_examples(self):
        assert factorial_of_partition(Partition((1, 1, 1))) == 1
        assert factorial_of_partition(Partition((3, 2))) == 12
        assert factorial_of_partition(Partition((2, 2))) == 4
        assert factorial_of_partition(Partition(())) == 1

    def test_product_of_part_factorials(self):
        for lam in partitions_of(7):
            prod = 1
            for part in lam:
                prod *= factorial(part)
            assert factorial_of_partition(lam) == prod


class TestTrustedBuild:
    # partitions_of yields canonical parts by construction, so it builds
    # each Partition once, without the checks of Partition(...)

    def test_walk_skips_the_checks(self, monkeypatch):
        expected = {(q, n): [lam.parts for lam in partitions_of(q, n)]
                    for q, n in ((7, None), (12, 3), (12, 5))}

        def refuse(self, parts):
            raise AssertionError("validated")

        monkeypatch.setattr(Partition, "__init__", refuse)
        for (q, n), parts in expected.items():
            assert [lam.parts for lam in partitions_of(q, n)] == parts
        assert Partition.from_beta((1, 0, 2)).parts == (3, 3, 1)

    def test_divisor_constraint_builds_each_once(self, monkeypatch):
        built = []
        trusted = Partition._trusted.__func__

        def spy(cls, parts):
            built.append(parts)
            return trusted(cls, parts)

        monkeypatch.setattr(Partition, "_trusted", classmethod(spy))
        result = partitions_of(20, 4)
        assert [lam.parts for lam in result] == built
        assert built == [(20,), (16, 4), (12, 8), (12, 4, 4), (8, 8, 4),
                         (8, 4, 4, 4), (4, 4, 4, 4, 4)]

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
