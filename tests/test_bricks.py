import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    BrickMultiset,
    class_signature,
    classes_brute,
    filling_weight_brute,
    monomial_value,
    power_sum_value,
    row_weight_sum,
    sub_multisets,
    verify_m2p,
)
from circulant_terms import clear_caches
from circulant_terms.bricks import (
    _W_MEMO,
    FillingClass,
    _class_walk,
    _er_term,
    _row_weight,
    _sub_rows,
    class_weight_sum,
    enumerate_filling_classes,
    filling_weight,
    m_to_p_expansion,
)
from circulant_terms.exactmath import RouteDisagreement
from circulant_terms.partitions import Partition, partitions_of, z_of


class TestBrickMultiset:
    def test_construction(self):
        bm = BrickMultiset.from_lengths([2, 1, 1])
        assert bm.count(1) == 2
        assert bm.count(2) == 1
        assert bm.count(5) == 0
        assert bm.mass == 4
        assert tuple(bm.lengths()) == (2, 1, 1)

    def test_from_partition(self):
        bm = BrickMultiset.from_partition(Partition((3, 1, 1)))
        assert bm == BrickMultiset.from_lengths([1, 3, 1])

    def test_trailing_zeros_trimmed(self):
        assert BrickMultiset((1, 0, 0)) == BrickMultiset((1,))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            BrickMultiset((1, -1))

    def test_hashable(self):
        s = {BrickMultiset.from_lengths([2, 1]), BrickMultiset((1, 1))}
        assert len(s) == 1


class TestRowWeightSum:
    def test_examples(self):
        assert row_weight_sum(4, BrickMultiset.from_lengths([2, 1, 1])) == 4
        assert row_weight_sum(2, BrickMultiset.from_lengths([2])) == 2
        assert row_weight_sum(2, BrickMultiset.from_lengths([1, 1])) == 1
        assert row_weight_sum(6, BrickMultiset.from_lengths([3, 2, 1])) == 12

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError):
            row_weight_sum(5, BrickMultiset.from_lengths([2, 2]))

    def test_non_integral_closed_form_raises(self):
        # two bricks cannot fill a row of length 1, and the closed form
        # on their multiplicities gives 1/2
        with pytest.raises(RuntimeError):
            _row_weight(1, (2,))

    def test_matches_enumeration_for_all_small_multisets(self):
        # every brick multiset of mass <= 9, one row holding all of it
        for mass in range(1, 10):
            for mu in partitions_of(mass):
                bm = BrickMultiset.from_partition(mu)
                assert row_weight_sum(mass, bm) == \
                    filling_weight_brute((mass,), mu.parts)


class TestRowWeightIntegrality:
    def test_non_integral_closed_form_names_itself(self):
        with pytest.raises(RouteDisagreement,
                           match=r"^the row weight sum of 1 over "
                                 r"multiplicities \(2,\) is not an integer$"):
            _row_weight(1, (2,))


class TestFillingWeight:
    def test_examples(self):
        assert filling_weight(Partition((4, 2)), Partition((2, 2, 1, 1))) == 10
        assert filling_weight(Partition((2, 2)), Partition((2, 1, 1))) == 4
        assert filling_weight(Partition((3, 1)), Partition((2, 1, 1))) == 3
        assert filling_weight(Partition((3, 3)), Partition((3, 2, 1))) == 18

    def test_zero_when_no_filling_exists(self):
        # a length-2 brick fits in no row of length 1
        assert filling_weight(Partition((2, 1, 1)), Partition((2, 2))) == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            filling_weight(Partition((3,)), Partition((2, 2)))

    def test_matches_enumeration_exhaustively(self):
        for q in range(1, 7):
            for lam in partitions_of(q):
                for mu in partitions_of(q):
                    assert filling_weight(lam, mu) == \
                        filling_weight_brute(lam.parts, mu.parts), (lam, mu)

    def test_single_brick_identity(self):
        # one brick of size q in one row of size q: weight q
        for q in range(1, 12):
            assert filling_weight(Partition((q,)), Partition((q,))) == q


class TestFillingClasses:
    def test_two_classes_example(self):
        fcs = enumerate_filling_classes(Partition((4, 2)),
                                        Partition((2, 2, 1, 1)))
        weights = {fc.rows: class_weight_sum(fc) for fc in fcs}
        assert weights == {
            ((2, 2), (1, 1)): 2,
            ((2, 1, 1), (2,)): 8,
        }

    def test_single_row_single_class(self):
        fcs = enumerate_filling_classes(Partition((6,)), Partition((3, 2, 1)))
        assert len(fcs) == 1
        assert class_weight_sum(fcs[0]) == 12

    def test_equal_rows_example(self):
        fcs = enumerate_filling_classes(Partition((3, 3)), Partition((3, 2, 1)))
        assert len(fcs) == 1
        fc = fcs[0]
        assert fc.rows == ((3,), (2, 1))
        assert fc.gamma[3] == Partition((1, 1))
        assert fc.delta == Partition((1, 1))
        assert class_weight_sum(fc) == 18

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enumerate_filling_classes(Partition((3,)), Partition((2, 2)))

    def test_constructor_canonicalizes_row_order(self):
        # same class, rows of equal length given in either order
        a = FillingClass(Partition((2, 2)), Partition((2, 1, 1)),
                         ((2,), (1, 1)))
        b = FillingClass(Partition((2, 2)), Partition((2, 1, 1)),
                         ((1, 1), (2,)))
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_unfillable_rows(self):
        with pytest.raises(ValueError):
            FillingClass(Partition((2, 2)), Partition((2, 1, 1)),
                         ((2, 1), (1,)))

    def test_class_totals_match_filling_weight(self):
        for q in range(1, 9):
            for lam in partitions_of(q):
                for mu in partitions_of(q):
                    fcs = enumerate_filling_classes(lam, mu)
                    assert sum(class_weight_sum(fc) for fc in fcs) == \
                        filling_weight(lam, mu), (lam, mu)

    def test_classes_match_brute_grouping(self):
        # signatures and per-class weights against explicit enumeration
        for q in range(1, 7):
            for lam in partitions_of(q):
                for mu in partitions_of(q):
                    brute = classes_brute(lam.parts, mu.parts)
                    fcs = enumerate_filling_classes(lam, mu)
                    got = {}
                    for fc in fcs:
                        sig = class_signature(lam.parts, fc.rows)
                        got[sig] = class_weight_sum(fc)
                    assert got == brute, (lam, mu)


class TestClassWalk:
    def test_weights_are_class_weight_sums(self):
        # one walk per mu, at step 1, gives the classes of every lambda,
        # the one-row class first; each comes canonical, with
        # class_weight_sum as its weight, and lambda by lambda in the
        # order of enumerate_filling_classes
        for q in range(1, 11):
            for mu in partitions_of(q):
                walk = _class_walk(mu.parts, 1)
                assert walk[0][:2] == ((q,), (mu.parts,)), mu
                by_lam = {}
                for parts, rows, weight in walk:
                    lam = Partition(parts)
                    fc = FillingClass(lam, mu, rows)
                    assert fc.rows == rows
                    assert weight == class_weight_sum(fc), (lam, fc)
                    by_lam.setdefault(lam, []).append(rows)
                for lam in partitions_of(q):
                    assert by_lam.pop(lam, []) == [
                        fc.rows for fc in
                        enumerate_filling_classes(lam, mu)], (lam, mu)
                assert not by_lam

    def test_classes_and_order_pinned(self):
        # SHA-256 of the class rows of every (lambda, mu) with q <= 10,
        # recorded when every class went through the checked constructor
        digest = hashlib.sha256()
        for q in range(1, 11):
            for lam in partitions_of(q):
                for mu in partitions_of(q):
                    digest.update(repr([fc.rows for fc in
                                        enumerate_filling_classes(lam, mu)])
                                  .encode())
        assert digest.hexdigest() == (
            "7d508289283d81114206012f8fcb00d1aadcd72d582fe4adaa336d251d4448f1")


class TestMonomialToPowerSum:
    def test_examples(self):
        assert m_to_p_expansion(Partition((1,))) == {
            Partition((1,)): Fraction(1),
        }
        assert m_to_p_expansion(Partition((2,))) == {
            Partition((2,)): Fraction(1),
        }
        assert m_to_p_expansion(Partition((1, 1))) == {
            Partition((2,)): Fraction(-1, 2),
            Partition((1, 1)): Fraction(1, 2),
        }
        assert m_to_p_expansion(Partition((2, 1))) == {
            Partition((3,)): Fraction(-1),
            Partition((2, 1)): Fraction(1),
        }

    def test_coefficients_term_by_term(self):
        # coefficient of p_lambda is (-1)^(k(mu)-k(lam)) * w(lam,mu) / z_lam
        for q in range(1, 7):
            for mu in partitions_of(q):
                expansion = m_to_p_expansion(mu)
                for lam in partitions_of(q):
                    w = filling_weight(lam, mu)
                    sign = (-1) ** ((mu.k - lam.k) % 2)
                    expected = Fraction(sign * w, z_of(lam))
                    assert expansion.get(lam, Fraction(0)) == expected

    def test_no_zero_entries(self):
        for mu in partitions_of(6):
            assert all(c != 0 for c in m_to_p_expansion(mu).values())

    def test_evaluation_small_points(self):
        mu = Partition((2, 1))
        point = (2, 3)
        # m_{2,1}(x,y) = x^2 y + y^2 x = 12+18
        assert monomial_value(mu, point) == 30
        total = sum(c * power_sum_value(lam, point)
                    for lam, c in m_to_p_expansion(mu).items())
        assert total == 30

    def test_verify_m2p_report(self):
        report = verify_m2p(4, trials=3, seed=11)
        assert report.all_match
        assert report.counterexample is None
        assert report.points_checked == 3 * len(partitions_of(4))

    def test_verify_m2p_range_check(self):
        with pytest.raises(ValueError):
            verify_m2p(9, trials=1, seed=0)
        with pytest.raises(ValueError):
            verify_m2p(0, trials=1, seed=0)


class TestOracleHelpers:
    def test_sub_multisets_deterministic(self):
        from collections import Counter
        subs = sub_multisets(Counter({2: 1, 1: 2}), 2)
        assert sorted(subs) == [(1, 1), (2,)]


class TestRowFills:
    def test_matches_sub_multisets_oracle(self):
        # one walk per (bricks, step) lists every row whose mass is a
        # positive multiple of step, up to cap, by mass descending and
        # then row descending
        for mass in range(1, 9):
            for mu in partitions_of(mass):
                bricks = mu.parts
                for step in range(1, mass + 1):
                    fills = _sub_rows(bricks, step, mass)
                    found = [(m, row) for m, row, _, _ in fills]
                    expected = {(m, tuple(sorted(sub, reverse=True)))
                                for m in range(step, mass + 1, step)
                                for sub in sub_multisets(Counter(bricks), m)}
                    assert set(found) == expected
                    assert len(found) == len(expected)
                    for m, row, rest, weight in fills:
                        assert row == tuple(sorted(row, reverse=True))
                        assert rest == tuple(sorted(rest, reverse=True))
                        assert Counter(row) + Counter(rest) == Counter(bricks)
                        assert weight == row_weight_sum(
                            m, BrickMultiset.from_lengths(row))
                    assert all(a > b for a, b in zip(found, found[1:]))
                    # capped at the step, the walk keeps the rows of
                    # that one mass
                    assert _sub_rows(bricks, step, step) == \
                        [fill for fill in fills if fill[0] == step]

    def test_m2p_takes_no_row_recursion_states(self):
        # m2p builds on the class walk: from cold caches it leaves the row
        # recursion's memo empty, and its terms, in order, are the ones
        # filling_weight gives at n = 1
        clear_caches()
        for mu in partitions_of(8):
            m_to_p_expansion(mu)
        assert _W_MEMO == {}
        for q in range(9):
            for mu in partitions_of(q):
                weights = {lam: filling_weight(lam, mu)
                           for lam in partitions_of(q)}
                expected = [(lam, _er_term(mu, lam, w, 1))
                            for lam, w in weights.items() if w]
                assert list(m_to_p_expansion(mu).items()) == expected, mu
        clear_caches()
