import random
from fractions import Fraction

import pytest

import circulant_terms.bricks as bricks
import circulant_terms.certificate as certificate
import circulant_terms.circulant as circulant
import circulant_terms.cli as cli
import circulant_terms.exactmath as exactmath
import circulant_terms.partitions as partitions
import circulant_terms.theorem as theorem
from oracles import class_signature, classes_brute
from circulant_terms.bricks import (
    FillingClass,
    class_weight_sum,
    enumerate_filling_classes,
)
from circulant_terms.circulant import (
    ExponentVector,
    RouteDisagreement,
    cache_sizes,
    clear_caches,
    det_coeff_er,
    det_table,
    permanent_terms,
)
from circulant_terms.exactmath import prime_power, valuation
from circulant_terms.partitions import Partition, partitions_of, z_of
from circulant_terms.certificate import dominance_table
from circulant_terms.theorem import (
    class_contribution,
    contribution_ratio_factors,
    dominance_check,
    lemma_check,
    q_class_contribution,
)


class TestQClassContribution:
    def test_examples(self):
        assert q_class_contribution(ExponentVector(2, (2, 0))) == -1
        assert q_class_contribution(ExponentVector(2, (0, 2))) == -1
        assert q_class_contribution(ExponentVector(3, (1, 1, 1))) == 6

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            q_class_contribution(ExponentVector(2, (1, 1)))

    def test_matches_single_row_class(self):
        # the one-row partition (q) always contributes sign * n!/prod(b_i!)
        for n in (2, 3, 4, 5):
            for ev in permanent_terms(n):
                lam = Partition((ev.q,))
                fcs = enumerate_filling_classes(lam, ev.mu())
                assert len(fcs) == 1
                assert class_contribution(fcs[0], n) == \
                    q_class_contribution(ev)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_integer_form_is_the_numerator(self, n):
        # dominance_table's per-term check reads the closed form as an int
        for ev in permanent_terms(n):
            assert certificate._q_class_value(n, ev.b) == \
                q_class_contribution(ev).numerator


class TestClassContribution:
    def test_examples(self):
        fc = enumerate_filling_classes(Partition((2, 2)),
                                       Partition((2, 2)))[0]
        assert class_contribution(fc, 2) == Fraction(2)
        fc = enumerate_filling_classes(Partition((3, 3)),
                                       Partition((3, 2, 1)))[0]
        assert class_contribution(fc, 3) == Fraction(-9)

    def test_rejects_rows_not_divisible_by_n(self):
        fc = enumerate_filling_classes(Partition((3, 3)),
                                       Partition((3, 2, 1)))[0]
        with pytest.raises(ValueError):
            class_contribution(fc, 2)

    def test_is_the_term_with_the_class_weight(self):
        # the Egecioglu-Remmel term of lambda with w(lambda, mu) replaced
        # by the class's share of it, for every class up to n = 6
        for n in range(1, 7):
            for ev in permanent_terms(n):
                mu = ev.mu()
                for lam in partitions_of(ev.q, divisor_constraint=n):
                    sign = (-1) ** (mu.k - lam.k)
                    for fc in enumerate_filling_classes(lam, mu):
                        assert class_contribution(fc, n) == Fraction(
                            sign * n ** lam.k * class_weight_sum(fc),
                            z_of(lam))

    def test_totals_match_coefficient(self):
        # summed over all classes of all row shapes, the contributions
        # reproduce the determinant coefficient exactly
        for n in (2, 3, 4, 5):
            for ev in permanent_terms(n):
                total = Fraction(0)
                for lam in partitions_of(ev.q, divisor_constraint=n):
                    for fc in enumerate_filling_classes(lam, ev.mu()):
                        total += class_contribution(fc, n)
                assert total == det_coeff_er(ev)


class TestContributionRatioFactors:
    def test_examples(self):
        b = ExponentVector(2, (0, 2))
        fc = enumerate_filling_classes(Partition((2, 2)), b.mu())[0]
        first, second = contribution_ratio_factors(fc, b, 2)
        assert (first, second) == (Fraction(1), Fraction(2))
        assert valuation(second, 2) == 1

        b = ExponentVector(3, (1, 1, 1))
        fc = enumerate_filling_classes(Partition((3, 3)), b.mu())[0]
        first, second = contribution_ratio_factors(fc, b, 3)
        assert (first, second) == (Fraction(1), Fraction(3, 2))
        assert valuation(second, 3) == 1

    def test_product_is_the_contribution_ratio(self):
        for n in (4, 9):
            for ev in permanent_terms(n):
                base = abs(q_class_contribution(ev))
                for lam in partitions_of(ev.q, divisor_constraint=n):
                    for fc in enumerate_filling_classes(lam, ev.mu()):
                        if lam == Partition((ev.q,)):
                            continue
                        first, second = contribution_ratio_factors(fc, ev, n)
                        ratio = abs(class_contribution(fc, n)) / base
                        assert first * second == ratio, (ev.b, lam)

    def test_base_class_rejected(self):
        b = ExponentVector(2, (0, 2))
        fc = enumerate_filling_classes(Partition((4,)), b.mu())[0]
        with pytest.raises(ValueError):
            contribution_ratio_factors(fc, b, 2)

    def test_composite_n_rejected(self):
        b = ExponentVector(6, (6, 0, 0, 0, 0, 0))
        fc = enumerate_filling_classes(Partition((6,)), b.mu())[0]
        with pytest.raises(ValueError):
            contribution_ratio_factors(fc, b, 6)


class TestDominanceCheck:
    def test_example_n2(self):
        report = dominance_check(ExponentVector(2, (0, 2)), 2)
        assert report.passed
        assert report.p == 2 and report.r == 1
        assert report.q_class_valuation == 0
        assert report.other_valuations() == [1]

    def test_example_n3(self):
        report = dominance_check(ExponentVector(3, (1, 1, 1)), 3)
        assert report.passed
        assert report.q_class_valuation == 1
        assert report.other_valuations() == [2]

    def test_single_class_is_vacuous_pass(self):
        report = dominance_check(ExponentVector(2, (2, 0)), 2)
        assert report.passed
        assert report.other_valuations() == []
        assert len(report.class_records) == 1

    def test_composite_n_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(ExponentVector(6, (6, 0, 0, 0, 0, 0)), 6)

    def test_inadmissible_b_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(ExponentVector(2, (1, 1)), 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(ExponentVector(2, (0, 2)), 3)

    def test_records_sum_to_coefficient(self):
        for ev in permanent_terms(4):
            report = dominance_check(ev, 4)
            total = sum((rec.contribution for rec in report.class_records),
                        Fraction(0))
            assert total == det_coeff_er(ev)

    def test_given_coefficient_is_checked(self):
        ev = ExponentVector(3, (1, 1, 1))
        assert dominance_check(ev, 3, det_coeff_er(ev)).passed
        with pytest.raises(RuntimeError):
            dominance_check(ev, 3, det_coeff_er(ev) + 1)

    def test_wrong_coefficient_is_a_route_disagreement(self):
        ev = ExponentVector(5, (1, 1, 1, 1, 1))
        with pytest.raises(RouteDisagreement, match=r"^n=5 b=1,1,1,1,1: "):
            dominance_check(ev, 5, det_coeff_er(ev) - 1)

    def test_all_pass_for_small_prime_powers(self):
        for n in (2, 3, 4, 5):
            for ev in permanent_terms(n):
                assert dominance_check(ev, n).passed, ev.b

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
    def test_records_match_the_public_route(self, n):
        # the class walk builds each class without checks and takes its
        # contribution and valuation from integer weights; the checked
        # constructor and class_contribution must give the same
        p, _ = prime_power(n)
        for ev in permanent_terms(n):
            mu = ev.mu()
            for rec in dominance_check(ev, n).class_records:
                walked = rec.filling_class
                fc = FillingClass(rec.lam, mu, walked.rows)
                assert fc == walked and fc.rows == walked.rows
                assert (fc.r, fc.gamma, fc.delta) == \
                    (walked.r, walked.gamma, walked.delta)
                assert class_contribution(fc, n) == rec.contribution
                assert valuation(rec.contribution, p) == rec.valuation

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
    def test_q_class_comes_first_and_once(self, n):
        # the one class walk lists the one-row class <q> first, and no
        # other record has its lambda
        for ev in permanent_terms(n):
            records = dominance_check(ev, n).class_records
            assert records[0].lam.parts == (ev.q,), ev.b
            assert all(rec.lam.parts != (ev.q,) for rec in records[1:]), \
                ev.b

    def test_classes_match_the_brute_oracle(self):
        # each report's classes, grouped by lambda, against every filling
        # enumerated one by one and grouped by signature, with no code
        # shared with bricks: every term at n = 4 and 5, and a seeded
        # handful at n = 7 with q <= 21
        small = [b for b in permanent_terms(7) if b.q <= 21]
        terms = (permanent_terms(4) + permanent_terms(5)
                 + random.Random("brute-7").sample(small, 8))
        for b in terms:
            mu = b.mu()
            records = dominance_check(b, b.n).class_records
            got = {}
            for rec in records:
                sig = class_signature(rec.lam.parts, rec.filling_class.rows)
                got.setdefault(rec.lam, {})[sig] = rec.weight
            assert sum(map(len, got.values())) == len(records)
            for lam in partitions_of(b.q, b.n):
                assert got.pop(lam, {}) == \
                    classes_brute(lam.parts, mu.parts), (b.b, lam)
            assert not got

    def test_valuations_use_the_right_prime(self):
        report = dominance_check(ExponentVector(9, (9,) + (0,) * 8), 9)
        assert (report.p, report.r) == (3, 2)
        assert report.q_class_valuation == \
            valuation(q_class_contribution(ExponentVector(9, (9,) + (0,) * 8)), 3)


class TestOneWalkPerTerm:
    # dominance_check takes every class of every lambda of a term from
    # one sub-multiset walk of its bricks and keeps nothing between terms

    @staticmethod
    def _reports(n, terms, coeffs):
        out = {}
        for b in terms:
            report = dominance_check(b, n, coeffs[b])
            out[b] = (report.passed, report.q_class_valuation,
                      report.other_valuations(),
                      [rec.filling_class.rows for rec in report.class_records])
        return out

    @staticmethod
    def _container_sizes():
        # the length of every dict, list and set at module level in the
        # package, under the first name that holds it, and the states of
        # every coefficient engine
        sizes = {"engine_states": cache_sizes()["engine_states"]}
        seen = set()
        for module in (bricks, certificate, circulant, cli, exactmath,
                       partitions, theorem):
            for name, value in vars(module).items():
                if (not name.startswith("__") and id(value) not in seen
                        and isinstance(value, (dict, list, set))):
                    seen.add(id(value))
                    sizes[module.__name__, name] = len(value)
        return sizes

    def _assert_nothing_grows(self, n, run):
        # from cold caches, a run over every term of n leaves every
        # container as it found it
        terms = permanent_terms(n)
        clear_caches()
        coeffs = dict(zip(terms, det_table(n)))
        before = self._container_sizes()
        out = run(terms, coeffs)
        after = self._container_sizes()
        clear_caches()
        assert after == before
        return terms, coeffs, out

    def test_one_walk_per_term(self, monkeypatch):
        # each term walks the sub-multisets of its bricks once, at step
        # n and up to all of them: 810 walks for the 810 terms of n = 8
        walked = []
        walk = bricks._sub_rows

        def counted(bricks_, step, cap):
            walked.append((bricks_, step, cap))
            return walk(bricks_, step, cap)

        def run(terms, coeffs):
            monkeypatch.setattr(bricks, "_sub_rows", counted)
            reports = self._reports(8, terms, coeffs)
            monkeypatch.undo()
            return reports

        terms, coeffs, reports = self._assert_nothing_grows(8, run)
        assert len(walked) == 810
        assert walked == [(b.mu().parts, 8, b.q) for b in terms]
        assert reports == self._reports(8, terms, coeffs)
        clear_caches()

    def test_nothing_held_through_a_whole_run(self):
        terms, _, passes = self._assert_nothing_grows(
            9, lambda terms, coeffs: [dominance_check(b, 9, coeffs[b]).passed
                                      for b in terms])
        assert len(terms) == 2704
        assert all(passes)

    def test_reports_do_not_depend_on_term_order(self):
        terms = permanent_terms(8)
        clear_caches()
        coeffs = dict(zip(terms, det_table(8)))
        forward = self._reports(8, terms, coeffs)
        clear_caches()
        backward = self._reports(8, terms[::-1], coeffs)
        clear_caches()
        assert len(forward) == 810
        assert backward == forward


class TestIntegerSum:
    # dominance_check sums the lambda-level terms as integers over one
    # common denominator; a coefficient off by one must still be caught,
    # and each record must still give its class's exact contribution

    @pytest.mark.parametrize("n", [8, 9])
    def test_off_by_one_is_caught(self, n):
        terms = permanent_terms(n)
        coeffs = det_table(n)
        for i in random.Random(f"off-by-one-{n}").sample(range(len(terms)),
                                                        12):
            b, c = terms[i], coeffs[i]
            for wrong in (c - 1, c + 1):
                with pytest.raises(RuntimeError):
                    dominance_check(b, n, wrong)
            mu = b.mu()
            for rec in dominance_check(b, n, c).class_records:
                fc = FillingClass(rec.lam, mu, rec.filling_class.rows)
                assert rec.contribution == class_contribution(fc, n)


class TestDominanceTable:
    # dominance_table meets every class of every term of n in one walk
    # over the zero-residue rows; dominance_check, one class walk per
    # term, is its reference, verdict by verdict

    @staticmethod
    def _table(n):
        values = circulant._orbit_values(n)
        return values, list(dominance_table(n, values))

    @staticmethod
    def _verdict(n, b, c):
        report = dominance_check(ExponentVector(n, b), n, c)
        return (report.passed, report.q_class_valuation,
                report.other_valuations())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9])
    def test_every_term_matches_dominance_check(self, n):
        values, table = self._table(n)
        assert [b for b, _, _, _ in table] == \
            [ev.b for ev in permanent_terms(n)]
        for b, passed, v_base, others in table:
            assert (passed, v_base, others) == \
                self._verdict(n, b, values[b]), b

    def test_seeded_terms_of_11_match_dominance_check(self):
        values, table = self._table(11)
        assert len(table) == 32066
        assert all(passed for _, passed, _, _ in table)
        for i in random.Random("dominance-table-11").sample(
                range(len(table)), 300):
            b, passed, v_base, others = table[i]
            assert (passed, v_base, others) == \
                self._verdict(11, b, values[b]), b

    def test_sorts_the_map_itself(self):
        values, table = self._table(5)
        backward = dict(sorted(values.items(), reverse=True))
        assert list(dominance_table(5, backward)) == table

    @pytest.mark.parametrize("n", [8, 9])
    def test_off_by_one_is_caught(self, n):
        values = circulant._orbit_values(n)
        terms = sorted(values)
        for i in random.Random(f"off-by-one-{n}").sample(range(len(terms)),
                                                        12):
            b = ",".join(map(str, terms[i]))
            for wrong in (values[terms[i]] - 1, values[terms[i]] + 1):
                planted = {**values, terms[i]: wrong}
                with pytest.raises(RouteDisagreement,
                                   match=rf"^n={n} b={b}: "):
                    list(dominance_table(n, planted))

    def test_row_count_is_checked(self, monkeypatch):
        # the walk's rows must number p(n) - 1 by the closed form
        values = circulant._orbit_values(5)
        real = certificate.p_count
        monkeypatch.setattr(certificate, "p_count", lambda n: real(n) + 1)
        with pytest.raises(RouteDisagreement, match=r"^n=5: "):
            list(dominance_table(5, values))

    def test_nothing_held_through_a_whole_run(self):
        terms, _, table = TestOneWalkPerTerm()._assert_nothing_grows(
            8, lambda terms, coeffs: list(dominance_table(
                8, {b.b: coeffs[b] for b in terms})))
        assert len(table) == len(terms) == 810

    def test_composite_n_rejected(self):
        with pytest.raises(ValueError):
            list(dominance_table(6, circulant._orbit_values(6)))

    def test_lambda_terms_once_per_q(self, monkeypatch):
        # the lambda terms depend on a term only through q: 8 q's at n = 8
        seen = []
        real = certificate._lambda_terms

        def counted(mu, n, p):
            seen.append(mu.q)
            return real(mu, n, p)

        monkeypatch.setattr(certificate, "_lambda_terms", counted)
        table = list(dominance_table(8, circulant._orbit_values(8)))
        assert len(table) == 810
        assert sorted(seen) == list(range(8, 65, 8))


class TestLemmaCheck:
    def test_examples(self):
        assert lemma_check(3, 2, 2, [1, 2]) is True
        assert lemma_check(7, 2, 3, [3, 4]) is True
        assert lemma_check(5, 2, 3, [2, 2, 1]) is True

    def test_hypothesis_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            lemma_check(8, 2, 3, [4, 4])

    def test_single_part_rejected(self):
        with pytest.raises(ValueError):
            lemma_check(3, 2, 2, [3])

    def test_parts_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lemma_check(3, 2, 2, [1, 1])

    def test_exhaustive_binomials_p2(self):
        for s in (1, 2, 3):
            for m in range(2 ** s):
                for d in range(m + 1):
                    assert lemma_check(m, 2, s, [d, m - d]) is True

    def test_exhaustive_trinomials_p3(self):
        for m in range(9):
            for a in range(m + 1):
                for b in range(m - a + 1):
                    assert lemma_check(m, 3, 2, [a, b, m - a - b]) is True


class TestPrimePowerHelpersAgree:
    def test_report_prime_matches_factorization(self):
        for n in (2, 3, 4, 5, 7, 8, 9):
            ev = permanent_terms(n)[0]
            report = dominance_check(ev, n)
            assert prime_power(n) == (report.p, report.r)
