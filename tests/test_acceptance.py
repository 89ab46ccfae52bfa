"""Acceptance gate: one test per acceptance criterion, exact tolerances.

Everything here is exact integer/rational arithmetic, so every comparison
is ==; the only numeric tolerances are wall-clock ceilings, asserted
directly.  Criteria are numbered; `pytest -v` gives one line per criterion.
"""

import csv
import io
import random
import time
from fractions import Fraction

from oracles import filling_weight_brute, p_count_by, verify_m2p
from circulant_terms import cli
from circulant_terms.bricks import (
    class_weight_sum,
    enumerate_filling_classes,
    filling_weight,
)
from circulant_terms.circulant import (
    det_coeff_er,
    expand_det,
    permanent_terms,
    sign_epsilon,
)
from circulant_terms.exactmath import prime_power, valuation
from circulant_terms.partitions import Partition, partitions_of
from circulant_terms.theorem import (
    contribution_ratio_factors,
    dominance_check,
    lemma_check,
)

# published term counts for the n x n case, n = 1..12
D_ROW = [1, 2, 4, 10, 26, 68, 246, 810, 2704, 7492, 32066, 86500]
P_ROW = [1, 2, 4, 10, 26, 80, 246, 810, 2704, 9252, 32066, 112720]

SEED = 20260814


def test_criterion_1_cli_table_reproduces_published_counts_to_12(capsys):
    start = time.monotonic()
    code = cli.main(["table", "--max-n", "12"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [int(r["n"]) for r in rows] == list(range(1, 13))
    assert [int(r["d"]) for r in rows] == D_ROW
    assert [int(r["p"]) for r in rows] == P_ROW
    assert [r["equal"] for r in rows] == \
        ["true" if d == p else "false" for d, p in zip(D_ROW, P_ROW)]
    assert elapsed < 900.0


def test_criterion_2_four_permanent_counting_methods_agree_to_10():
    start = time.monotonic()
    for n in range(1, 11):
        values = {
            method: p_count_by(n, method)
            for method in ("formula", "congruence", "necklaces", "lattice")
        }
        assert len(set(values.values())) == 1, (n, values)
        assert values["formula"] == P_ROW[n - 1]
        assert values["formula"] == len(permanent_terms(n))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_3_partition_route_matches_permutation_oracle():
    start = time.monotonic()
    for n in range(1, 9):
        eps = sign_epsilon(n)
        assert eps in (-1, 1)
        table = expand_det(n)
        for ev in permanent_terms(n):
            assert det_coeff_er(ev) == eps * table.get(ev.b, 0), (n, ev.b)
    # seeded spot checks where the full sweep is still affordable
    rng = random.Random(SEED)
    for n in (9, 10):
        eps = sign_epsilon(n)
        table = expand_det(n)
        for ev in rng.sample(permanent_terms(n), 50):
            assert det_coeff_er(ev) == eps * table.get(ev.b, 0), (n, ev.b)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0


def test_criterion_4_monomial_to_power_sum_tables_evaluate_exactly():
    for q in range(1, 8):
        report = verify_m2p(q, trials=5, seed=SEED + q)
        assert report.all_match, report.counterexample
        assert report.counterexample is None
        assert report.points_checked == 5 * len(partitions_of(q))


def test_criterion_5_dominance_holds_for_every_term_of_prime_powers_to_9():
    for n in (2, 3, 4, 5, 7, 8, 9):
        p, _ = prime_power(n)
        for ev in permanent_terms(n):
            report = dominance_check(ev, n)
            # (a) the per-class contributions reassemble the coefficient
            total = sum((rec.contribution for rec in report.class_records),
                        Fraction(0))
            assert total == det_coeff_er(ev), (n, ev.b)
            # (b)+(c) factored ratios: integral first factor, second factor
            # carrying at least one power of p
            for rec in report.class_records:
                if rec.lam == Partition((ev.q,)):
                    continue
                first, second = contribution_ratio_factors(
                    rec.filling_class, ev, n)
                assert first > 0 and first.denominator == 1, (n, ev.b, rec.lam)
                assert valuation(second, p) >= 1, (n, ev.b, rec.lam)
            # (d) the base valuation is strictly smallest
            assert report.passed, (n, ev.b)
            assert all(v > report.q_class_valuation
                       for v in report.other_valuations()), (n, ev.b)


def test_criterion_6_composite_sizes_have_expected_vanishing_terms():
    zeros_6 = [ev for ev in permanent_terms(6) if det_coeff_er(ev) == 0]
    assert len(zeros_6) == 12
    zeros_10 = [ev for ev in permanent_terms(10) if det_coeff_er(ev) == 0]
    assert len(zeros_10) == 1760
    # sanity: the survivors account for the published determinant counts
    assert len(permanent_terms(6)) - len(zeros_6) == D_ROW[5]
    assert len(permanent_terms(10)) - len(zeros_10) == D_ROW[9]


def test_criterion_7_multinomial_valuation_bound_holds():
    rng = random.Random(SEED)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        s = rng.randint(1, 5)
        m = rng.randrange(p ** s)
        k = rng.randint(2, 5)
        cuts = sorted(rng.randint(0, m) for _ in range(k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        assert lemma_check(m, p, s, parts) is True, (m, p, s, parts)
        d = rng.randint(0, m)
        assert lemma_check(m, p, s, [d, m - d]) is True, (m, p, s, d)
    # exhaustive two-part sweep below 2^4
    for m in range(16):
        for d in range(m + 1):
            assert lemma_check(m, 2, 4, [d, m - d]) is True


def test_criterion_8_filling_weights_match_brute_enumeration():
    for q in range(1, 8):
        for lam in partitions_of(q):
            for mu in partitions_of(q):
                assert filling_weight(lam, mu) == \
                    filling_weight_brute(lam.parts, mu.parts), (lam, mu)
    # the class decomposition carries the same totals further out
    for q in range(8, 11):
        for lam in partitions_of(q):
            for mu in partitions_of(q):
                total = sum(class_weight_sum(fc)
                            for fc in enumerate_filling_classes(lam, mu))
                assert total == filling_weight(lam, mu), (lam, mu)
