import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import comb, gcd

import pytest

from oracles import (P_METHODS, admissible_by_filter, affine_image,
                     affine_maps, affine_orbits, heavy_draws, inversion_sign,
                     leibniz_table, newton_table, p_count_by,
                     random_admissible, random_sparse_admissible,
                     weak_compositions)
import circulant_terms.bricks as bricks
import circulant_terms.circulant as circ
from circulant_terms.circulant import (
    ExponentVector,
    RouteDisagreement,
    cache_sizes,
    clear_caches,
    d_count,
    det_coeff_er,
    det_coeff_er_terms,
    det_coeff_oracle,
    det_table,
    expand_det,
    hall_admissible,
    p_count,
    permanent_terms,
    sign_epsilon,
)
from circulant_terms.bricks import filling_weight, m_to_p_expansion
from circulant_terms.cli import COEFF_MAX_N
from circulant_terms.partitions import Partition, partitions_of

# per(A) and det(A) term counts for n = 1..12
P_REFERENCE = [1, 2, 4, 10, 26, 80, 246, 810, 2704, 9252, 32066, 112720]
D_REFERENCE = [1, 2, 4, 10, 26, 68, 246, 810, 2704, 7492, 32066, 86500]


class TestExponentVector:
    def test_basic(self):
        ev = ExponentVector(3, (1, 1, 1))
        assert ev.q == 6
        assert ev.mu() == Partition((3, 2, 1))
        assert str(ev) == "1,1,1"

    def test_mu_skips_zero_exponents(self):
        assert ExponentVector(4, (0, 2, 0, 2)).mu() == Partition((4, 4, 2, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentVector(3, (1, 1))
        with pytest.raises(ValueError):
            ExponentVector(3, (2, 2, 0))
        with pytest.raises(ValueError):
            ExponentVector(3, (4, -1, 0))

    @pytest.mark.parametrize("n, b", [
        (2, (2.0, 0.0)), (2, (1, 1.0)), (3, (True, True, True)),
        (2, (False, 2)), (2.0, (1, 1)), (True, (1,)),
    ])
    def test_float_and_bool_rejected(self, n, b):
        # 2.0 == 2 and True == 1, but neither is an int: they would print
        # as themselves and reach the engine's integer arithmetic
        with pytest.raises(ValueError, match="must be integers"):
            ExponentVector(n, b)

    def test_nonpositive_n_rejected(self):
        # n = 0 with an empty b would reach a division by n
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                ExponentVector(n, ())

    def test_hashable(self):
        assert len({ExponentVector(2, (2, 0)), ExponentVector(2, (2, 0))}) == 1


class TestHallAdmissible:
    def test_examples(self):
        assert hall_admissible(ExponentVector(3, (3, 0, 0)))
        assert not hall_admissible(ExponentVector(6, (1,) * 6))
        assert hall_admissible(ExponentVector(2, (0, 2)))

    def test_matches_congruence_directly(self):
        for n in range(1, 7):
            for ev in _all_vectors(n):
                q = sum((i + 1) * ev.b[i] for i in range(n))
                assert hall_admissible(ev) == (q % n == 0)


def _all_vectors(n):
    """Every weak composition of n into n parts, as ExponentVectors."""
    out = []

    def descend(i, rem, acc):
        if i == n - 1:
            out.append(ExponentVector(n, tuple(acc + [rem])))
            return
        for v in range(rem + 1):
            descend(i + 1, rem - v, acc + [v])

    descend(0, n, [])
    return out


class TestPermanentTerms:
    def test_counts(self):
        assert len(permanent_terms(1)) == 1
        assert len(permanent_terms(3)) == 4
        assert len(permanent_terms(4)) == 10

    def test_lexicographic_order(self):
        terms = permanent_terms(4)
        assert terms[0].b == (0, 0, 0, 4)
        assert [t.b for t in terms] == sorted(t.b for t in terms)

    def test_exactly_the_admissible_vectors(self):
        for n in range(1, 7):
            expected = [ev for ev in _all_vectors(n) if hall_admissible(ev)]
            assert permanent_terms(n) == expected

    def test_residue_walk_pins_the_terms_at_10_to_12(self):
        # strictly increasing, admissible, of degree n and p(n) in
        # number: together exactly the admissible vectors, in order
        for n in (10, 11, 12):
            count, last = 0, ()
            for a in circ._residue_walk(n, n):
                assert len(a) == n and sum(a) == n
                assert sum(i * x for i, x in enumerate(a, 1)) % n == 0
                assert last < a
                count, last = count + 1, a
            assert count == p_count(n)

    def test_residue_walk_holds_no_term_list(self):
        # the walk keeps its tail table and O(n) state, not the terms:
        # the 400,024 terms of n = 13 would take tens of MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in circ._residue_walk(13, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == p_count(13)
        assert peak < 2 * 10 ** 6

    def test_residue_walk_matches_composition_filter(self):
        # every degree, since the power sums walk degrees below n too
        for n in range(1, 10):
            for total in range(n + 1):
                assert list(circ._residue_walk(n, total)) == \
                    admissible_by_filter(n, total), (n, total)


class TestPCount:
    def test_formula_examples(self):
        assert p_count(4) == 10
        assert p_count(10) == 9252
        assert p_count(12) == 112720

    def test_all_methods_agree_small(self):
        # the closed form against the three exhaustive counts
        for n in range(1, 9):
            vals = {m: p_count_by(n, m) for m in P_METHODS}
            assert len(set(vals.values())) == 1, vals
            assert vals["formula"] == P_REFERENCE[n - 1]

    def test_matches_term_enumeration(self):
        for n in range(1, 9):
            assert p_count(n) == len(permanent_terms(n))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            p_count_by(4, "guess")

    def test_enumerative_methods_bounded(self):
        with pytest.raises(ValueError):
            p_count_by(13, "congruence")
        with pytest.raises(ValueError):
            p_count_by(13, "necklaces")
        # the closed form has no such limit
        assert p_count_by(13, "formula") == p_count(13) == 400024

    def test_formula_large_value_is_integral(self):
        # the divisor sum must always be divisible by n
        for n in range(1, 40):
            assert p_count(n) > 0


class TestDetCoeffOracle:
    def test_examples(self):
        assert det_coeff_oracle(ExponentVector(2, (2, 0))) == -1
        assert det_coeff_oracle(ExponentVector(3, (1, 1, 1))) == 3
        assert det_coeff_oracle(ExponentVector(3, (0, 3, 0))) == -1

    def test_inadmissible_gives_zero(self):
        assert det_coeff_oracle(ExponentVector(3, (2, 1, 0))) == 0

    def test_inadmissible_b_is_refused_before_the_walk(self, monkeypatch):
        # q = 78 is not 0 mod 12, yet every variable has exponent to
        # spend, so an unchecked walk would fill every column set
        assert det_coeff_oracle(ExponentVector(3, (1, 1, 1))) == 3

        def no_walk(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(circ, "_leibniz", no_walk)
        assert det_coeff_oracle(ExponentVector(12, (1,) * 12)) == 0
        with pytest.raises(AssertionError, match="walked"):
            det_coeff_oracle(ExponentVector(3, (1, 1, 1)))

    def test_probe_monomial_holds_one_state_per_layer(self):
        # x_1^16 comes from one permutation; a walk that opened a layer
        # entry for every free column before spending would hold tens of
        # thousands of empty column sets here
        n = 16
        b0 = (n,) + (0,) * (n - 1)
        tracemalloc.start()
        try:
            table = circ._leibniz(n, b0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == {b0: inversion_sign([(n - 1 - i) % n
                                             for i in range(n)])}
        assert peak < 256 * 1024

    def test_bound_enforced(self):
        b = (13,) + (0,) * 12
        with pytest.raises(ValueError):
            det_coeff_oracle(ExponentVector(13, b))

    def test_uncached_sweep_matches_expansion(self):
        for n in range(1, 9):
            circ._EXPAND_CACHE.pop(n, None)
            swept = [det_coeff_oracle(ev) for ev in permanent_terms(n)]
            table = expand_det(n)
            assert swept == [table.get(ev.b, 0)
                             for ev in permanent_terms(n)], n

    def test_walk_matches_engine_past_the_sweep(self, monkeypatch):
        # no expansion cached: the permutation walk answers alone, on
        # unrestricted draws as well as at the edges
        monkeypatch.setattr(circ, "_EXPAND_CACHE", {})
        rng = random.Random("pruned-oracle")
        for n in (10, 11, 12):
            eps = sign_epsilon(n)
            for _ in range(3):
                ev = ExponentVector(n, random_admissible(rng, n))
                assert det_coeff_oracle(ev) == eps * det_coeff_er(ev), ev
        for n in (1, 2):
            for ev in permanent_terms(n):
                assert det_coeff_oracle(ev) == \
                    sign_epsilon(n) * det_coeff_er(ev), ev
        inadmissible = ExponentVector(10, (2, 1, 1, 1, 1, 1, 1, 1, 1, 0))
        assert not hall_admissible(inadmissible)
        assert det_coeff_oracle(inadmissible) == 0


class TestExpandDet:
    def test_n1(self):
        assert expand_det(1) == {(1,): 1}

    def test_n2(self):
        assert expand_det(2) == {(2, 0): -1, (0, 2): 1}

    def test_n3(self):
        assert expand_det(3) == {
            (3, 0, 0): -1,
            (0, 3, 0): -1,
            (0, 0, 3): -1,
            (1, 1, 1): 3,
        }

    def test_term_counts(self):
        for n in range(1, 9):
            assert len(expand_det(n)) == D_REFERENCE[n - 1]

    def test_support_is_hall_admissible(self):
        for n in range(1, 9):
            for b in expand_det(n):
                assert hall_admissible(ExponentVector(n, b))

    def test_agrees_with_single_coefficient_oracle(self):
        for n in range(1, 6):
            table = expand_det(n)
            for ev in permanent_terms(n):
                assert table.get(ev.b, 0) == det_coeff_oracle(ev)


class TestDetCoeffEr:
    def test_examples(self):
        assert det_coeff_er(ExponentVector(2, (2, 0))) == -1
        assert det_coeff_er(ExponentVector(3, (0, 3, 0))) == 1
        assert det_coeff_er(ExponentVector(3, (1, 1, 1))) == -3

    def test_inadmissible_gives_zero(self):
        assert det_coeff_er(ExponentVector(6, (1,) * 6)) == 0

    def test_terms_breakdown_examples(self):
        terms = det_coeff_er_terms(ExponentVector(2, (0, 2)))
        assert terms == {
            Partition((4,)): Fraction(-1),
            Partition((2, 2)): Fraction(2),
        }
        terms = det_coeff_er_terms(ExponentVector(3, (1, 1, 1)))
        assert terms == {
            Partition((6,)): Fraction(6),
            Partition((3, 3)): Fraction(-9),
        }

    def test_terms_sum_to_integer_coefficient(self):
        # the per-partition pieces are fractions; the total is an integer
        for n in range(1, 8):
            for ev in permanent_terms(n):
                total = sum(det_coeff_er_terms(ev).values(), Fraction(0))
                assert total.denominator == 1
                assert det_coeff_er(ev) == total

    def test_terms_are_scaled_power_sum_coefficients(self):
        # p_lambda at the n-th roots of unity is n^k(lambda), so each
        # term is that times the coefficient of p_lambda in m_mu
        for n in range(1, 5):
            for ev in permanent_terms(n):
                expansion = m_to_p_expansion(ev.mu())
                for lam, term in det_coeff_er_terms(ev).items():
                    assert term == n ** lam.k * expansion[lam]

    def test_pure_powers_match_their_one_permutation(self):
        # x_(k+1)^n comes from sigma(i) = (k-1-i) mod n alone, and all of
        # its bricks have one length: the walk with no level below the
        # anchor at k = 0, and one level of that length otherwise
        for n in range(1, 25):
            for k in range(n):
                b = [0] * n
                b[k] = n
                sigma = [(k - 1 - i) % n for i in range(n)]
                assert det_coeff_er(ExponentVector(n, b)) == \
                    sign_epsilon(n) * inversion_sign(sigma), (n, k)

    def test_nonzero_count_at_6(self):
        zeros = [ev.b for ev in permanent_terms(6)
                 if det_coeff_er(ev) == 0]
        assert len(zeros) == 12
        assert (0, 1, 1, 2, 1, 1) in zeros


class TestEngineBeyondOracle:
    """The engine above the oracle's bound, against the literal
    per-partition sum of det_coeff_er_terms."""

    # draws with at most this many nonzero exponents keep the literal
    # sum to a few tenths of a second per term at n <= 19
    MAX_LENGTHS = 6

    def test_matches_literal_sum(self):
        rng = random.Random("beyond-oracle")
        for n in range(13, 20):
            for _ in range(3):
                b = random_admissible(rng, n)
                while sum(1 for x in b if x) > self.MAX_LENGTHS:
                    b = random_admissible(rng, n)
                ev = ExponentVector(n, b)
                value = det_coeff_er(ev)
                assert value == sum(det_coeff_er_terms(ev).values()), b
                if n in (13, 16, 17, 19):
                    assert value != 0, b

    def test_matches_unrestricted_draws(self):
        # any number of occupied lengths: the literal sum takes its
        # weights from the class walk, a few ms per term at n <= 17
        rng = random.Random("unrestricted")
        for n in range(13, 18):
            for _ in range(2):
                ev = ExponentVector(n, random_admissible(rng, n))
                assert det_coeff_er(ev) == \
                    sum(det_coeff_er_terms(ev).values()), ev

    def test_matches_literal_sum_up_to_the_coeff_cap(self):
        # draws with 3 or 4 occupied lengths keep the literal sum to
        # about 0.1 s per term at n <= 24
        rng = random.Random("wide-sparse")
        for n in range(20, COEFF_MAX_N + 1):
            for k in (3, 3, 4, 4):
                ev = ExponentVector(n, random_sparse_admissible(rng, n, k))
                assert det_coeff_er(ev) == \
                    sum(det_coeff_er_terms(ev).values()), ev

    # one cold query each, b drawn by random_admissible with
    # random.Random("engine-states")
    STATE_DRAWS = {
        16: (1, 1, 0, 2, 2, 0, 0, 0, 2, 1, 1, 1, 0, 4, 0, 1),
        17: (0, 0, 1, 0, 1, 0, 3, 0, 3, 0, 0, 4, 0, 0, 0, 2, 3),
        18: (0, 0, 0, 5, 3, 2, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 5),
        19: (0, 1, 4, 0, 0, 2, 1, 1, 1, 0, 0, 1, 0, 2, 2, 1, 1, 1, 1),
    }

    def test_memo_states_pinned(self):
        # the engine asked for b itself; the counts were measured with
        # the unpruned block walk, and pruning must not change them
        for n, states in {16: 269, 17: 175, 18: 121, 19: 1821}.items():
            circ._ENGINES.pop(n, None)
            circ._engine(n).coeff(self.STATE_DRAWS[n])
            assert len(circ._ENGINES[n].memo) == states, n

    def test_image_states_pinned(self):
        # det_coeff_er asks the engine for the image _Engine.image picks,
        # with x_n set to 0
        for n, states in {16: 57, 17: 24, 18: 13, 19: 364}.items():
            circ._ENGINES.pop(n, None)
            det_coeff_er(ExponentVector(n, self.STATE_DRAWS[n]))
            assert len(circ._ENGINES[n].memo) == states, n

    def test_heavy_image_states_pinned(self):
        # one cold query per draw; the engine asked for b itself takes
        # 1,195 to 12,961 states on each
        states = [151, 522, 944, 631, 838, 1256, 902, 1360, 375,
                  669, 402, 418, 360, 481, 1081, 206, 3457, 451]
        for (n, b), expected in zip(heavy_draws(), states, strict=True):
            circ._ENGINES.pop(n, None)
            det_coeff_er(ExponentVector(n, b))
            assert len(circ._ENGINES[n].memo) == expected, (n, b)


class TestImageQuery:
    """det_coeff_er asks the engine for one image of b under the maps
    x_j -> x_(u*j+c) and negates it by _shift_negates(n, c)."""

    def test_equals_engine_on_b_for_every_term(self):
        for n in range(1, 11):
            raw = circ._Engine(n)
            for ev in permanent_terms(n):
                assert det_coeff_er(ev) == raw.coeff(ev.b), ev

    def test_equals_engine_on_b_past_the_oracle(self):
        rng = random.Random("image-query")
        for n in range(13, 20):
            for _ in range(3):
                b = random_admissible(rng, n)
                assert det_coeff_er(ExponentVector(n, b)) == \
                    circ._Engine(n).coeff(b), (n, b)

    def test_length_n_bricks_drop_in_closed_form(self):
        # [x^b] = (-1)^(b_n) * the engine at b with b_n set to 0, on every
        # weak composition to n = 7, admissible or not, and on every
        # admissible term to n = 10
        for n in range(1, 11):
            terms = (weak_compositions(n, n) if n <= 7
                     else (ev.b for ev in permanent_terms(n)))
            whole, dropped = circ._Engine(n), circ._Engine(n)
            for b in terms:
                assert whole.coeff(b) == \
                    (-1) ** b[-1] * dropped.coeff(b[:-1] + (0,)), b

    def test_image_is_the_first_of_least_q_with_max_at_xn(self):
        def q(b):
            return sum(i * x for i, x in enumerate(b, 1))

        for n in range(1, 10):
            units = sorted({u for u, _ in affine_maps(n)})
            for ev in permanent_terms(n):
                b = ev.b
                image, c = circ._engine(n).image(b)
                # x_(p+1) -> x_n under x_j -> x_(u*j+c), by position p,
                # then by unit u
                maps = [(u, -u * (p + 1) % n)
                        for p, x in enumerate(b) if x == max(b)
                        for u in units]
                images = [affine_image(b, u, cc) for u, cc in maps]
                assert all(im[-1] == max(b) for im in images)
                least = min(map(q, images))
                first = next(i for i, im in enumerate(images)
                             if q(im) == least)
                assert (image, c) == (images[first], maps[first][1]), b


class TestFillingWeightRoutes:
    """det_coeff_er_terms sums w(lambda, mu) over the class walk; the row
    recursion behind filling_weight is the other route to each w."""

    @staticmethod
    def terms():
        # every admissible term to n = 9, then 4 seeded draws per n
        terms = [ev for n in range(1, 10) for ev in permanent_terms(n)]
        rng = random.Random("filling-weight-routes")
        for n in range(10, 17):
            terms += [ExponentVector(n, random_admissible(rng, n))
                      for _ in range(4)]
        return list(dict.fromkeys(terms))

    @staticmethod
    def recursed(ev):
        # det_coeff_er_terms' terms with each w from the row recursion
        mu = ev.mu()
        weights = {lam: filling_weight(lam, mu)
                   for lam in partitions_of(ev.q, ev.n)}
        return {lam: bricks._er_term(mu, lam, w, ev.n)
                for lam, w in weights.items() if w}

    def test_class_walk_matches_row_recursion(self):
        # the row recursion first, on a cold memo, so each w the class
        # walk records meets the recursion's own value for its key
        clear_caches()
        terms = self.terms()
        recursed = [self.recursed(ev) for ev in terms]
        for ev, expected in zip(terms, recursed):
            assert list(det_coeff_er_terms(ev).items()) == \
                list(expected.items()), ev
        clear_caches()

    def test_class_walk_leaves_the_memo_as_found(self):
        # det_coeff_er_terms only reads the row recursion's memo: from
        # cold caches it leaves it empty, and after det_table(8) and the
        # recursion on every other term it leaves the recursion's entries
        clear_caches()
        terms = [ev for n in range(1, 9) for ev in permanent_terms(n)]
        for ev in terms:
            det_coeff_er_terms(ev)
        assert bricks._W_MEMO == {}
        det_table(8)
        for ev in terms[::2]:
            self.recursed(ev)
        held = dict(bricks._W_MEMO)
        assert held
        for ev in terms:
            det_coeff_er_terms(ev)
        assert bricks._W_MEMO == held
        clear_caches()

    def test_inadmissible_term_has_no_terms(self):
        # no lambda of q has every part a multiple of n, so the class walk
        # returns at once: walked in full, the n = 18 term takes ~45 s
        for n in (6, 18):
            assert det_coeff_er_terms(ExponentVector(n, (1,) * n)) == {}

    def test_planted_weight_is_not_read(self):
        # the literal sum takes each w from the class walk alone: a wrong
        # w planted in the row recursion's memo changes nothing
        clear_caches()
        ev = ExponentVector(4, (0, 2, 0, 2))
        cold = list(det_coeff_er_terms(ev).items())
        key = ((4, 4, 4), ev.mu().parts)
        bricks._W_MEMO[key] = bricks._w(*key) + 1
        assert list(det_coeff_er_terms(ev).items()) == cold
        clear_caches()


# det_table(n)'s engine states on a fresh engine, n = 1..12: one query
# per representative of affine_orbits, as d_count(n) makes
TABLE_STATES = [1, 1, 2, 3, 4, 12, 13, 51, 85, 310, 435, 3130]


class TestEngineMemo:
    def test_memo_digest_pinned(self):
        # every memoized state, in insertion order, with its value, after
        # two cold queries per n drawn by random_admissible with
        # random.Random("engine-memo"); recorded when the anchor brick
        # still had a loop of its own outside the block walk
        digest = hashlib.sha256()
        rng = random.Random("engine-memo")
        for n in range(1, 20):
            circ._ENGINES.pop(n, None)
            for _ in range(2):
                circ._engine(n).coeff(random_admissible(rng, n))
            digest.update(repr(list(circ._ENGINES[n].memo.items())).encode())
        assert digest.hexdigest() == (
            "0a6d2f46373648005d8280bca7fc511283ffa0c66a77f192c3b669f1689847de")

    def test_table_memo_digest_pinned(self):
        # every memoized state, in insertion order, with its value, after
        # det_table(n) for n <= 10 on a fresh engine; recorded when
        # det_table first took its orbits from affine_orbits
        digest = hashlib.sha256()
        for n in range(1, 11):
            circ._ENGINES.pop(n, None)
            det_table(n)
            digest.update(repr(list(circ._ENGINES[n].memo.items())).encode())
        assert digest.hexdigest() == (
            "55310049e6acec3fc271e21c23514bc0be0f2dadb56475887e8509ff43da598a")

    def test_table_memo_states_pinned(self):
        for n in range(1, 13):
            for count in (det_table, d_count):
                circ._ENGINES.pop(n, None)
                count(n)
                assert len(circ._ENGINES[n].memo) == TABLE_STATES[n - 1], \
                    (n, count)

    def test_binomial_rows(self):
        for n in range(1, COEFF_MAX_N + 1):
            assert circ._Engine(n).binom == [
                [comb(c, a) for a in range(c + 1)] for c in range(n + 1)]

    def test_shared_engine_matches_fresh_engines(self):
        # each state reads only the lengths of the query that reached it,
        # so a state memoized under a sparse query is read by a query
        # holding every length, and the other way round
        rng = random.Random("engine-supports")
        for n in (13, 15):
            shared = circ._Engine(n)
            for b in (random_sparse_admissible(rng, n, 3), (1,) * n,
                      random_sparse_admissible(rng, n, 3)):
                fresh = circ._Engine(n)
                assert shared.coeff(b) == fresh.coeff(b), (n, b)
                for key, val in fresh.memo.items():
                    assert shared.memo[key] == val, (n, b)


class TestDCount:
    def test_reference_values(self):
        assert d_count(6) == 68
        assert d_count(9) == 2704

    def test_methods_agree(self):
        for n in range(1, 7):
            assert d_count(n) == len(expand_det(n))


class TestDetTable:
    def test_matches_det_coeff_er_for_every_term(self):
        for n in range(1, 11):
            assert det_table(n) == \
                [det_coeff_er(ev) for ev in permanent_terms(n)], n

    def test_matches_signed_expansion(self):
        for n in range(1, 10):
            eps = sign_epsilon(n)
            assert expand_det(n) == {b: eps * v for b, v in
                                     circ._orbit_values(n).items() if v}, n

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            det_table(0)

    def test_spot_check_catches_disagreement(self, monkeypatch):
        monkeypatch.setattr(circ._Engine, "coeff",
                            lambda self, b, asked=None: 10 ** 6)
        with pytest.raises(RouteDisagreement, match=r"n=5 b=\d"):
            det_table(5)

    def test_missing_images_caught(self, monkeypatch):
        # the representatives alone: their values cover 3 of the 10 terms
        monkeypatch.setattr(circ, "_affine_images",
                            lambda n: [(tuple, False)])
        with pytest.raises(RouteDisagreement, match=(
                r"^n=4: p disagrees: 10 by the formula, 3 by the orbit "
                r"images$")):
            det_table(4)


# affine orbits of the admissible terms of n = 1..12
ORBIT_COUNTS = [1, 1, 2, 3, 4, 12, 12, 49, 70, 268, 320, 2806]


class TestOrbitRoute:
    def test_sign_rule_on_every_term_and_map(self):
        for n in range(1, 10):
            coeff = dict(zip((ev.b for ev in permanent_terms(n)),
                             newton_table(n)))
            for b, value in coeff.items():
                for u, c in affine_maps(n):
                    assert coeff[affine_image(b, u, c)] == \
                        (-1) ** (c * (n - 1)) * value, (n, b, u, c)

    def test_maps_are_every_affine_substitution(self):
        for n in range(1, 10):
            images = circ._affine_images(n)
            assert len(images) == len(affine_maps(n))
            for ev in permanent_terms(n):
                found = {(image(ev.b), negate) for image, negate in images}
                expected = {(affine_image(ev.b, u, c), c * (n - 1) % 2 == 1)
                            for u, c in affine_maps(n)}
                assert found == expected, (n, ev.b)

    def test_orbit_sizes_sum_to_p(self):
        for n in range(1, 10):
            orbits = affine_orbits(n)
            assert sum(map(len, orbits)) == p_count(n)
            assert len(orbits) == ORBIT_COUNTS[n - 1]

    def test_one_engine_query_per_orbit(self, monkeypatch):
        queried = []
        coeff = circ._Engine.coeff

        def spy(self, b, asked=None):
            queried.append(b)
            return coeff(self, b, asked)

        monkeypatch.setattr(circ._Engine, "coeff", spy)
        for n in range(1, 13):
            queried.clear()
            det_table(n)
            asked = list(queried)
            # the spot checks read the stream's value and ask nothing more
            assert len(asked) == ORBIT_COUNTS[n - 1], n
            if n < 10:
                # the image _Engine.image picks for each representative of
                # affine_orbits, with x_n set to 0
                orbits = list(circ.affine_orbits(n))
                eng = circ._engine(n)
                assert asked == [eng.image(b)[0][:-1] + (0,)
                                 for b, _, _ in orbits], n

    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_wrong_reversal_sign_caught(self, monkeypatch, n):
        # a wrong sign on the engine's query negates every value it gives
        coeff = circ._Engine.coeff
        monkeypatch.setattr(circ._Engine, "coeff",
                            lambda self, b, asked=None: -coeff(self, b, asked))
        with pytest.raises(RouteDisagreement, match=rf"n={n} b=\d"):
            det_table(n)

    def test_matches_newton_oracle(self):
        for n in range(1, 12):
            assert det_table(n) == newton_table(n), n

    def test_spot_checks_keep_their_positions(self, monkeypatch):
        # the orbits of ranks random.Random(n) draws, in stream order,
        # each checked at its image of least q (then least by term)
        checked = []

        def spy(b):
            checked.append(b.b)
            return det_coeff_er_terms(b)

        monkeypatch.setattr(circ, "det_coeff_er_terms", spy)
        for n in (1, 4, 9, 12):
            checked.clear()
            orbits = list(circ.affine_orbits(n))
            ranks = sorted(random.Random(n).sample(
                range(len(orbits)), min(circ.SPOT_CHECKS, len(orbits))))
            least = [min((sum(i * x for i, x in enumerate(a, 1)), a)
                         for a in (affine_image(orbits[rank][0], u, c)
                                   for u, c in affine_maps(n)))[1]
                     for rank in ranks]
            assert checked == least, n
        # the ranks of n = 12, the last n above
        assert ranks == [584, 1101, 1432, 1563, 1943, 2167, 2693, 2729]

    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_wrong_sign_caught(self, monkeypatch, n):
        maps = circ._position_maps
        monkeypatch.setattr(circ, "_position_maps", lambda n: [
            [(image, not negate) for image, negate in row] for row in maps(n)])
        with pytest.raises(RouteDisagreement, match=rf"n={n} b=\d"):
            det_table(n)


class TestAffineOrbits:
    def test_matches_oracle_orbits(self):
        # each representative is the least member holding max(b) at x_n
        # of exactly one orbit, and its size is that orbit's length
        for n in range(1, 11):
            orbits = {}
            for orbit in affine_orbits(n):
                top = max(orbit[0])
                rep = min(b for b in orbit if b[-1] == top)
                orbits[rep] = len(orbit)
            stream = list(circ.affine_orbits(n))
            assert {b: size for b, size, _ in stream} == orbits, n
            assert len(stream) == len(orbits), n

    def test_coeff_is_the_representatives_coefficient(self):
        # the orbit's one engine query gives b's own value, signed as the
        # Newton oracle signs it
        for n in range(1, 10):
            coeff = dict(zip((ev.b for ev in permanent_terms(n)),
                             newton_table(n)))
            for b, _, value in circ.affine_orbits(n):
                assert value == coeff[b], (n, b)

    def test_burnside_count(self):
        for n in range(1, 13):
            assert circ._burnside_count(n) == ORBIT_COUNTS[n - 1], n
        assert [circ._burnside_count(n) for n in (13, 14, 15)] == \
            [2658, 17380, 44412]

    def test_fixed_terms(self):
        # the identity fixes every term, and a map's count depends on c
        # only mod gcd(u-1, n)
        for n in range(1, 10):
            assert circ._fixed_terms(n, 1, 0) == p_count(n)
            for u, c in affine_maps(n):
                g = gcd(u - 1, n)
                assert circ._fixed_terms(n, u, c) == \
                    circ._fixed_terms(n, u, c % g), (n, u, c)
                assert circ._fixed_terms(n, u, c) == sum(
                    affine_image(ev.b, u, c) == ev.b
                    for ev in permanent_terms(n)), (n, u, c)

    def test_d_count_is_det_tables_nonzero_count(self):
        for n in range(1, 14):
            assert d_count(n) == sum(1 for c in det_table(n) if c), n
        assert d_count(13) == 400024

    def test_d_count_holds_no_table(self):
        # the stream holds O(orbits); det_table(12) peaks near 24 MB
        circ._ENGINES.pop(12, None)
        tracemalloc.start()
        try:
            assert d_count(12) == 86500
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10 ** 6

    def test_stream_adds_no_cache(self):
        clear_caches()
        d_count(8)
        assert set(cache_sizes()) == {"engine_states",
                                      "expanded_determinants",
                                      "filling_weights"}
        assert cache_sizes()["engine_states"] == len(circ._ENGINES[8].memo)


class TestSignEpsilon:
    def test_values(self):
        assert [sign_epsilon(n) for n in range(1, 9)] == \
            [1, 1, -1, -1, 1, 1, -1, -1]

    def test_matches_quadratic_formula(self):
        for n in range(1, 11):
            assert sign_epsilon(n) == (-1) ** (((n - 1) * (n - 2) // 2) % 2)

    def test_relates_the_two_routes(self):
        for n in range(1, 6):
            eps = sign_epsilon(n)
            for ev in permanent_terms(n):
                assert det_coeff_er(ev) == eps * det_coeff_oracle(ev)


class TestParallelSweep:
    def test_partitioned_sweep_merges_to_full(self):
        # the walks for each column of row 0 add up to the n! sum
        for n in (4, 5):
            merged = {}
            for first in range(n):
                for b, c in circ._leibniz(n, (n,) * n, first).items():
                    merged[b] = merged.get(b, 0) + c
            assert merged == leibniz_table(n)


class TestColumnShift:
    """expand_det sums only sigma(0) = 0; composing with the column
    shift by c rotates exponents by c and multiplies signs by
    (-1)^(c(n-1)).  These tests pin that to the literal n! sum."""

    @staticmethod
    def nonzero(table):
        return {key: coeff for key, coeff in table.items() if coeff}

    def test_shifted_fixed_row_sweep_is_the_full_sweep(self):
        for n in range(1, 9):
            shifted = {}
            for key, coeff in circ._leibniz(n, (n,) * n, first=0).items():
                for c in range(n):
                    # the permutation tau_c o sigma puts x_(v+c) where
                    # sigma put x_v
                    rotated = tuple(key[(w - c) % n] for w in range(n))
                    sign = (-1) ** (c * (n - 1))
                    shifted[rotated] = shifted.get(rotated, 0) + sign * coeff
            assert self.nonzero(shifted) == \
                self.nonzero(leibniz_table(n)), n

    def test_oracle_matches_full_sweep_on_every_key(self):
        for n in range(1, 8):
            for key, coeff in leibniz_table(n).items():
                assert det_coeff_oracle(ExponentVector(n, key)) == coeff, \
                    (n, key)

    def test_expand_det_is_the_full_sweep(self):
        # the table filled a rotation class at a time, not from the cache
        for n in range(1, 9):
            circ._EXPAND_CACHE.clear()
            assert expand_det(n) == self.nonzero(leibniz_table(n)), n

    def test_rotation_class_signs(self):
        for n in range(1, 11):
            table = expand_det(n)
            for b, coeff in table.items():
                for c in range(n):
                    rotated = tuple(b[(w - c) % n] for w in range(n))
                    assert table.get(rotated) == \
                        (-1) ** (c * (n - 1)) * coeff, (n, b, c)


class TestCaches:
    def test_sizes_reported_and_cleared(self):
        clear_caches()
        assert cache_sizes() == {"engine_states": 0,
                                 "expanded_determinants": 0,
                                 "filling_weights": 0}
        ev = ExponentVector(4, (0, 2, 0, 2))
        values = (expand_det(4).get(ev.b, 0), det_coeff_er(ev),
                  filling_weight(Partition((4, 4, 4)), ev.mu()))
        sizes = cache_sizes()
        assert sizes["expanded_determinants"] == 1
        assert sizes["engine_states"] > 1
        assert sizes["filling_weights"] > 0
        assert sizes["engine_states"] == len(circ._ENGINES[4].memo)
        assert sizes["filling_weights"] == len(bricks._W_MEMO)
        clear_caches()
        assert set(cache_sizes().values()) == {0}
        assert (expand_det(4).get(ev.b, 0), det_coeff_er(ev),
                filling_weight(Partition((4, 4, 4)), ev.mu())) == values


class TestTermTable:
    """The table expand_det returns: a plain dict {b: coefficient}."""

    def test_expand_det_table_passes_the_checks(self):
        # every key a term of size n, every value a nonzero int
        for n in range(1, 9):
            for b, coeff in expand_det(n).items():
                assert type(b) is tuple and len(b) == n and sum(b) == n
                assert type(coeff) is int and coeff != 0
