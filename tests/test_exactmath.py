from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circulant_terms
import circulant_terms.circulant as circ
from circulant_terms.exactmath import (
    RouteDisagreement,
    admit,
    divisors,
    euler_phi,
    factorize,
    multinomial,
    prime_power,
    valuation,
)


class TestValuation:
    def test_integer_examples(self):
        assert valuation(8, 2) == 3
        assert valuation(6, 3) == 1
        assert valuation(6, 5) == 0
        assert valuation(-12, 2) == 2

    def test_fraction_examples(self):
        assert valuation(Fraction(3, 4), 2) == -2
        assert valuation(Fraction(9, 5), 3) == 2
        assert valuation(Fraction(1, 1), 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)
        with pytest.raises(ValueError):
            valuation(Fraction(0), 2)

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError):
            valuation(8, 1)
        with pytest.raises(ValueError):
            valuation(8, -3)

    @given(
        a=st.integers(min_value=-500, max_value=500).filter(lambda x: x != 0),
        b=st.integers(min_value=1, max_value=500),
        c=st.integers(min_value=-500, max_value=500).filter(lambda x: x != 0),
        d=st.integers(min_value=1, max_value=500),
        p=st.sampled_from([2, 3, 5, 7]),
    )
    @settings(deadline=None)
    def test_additive_over_products(self, a, b, c, d, p):
        x = Fraction(a, b)
        y = Fraction(c, d)
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)

    def test_int_path_matches_fraction_path(self):
        # a plain int skips the Fraction check; an int subclass and a
        # whole Fraction take the other path to the same value
        for x in (1, -1, 12, 2 ** 40 * 3 ** 7, -(5 ** 9)):
            for p in (2, 3, 5, 7):
                assert valuation(x, p) == valuation(Fraction(x), p)
        assert valuation(True, 2) == 0

    @pytest.mark.parametrize("x", [0, Fraction(0)])
    def test_errors_unchanged_on_both_paths(self, x):
        with pytest.raises(ValueError, match="^invalid prime$"):
            valuation(x, 1)
        with pytest.raises(ValueError, match="^valuation of zero undefined$"):
            valuation(x, 2)

    def test_recovers_power(self):
        for p in (2, 3, 5):
            for v in range(-4, 5):
                assert valuation(Fraction(p) ** v * 7, p) == v


class TestMultinomial:
    def test_examples(self):
        assert multinomial(3, [2, 1]) == 3
        assert multinomial(6, [3, 3]) == 20
        assert multinomial(4, [2, 1, 1]) == 12
        assert multinomial(0, [0, 0]) == 1
        assert multinomial(5, [5]) == 1

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(4, [2, 1])

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            multinomial(2, [3, -1])

    @given(parts=st.lists(st.integers(min_value=0, max_value=6),
                          min_size=1, max_size=4))
    @settings(deadline=None)
    def test_matches_factorial_quotient(self, parts):
        m = sum(parts)
        expected = 1
        for i in range(2, m + 1):
            expected *= i
        for part in parts:
            for i in range(2, part + 1):
                expected //= i
        assert multinomial(m, parts) == expected

    def test_order_irrelevant(self):
        assert multinomial(7, [4, 2, 1]) == multinomial(7, [1, 4, 2])


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(7) == [(7, 1)]
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_round_trip(self):
        for n in range(1, 300):
            prod = 1
            for p, e in factorize(n):
                prod *= p ** e
            assert prod == n


class TestPrimePower:
    def test_examples(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)
        assert prime_power(7) == (7, 1)
        assert prime_power(12) is None
        assert prime_power(1) is None

    def test_agrees_with_factorize(self):
        for n in range(2, 300):
            facs = factorize(n)
            if len(facs) == 1:
                assert prime_power(n) == facs[0]
            else:
                assert prime_power(n) is None


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(4) == 2
        assert euler_phi(12) == 4
        assert euler_phi(13) == 12

    def test_divisor_sum_identity(self):
        for n in range(1, 201):
            assert sum(euler_phi(d) for d in divisors(n)) == n


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(7) == [1, 7]

    def test_sorted_and_complete(self):
        for n in range(1, 120):
            ds = divisors(n)
            assert ds == sorted(ds)
            assert ds == [d for d in range(1, n + 1) if n % d == 0]


class TestAdmit:
    def test_returns_the_common_value(self):
        assert admit(4, None, "d", {"one": 10}) == 10
        assert admit(4, None, "d", {"one": 10, "two": 10, "three": 10}) == 10
        assert admit(4, (1, 1, 1, 1), "coefficient",
                     {"one": Fraction(-6), "two": -6}) == -6

    def test_disagreement_names_n(self):
        with pytest.raises(RouteDisagreement,
                           match=r"^n=4: d disagrees: 10 by one, 9 by two$"):
            admit(4, None, "d", {"one": 10, "two": 9})

    def test_disagreement_names_n_and_b(self):
        with pytest.raises(RouteDisagreement,
                           match=r"^n=4 b=1,1,1,1: coefficient disagrees: "):
            admit(4, (1, 1, 1, 1), "coefficient", {"one": -6, "two": 6})

    def test_every_route_and_value_is_named(self):
        with pytest.raises(RouteDisagreement) as info:
            admit(4, None, "p", {"the formula": 10, "the walk": 10,
                                 "the rows": 9})
        assert str(info.value) == ("n=4: p disagrees: 10 by the formula, "
                                   "10 by the walk, 9 by the rows")

    def test_message_is_built_only_on_failure(self):
        class Unprintable(int):
            def __format__(self, spec):
                raise AssertionError("message built")

            def __str__(self):
                raise AssertionError("message built")

        assert admit(4, None, "d", {"one": Unprintable(3), "two": 3}) == 3

    def test_one_exception_class_everywhere(self):
        assert issubclass(RouteDisagreement, RuntimeError)
        assert circ.RouteDisagreement is RouteDisagreement
        assert circulant_terms.RouteDisagreement is RouteDisagreement
