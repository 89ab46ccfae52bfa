"""Numerical certification of the prime-power non-cancellation argument.

For n = p^r and an admissible b, the determinant coefficient is a sum of
per-class contributions, one for each equivalence class of fillings of
each eligible lambda (parts divisible by n, lambda of q) by the bricks
mu = <1^b_1 ... n^b_n>:

    contribution(F) = (-1)^(k(mu)-k) * n^k * class_weight_sum(F) / z(lambda)
                    = (-1)^(k(mu)-k) * n^k / delta(F)!
                      * prod over rows j of (r_j - 1)! / prod_i alpha_ij!

The single-row partition <q> contributes exactly one class with value
(-1)^(k(mu)-1) * n! / (b_1! ... b_n!), never zero.  Every other class's
contribution, divided by the <q>-class value, factors as

    first  = 1/delta(F)! * prod_i C(b_i; alpha_i1, ..., alpha_ik)
    second = n^(k-1) / [ (n-1)(n-2)...(n-k+1) * C(n-k; r_1-1, ..., r_k-1) ]

where first is an integer and v_p(second) >= 1.  Hence the <q> class has
strictly the smallest p-adic valuation, the sum cannot vanish, and every
admissible monomial survives in the determinant: d(n) = p(n) for prime
powers.  dominance_check certifies the inequality class by class;
lemma_check covers the multinomial valuation bound that drives it.

`verify` certifies every term of n by certificate.dominance_table,
one walk over the zero-residue rows of n that meets each class of each
term once.  dominance_check stays the per-term route: it returns each
class as a FillingClass with its contribution, takes every class of its
own term, <q> first, from one _class_walk, shares no walk with
dominance_table, and so cross-checks it term by term.  Both take each
lambda's term at weight 1 from certificate._lambda_terms and the <q>
class's closed form from certificate._q_class_value.  The command line
never imports this module; the package loads it on first use of one of
its names.
"""

from fractions import Fraction
from math import factorial, prod

from .exactmath import admit, multinomial, prime_power, valuation
from .partitions import factorial_of_partition
from .bricks import FillingClass, _class_walk, _er_term, class_weight_sum
from .circulant import det_coeff_er, hall_admissible
from .certificate import _BASE, _SUM, _lambda_terms, _q_class_value


class ClassRecord:
    """One class's contribution inside a DominanceReport: its lambda's
    term at weight 1 times the class's weight."""

    __slots__ = ("lam", "filling_class", "unit", "weight", "valuation")

    def __init__(self, lam, filling_class, unit, weight, valuation_):
        self.lam = lam
        self.filling_class = filling_class
        self.unit = unit
        self.weight = weight
        self.valuation = valuation_

    @property
    def contribution(self):
        return self.unit * self.weight

    def __repr__(self):
        return (f"ClassRecord({self.lam.parts}, {self.contribution}, "
                f"v={self.valuation})")


class DominanceReport:
    """All class contributions for one (n, b), with their p-adic valuations.

    passed is true iff the <q>-class valuation is strictly smaller than
    every other class's.  dominance_check, which builds the report, has
    already checked that the contributions sum to the coefficient of x^b.
    class_records holds the <q> class first, then the others in the
    order of the one class walk, not grouped lambda by lambda."""

    def __init__(self, n, b, p, r, q_class_valuation, class_records, passed):
        self.n = n
        self.b = b
        self.p = p
        self.r = r
        self.q_class_valuation = q_class_valuation
        self.class_records = class_records
        self.passed = passed

    def other_valuations(self):
        """Valuations of the non-<q> classes, ascending."""
        q = self.b.q
        return sorted(rec.valuation for rec in self.class_records
                      if rec.lam.parts != (q,))

    def __repr__(self):
        return (f"DominanceReport(n={self.n}, b={self.b.b}, "
                f"v_base={self.q_class_valuation}, "
                f"classes={len(self.class_records)}, passed={self.passed})")


def q_class_contribution(b):
    """The <q>-class term: (-1)^(k(mu)-1) * n! / (b_1! ... b_n!).

    Always a nonzero integer (returned as an exact rational)."""
    if b.q % b.n:
        raise ValueError("no contribution")
    return Fraction(_q_class_value(b.n, b.b))


def class_contribution(fc, n):
    """One class's exact contribution to the coefficient sum:
    (-1)^(k(mu)-k) * n^k * class_weight_sum(fc) / z(lambda)."""
    if any(part % n for part in fc.lam.parts):
        raise ValueError("lambda parts must be multiples of n")
    return _er_term(fc.mu, fc.lam, class_weight_sum(fc), n)


def contribution_ratio_factors(fc, b, n):
    """Factor |class_contribution / q_class_contribution| as first*second:

        first  = 1/delta! * prod_i C(b_i; alpha_i1..alpha_ik)   (an integer)
        second = n^(k-1) / [(n-1)..(n-k+1) * C(n-k; r_1-1..r_k-1)]
               = n^(k-1) * prod_j (r_j-1)! / (n-1)!

    second carries p-adic valuation >= 1 when n is a power of p, which is
    the whole dominance argument.  Signs are normalized away; only the
    valuations matter."""
    if prime_power(n) is None:
        raise ValueError("n must be a prime power")
    if any(part % n for part in fc.lam.parts):
        raise ValueError("lambda parts must be multiples of n")
    q = b.q
    if fc.lam.parts == (q,):
        raise ValueError("ratio undefined for the base class")
    k = fc.lam.k
    first = Fraction(1, factorial_of_partition(fc.delta))
    for i in range(1, n + 1):
        if b.b[i - 1]:
            row_counts = [fc.alpha(i, j) for j in range(k)]
            first *= multinomial(b.b[i - 1], row_counts)
    second = Fraction(n ** (k - 1) * prod(factorial(r - 1) for r in fc.r),
                      factorial(n - 1))
    return first, second


def dominance_check(b, n, coefficient=None):
    """Certify the valuation inequality for one admissible b at n = p^r.

    Records every filling class of every eligible lambda, with its
    contribution and p-adic valuation, from one class walk over mu at
    step n: the <q> class first, checked against q_class_contribution,
    then the others.  Passes iff the <q>-class valuation is strictly
    smaller than all others.  admit raises RouteDisagreement naming n and
    b if the contributions fail to sum to the coefficient of x^b: the
    given one (an _orbit_values(n) entry, say), or else det_coeff_er(b)."""
    pp = prime_power(n)
    if pp is None:
        raise ValueError("dominance argument applies to prime powers only")
    if b.n != n:
        raise ValueError("b is not an exponent vector for this n")
    if not hall_admissible(b):
        raise ValueError("b is not admissible")
    p, r = pp
    q = b.q
    mu = b.mu()
    base = q_class_contribution(b)
    v_base = valuation(base, p)
    den, lambda_terms = _lambda_terms(mu, n, p)
    records = []
    # the sum of every contribution, times den, in integers
    total = 0
    passed = True
    for parts, rows, weight in _class_walk(mu.parts, n):
        lam, unit, num, v_unit = lambda_terms[parts]
        v = v_unit + valuation(weight, p)
        fc = object.__new__(FillingClass)._set(lam, mu, rows)
        records.append(ClassRecord(lam, fc, unit, weight, v))
        total += num * weight
        if parts == (q,):
            admit(n, b.b, _BASE, {
                "q_class_contribution": base.numerator * den,
                "the class walk": num * weight})
        elif v <= v_base:
            passed = False
    if coefficient is None:
        coefficient = det_coeff_er(b)
    admit(n, b.b, _SUM, {"the coefficient": coefficient * den,
                         "the class contributions": total})
    return DominanceReport(n, b, p, r, v_base, records, passed)


def lemma_check(m, p, s, parts):
    """The multinomial valuation bound: for m < p^s and parts
    (d_1,...,d_k) summing to m with k >= 2,

        v_p( m! / (d_1! ... d_k!) ) < (k-1)*s.

    The two-part case is the binomial form v_p(C(m,d)) < s.  Returns
    whether the bound holds (the argument needs it to always hold)."""
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    if m >= p ** s:
        raise ValueError("hypothesis violated")
    value = multinomial(m, parts)
    return valuation(value, p) < (len(parts) - 1) * s
