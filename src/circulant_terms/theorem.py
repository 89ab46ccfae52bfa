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

`verify` certifies every term of n by dominance_table, which meets each
class of each term once in a single walk over the zero-residue rows of
n, the brick multisets every class but <q> is made of, instead of a
class walk per term; it builds the <q> class of each term from its
closed form.  Its per-term checks are made in integers, each lambda's
term at weight 1 is computed once per q, and a node of the walk
computes a class weight only where a class ending there uses it.
dominance_check stays the per-term route: it returns each class as a
FillingClass with its contribution, takes every class of its own term,
<q> first, from one _class_walk, shares no walk with dominance_table,
and so cross-checks it term by term.  Both take each lambda's term at
weight 1 from _lambda_terms.
"""

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import factorial, lcm, prod
from operator import lshift, mul

from .exactmath import admit, multinomial, prime_power, valuation
from .partitions import Partition, factorial_of_partition, partitions_of
from .bricks import (FillingClass, _class_walk, _class_weight, _er_term,
                     _row_weight, class_weight_sum)
from .circulant import _residue_walk, det_coeff_er, hall_admissible, p_count

_BASE = "the one-row class times the lambda terms' denominator"
_SUM = "the coefficient times the lambda terms' denominator"


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


def _q_class_value(n, b):
    # q_class_contribution's closed form as an int, for an exponent tuple
    # b of size n; k(mu) = sum(b) = n
    value = multinomial(n, b)
    return -value if (n - 1) % 2 else value


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


def _lambda_terms(mu, n, p):
    """(den, {lambda's parts: (lambda, unit, num, v_p(unit))}) for the
    lambdas of q(mu) with parts multiples of n: unit is lambda's term at
    weight 1, num its numerator over den, their one common denominator.
    It depends on mu only through q(mu) and the parity of k(mu)."""
    units = [(lam, _er_term(mu, lam, 1, n)) for lam in partitions_of(mu.q, n)]
    den = lcm(*(unit.denominator for _, unit in units))
    return den, {lam.parts: (lam, unit,
                             unit.numerator * (den // unit.denominator),
                             valuation(unit, p))
                 for lam, unit in units}


def dominance_check(b, n, coefficient=None):
    """Certify the valuation inequality for one admissible b at n = p^r.

    Records every filling class of every eligible lambda, with its
    contribution and p-adic valuation, from one class walk over mu at
    step n: the <q> class first, checked against q_class_contribution,
    then the others.  Passes iff the <q>-class valuation is strictly
    smaller than all others.  admit raises RouteDisagreement naming n and
    b if the contributions fail to sum to the coefficient of x^b: the
    given one (a det_table entry, say), or else det_coeff_er(b)."""
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


def dominance_table(n, terms, coeffs):
    """dominance_check's verdict on every admissible b of size n = p^r at
    once: yields (passed, q_class_valuation, other valuations ascending)
    for each exponent tuple of terms, which must list every admissible b
    once, in order; coeffs holds their coefficients, det_table(n) say.
    Raises ValueError, before the first verdict, if they do not.

    Every class but <q> is a multiset of two or more zero-residue rows:
    brick multisets of fewer than n bricks whose mass is a multiple of
    n, p(n) - 1 of them, a count checked against p_count.  One walk
    takes the rows, sorted by mass, in non-decreasing list position
    until exactly n bricks are used, pruned by the brick totals the rows
    from a position on can still reach, and so meets each class of each
    term once; the term is the class's summed packed counts.  A walk
    node computes a class weight and its valuation only for a kind of
    last row that ends a class there.  One pass over the terms gives
    each its packed counts and q, and each lambda's term at weight 1 is
    computed once per q.  Each term then gets dominance_check's two
    checks, in integers, each an admit naming n and b: the base class
    against q_class_contribution's closed form, the sum against coeffs."""
    pp = prime_power(n)
    if pp is None:
        raise ValueError("dominance argument applies to prime powers only")
    p = pp[0]
    degrees = range(1, n + 1)
    # a count per brick length in a field of its own, wide enough for n
    shifts = range(0, n.bit_length() * n, n.bit_length())
    rows = []   # (mass, packed counts, bricks, row weight)
    for k in range(1, n):
        for a in _residue_walk(n, k):
            mass = sum(map(mul, a, degrees))
            rows.append((mass, sum(map(lshift, a, shifts)), k,
                         _row_weight(mass, a)))
    size = p_count(n)
    admit(n, None, "p - 1", {"the formula": size - 1,
                             "the zero-residue rows": len(rows)})
    # each term's packed counts and q, and the first term of each q
    index, qs, firsts = {}, [], {}
    for t, b in enumerate(terms):
        q = sum(map(mul, b, degrees))
        if len(b) != n or min(b) < 0 or sum(b) != n or q % n:
            raise ValueError(f"terms must list every admissible b once, "
                             f"not {b}")
        index[sum(map(lshift, b, shifts))] = t
        qs.append(q)
        firsts.setdefault(q, b)
    if len(index) != size or len(terms) != size:
        raise ValueError("terms must list every admissible b once")
    if len(coeffs) != size:
        raise ValueError("coeffs must hold one coefficient per term")
    # equal masses, and so identical rows, sit next to each other, as
    # _class_weight needs
    rows.sort()
    masses, keys, counts, weights = zip(*rows)
    del rows
    row_v = [valuation(w, p) for w in weights]
    # reach[i]: bitmask of the brick totals of the multisets of rows
    # i, i+1, ...
    full = (1 << n + 1) - 1
    reach = [1] * (len(masses) + 1)
    for i in range(len(masses) - 1, -1, -1):
        m, k = reach[i + 1], counts[i]
        while (m | m << k) & full != m:
            m = (m | m << k) & full
        reach[i] = m
    # the list positions of the rows of k bricks, ascending; none of n
    by_count = [[] for _ in range(n + 1)]
    for i, k in enumerate(counts):
        by_count[k].append(i)
    # each lambda's term at weight 1 as (numerator over its q's common
    # denominator, valuation), by lambda's parts ascending, as walked:
    # units[all but the last part][last part]; it depends on the term
    # only through q
    units, dens = {}, {}
    for q, b in firsts.items():
        dens[q], lambda_terms = _lambda_terms(Partition.from_beta(b), n, p)
        for parts, (_, _, num, v) in lambda_terms.items():
            units.setdefault(parts[:0:-1], {})[parts[0]] = num, v
    totals = [0] * size
    # per term: the valuations of its classes, 2 bytes each (1,543,484
    # classes at n = 11; a valuation past 2^15 would raise OverflowError)
    spectra = [array("h") for _ in range(size)]

    def descend(start, left, key, parts, picked, weight):
        # the rows so far: their masses, list positions, packed counts and
        # product of row weights; the next row's position is >= start
        for k in range(1, left):
            rest = left - k
            ids = by_count[k]
            for j in range(bisect_left(ids, start), len(ids)):
                i = ids[j]
                # reach only shrinks along the list
                if not reach[i] >> rest & 1:
                    break
                descend(i, rest, key + keys[i], parts + (masses[i],),
                        picked + (i,), weight * weights[i])
        # a last row of exactly the bricks left ends a class: its weight
        # is the row's times the class's with the row's weight taken as 1,
        # which is one of three, by the row's position: the last row
        # again; another row of the last row's mass, where position -1 is
        # no row's and so unlike the last row; a row of a mass not yet
        # taken.  Rows lie by mass, so the three kinds come in that order,
        # and a kind's class weight is made only if a row of it follows.
        ids = by_count[left]
        lo = bisect_left(ids, start)
        if lo == len(ids):
            return
        last = parts[-1]
        ends = units[parts]
        heavier = bisect_left(ids, bisect_right(masses, last), lo)
        for stop, more, at in ((lo + (ids[lo] == start), (last,), (start,)),
                               (heavier, (last,), (-1,)),
                               (len(ids), (), ())):
            if lo == stop:
                continue
            w = _class_weight(parts + more, picked + at, weight)
            v_class = valuation(w, p)
            for i in ids[lo:stop]:
                num, v_unit = ends[masses[i]]
                t = index[key + keys[i]]
                totals[t] += num * w * weights[i]
                spectra[t].append(v_class + row_v[i] + v_unit)
            lo = stop

    descend(0, n, 0, (), (), 1)
    del masses, keys, counts, weights, row_v, reach, by_count, index
    ones = units[()]   # the one-row lambdas, by q
    for t, (b, q) in enumerate(zip(terms, qs)):
        den = dens[q]
        base = _q_class_value(n, b)
        num = ones[q][0] * _row_weight(q, b)
        admit(n, b, _BASE, {"q_class_contribution": base * den,
                            "the one-row class": num})
        admit(n, b, _SUM, {"the coefficient": coeffs[t] * den,
                           "the class contributions": totals[t] + num})
        v_base = valuation(base, p)
        spectrum, spectra[t] = sorted(spectra[t]), None
        yield not spectrum or spectrum[0] > v_base, v_base, spectrum


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
