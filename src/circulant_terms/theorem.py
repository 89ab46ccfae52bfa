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
closed form.  dominance_check stays the per-term route: it returns each
class as a FillingClass with its contribution, takes every class of its
own term, <q> first, from one _class_walk, shares no walk with
dominance_table, and so cross-checks it term by term.  Both take each
lambda's term at weight 1 from _lambda_terms.
"""

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .exactmath import admit, multinomial, prime_power, valuation
from .partitions import factorial_of_partition, partitions_of
from .bricks import (FillingClass, _class_walk, _class_weight, _er_term,
                     _row_weight, class_weight_sum)
from .circulant import (ExponentVector, _residue_walk, det_coeff_er,
                        hall_admissible, p_count)

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
    n = b.n
    if b.q % n:
        raise ValueError("no contribution")
    sign = -1 if (n - 1) % 2 else 1
    return Fraction(sign * multinomial(n, b.b))


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
    falling = 1
    for t in range(1, k):
        falling *= n - t
    second = Fraction(n ** (k - 1),
                      falling * multinomial(n - k, [r - 1 for r in fc.r]))
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

    Every class but <q> is a multiset of two or more zero-residue rows:
    brick multisets of fewer than n bricks whose mass is a multiple of
    n, p(n) - 1 of them, a count checked against p_count.  One walk
    takes the rows, sorted by mass, in non-decreasing list position
    until exactly n bricks are used, pruned by the brick totals the rows
    from a position on can still reach, and so meets each class of each
    term once; the term is the class's summed packed counts.  Each term
    then gets dominance_check's two checks, each an admit naming n and b:
    the base class against q_class_contribution, the sum against coeffs."""
    pp = prime_power(n)
    if pp is None:
        raise ValueError("dominance argument applies to prime powers only")
    p = pp[0]
    # a count per brick length in a field of its own, wide enough for n
    shifts = range(0, n.bit_length() * n, n.bit_length())
    rows = []   # (mass, packed counts, bricks, row weight)
    for k in range(1, n):
        for a in _residue_walk(n, k):
            mass = sum(i * c for i, c in enumerate(a, 1))
            rows.append((mass, sum(c << s for c, s in zip(a, shifts)), k,
                         _row_weight(mass, [c for c in a if c])))
    size = p_count(n)
    admit(n, None, "p - 1", {"the formula": size - 1,
                             "the zero-residue rows": len(rows)})
    index = {sum(c << s for c, s in zip(b, shifts)): t
             for t, b in enumerate(terms)}
    if len(index) != size or len(terms) != size:
        raise ValueError("terms must list every admissible b once")
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
    # units[all but the last part][last part]
    units, dens = {}, {}
    for b in terms:
        ev = ExponentVector._trusted(n, b)
        if ev.q not in dens:
            den, lambda_terms = _lambda_terms(ev.mu(), n, p)
            dens[ev.q] = den
            for parts, (_, _, num, v) in lambda_terms.items():
                units.setdefault(parts[:0:-1], {})[parts[0]] = num, v
    totals = [0] * size
    spectra = [{} for _ in range(size)]   # per term: valuation -> classes

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
        # which is one of three, by the row's mass and position
        ids = by_count[left]
        lo = bisect_left(ids, start)
        if lo == len(ids):
            return
        last = parts[-1]
        ends = units[parts]
        # a mass not yet taken; the last row's mass, where position -1
        # is no row's and so unlike the last row; the last row again
        new, same, again = (
            (w, valuation(w, p)) for w in (
                _class_weight(parts, picked, weight),
                _class_weight(parts + (last,), picked + (-1,), weight),
                _class_weight(parts + (last,), picked + (start,), weight)))
        for j in range(lo, len(ids)):
            i = ids[j]
            m = masses[i]
            w, v = new if m != last else same if i != start else again
            num, v_unit = ends[m]
            t = index[key + keys[i]]
            totals[t] += num * w * weights[i]
            v += row_v[i] + v_unit
            spectrum = spectra[t]
            spectrum[v] = spectrum.get(v, 0) + 1

    descend(0, n, 0, (), (), 1)
    del masses, keys, counts, weights, row_v, reach, by_count, index
    for t, b in enumerate(terms):
        ev = ExponentVector._trusted(n, b)
        q = ev.q
        den = dens[q]
        base = q_class_contribution(ev)
        num = units[()][q][0] * _row_weight(q, [c for c in b if c])
        admit(n, b, _BASE, {"q_class_contribution": base.numerator * den,
                            "the one-row class": num})
        admit(n, b, _SUM, {"the coefficient": coeffs[t] * den,
                           "the class contributions": totals[t] + num})
        v_base = valuation(base, p)
        spectrum, spectra[t] = spectra[t], None
        yield (min(spectrum, default=v_base + 1) > v_base, v_base,
               [v for v in sorted(spectrum) for _ in range(spectrum[v])])


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
