"""The prime-power certificate that `verify` runs: dominance_table.

For n = p^r, dominance_table gives dominance_check's verdict on every
admissible term of n at once (see the theorem module for the argument).
It reads terms and coefficients from circulant._orbit_values' map,
admitted against p(n) there, and checks no term again.
It meets each class of each term once in a single walk over the
zero-residue rows of n, the brick multisets every class but <q> is made
of, instead of a class walk per term, and builds the <q> class of each
term from its closed form, _q_class_value.  Its per-term checks are made
in integers, each lambda's term at weight 1 is computed once per q, by
_lambda_terms, and a node of the walk computes a class weight only where
a class ending there uses it.

The per-term route, dominance_check, and the rest of the argument live
in the theorem module, which takes _lambda_terms, _q_class_value and the
names of the two checks, _BASE and _SUM, from here.  The command line
imports this module, never the theorem module.
"""

from array import array
from bisect import bisect_left, bisect_right
from math import lcm
from operator import lshift, mul

from .exactmath import admit, multinomial, prime_power, valuation
from .partitions import Partition, partitions_of
from .bricks import _class_weight, _er_term, _row_weight
from .circulant import _residue_walk, p_count

_BASE = "the one-row class times the lambda terms' denominator"
_SUM = "the coefficient times the lambda terms' denominator"


def _q_class_value(n, b):
    # q_class_contribution's closed form as an int, for an exponent tuple
    # b of size n; k(mu) = sum(b) = n
    value = multinomial(n, b)
    return -value if (n - 1) % 2 else value


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


def dominance_table(n, values):
    """dominance_check's verdict on every admissible b of size n = p^r at
    once: yields (b, passed, q_class_valuation, other valuations
    ascending) for each b in order.  values maps every admissible b to
    its coefficient, as circulant._orbit_values(n) gives it: built from
    the orbit stream's canonical terms and admitted against p(n) there.
    Raises ValueError for a composite n.

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
    against q_class_contribution's closed form, the sum against values[b]."""
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
    admit(n, None, "p - 1", {"the formula": p_count(n) - 1,
                             "the zero-residue rows": len(rows)})
    # each term's packed counts and q, and the first term of each q
    terms = sorted(values)
    index, qs, firsts = {}, [], {}
    for t, b in enumerate(terms):
        q = sum(map(mul, b, degrees))
        index[sum(map(lshift, b, shifts))] = t
        qs.append(q)
        firsts.setdefault(q, b)
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
    totals = [0] * len(terms)
    # per term: the valuations of its classes, 2 bytes each (1,543,484
    # classes at n = 11; a valuation past 2^15 would raise OverflowError)
    spectra = [array("h") for _ in terms]

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
        admit(n, b, _SUM, {"the coefficient": values[b] * den,
                           "the class contributions": totals[t] + num})
        v_base = valuation(base, p)
        spectrum, spectra[t] = sorted(spectra[t]), None
        yield b, not spectrum or spectrum[0] > v_base, v_base, spectrum
