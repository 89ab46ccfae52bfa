"""Fillings of Ferrers diagrams by bricks and the monomial-to-power-sum
basis conversion they encode.

A brick of length i is a horizontal run of i boxes.  A filling of a
partition lambda by a brick multiset mu tiles each row of lambda's
diagram exactly with bricks drawn from mu; rows are positionally
distinct even when equal in length.  The weight of a filling is the
product over rows of the length of the rightmost brick (either end
convention gives the same totals, by symmetry of arrangements; we fix
rightmost).  w(lambda, mu) is the total weight of all distinct fillings,
and it is the structure constant of the Egecioglu-Remmel expansion of
the monomial symmetric function m_mu in the power-sum basis:

    m_mu = sum over lambda of (-1)^(k(mu)-k(lambda)) * w(lambda, mu) / z(lambda) * p_lambda

Fillings of a fixed (lambda, mu) split into equivalence classes under
rearranging bricks within a row and swapping the brick sets of
equal-length rows; class totals have a closed form, class_weight_sum,
that the dominance argument in the theorem module dissects prime by
prime.  _er_term is the one home of the expansion's term, which the
determinant's partition sum and the class contributions share.

One walk, _sub_rows, lists a brick tuple's sub-multisets of mass a
multiple of a step; from one such list _class_walk builds every class
of every lambda whose parts are multiples of the step, the one-row
class first.  That walk serves the dominance certificate,
enumerate_filling_classes, which keeps one lambda's classes, and
_er_terms, the one builder of per-lambda terms, which sums each
lambda's class weights into w: m_to_p_expansion is its n = 1 case and
the literal per-partition sum of the determinant
(circulant.det_coeff_er_terms) its case at the matrix size.  The
memoized row recursion _w, which reads _sub_rows once per row, serves
filling_weight alone, the reference for w that the tests hold the
class walk to.  The randomized evaluation of the expansion at integer
points (verify_m2p) and the brick-multiset view of a row
(BrickMultiset, row_weight_sum) are test references and live in the
tests' oracles, off the command line's import path.
"""

from bisect import bisect_right
from fractions import Fraction
from math import factorial, gcd, prod

from .exactmath import RouteDisagreement
from .partitions import Partition, partitions_of, z_of


def _row_weight(row_length, alpha):
    # the total weight of the distinct arrangements of bricks of
    # multiplicities alpha in one row they fill: (1/r) * multinomial(r;
    # alpha) * row_length, r the number of bricks, always an integer
    val, rem = divmod(factorial(sum(alpha) - 1) * row_length,
                      prod(map(factorial, alpha)))
    if rem:
        raise RouteDisagreement(f"the row weight sum of {row_length} over "
                                f"multiplicities {alpha} is not an integer")
    return val


def _runs(seq):
    """(value, multiplicity) for each run of equal items of a sorted seq."""
    return [(value, seq.count(value)) for value in dict.fromkeys(seq)]


def _sub_rows(bricks, step, cap):
    """The sub-multisets of a sorted-descending brick tuple whose mass is
    a positive multiple of step, up to cap, as (mass, row, rest, weight),
    by mass descending, then row descending: rest is the bricks the row
    leaves, both sorted descending, and weight its row weight.  A suffix
    table of the residues mod step that the remaining runs of equal
    bricks can still reach prunes every branch that cannot end on a
    multiple of step."""
    runs = _runs(bricks)
    full = (1 << step) - 1
    # reach[i]: bitmask of the residues mod step of the masses of
    # sub-multisets of runs i, i+1, ...
    reach = [1] * (len(runs) + 1)
    for i in range(len(runs) - 1, -1, -1):
        s, count = runs[i]
        nxt = reach[i + 1]
        mask = 0
        for a in range(count + 1):
            shift = s * a % step
            mask |= ((nxt << shift) | (nxt >> (step - shift))) & full
        reach[i] = mask
    # partial rows (mass, row, rest, alpha) over the runs so far
    partial = [(0, (), (), ())]
    for (s, count), nxt in zip(runs, reach[1:]):
        grown = []
        for mass, row, rest, alpha in partial:
            for a in range(min(count, (cap - mass) // s), -1, -1):
                m = mass + s * a
                if nxt >> (-m % step) & 1:
                    grown.append((m, row + (s,) * a, rest + (s,) * (count - a),
                                  alpha + (a,) if a else alpha))
        partial = grown
    partial.sort(reverse=True)
    partial.pop()   # the empty row, the only one of mass 0
    return [(mass, row, rest, _row_weight(mass, alpha))
            for mass, row, rest, alpha in partial]


_W_MEMO = {}


def filling_weight(lam, mu):
    """Return w(lambda, mu): the total weight of all fillings of lambda by
    the bricks of mu, 0 when no filling exists.

    Recursion over rows: split off every sub-multiset that exactly fills
    the first row, weight it by its row weight, and recurse on the rest.
    Memoized on (remaining rows, remaining bricks); the cache is
    write-once and shared.
    """
    if lam.q != mu.q:
        raise ValueError("sizes differ")
    return _w(lam.parts, mu.parts)


def _w(rows, bricks):
    # rows: non-increasing tuple; bricks: sorted-descending tuple of lengths
    if not rows:
        return 1 if not bricks else 0
    key = (rows, bricks)
    val = _W_MEMO.get(key)
    if val is not None:
        return val
    total = 0
    # capped at the row, the walk lists rows of that one mass
    for _, _, rest, weight in _sub_rows(bricks, rows[0], rows[0]):
        total += weight * _w(rows[1:], rest)
    _W_MEMO[key] = total
    return total


class FillingClass:
    """An equivalence class of fillings of lambda by mu.

    Canonical form: rows in lambda's order; within a run of equal-length
    rows, the per-row brick multisets (sorted-descending tuples) appear in
    non-increasing lexicographic order.  gamma maps each distinct row
    length to the partition recording multiplicities of identical per-row
    assignments among rows of that length; delta is the concatenation of
    all gamma parts, a partition of k(lambda); both are read off the rows.
    """

    __slots__ = ("lam", "mu", "rows")

    def __init__(self, lam, mu, rows):
        rows = [tuple(sorted(row, reverse=True)) for row in rows]
        if len(rows) != lam.k:
            raise ValueError("one brick multiset per row required")
        # canonicalize each run of equal-length rows to non-increasing
        # order, which puts identical assignments next to each other
        rows = tuple(row for _, row in sorted(zip(lam.parts, rows),
                                              reverse=True))
        for length, row in zip(lam.parts, rows):
            if sum(row) != length:
                raise ValueError("row not exactly filled")
        if tuple(sorted((s for row in rows for s in row), reverse=True)) != mu.parts:
            raise ValueError("rows do not use exactly the bricks of mu")
        self._set(lam, mu, rows)

    def _set(self, lam, mu, rows):
        # the trusted path, for rows canonical and exact by construction
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rows", rows)
        return self

    @property
    def r(self):
        return tuple(len(row) for row in self.rows)

    @property
    def gamma(self):
        blocks = _runs(list(zip(self.lam.parts, self.rows)))
        return {length: Partition(sorted((m for (i, _), m in blocks
                                          if i == length), reverse=True))
                for length in dict.fromkeys(self.lam.parts)}

    @property
    def delta(self):
        return Partition(sorted((m for g in self.gamma.values()
                                 for m in g.parts), reverse=True))

    def alpha(self, length, row_index):
        """Number of bricks of the given length in the given row."""
        return self.rows[row_index].count(length)

    def __setattr__(self, name, value):
        raise AttributeError("FillingClass is immutable")

    def __eq__(self, other):
        return (isinstance(other, FillingClass)
                and self.lam == other.lam and self.rows == other.rows)

    def __hash__(self):
        return hash((self.lam.parts, self.rows))

    def __repr__(self):
        return f"FillingClass({self.lam.parts}, rows={self.rows})"


def _class_walk(bricks, step):
    """(lambda's parts, canonical rows, class_weight_sum) for each class of
    fillings by a sorted-descending brick tuple of each lambda whose
    parts are multiples of step.  Rows are _sub_rows entries taken in
    list order, one again only while its bricks are left, so the classes
    come in the lexicographic order of their entries' positions, the
    one-row class first; the entry holding every brick left is looked
    up."""
    if not bricks:
        return [((), (), 1)]    # the one filling of the empty diagram
    total = sum(bricks)
    if total % step:
        return []               # no lambda of parts multiples of step
    # bricks packed as a count per run of equal bricks, one field each
    # under a guard bit: a row fits in what is left when no field's guard
    # clears on subtracting its key
    width = len(bricks).bit_length() + 1
    unit = {s: 1 << width * i for i, s in enumerate(dict.fromkeys(bricks))}
    guards = sum(unit.values()) << width - 1
    fills = [(mass, row, sum(map(unit.__getitem__, row)), w)
             for mass, row, _, w in _sub_rows(bricks, step, total)]
    heavy = [-fill[0] for fill in fills]   # ascending, for bisect
    last = {key + guards: i for i, (_, _, key, _) in enumerate(fills)}
    out = []

    def descend(start, left, mass, parts, rows, weight):
        i = last.get(left)
        if i is not None and i >= start:
            _, row, _, w = fills[i]
            done = parts + (mass,), rows + (row,)
            out.append((*done, _class_weight(*done, weight * w)))
        # an entry as heavy as what is left holds all of it, found above
        for i in range(bisect_right(heavy, -mass, start), len(fills)):
            m, row, key, w = fills[i]
            if left - key & guards == guards:
                descend(i, left - key, mass - m, parts + (m,), rows + (row,),
                        weight * w)

    descend(0, guards + sum(map(unit.__getitem__, bricks)), total, (), (), 1)
    return out


def enumerate_filling_classes(lam, mu):
    """Return every equivalence class of fillings of lambda by mu: an
    unordered multiset of per-row brick multisets for each row length."""
    if lam.q != mu.q:
        raise ValueError("sizes differ")
    return [object.__new__(FillingClass)._set(lam, mu, rows)
            for found, rows, _ in _class_walk(mu.parts, gcd(*lam.parts))
            if found == lam.parts]


def class_weight_sum(fc):
    """Total weight of all fillings in one equivalence class.

    Closed form: prod over distinct row lengths i of beta_i!/gamma(F,i)!,
    which is prod_i beta_i!/delta(F)!, times prod over rows of the row's
    weight, the total weight of its brick arrangements; always an
    integer.
    """
    return _class_weight(fc.lam.parts, fc.rows, prod(
        _row_weight(length, [m for _, m in _runs(row)])
        for length, row in zip(fc.lam.parts, fc.rows)))


def _class_weight(parts, rows, row_product):
    # class_weight_sum's closed form for canonical rows, given the product
    # of their row weights: the row that is the t-th of its length and the
    # c-th of a block of identical rows brings t/c, so num/den is
    # prod beta_i!/delta!
    num = den = t = c = 1
    for j in range(1, len(parts)):
        same = parts[j] == parts[j - 1]
        t = t + 1 if same else 1
        c = c + 1 if same and rows[j] == rows[j - 1] else 1
        num *= t
        den *= c
    return num * row_product // den


def _er_term(mu, lam, weight, n):
    # lambda's term, weight = w(lambda, mu) or one class's share of it,
    # with each power sum p_(lambda_j) evaluated to n
    sign = -1 if (mu.k - lam.k) % 2 else 1
    return Fraction(sign * weight * n ** lam.k, z_of(lam))


def _er_terms(mu, n):
    """{lambda: its term with weight w(lambda, mu)} over the partitions
    lambda of mu's size whose parts are multiples of n, in partitions_of
    order, with each p_m evaluated to n; zero terms omitted.  Each w sums
    lambda's class weights from one class walk of mu's bricks at step n,
    and a lambda the walk never reaches has w = 0."""
    weights = {}
    for parts, _, weight in _class_walk(mu.parts, n):
        weights[parts] = weights.get(parts, 0) + weight
    return {lam: _er_term(mu, lam, weights[lam.parts], n)
            for lam in partitions_of(mu.q, n) if lam.parts in weights}


def m_to_p_expansion(mu):
    """Return {lambda: coefficient} for m_mu expanded in power sums,
    zero coefficients omitted: the terms of _er_terms at n = 1, where
    every p_m is 1."""
    return _er_terms(mu, 1)
