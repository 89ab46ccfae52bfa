"""Brute-force reference implementations used only by tests.

Everything here enumerates explicitly and slowly; the package's closed
forms and recursions are checked against these on small inputs.  Some
references live here rather than in the package so that the command
line does not load them: the exhaustive counts of p(n) beside p_count's
closed form, the brick-multiset view of a row, and verify_m2p, the
evaluation of the m-to-p expansion at random integer points.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd, prod
from operator import mul

from circulant_terms.bricks import _row_weight, m_to_p_expansion
from circulant_terms.circulant import _residue_walk, p_count
from circulant_terms.partitions import Partition, partitions_of


def weak_compositions(total, k):
    """Every weak composition of total into k parts, lexicographic."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, k - 1):
            yield (first,) + rest


def admissible_by_filter(n, total):
    """The exponent tuples a of length n with sum(a) = total and
    sum(i*a_i) = 0 (mod n), lexicographic, found by filtering all
    C(total+n-1, n-1) weak compositions."""
    return [a for a in weak_compositions(total, n)
            if sum(i * x for i, x in enumerate(a, 1)) % n == 0]


def random_admissible(rng, n):
    """A uniformly random admissible exponent tuple of length n: a weak
    composition of n by stars and bars, redrawn until sum(i*b_i) = 0
    (mod n)."""
    while True:
        cuts = sorted(rng.sample(range(2 * n - 1), n - 1))
        b = tuple(hi - lo - 1
                  for lo, hi in zip([-1] + cuts, cuts + [2 * n - 1]))
        if sum(i * x for i, x in enumerate(b, 1)) % n == 0:
            return b


def heavy_draws():
    """(n, b) for the first six random_admissible draws of a fresh
    random.Random(5) at each n = 22..24: single queries of up to
    seconds, with b's own engine states from 1,195 to 12,961."""
    out = []
    for n in (22, 23, 24):
        rng = random.Random(5)
        out += [(n, random_admissible(rng, n)) for _ in range(6)]
    return out


def random_sparse_admissible(rng, n, k):
    """A random admissible exponent tuple of length n with exactly k
    nonzero exponents: k positions, then a composition of n into k
    positive parts, redrawn until sum(i*b_i) = 0 (mod n).  Some n and k
    admit no such tuple (k = 2 at prime n, k = n at even n), and the
    draw would not end."""
    while True:
        cuts = sorted(rng.sample(range(1, n), k - 1))
        b = [0] * n
        for i, lo, hi in zip(rng.sample(range(n), k), [0] + cuts, cuts + [n]):
            b[i] = hi - lo
        if sum(i * x for i, x in enumerate(b, 1)) % n == 0:
            return tuple(b)


def affine_maps(n):
    """Every pair (u, c) with u a unit mod n and 0 <= c < n: the n*phi(n)
    substitutions x_j -> x_(u*j+c), subscripts mod n."""
    return [(u, c) for u in range(n) if gcd(u, n) == 1 for c in range(n)]


def affine_image(b, u, c):
    """The exponent tuple of x^b after x_j -> x_(u*j+c): the exponent of
    x_j moves to x_(u*j+c), subscripts taken mod n in {1..n}."""
    n = len(b)
    image = [0] * n
    for j, x in enumerate(b, 1):
        image[(u * j + c - 1) % n] = x
    return tuple(image)


def affine_orbits(n):
    """The admissible terms of size n grouped into orbits of the maps
    x_j -> x_(u*j+c), each orbit a sorted list, by lexicographically
    smallest member."""
    maps = affine_maps(n)
    orbits = {}
    for b in admissible_by_filter(n, n):
        rep = min(affine_image(b, u, c) for u, c in maps)
        orbits.setdefault(rep, []).append(b)
    return [orbits[rep] for rep in sorted(orbits)]


def arrangements(bricks):
    """All distinct left-to-right orderings of a brick multiset."""
    return sorted(set(permutations(bricks)))


def sub_multisets(counter, target):
    """All sub-multisets of a Counter with the given total mass."""
    sizes = sorted(counter)
    out = []

    def descend(i, rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if i == len(sizes):
            return
        s = sizes[i]
        for take in range(min(counter[s], rem // s) + 1):
            descend(i + 1, rem - s * take, acc + [s] * take)

    descend(0, target, [])
    return out


def enumerate_fillings(lam_parts, mu_parts):
    """All fillings of the rows lam_parts by the bricks mu_parts, rows
    positionally distinct; each filling is a tuple of per-row orderings."""
    out = []

    def descend(rows, counter, acc):
        if not rows:
            out.append(tuple(acc))
            return
        for sub in sub_multisets(counter, rows[0]):
            rem = counter.copy()
            for s in sub:
                rem[s] -= 1
            for arr in arrangements(sub):
                descend(rows[1:], rem, acc + [arr])

    descend(tuple(lam_parts), Counter(mu_parts), [])
    return out


def filling_weight_brute(lam_parts, mu_parts):
    """Total weight (product of rightmost brick lengths) over all fillings."""
    total = 0
    for filling in enumerate_fillings(lam_parts, mu_parts):
        w = 1
        for row in filling:
            w *= row[-1]
        total += w
    return total


def class_signature(lam_parts, filling):
    """The equivalence-class signature of one filling: per run of
    equal-length rows, the sorted multiset of per-row brick multisets."""
    sig = []
    i = 0
    while i < len(lam_parts):
        j = i
        while j < len(lam_parts) and lam_parts[j] == lam_parts[i]:
            j += 1
        rows = sorted((tuple(sorted(r, reverse=True)) for r in filling[i:j]),
                      reverse=True)
        sig.append((lam_parts[i], tuple(rows)))
        i = j
    return tuple(sig)


def classes_brute(lam_parts, mu_parts):
    """Group all fillings by class signature: {signature: weight total}."""
    out = {}
    for filling in enumerate_fillings(lam_parts, mu_parts):
        w = 1
        for row in filling:
            w *= row[-1]
        sig = class_signature(lam_parts, filling)
        out[sig] = out.get(sig, 0) + w
    return out


def signed_power_sum(n, j):
    """(-1)^(j-1) * p_j(c_1..c_n) as {packed key: coefficient}.

    p_j(c) = sum_k (sum_i x_i xi^(ik))^j keeps exactly the monomials x^a
    of (x_1+...+x_n)^j with sum(i*a_i) = 0 (mod n), each n times its
    multinomial coefficient j!/prod(a_i!).  Keys pack a in base n+1
    with a_1 the most significant digit, so the dict is in
    lexicographic order of a."""
    fact = [factorial(i) for i in range(j + 1)]
    place = [(n + 1) ** (n - 1 - i) for i in range(n)]
    top = n * fact[j] if j % 2 else -n * fact[j]
    return {sum(map(mul, a, place)): top // prod(map(fact.__getitem__, a))
            for a in _residue_walk(n, j)}


def eigenvalue_product(n):
    """e_n(c_1..c_n) = prod(c_k) as {packed key: coefficient}, with a
    key for every admissible b, zeros included, in lexicographic order.

    Newton's identities m*e_m = sum_{j=1..m} (-1)^(j-1) p_j e_(m-j)
    (Macdonald, Symmetric Functions and Hall Polynomials, I.2) build
    e_n from the power sums, with no permutation, brick or root of
    unity.  All their monomials have weighted degree 0 mod n, so every
    product lands on a key of p_m, which each step's accumulator starts
    from: the keys never change after that, and at m = n the
    accumulator, divided by n, is the table."""
    p = [None]
    e = [{0: 1}]
    for m in range(1, n + 1):
        acc = signed_power_sum(n, m)
        if m < n:
            p.append(acc)
            acc = dict(acc)
        for j in range(1, m):
            small, large = p[j], e[m - j]
            if len(small) > len(large):
                small, large = large, small
            for ka, va in small.items():
                for kb, vb in large.items():
                    acc[ka + kb] += va * vb
        for key, val in acc.items():
            quo, rem = divmod(val, m)
            if rem:
                raise RuntimeError("Newton's identities gave a non-integer")
            acc[key] = quo
        if m < n:
            e.append({key: val for key, val in acc.items() if val})
    return acc


def newton_table(n):
    """Every coefficient of prod(c_k) for one n, zeros included, in the
    lexicographic order of permanent_terms(n): the whole-table route
    that det_table is pinned against."""
    return list(eigenvalue_product(n).values())


def inversion_sign(perm):
    """(-1)^(number of pairs i < j with perm[i] > perm[j])."""
    inversions = sum(1 for i, a in enumerate(perm) for b in perm[i + 1:]
                     if a > b)
    return -1 if inversions % 2 else 1


def leibniz_table(n):
    """det(A) by the literal Leibniz sum over all n! permutations, n <= 8:
    {exponent tuple: coefficient} over every monomial some permutation
    reaches, zero sums included.  Row i and column j (from 0) hold the
    variable of 0-based index (i+j+1) mod n."""
    if n > 8:
        raise ValueError("n! permutations: limited to n <= 8")
    table = {}
    for perm in permutations(range(n)):
        counts = [0] * n
        for i, j in enumerate(perm):
            counts[(i + j + 1) % n] += 1
        key = tuple(counts)
        table[key] = table.get(key, 0) + inversion_sign(perm)
    return table


# ---------------------------------------------------------------------------
# the permanent's term count p(n) by three exhaustive counts, beside the
# package's closed form


P_METHODS = ("formula", "congruence", "necklaces", "lattice")


def p_count_by(n, method):
    """p(n) by one of four independent methods: "formula" is
    circulant.p_count's closed form, the other three count exhaustively
    and are restricted to n <= 12."""
    if n < 1:
        raise ValueError("n must be positive")
    if method not in P_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "formula":
        return p_count(n)
    if n > 12:
        raise ValueError("method limited to small n")
    if method == "congruence":
        return count_congruence_solutions(n)
    if method == "necklaces":
        return count_necklaces(n)
    return count_lattice_points(n)


def count_congruence_solutions(n):
    """Solutions of sum(i*y_i) = 0 (mod n) with sum(y_i) = n."""
    # positions i = n..1; state (total left, weighted residue)
    memo = {}

    def count(i, total, res):
        if i == 0:
            return 1 if total == 0 and res == 0 else 0
        key = (i, total, res)
        val = memo.get(key)
        if val is None:
            val = sum(count(i - 1, total - y, (res - i * y) % n)
                      for y in range(total + 1))
            memo[key] = val
        return val

    return count(n, n, 0)


def count_necklaces(n):
    """Orbits of binary strings of length 2n with n ones under rotation."""
    length = 2 * n
    full = (1 << length) - 1
    count = 0
    for positions in combinations(range(length), n):
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        x = mask
        canonical = True
        for _ in range(length - 1):
            x = ((x >> 1) | (x << (length - 1))) & full
            if x < mask:
                canonical = False
                break
        if canonical:
            count += 1
    return count


def count_lattice_points(n):
    """Tuples n >= w_1 >= ... >= w_(n-1) >= 0 with sum = 0 (mod n)."""
    memo = {}

    def count(remaining, bound, res):
        if remaining == 0:
            return 1 if res == 0 else 0
        key = (remaining, bound, res)
        val = memo.get(key)
        if val is None:
            val = sum(count(remaining - 1, v, (res - v) % n)
                      for v in range(bound + 1))
            memo[key] = val
        return val

    return count(n - 1, n, 0)


# ---------------------------------------------------------------------------
# bricks as a multiset, and the total weight of one row's arrangements


class BrickMultiset:
    """A multiset of brick lengths (a partition viewed as available bricks)."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = tuple(counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_lengths(cls, lengths):
        lengths = tuple(lengths)
        out = [0] * (max(lengths) if lengths else 0)
        for s in lengths:
            if s < 1:
                raise ValueError("brick lengths must be positive")
            out[s - 1] += 1
        return cls(out)

    @classmethod
    def from_partition(cls, mu):
        return cls.from_lengths(mu.parts)

    def count(self, length):
        """Number of bricks of the given length."""
        if 1 <= length <= len(self.counts):
            return self.counts[length - 1]
        return 0

    @property
    def mass(self):
        """Total number of boxes the bricks cover."""
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    def lengths(self):
        """All brick lengths with multiplicity, longest first."""
        return Partition.from_beta(self.counts).parts

    def __setattr__(self, name, value):
        raise AttributeError("BrickMultiset is immutable")

    def __eq__(self, other):
        return isinstance(other, BrickMultiset) and self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __repr__(self):
        return f"BrickMultiset({self.counts})"


def row_weight_sum(row_length, bricks):
    """Total weight of all distinct arrangements of a brick multiset in one
    row: the sum over arrangements of the rightmost brick's length.

    Closed form (1/r) * multinomial(r; alpha) * row_length where r is the
    number of bricks and alpha their multiplicities; always an integer.
    """
    if bricks.mass != row_length:
        raise ValueError("bricks do not fill row")
    return _row_weight(row_length, bricks.counts)


# ---------------------------------------------------------------------------
# the m-to-p expansion evaluated at random integer points


class M2PReport:
    """Outcome of randomized validation of the m-to-p expansion."""

    def __init__(self, q, trials, seed, points_checked, counterexample):
        self.q = q
        self.trials = trials
        self.seed = seed
        self.points_checked = points_checked
        self.counterexample = counterexample

    @property
    def all_match(self):
        return self.counterexample is None

    def __repr__(self):
        status = "ok" if self.all_match else f"FAIL at {self.counterexample}"
        return (f"M2PReport(q={self.q}, points={self.points_checked}, "
                f"{status})")


def distinct_permutations(items):
    """Yield the distinct permutations of a sorted list of items."""
    items = sorted(items)
    n = len(items)
    while True:
        yield tuple(items)
        # next permutation in lexicographic order
        i = n - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1:] = reversed(items[i + 1:])


def monomial_value(mu, point):
    """Evaluate m_mu at a point with q coordinates (others zero): the sum
    over distinct arrangements of mu's exponents of prod z_i^e_i."""
    q = len(point)
    exps = list(mu.parts) + [0] * (q - mu.k)
    if len(exps) != q:
        raise ValueError("point must have at least k(mu) coordinates")
    total = 0
    for arrangement in distinct_permutations(exps):
        term = 1
        for z, e in zip(point, arrangement):
            if e:
                term *= z ** e
        total += term
    return total


def power_sum_value(lam, point):
    """Evaluate p_lambda at a point: prod over parts m of sum z_i^m."""
    val = 1
    for m in lam.parts:
        val *= sum(z ** m for z in point)
    return val


def verify_m2p(q, trials, seed):
    """Check m_mu(point) against its power-sum expansion for every mu of q
    at `trials` random integer points; stops at the first counterexample."""
    if not 1 <= q <= 8:
        raise ValueError("q out of range (1..8)")
    rng = random.Random(seed)
    checked = 0
    for mu in partitions_of(q):
        coeffs = m_to_p_expansion(mu)
        for _ in range(trials):
            point = tuple(rng.randint(-9, 9) for _ in range(q))
            direct = monomial_value(mu, point)
            via = sum((c * power_sum_value(lam, point)
                       for lam, c in coeffs.items()), Fraction(0))
            checked += 1
            if via != direct:
                return M2PReport(q, trials, seed, checked,
                                 (mu, point, direct, via))
    return M2PReport(q, trials, seed, checked, None)
