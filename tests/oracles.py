"""Brute-force reference implementations used only by tests.

Everything here enumerates explicitly and slowly; the package's closed
forms and recursions are checked against these on small inputs.
"""

import random
from collections import Counter
from itertools import permutations
from math import factorial, gcd, prod
from operator import mul

from circulant_terms.circulant import _residue_walk


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
