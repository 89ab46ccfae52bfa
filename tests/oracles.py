"""Brute-force reference implementations used only by tests.

Everything here enumerates explicitly and slowly; the package's closed
forms and recursions are checked against these on small inputs.
"""

from collections import Counter
from itertools import permutations


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
