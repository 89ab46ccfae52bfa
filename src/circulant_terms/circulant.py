"""Term enumeration for the generic circulant matrix.

The matrix is A with a_ij = x_(i+j), subscripts taken mod n in {1,..,n},
so every row is a cyclic shift of the variables x_1..x_n.  A monomial
x^b = prod x_i^(b_i) with sum(b_i) = n appears in the permanent exactly
when sum(i*b_i) = 0 (mod n) (Hall's matching condition: necessary by
summing subscripts, sufficient by a matching argument); p(n) counts the
admissible b, d(n) counts those whose determinant coefficient is
nonzero.

Determinant coefficients come from three independent routes: the
oracle, and the partition sum by the engine and term by term.

* det_coeff_oracle: expand det(A) as a signed sum over permutations
  and read off the coefficient.  One walk, _leibniz, fills the rows in
  turn and merges the partial sums that have used the same columns and
  have the same exponents left under a per-variable budget.  One
  coefficient takes b as its budget, so only the permutations whose
  monomial is x^b are summed.  expand_det, the whole table at once,
  allows every variable n and fixes sigma(0) = 0 (rows and columns
  counted from 0): the column shift tau_c(j) = j + c mod n maps those
  permutations onto the ones with sigma(0) = c, rotating each exponent
  vector by c and multiplying each sign by sgn(tau_c) = (-1)^(c(n-1)).
  So the coefficients of a rotation class differ only by those signs,
  and the table is filled a class at a time from n lookups in the
  walk's sums.  Exact; its states still grow exponentially, so it is
  bounded at n <= 12.

* det_coeff_er: det(A) equals, up to a global sign eps(n), the product
  of the circulant eigenvalues c_i = sum_j x_j xi^(ij) (xi a primitive
  n-th root of unity).  Expanding the product in monomial symmetric
  functions and converting via the Egecioglu-Remmel brick expansion
  turns the coefficient of x^b into a finite sum over partitions lambda
  of q = sum(i*b_i) with all parts divisible by n, since the power sum
  p_m at (xi^1,..,xi^n, 0, ...) is n when n | m and 0 otherwise:

      [x^b] = sum over lambda of (-1)^(k(mu)-k(lambda)) * w(lambda,mu)
              * n^k(lambda) / z(lambda),      mu = <1^b_1 ... n^b_n>.

  No root of unity is ever materialized; everything is exact integer
  arithmetic.  det_coeff_er evaluates the sum in a regrouped form (see
  _Engine), det_coeff_er_terms exposes the literal per-lambda breakdown,
  and the test suite pins the two to each other and to the oracle.
  det_coeff_er_terms takes its terms from bricks._er_terms, the builder
  of the m-to-p expansion: each w(lambda, mu), the one-row lambda = <q>
  included, sums lambda's filling classes from the one class walk of the
  bricks module, the walk the dominance certificate takes.  The row
  recursion behind filling_weight is the tests' reference for w, and no
  route here calls it.

Under the maps x_j -> x_(u*j+c), u a unit mod n, a coefficient changes
only by the sign (-1)^(c(n-1)) (_shift_negates).  The engine anchors
the longest brick and settles the length-1 bricks in one step, so an
image with many length-1 bricks and few long ones costs it fewer
states than b itself.  det_coeff_er is the one caller of the engine:
it asks for the image of b that holds a largest exponent of b at x_n
and has the least q; finding it costs one weighted sum per position and
unit.  Bricks of length n cost the engine nothing: [x^b] is (-1)^(b_n)
times the engine's value at b with b_n set to 0 (proved at
det_coeff_er), so the query sheds max(b) bricks before any walk.  Each
unit's layout in _Engine.units is the one statement of the substitution
(_Engine.image and _position_maps read it).

affine_orbits streams the orbits of the admissible terms under these
maps, a representative, its size and its coefficient each, from one
engine query per orbit, holding no orbit once passed.  Its orbit count
is admitted against Burnside's lemma, its sizes against p(n) by the
closed form, and seeded representatives' coefficients against the
literal per-partition sum, which shares no code with the engine.  d(n),
`table` and `verify` read the coefficients from it: _orbit_values,
behind det_table and `verify` at prime powers, gives each image of a
representative its signed value.

The global sign eps(n): rows of A depend on i+j rather than i-j, making
A a "left" circulant, and det(A) = eps(n) * prod(c_i) with eps(n)
independent of b.  sign_epsilon reads eps off the monomial x_1^n, which
comes from a single permutation, so the oracle's walk for it holds one
state per row and works for any n; only |coefficients| matter for d(n).
"""

import random
from fractions import Fraction
from math import comb, factorial, gcd
from operator import add, itemgetter, mul

from .exactmath import RouteDisagreement, admit, euler_phi, divisors
from .partitions import Partition
from .bricks import _W_MEMO, _er_terms

ORACLE_MAX_N = 12

# exponents at the end of each term listed once per _residue_walk call
_TAIL = 5


class ExponentVector:
    """The exponent tuple b of a candidate monomial x^b, with sum(b) = n."""

    __slots__ = ("n", "b")

    def __init__(self, n, b):
        b = tuple(b)
        # not float or bool: they print as such and break exact arithmetic
        if type(n) is not int or any(type(x) is not int for x in b):
            raise ValueError("n and the exponents must be integers")
        if n < 1:
            raise ValueError("n must be positive")
        if len(b) != n:
            raise ValueError("b must have exactly n entries")
        if any(x < 0 for x in b):
            raise ValueError("exponents must be non-negative")
        if sum(b) != n:
            raise ValueError("exponents must sum to n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)

    @classmethod
    def _trusted(cls, n, b):
        # for tuples valid by construction: no copy and no checks
        ev = object.__new__(cls)
        object.__setattr__(ev, "n", n)
        object.__setattr__(ev, "b", b)
        return ev

    @property
    def q(self):
        """The weighted degree sum(i*b_i); n <= q <= n^2."""
        return sum(map(mul, self.b, range(1, self.n + 1)))

    def mu(self):
        """The brick partition <1^b_1 ... n^b_n> of q."""
        return Partition.from_beta(self.b)

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    def __eq__(self, other):
        return (isinstance(other, ExponentVector)
                and self.n == other.n and self.b == other.b)

    def __hash__(self):
        return hash((self.n, self.b))

    def __repr__(self):
        return f"ExponentVector({self.n}, {self.b})"

    def __str__(self):
        return ",".join(str(x) for x in self.b)


def hall_admissible(b):
    """True iff sum(i*b_i) = 0 (mod n): x^b appears in the permanent."""
    return b.q % b.n == 0


def _residue_walk(n, total, cap=None, length=None):
    """Yield every exponent tuple a of `length` entries (n by default),
    each at most cap (no bound by default), with sum(a) = total and
    sum(i*a_i) = 0 (mod n), in lexicographic order.

    The last _TAIL exponents are listed once per call, bottom-up:
    tails[(r, res)] holds, in lexicographic order, their tuples that
    spend degree r and make up residue res.  For length <= _TAIL the
    tail is the last variable alone: a tail of every exponent would be
    read at (total, 0) only, yet built for every degree and residue.
    The other variables are walked in order x_1, x_2, ... on one
    explicit stack, pruned by a suffix table of the residues mod n the
    remaining variables can still reach for each remaining degree; each
    prefix yields itself joined to every tuple of its list."""
    length = n if length is None else length
    cap = total if cap is None else min(cap, total)
    full = (1 << n) - 1
    # reach[i][r]: bitmask of residues sum((j+1)*a_j for j >= i) mod n
    # over the ways to spend degree r on variables i+1..length (1-based)
    reach = [[0] * (total + 1) for _ in range(length + 1)]
    reach[length][0] = 1
    for i in range(length - 1, -1, -1):
        w = (i + 1) % n
        row, nxt = reach[i], reach[i + 1]
        for r in range(total + 1):
            mask = 0
            for a in range((r if r < cap else cap) + 1):
                m = nxt[r - a]
                if m:
                    s = (w * a) % n
                    mask |= ((m << s) | (m >> (n - s))) & full
            row[r] = mask
    k = length - _TAIL if length > _TAIL else max(length - 1, 0)
    # each tail variable goes in front, from the last, by increasing
    # exponent, so every list stays lexicographic
    tails = {(0, 0): [()]}
    for i in range(length - 1, k - 1, -1):
        grown = {}
        for a in range(cap + 1):
            for (r, res), ts in tails.items():
                if r + a <= total:
                    grown.setdefault((r + a, (res + (i + 1) * a) % n),
                                     []).extend([(a,) + t for t in ts])
        tails = grown
    # the stack: b[i] is the exponent tried at x_(i+1), and rem[i] and
    # need[i] the degree and residue left to x_(i+1)..x_length
    b = [0] * k
    rem = [total] + [0] * k
    need = [0] * (k + 1)
    i, a = 0, 0
    while i >= 0:
        if i < k:
            r, w, nxt = rem[i], i + 1, reach[i + 1]
            top = r if r < cap else cap
            while a <= top and not nxt[r - a] >> (need[i] - w * a) % n & 1:
                a += 1
            if a <= top:
                b[i] = a
                rem[i + 1] = r - a
                need[i + 1] = (need[i] - w * a) % n
                i, a = i + 1, 0
                continue
        else:
            prefix = tuple(b)
            for t in tails.get((rem[k], need[k]), ()):
                yield prefix + t
        # back up one variable and try its next exponent
        i -= 1
        if i >= 0:
            a = b[i] + 1


def permanent_terms(n):
    """All admissible ExponentVectors in lexicographic order; |result| = p(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return [ExponentVector._trusted(n, b) for b in _residue_walk(n, n)]


def p_count(n):
    """The permanent's term count p(n), by the closed form

        (1/n) * sum over d | n of phi(n/d) * C(2d-1, d),

    the number of necklaces of n black and n white beads.  The tests hold
    it to three exhaustive counts (tests/oracles.py) to n = 12, and
    affine_orbits to the orbit sizes at every n it walks.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = sum(euler_phi(n // d) * comb(2 * d - 1, d) for d in divisors(n))
    count, rem = divmod(total, n)
    if rem:
        raise RouteDisagreement(f"n={n}: p's divisor sum / n is not whole")
    return count


# ---------------------------------------------------------------------------
# oracle route: the signed Leibniz sum


def _leibniz(n, budget, first=None):
    """The Leibniz sum of det(A) over the permutations whose monomial x^a
    has a <= budget entrywise, as {exponent tuple a: coefficient}, zero
    sums omitted.  With `first` given, row 0 takes only that column,
    so the sums over every `first` merge by addition to the whole.

    Rows 0..n-1 are filled in turn: column j in row i spends one
    exponent of the variable of 0-based index (i+j+1) mod n, and placing
    j after an odd number of greater used columns flips the sign.  The
    partial sums are grouped by the bitmask of used columns, and within
    a group keyed by the exponents left to spend, packed one field per
    variable under a guard bit that a spend past the budget clears.
    Each layer is popped while the next is built; a popped state whose
    sum has cancelled to 0 is not extended, and a used-column set enters
    the next layer only with a state to hold."""
    width = n.bit_length() + 1
    guard = 1 << (width - 1)
    units = [1 << (width * v) for v in range(n)]
    full = (1 << n) - 1
    layer = {0: {sum((guard + x) * u for x, u in zip(budget, units)): 1}}
    for i in range(n):
        grown = {}
        while layer:
            used, states = layer.popitem()
            free = full & ~used
            if first is not None and not i:
                free &= 1 << first
            while free:
                low = free & -free
                free ^= low
                j = low.bit_length() - 1
                unit = units[(i + j + 1) % n]
                fence = guard * unit
                sign = -1 if (used >> (j + 1)).bit_count() & 1 else 1
                target = None
                for key, coeff in states.items():
                    key -= unit
                    # a sum that has cancelled to 0 adds 0 to every later
                    # state, so it goes no further
                    if key & fence and coeff:
                        if target is None:
                            target = grown.setdefault(used | low, {})
                        target[key] = target.get(key, 0) + sign * coeff
        layer = grown
    left = guard - 1
    fields = [(x, width * v) for v, x in enumerate(budget)]
    return {tuple([x - (key >> shift & left) for x, shift in fields]): coeff
            for states in layer.values() for key, coeff in states.items()
            if coeff}


_EXPAND_CACHE = {}


def det_coeff_oracle(b):
    """The coefficient of x^b in det(A) by direct signed expansion;
    exact, bounded at n <= 12.  _leibniz runs with b as its budget, so
    only the permutations whose monomial is x^b are summed.  The rows
    and the columns each sum to n(n-1)/2, so a permutation's variable
    indices sum to 0 mod n; a b that is not Hall-admissible returns 0
    unwalked."""
    n = b.n
    if n > ORACLE_MAX_N:
        raise ValueError("oracle bound exceeded")
    if not hall_admissible(b):
        return 0
    return _leibniz(n, b.b).get(b.b, 0)


def expand_det(n):
    """The fully expanded determinant (n <= 12) as {b: coefficient},
    b an exponent tuple of n entries summing to n, like terms combined
    and zero coefficients dropped, so len(expand_det(n)) is d(n): the
    shape of _leibniz and _orbit_values.  The entries come in no
    particular order.

    _leibniz sums S(b) over the permutations with sigma(0) = 0, under a
    budget of n for every variable.  The column shift tau_c(j) = j + c
    mod n is a bijection on all permutations, onto sigma(0) = c, that
    rotates each exponent vector by c, rot_c(b)[w] = b[w - c], and
    multiplies each sign by s_c = (-1)^(c(n-1)); s_c = s_(-c).  So the
    determinant's coefficient is D(b) = sum over c of s_c * S(rot_c(b)),
    and D(rot_c(b)) = s_c * D(b): each key of S not yet in the table
    reads S at its n rotations and writes the n signed values, one
    rotation class at a time (302 classes from the 1,430 sums at n = 9).
    Keys are bytes while the table fills, one byte per exponent, so a
    rotation is a slice of the key written twice; they become tuples
    once at the end, the classes whose coefficient cancelled to 0
    dropped."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ORACLE_MAX_N:
        raise ValueError("oracle bound exceeded")
    cached = _EXPAND_CACHE.get(n)
    if cached is not None:
        return cached
    sums = {bytes(key): coeff
            for key, coeff in _leibniz(n, (n,) * n, first=0).items()}
    signs = [-1 if _shift_negates(n, c) else 1 for c in range(n)]
    raw = {}
    for key in sums:
        if key in raw:
            continue
        twice = key + key
        # turns[c] is the key rotated by -c, and s_c = s_(-c)
        turns = [twice[c:c + n] for c in range(n)]
        coeff = sum([sign * sums.get(turn, 0)
                     for sign, turn in zip(signs, turns)])
        for sign, turn in zip(signs, turns):
            raw[turn] = sign * coeff
    # freed before the tuples are made, which can then reuse its memory:
    # at n = 12 the peak resident memory is 1.4 MB lower
    del sums
    table = _EXPAND_CACHE[n] = {tuple(key): coeff
                                for key, coeff in raw.items() if coeff}
    return table


# ---------------------------------------------------------------------------
# power-sum route


class _Engine:
    """Evaluates the partition sum for [x^b]det in a regrouped form.

    Group the terms of the sum by which bricks of mu land in which part
    of lambda.  Passing to labeled bricks turns the n^k/z(lambda)
    bookkeeping into independent blocks, giving

        [x^b] = (-1)^n * h(mu) / prod(b_i!),

        h(S) = sum over set partitions of the labeled bricks of S into
               blocks whose length-sums are divisible by n, of
               prod over blocks of (-n) * (|block|-1)!

    (the exponential-formula shape of the original sum; equality with the
    literal per-lambda form is pinned by tests).  h is computed by a
    recursion that always places the largest remaining brick, memoized
    across all b of a given n: multisets of bricks are encoded as packed
    base-(n+1) integers so removing a block is a subtraction.

    One brick of the largest length is taken out as the block's anchor.
    The partial blocks grown from it are kept in a list, extended by one
    occupied length above 1 at a time, largest first and fewest bricks
    first, so they keep the order of a depth-first walk.  One is kept
    only if a per-state bitmask says the bricks still to choose can
    bring its length-sum to 0 mod n.  The last level feeds the leaf,
    which forces the length-1 count mod n in one step: sum(b) = n leaves
    at most n-1 length-1 bricks besides the anchor.  The memoized
    states, and their order, are those of the full walk.

    Each state reads only the lengths its query holds: coeff lists the
    lengths b holds once, largest first, and passes the list down, so a
    state decodes just those fields of its key.  Every state below b
    holds a sub-multiset of b's bricks, so a state memoized under one
    query is also right for any other query that reaches it.  h is
    entered only for a key not yet memoized.
    """

    def __init__(self, n):
        self.n = n
        self.powers = [(n + 1) ** i for i in range(n)]
        self.memo = {0: 1}
        fact = [factorial(i) for i in range(n + 1)]
        self.fact = fact
        # weight of one block of r bricks
        self.block_weight = [0] + [-n * fact[r - 1] for r in range(1, n + 1)]
        # rows of Pascal's triangle: binom[c][a] = C(c, a)
        binom = [[1]]
        for _ in range(n):
            row = binom[-1]
            binom.append([1, *map(add, row, row[1:]), 1])
        self.binom = binom
        self.full = (1 << n) - 1
        # per unit u: the weights u*j mod n that give the q of the image
        # holding rotation[j] at x_(u*j) (x_n for u*j = 0 mod n), but for
        # the n*max(b) that every candidate holds at x_n, and the
        # positions of that image read from the rotation
        self.units = []
        for u in range(n):
            if gcd(u, n) == 1:
                v = pow(u, -1, n)
                self.units.append((u, [u * j % n for j in range(n)],
                                   [v * i % n for i in range(1, n + 1)]))

    def image(self, b):
        """(image, c) for the image of b that det_coeff_er asks for, under
        x_j -> x_(u*j+c): of the images holding a largest exponent of b
        at x_n, the first of least q by position, then by unit.  Sending
        x_(p+1) to x_n takes c = -u(p+1) mod n, and moves the exponent
        rotation[j] = b[(p+j) mod n] to x_(u*j mod n).

        det_coeff_er asks the engine for the image with x_n set to 0:
        [x^b] = (-1)^(b_n) * (the engine at b with b_n set to 0), as a
        brick of length n is a cycle of its own or follows another
        brick in one (proved there).  Moving a largest exponent to x_n
        sheds the most bricks, and the least q of the rest leaves the
        fewest long bricks: 14,504 states in all, 0.6 s, on the 18
        draws of tests/oracles.heavy_draws, where b itself takes 68,346
        states and 5-7 s, and the whole image with max(b) at x_1 72,602
        and 4.3 s."""
        top = max(b)
        least = self.n ** 2 + 1     # past every q
        for p, x in enumerate(b):
            if x == top:
                rotation = b[p:] + b[:p]
                for u, weights, layout in self.units:
                    q = sum(map(mul, rotation, weights))
                    if q < least:
                        least, pick = q, (p, u, rotation, layout)
        p, u, rotation, layout = pick
        return (tuple([rotation[i] for i in layout]),
                -u * (p + 1) % self.n)

    def coeff(self, b, asked=None):
        # asked: the term an integrality failure names, b by default
        n = self.n
        powers = self.powers
        fact = self.fact
        # (length, key step) of each length b holds, largest first; every
        # state below b holds a sub-multiset of its bricks
        occupied = []
        q = key = 0
        den = 1
        for i in range(n - 1, -1, -1):
            x = b[i]
            if x:
                q += (i + 1) * x
                key += x * powers[i]
                den *= fact[x]
                occupied.append((i + 1, powers[i]))
        if q % n:
            return 0
        num = self.memo.get(key)
        if num is None:
            num = self.h(key, occupied)
        if n % 2:
            num = -num
        val, rem = divmod(num, den)
        if rem:
            named = ",".join(map(str, b if asked is None else asked))
            raise RouteDisagreement(f"n={n} b={named}: "
                                    f"the engine gives {num}/{den}, not whole")
        return val

    def h(self, key, occupied):
        # entered only for a key not yet in the memo
        n = self.n
        base = n + 1
        memo = self.memo
        binom = self.binom
        full = self.full
        # the partial blocks (length-sum, key left, bricks, ways) start
        # from one brick of the largest length the state holds, the
        # anchor; levels holds (size, key step, binomial row) of each
        # other length above 1
        blocks = None
        levels = []
        c1 = 0
        for size, step in occupied:
            count = key // step % base
            if not count:
                continue
            if blocks is None:
                blocks = [(size, key - step, 1, 1)]
                count -= 1
            if size == 1:
                c1 = count
            elif count:
                levels.append((size, step, binom[count]))
        depth = len(levels)
        # reach[k]: bitmask of the residues mod n that levels[k:] and the
        # length-1 bricks can still add to the block; only 1..depth-1 read
        reach = [0] * depth + [(2 << c1) - 1]
        for k in range(depth - 1, 0, -1):
            size, _, row = levels[k]
            m = reach[k + 1]
            mask = 0
            for a in range(len(row)):
                t = size * a % n
                mask |= ((m << t) | (m >> (n - t))) & full
            reach[k] = mask
        for k in range(depth - 1):
            size, step, row = levels[k]
            below = reach[k + 1]
            grown = []
            for s, left, r, ways in blocks:
                for w in row:
                    if below >> (-s % n) & 1:
                        grown.append((s, left, r, ways * w))
                    s += size
                    left -= step
                    r += 1
            blocks = grown
        # the last level feeds the leaf; c1 <= n-1, so one count fits
        size, step, row = levels[-1] if depth else (0, 0, (1,))
        ones = binom[c1]
        block_weight = self.block_weight
        acc = 0
        for s, left, r, ways in blocks:
            for w in row:
                a1 = -s % n
                if a1 <= c1:
                    sub = left - a1
                    val = memo.get(sub)
                    if val is None:
                        val = self.h(sub, occupied)
                    acc += ways * w * ones[a1] * block_weight[r + a1] * val
                s += size
                left -= step
                r += 1
        memo[key] = acc
        return acc


_ENGINES = {}


def _engine(n):
    eng = _ENGINES.get(n)
    if eng is None:
        eng = _ENGINES[n] = _Engine(n)
    return eng


def cache_sizes():
    """Entries held by the process-wide caches, which grow until
    clear_caches() empties them: coefficient-engine states over every n,
    expanded determinants and the filling weights that filling_weight's
    row recursion memoizes; the class walk behind det_coeff_er_terms and
    the dominance certificate and affine_orbits keep nothing between
    calls.  None has a bound: each grows only with the n it serves, the
    later orbits of affine_orbits' readers reuse the states the earlier
    ones left, and a run over many n can clear them."""
    return {"engine_states": sum(len(e.memo) for e in _ENGINES.values()),
            "expanded_determinants": len(_EXPAND_CACHE),
            "filling_weights": len(_W_MEMO)}


def clear_caches():
    """Empty every cache cache_sizes() reports."""
    _ENGINES.clear()
    _EXPAND_CACHE.clear()
    _W_MEMO.clear()


def det_coeff_er(b):
    """The coefficient of x^b in the eigenvalue-product expansion of the
    determinant: equal to det_coeff_oracle(b) up to the global sign
    eps(n).

    The engine's h(S) (see _Engine) sums prod (-n)*(|B|-1)! over the
    set partitions of the bricks of S.  Reading (|B|-1)! as the cyclic
    orders on a block B, h(S) sums (-n)^(number of cycles) over the
    permutations of S's bricks whose cycles each have a length-sum
    divisible by n.  A brick z of length n is either a cycle of its own
    (a factor -n) or follows one of the |S| other bricks in a cycle,
    which keeps that cycle's sum, so h(S + {z}) = (|S| - n) * h(S).
    Adding the b_n bricks of length n to the n - b_n others gives
    h(mu) = (-1)^(b_n) * b_n! * h(mu without them), and b_n! cancels
    against prod(b_i!):

        [x^b] = (-1)^(b_n) * (the engine's value at b with b_n set to 0).

    So the engine is asked for the image of b that _Engine.image picks,
    which holds max(b) at x_n, with x_n set to 0, and the value is
    negated when exactly one of _shift_negates(n, c) and "max(b) is odd"
    holds.  Dropping a largest exponent divides the box prod(b_i + 1),
    which bounds the engine's states, by the most, and the least q
    leaves the fewest bricks of great length, which it anchors and
    walks.  The image's q is u*q mod n, so when q is not a multiple of n
    the engine returns 0 unwalked."""
    n = b.n
    eng = _engine(n)
    image, c = eng.image(b.b)
    value = eng.coeff(image[:-1] + (0,), b.b)
    odd = image[-1] % 2 == 1
    return -value if _shift_negates(n, c) != odd else value


def det_coeff_er_terms(b):
    """The same coefficient as det_coeff_er, broken down per partition:
    {lambda: (-1)^(k(mu)-k(lambda)) * w(lambda,mu) * n^k(lambda) / z(lambda)}
    over partitions lambda of q with all parts divisible by n, zero terms
    omitted.  The values are Fractions; their sum is always an integer.

    These are bricks._er_terms at n, the m-to-p expansion's own builder:
    w(lambda, mu) sums the class weights of lambda from one class walk
    of mu's bricks at step n, the walk dominance_check takes.  A b that
    is not Hall-admissible has no class at step n and gives {}."""
    return _er_terms(b.mu(), b.n)


# ---------------------------------------------------------------------------
# orbit route: every coefficient of one n from one engine query per orbit

# representatives of each affine_orbits(n) checked against the literal
# per-partition sum
SPOT_CHECKS = 8


def _shift_negates(n, c):
    """Whether x_j -> x_(u*j+c) negates a coefficient: the multiplier u
    only permutes the eigenvalues c_k and the shift c multiplies each
    c_k by xi^(-ck), so their product picks up
    xi^(-c*n(n-1)/2) = (-1)^(c(n-1))."""
    return c * (n - 1) % 2 == 1


def _position_maps(n):
    """For each 0-based position p, (image, negate) for each map
    x_j -> x_(u*j+c), u a unit mod n, that sends x_(p+1) to x_n: image(b)
    is the exponent tuple of x^b after it, and negate, from
    _shift_negates, whether it negates the coefficient.  For u it takes
    c = -u(p+1) mod n and reads b at (p + j) mod n for each j of the
    engine's layout for u."""
    return [[(itemgetter(*[(p + j) % n for j in layout]) if n > 1
              else tuple,     # itemgetter of one index gives no tuple
              _shift_negates(n, -u * (p + 1) % n))
             for u, _, layout in _engine(n).units] for p in range(n)]


def _affine_images(n):
    """_position_maps as one list, n*phi(n) maps, the identity included."""
    return [pair for maps in _position_maps(n) for pair in maps]


def _fixed_terms(n, u, c):
    """The admissible b that x_j -> x_(u*j+c) fixes, those constant on
    each cycle of j -> u*j + c mod n (j = 0 for x_n).  ways[s][r] counts
    the fillings of the cycles so far of degree s and residue r: a cycle
    of L positions whose subscripts sum to W adds a*L and a*W holding a."""
    ways = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(n)]
    seen = [False] * n
    for j in range(n):
        if seen[j]:
            continue
        size = weight = 0
        while not seen[j]:
            seen[j] = True
            size, weight, j = size + 1, weight + j, (u * j + c) % n
        w = weight % n
        # ways[s - size] is read after its own update: a takes any value
        for s in range(size, n + 1):
            prev = ways[s - size]
            ways[s] = list(map(add, ways[s], prev[n - w:] + prev[:n - w]))
    return ways[n][0]


def _burnside_count(n):
    """The number of affine orbits, by Burnside's lemma: the mean of
    _fixed_terms over the n*phi(n) maps, a Fraction.  Conjugating by a
    rotation j -> j + t, which keeps admissibility, turns c into
    c + t(1-u), so only c mod gcd(u-1, n) matters."""
    units = [u for u, _, _ in _engine(n).units]
    total = sum(n // gcd(u - 1, n) * _fixed_terms(n, u, c)
                for u in units for c in range(gcd(u - 1, n)))
    return Fraction(total, n * len(units))


def _stabilizer(b, top, maps):
    """The number of maps that fix b, or 0 if one sends b to a smaller
    term holding top = max(b) at x_n.  Those maps send a position
    holding top to x_n, and so do the maps that fix b."""
    fixed = 0
    for p, x in enumerate(b):
        if x == top:
            for image, _ in maps[p]:
                a = image(b)
                if a < b:
                    return 0
                fixed += a == b
    return fixed


def _spot_check(n, b, coeff, maps):
    # coeff = det_coeff_er(b) against the literal per-partition sum at
    # b's image of least q, where it is cheapest, signed by _shift_negates
    weights = range(1, n + 1)
    _, image, negate = min((sum(map(mul, a, weights)), a, negate)
                           for row in maps for get, negate in row
                           for a in (get(b),))
    literal = sum(det_coeff_er_terms(
        ExponentVector._trusted(n, image)).values())
    admit(n, b, "coefficient", {
        "the engine": coeff,
        "the per-partition sum": -literal if negate else literal})


def affine_orbits(n):
    """Yield (b, size, coeff) for each affine orbit of the admissible
    terms of size n, holding nothing of an orbit once yielded: b is the
    least of its terms that hold a largest exponent at x_n, size n*phi(n)
    over the number of maps that fix b, and coeff det_coeff_er(b), the
    orbit's one engine query.  For top = 1..n the walk takes
    x_1..x_(n-1) at most top, of degree n - top and residue 0, and
    x_n = top; _stabilizer keeps the least.  SPOT_CHECKS orbits, drawn
    by rank with random.Random(n), have their coeff held to the literal
    per-partition sum by _spot_check before they are yielded.  The count
    must equal _burnside_count(n) and the sizes sum to p_count(n), or
    admit raises RouteDisagreement naming n (and b for a spot check)."""
    if n < 1:
        raise ValueError("n must be positive")
    orbits = _burnside_count(n)
    ranks = range(int(orbits))
    spots = set(random.Random(n).sample(ranks, min(SPOT_CHECKS, len(ranks))))
    maps = _position_maps(n)
    group = n * len(maps[0])
    count = total = 0
    for top in range(1, n + 1):
        for a in _residue_walk(n, n - top, top, n - 1):
            b = a + (top,)
            fixed = _stabilizer(b, top, maps)
            if fixed:
                coeff = det_coeff_er(ExponentVector._trusted(n, b))
                if count in spots:
                    _spot_check(n, b, coeff, maps)
                count += 1
                total += group // fixed
                yield b, group // fixed, coeff
    admit(n, None, "orbits", {"Burnside's lemma": orbits,
                              "the orbit walk": count})
    admit(n, None, "p", {"the formula": p_count(n), "the orbit sizes": total})


def d_count(n):
    """The determinant's term count d(n): the sizes of the affine orbits
    whose representative's coefficient is nonzero.  The oracle's count
    is len(expand_det(n)) (n <= 12)."""
    return sum(size for _, size, coeff in affine_orbits(n) if coeff)


def _orbit_values(n):
    """{b: det_coeff_er(b)} for every admissible exponent tuple b of size
    n, from one engine query per orbit of affine_orbits: each image of
    the representative under _affine_images takes its signed value.  The
    entries must number p_count(n), by the closed form, or admit raises
    RouteDisagreement naming n."""
    if n < 1:
        raise ValueError("n must be positive")
    images = _affine_images(n)
    values = {}
    for b, _, value in affine_orbits(n):
        for image, negate in images:
            values[image(b)] = -value if negate else value
    admit(n, None, "p", {"the formula": p_count(n),
                         "the orbit images": len(values)})
    return values


def det_table(n):
    """det_coeff_er(b) for every admissible b of size n, zeros included,
    as a list aligned with permanent_terms(n): the values of
    _orbit_values(n), in the order of their sorted terms."""
    values = _orbit_values(n)
    return [values[b] for b in sorted(values)]


def sign_epsilon(n):
    """The global sign eps(n) with det_coeff_er = eps(n)*det_coeff_oracle.

    Read off at b = (n,0,...,0): the monomial x_1^n comes from exactly
    one permutation (in each row i the single entry equal to x_1 sits in
    column j with i+j = 1 mod n), so the oracle side is just that
    permutation's sign.  _leibniz with b as its budget reads it for any
    n: each of its layers holds one state."""
    if n < 1:
        raise ValueError("n must be positive")
    b0 = ExponentVector(n, (n,) + (0,) * (n - 1))
    er = det_coeff_er(b0)
    oracle = _leibniz(n, b0.b)[b0.b]
    if er not in (1, -1):
        raise RouteDisagreement(f"n={n}: probe coefficient {er}, not 1 or -1")
    return er * oracle
