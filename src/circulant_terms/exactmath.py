"""Exact arithmetic helpers: p-adic valuations, small combinatorial and
number-theoretic primitives, and admit, the one cross-check of routes.

All integers are arbitrary-precision Python ints; exact rationals are
fractions.Fraction, which already guarantees lowest terms and a positive
denominator.  Nothing here ever touches floating point.
"""

from fractions import Fraction
from math import factorial, prod


class RouteDisagreement(RuntimeError):
    """Two routes to one number differ, or a closed form is not whole."""


def admit(n, b, what, routes):
    """The one value that routes, {route name: value}, give for `what` at
    n and exponent tuple b (None for n alone).  If two differ, raises
    RouteDisagreement: "n=... [b=...]: <what> disagrees: <v1> by <r1>, ..."."""
    first, *others = routes.values()
    if others.count(first) != len(others):
        at = "" if b is None else f" b={','.join(map(str, b))}"
        listed = ", ".join(f"{v} by {route}" for route, v in routes.items())
        raise RouteDisagreement(f"n={n}{at}: {what} disagrees: {listed}")
    return first


def valuation(x, p):
    """Return the p-adic valuation of a nonzero int or Fraction.

    v is the unique integer with x = p^v * (a/b), a and b coprime to p.
    Primality of p is assumed, not checked.
    """
    if p < 2:
        raise ValueError("invalid prime")
    if x == 0:
        raise ValueError("valuation of zero undefined")
    # most calls pass an int; isinstance on the Fraction ABC costs more
    if type(x) is int:
        return _int_valuation(x, p)
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(x, p)


def _int_valuation(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def multinomial(m, parts):
    """Return m! / prod(parts_i!) for a sequence of non-negative parts
    summing to m."""
    if sum(parts) != m:
        raise ValueError("parts must sum to m")
    try:
        den = prod(map(factorial, parts))
    except ValueError:
        # factorial refuses a negative part
        raise ValueError("parts must be non-negative") from None
    return factorial(m) // den


def factorize(n):
    """Return the prime factorization of n >= 1 as a list of (p, exponent).

    Trial division; every n in this package is small.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(n):
    """Return (p, r) if n = p^r with r >= 1, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0]
    return None


def euler_phi(n):
    """Return the count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("n must be positive")
    phi = n
    for p, _ in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def divisors(n):
    """Return all positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]
