"""Integer partitions with parts and multiplicity views.

A partition of q is a non-increasing tuple of positive parts summing to q.
The multiplicity view beta records, for i = 1..q, how many parts equal i;
k(lambda) is the number of parts.  Also provides the two statistics used
by the monomial-to-power-sum transition:

    z(lambda)  = prod_i beta_i! * i^beta_i
    lambda!    = prod_i (i!)^beta_i
"""

from collections import Counter
from math import factorial


class Partition:
    """Immutable integer partition."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts):
        # for a tuple canonical by construction: no copy and no checks
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        return lam

    @classmethod
    def from_beta(cls, beta):
        """Build a partition from a multiplicity vector (beta[i-1] parts equal i)."""
        parts = []
        for i in range(len(beta), 0, -1):
            parts.extend([i] * beta[i - 1])
        return cls._trusted(tuple(parts))

    @property
    def q(self):
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def k(self):
        """Number of parts."""
        return len(self.parts)

    def beta(self):
        """Dense multiplicity vector of length q: beta()[i-1] = #parts equal to i."""
        q = self.q
        out = [0] * q
        for p in self.parts:
            out[p - 1] += 1
        return tuple(out)

    def counts(self):
        """Sparse multiplicity view: {part: multiplicity}."""
        return Counter(self.parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return "+".join(str(p) for p in self.parts) if self.parts else "0"


def partitions_of(q, divisor_constraint=None):
    """Return all partitions of q as a list, in reverse-lexicographic order
    of the parts tuples (e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1)).

    With divisor_constraint = n, only partitions all of whose parts are
    multiples of n are returned: the partitions of q/n scaled by n, or an
    empty list when n does not divide q.  Each is built once, unchecked.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    scale = 1 if divisor_constraint is None else divisor_constraint
    if scale < 1:
        raise ValueError("divisor constraint must be positive")
    if q % scale:
        return []
    q //= scale
    out = []
    acc = []    # the parts so far, each times scale

    def descend(rem, maxpart):
        if rem == 0:
            out.append(Partition._trusted(tuple(acc)))
            return
        for p in range(min(rem, maxpart), 0, -1):
            acc.append(scale * p)
            descend(rem - p, p)
            acc.pop()

    descend(q, q)
    return out


def z_of(lam):
    """Return z(lambda) = prod over part sizes i of beta_i! * i^beta_i."""
    z = 1
    for i, m in lam.counts().items():
        z *= factorial(m) * i ** m
    return z


def factorial_of_partition(lam):
    """Return lambda! = prod over part sizes i of (i!)^beta_i."""
    out = 1
    for i, m in lam.counts().items():
        out *= factorial(i) ** m
    return out
