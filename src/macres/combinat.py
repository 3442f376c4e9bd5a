"""Degree bookkeeping and monomial index sets.

Everything in this module is a function of the degree sequence alone:
the critical degree, the Hilbert function of the generic complete
intersection, matrix sizes, the multiplier sets attached to each
polynomial, and the classification of degree sequences admitting a
pure determinantal formula.
"""

import math
from fractions import Fraction


class DegreeSystem:
    """A count n and positive degrees d_1..d_n."""

    __slots__ = ("n", "degrees")

    def __init__(self, degrees):
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) < 1:
            raise ValueError("need at least one degree")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be positive")
        self.degrees = degrees
        self.n = len(degrees)

    @property
    def mean_degree(self):
        return Fraction(sum(self.degrees), self.n)

    def resultant_degree(self, i):
        """Degree of the resultant in the coefficients of the i-th
        polynomial (i is 1-based): the product of the other degrees."""
        if not 1 <= i <= self.n:
            raise ValueError("index out of range")
        out = 1
        for j, d in enumerate(self.degrees, start=1):
            if j != i:
                out *= d
        return out

    def __eq__(self, other):
        return isinstance(other, DegreeSystem) and self.degrees == other.degrees

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        return "DegreeSystem%r" % (self.degrees,)


def binom(a, b):
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def critical_degree(ds):
    return sum(d - 1 for d in ds.degrees)


def rank_full(n, u):
    """Number of degree-u monomials in n variables (0 for u < 0)."""
    if u < 0:
        return 0
    return binom(u + n - 1, n - 1)


def hilbert_function(ds, t):
    """Coefficient of Y^t in prod(1 - Y^{d_i}) / (1 - Y)^n.

    Counts the degree-t monomials X^g with g_j < d_j for every j.
    Computed by truncated power-series division; the brute-force count
    is kept in the tests as an oracle.
    """
    if t < 0 or t > critical_degree(ds):
        return 0
    c = [0] * (t + 1)
    c[0] = 1
    for d in ds.degrees:
        for k in range(t, d - 1, -1):
            c[k] -= c[k - d]
    for _ in range(ds.n):
        for k in range(1, t + 1):
            c[k] += c[k - 1]
    return c[t]


def ideal_dim(ds, t):
    """Dimension of the degree-t part of the ideal (f_1, .., f_n) for
    generic forms; zero for negative t."""
    if t < 0:
        return 0
    return rank_full(ds.n, t) - hilbert_function(ds, t)


def rho_size(ds, t):
    """Size of the assembled matrix at degree t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return rank_full(ds.n, t) + ideal_dim(ds, critical_degree(ds) - t)


def minimal_t(ds):
    return critical_degree(ds) // 2


def _exponents(n, u):
    if u < 0:
        return
    if n == 1:
        yield (u,)
        return
    for first in range(u, -1, -1):
        for rest in _exponents(n - 1, u - first):
            yield (first,) + rest


# Bases are collected in a list, then frozen: tuple() over a generator
# grows by reallocation, and that kept the peak RSS of the benchmark's
# numeric-classical loop climbing (about 1 MiB per 100 rounds, CPython 3.11).

def monomial_basis(n, u):
    """All degree-u monomials in n variables as a tuple, in the canonical
    order (lexicographic descending, as corering.monomial_key sorts one
    degree)."""
    return tuple(list(_exponents(n, u)))


def stj_basis(ds, t, j):
    """Multipliers of the j-th polynomial at degree t: exponent vectors
    g with |g| = t - d_j and g_i < d_i for every i < j (1-based j)."""
    if not 1 <= j <= ds.n:
        raise ValueError("polynomial index out of range")
    d = ds.degrees
    return tuple([e for e in _exponents(ds.n, t - d[j - 1])
                  if all(e[i] < d[i] for i in range(j - 1))])


def etj_basis(ds, t, j):
    """Members of stj_basis whose monomial is divisible by some other
    X_i^{d_i}; these index the columns of the extraneous-factor minor."""
    d = ds.degrees
    return tuple([e for e in stj_basis(ds, t, j)
                  if any(e[i] >= d[i] for i in range(ds.n) if i != j - 1)])


def reduced_basis(ds, t):
    """Degree-t monomials reduced modulo every X_i^{d_i}."""
    d = ds.degrees
    return tuple([e for e in _exponents(ds.n, t)
                  if all(e[i] < d[i] for i in range(ds.n))])


def et_rows(ds, t):
    """Degree-t monomials divisible by X_i^{d_i} for at least two i."""
    d = ds.degrees
    return tuple([e for e in _exponents(ds.n, t)
                  if sum(1 for i in range(ds.n) if e[i] >= d[i]) >= 2])


def determinantal_range(ds):
    """Inclusive interval (lo, hi) of degrees t at which the extraneous
    minor is empty and a single determinant computes the resultant, or
    None when no such t exists.

    The criterion is permutation-invariant; degrees are sorted
    ascending internally.
    """
    d = sorted(ds.degrees)
    n = ds.n
    if n == 1:
        return (0, critical_degree(ds) + 1)
    tail = sum(d[2:])
    hi = d[0] + d[1] - 1
    lo = max(0, tail - n + 1)
    if tail - n < d[0] + d[1] - 1 and lo <= hi:
        return (lo, hi)
    return None


def size_ratio_bound(ds):
    """Upper bound 2*q^(n-1), q = (p+1)/(2p), p the mean degree, for the
    ratio of the minimal matrix size to the classical one."""
    p = ds.mean_degree
    if p == 1:
        raise ValueError("bound requires mean degree > 1")
    q = (p + 1) / (2 * p)
    return 2 * q ** (ds.n - 1)
