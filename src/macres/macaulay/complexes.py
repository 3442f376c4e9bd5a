"""The coupled Koszul complex behind the quotient formulas.

Term ranks are pure combinatorics.  Every differential is the one
Koszul scatter of assembly._fill on the labels of its two terms, the
middle one being the unrestricted assembly; for specialized systems
their ranks certify exactness, which happens precisely when the
resultant does not vanish.
"""

import itertools

from ..combinat import critical_degree, monomial_basis
from ..corering import ParamRing, scalar_is_zero
from ..linalg import LabeledMatrix, grid_mul, rank_over_fractions
from .assembly import _fill, full_assembly, full_labels


def _index_subsets(n, size):
    return list(itertools.combinations(range(1, n + 1), size))


def _term_labels(ds, t, k):
    """Basis labels of the complex term in slot k, for -n <= k <= n-1.

    Slots -1 and 0 are the columns and rows of the unrestricted
    assembly, so the middle differential is exactly full_assembly.
    """
    n = ds.n
    d = ds.degrees
    if k <= -2:
        labels = []
        for sub in _index_subsets(n, -k):
            u = t - sum(d[i - 1] for i in sub)
            labels += [("k", sub, g) for g in monomial_basis(n, u)]
        return labels
    if k in (-1, 0):
        rows, cols = full_labels(ds, t)
        return cols if k == -1 else rows
    tn = critical_degree(ds)
    labels = []
    for sub in _index_subsets(n, k + 1):
        u = tn - t - sum(d[i - 1] for i in sub)
        labels += [("dualk", sub, g) for g in monomial_basis(n, u)]
    return labels


def _differential(sys, t, k):
    """The matrix of the map from slot k to slot k+1: full_assembly for
    k = -1, otherwise the Koszul scatter of _fill on the term labels."""
    if k == -1:
        return full_assembly(sys, t)
    rows = _term_labels(sys.ds, t, k + 1)
    cols = _term_labels(sys.ds, t, k)
    return LabeledMatrix(rows, cols, _fill(sys, rows, cols), sys.domain)


class ComplexProfile:
    """Term ranks of the coupled complex at degree t, and differential
    ranks when the system is specialized."""

    __slots__ = ("t", "n", "term_ranks", "differential_ranks")

    def __init__(self, t, n, term_ranks, differential_ranks):
        self.t = t
        self.n = n
        self.term_ranks = term_ranks
        self.differential_ranks = differential_ranks

    def __repr__(self):
        spine = "->".join(str(self.term_ranks[k])
                          for k in range(-self.n, self.n))
        return "ComplexProfile(t=%d, %s)" % (self.t, spine)


class ExactnessReport:
    """Rank bookkeeping for one specialized system at degree t: the
    complex is exact exactly when incoming plus outgoing ranks exhaust
    every term."""

    __slots__ = ("t", "term_ranks", "differential_ranks", "exact_at",
                 "is_exact")

    def __init__(self, t, term_ranks, differential_ranks, exact_at):
        self.t = t
        self.term_ranks = term_ranks
        self.differential_ranks = differential_ranks
        self.exact_at = exact_at
        self.is_exact = all(exact_at.values())

    def __repr__(self):
        return "ExactnessReport(t=%d, exact=%r)" % (self.t, self.is_exact)


def complex_profile(sys, t):
    """Term ranks at degree t (0 <= t <= critical degree); for
    specialized systems the differential ranks are computed as well."""
    ds = sys.ds
    n = ds.n
    tn = critical_degree(ds)
    if not 0 <= t <= tn:
        raise ValueError("the coupled complex needs 0 <= t <= %d" % tn)
    term_ranks = {k: len(_term_labels(ds, t, k)) for k in range(-n, n)}
    differential_ranks = None
    if not isinstance(sys.domain, ParamRing):
        differential_ranks = {k: rank_over_fractions(_differential(sys, t, k))
                              for k in range(-n, n - 1)}
    return ComplexProfile(t, n, term_ranks, differential_ranks)


def exactness_check(sys, t):
    """Build every differential of the specialized complex, verify the
    consecutive compositions vanish, and report rank exactness at each
    slot."""
    ds = sys.ds
    n = ds.n
    tn = critical_degree(ds)
    if isinstance(sys.domain, ParamRing):
        raise TypeError("exactness_check expects a specialized system")
    if not 0 <= t <= tn:
        raise ValueError("the coupled complex needs 0 <= t <= %d" % tn)
    term_ranks = {k: len(_term_labels(ds, t, k)) for k in range(-n, n)}
    maps = {k: _differential(sys, t, k) for k in range(-n, n - 1)}
    for k in range(-n, n - 2):
        _assert_zero_composition(maps[k], maps[k + 1])
    ranks = {k: rank_over_fractions(maps[k]) for k in maps}
    exact_at = {}
    for k in range(-n, n):
        rank_in = ranks.get(k - 1, 0)
        rank_out = ranks.get(k, 0)
        exact_at[k] = rank_in + rank_out == term_ranks[k]
    return ExactnessReport(t, term_ranks, ranks, exact_at)


def _assert_zero_composition(first, second):
    """second o first must vanish; anything else is a construction bug."""
    if first.nrows != second.ncols:
        raise AssertionError("differential shapes do not chain")
    product = grid_mul(second.entries, first.entries, first.domain)
    if any(not scalar_is_zero(c) for row in product for c in row):
        raise AssertionError("consecutive differentials do not "
                             "compose to zero")
