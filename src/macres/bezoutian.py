"""Bezoutian construction and its coefficient slices.

The Bezoutian of f_1..f_n is the determinant of the matrix of
incremental quotients; it lives in 2n variables (the X block followed
by the Y block) and is homogeneous of degree equal to the critical
degree.  Its coefficient slices along Y-monomials supply the left block
of every assembled matrix.
"""

from .combinat import DegreeSystem, critical_degree, monomial_basis
from .corering import (
    MPoly,
    ParamRing,
    monomial_key,
    scalar_from_int,
    specialize,
)
from .linalg import LabeledMatrix, minor_det


class PolySystem:
    """n homogeneous polynomials in n variables over a common domain.

    param_blocks, present on generic systems, maps each polynomial
    index (0-based) to the list of its coefficient parameter names in
    canonical monomial order.
    """

    __slots__ = ("ds", "polys", "domain", "param_blocks")

    def __init__(self, ds, polys, param_blocks=None):
        if not isinstance(ds, DegreeSystem):
            ds = DegreeSystem(ds)
        polys = list(polys)
        if len(polys) != ds.n:
            raise ValueError("expected %d polynomials" % ds.n)
        domain = polys[0].domain
        for i, (p, d) in enumerate(zip(polys, ds.degrees), start=1):
            if p.nvars != ds.n:
                raise ValueError("polynomial %d has wrong variable count" % i)
            if p.domain != domain and p.domain is not domain:
                raise ValueError("polynomials over different coefficient domains")
            if not p.is_homogeneous():
                raise ValueError("polynomial %d is not homogeneous" % i)
            if p.terms and p.total_degree() != d:
                raise ValueError("polynomial %d is not of degree %d" % (i, d))
        self.ds = ds
        self.polys = polys
        self.domain = domain
        self.param_blocks = param_blocks

    @property
    def n(self):
        return self.ds.n

    def specialized(self, assignment):
        """Integer system obtained by substituting parameter values."""
        return PolySystem(self.ds, [specialize(p, assignment) for p in self.polys])

    def __repr__(self):
        return "PolySystem(degrees=%r)" % (self.ds.degrees,)


def generic_system(degrees):
    """The system whose coefficients are independent named parameters.

    Parameter a_i_k is the coefficient of the k-th degree-d_i monomial
    of f_i under the canonical monomial order (both indices 1-based).
    """
    ds = DegreeSystem(degrees)
    names = []
    blocks = []
    for i, d in enumerate(ds.degrees, start=1):
        block = ["a_%d_%d" % (i, k)
                 for k in range(1, len(monomial_basis(ds.n, d)) + 1)]
        blocks.append(block)
        names.extend(block)
    ring = ParamRing(names)
    polys = []
    for i, d in enumerate(ds.degrees, start=1):
        terms = {}
        for k, e in enumerate(monomial_basis(ds.n, d), start=1):
            terms[e] = ring.gen("a_%d_%d" % (i, k))
        polys.append(MPoly(ds.n, ring, terms))
    return PolySystem(ds, polys, param_blocks=blocks)


def monomial_system(degrees, domain="int"):
    """The system f_i = X_i^{d_i}."""
    ds = DegreeSystem(degrees)
    polys = []
    for i, d in enumerate(ds.degrees):
        e = [0] * ds.n
        e[i] = d
        polys.append(MPoly(ds.n, domain, {tuple(e): scalar_from_int(domain, 1)}))
    return PolySystem(ds, polys)


def system_from_terms(degrees, term_maps, domain="int"):
    """Build a PolySystem from explicit exponent->coefficient maps."""
    ds = DegreeSystem(degrees)
    polys = [MPoly(ds.n, domain, tm) for tm in term_maps]
    return PolySystem(ds, polys)


class Bezoutian:
    """The Bezoutian polynomial together with its source system."""

    __slots__ = ("system", "poly")

    def __init__(self, system, poly):
        self.system = system
        self.poly = poly

    def swap_xy(self):
        """The reflected representative, with the X and Y blocks
        exchanged.  It is a valid Bezoutian representative in its own
        right, but in general a different polynomial: the two agree
        only modulo the ideal of argument differences."""
        n = self.system.n
        out = {}
        for e, c in self.poly.terms.items():
            out[e[n:] + e[:n]] = c
        return Bezoutian(self.system, MPoly(2 * n, self.poly.domain, out))

    def __repr__(self):
        return "Bezoutian(degrees=%r, %d terms)" % (
            self.system.ds.degrees, self.poly.term_count())


def incremental_quotient(sys, i, j):
    """The 2n-variable polynomial interpolating f_i between mixed
    X/Y arguments at position j (1-based i and j).

    Computed term-by-term: the monomial c*X^a contributes
    c * Y^(a, before j) * X^(a, after j) * sum_{u<a_j} X_j^u Y_j^(a_j-1-u),
    which telescopes against X_j - Y_j.
    """
    n = sys.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    f = sys.polys[i - 1]
    out = {}
    jj = j - 1
    for e, c in f.terms.items():
        aj = e[jj]
        if aj == 0:
            continue
        base = [0] * (2 * n)
        for k in range(n):
            if k < jj:
                base[n + k] = e[k]
            elif k > jj:
                base[k] = e[k]
        for u in range(aj):
            key = list(base)
            key[jj] = u
            key[n + jj] = aj - 1 - u
            key = tuple(key)
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return MPoly(2 * n, f.domain, out)


def bezoutian(sys):
    """Determinant of the incremental-quotient matrix (rows indexed by
    the polynomial, columns by the interpolation position), expanded by
    division-free memoized minors."""
    n = sys.n
    grid = [[incremental_quotient(sys, i, j) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    return Bezoutian(sys, minor_det(grid, MPoly.one(2 * n, sys.domain)))


def delta_slices(bez, t):
    """Coefficient polynomials along Y-monomials of degree tcrit - t.

    Returns an ordered dict-like mapping from each Y-exponent vector of
    that degree (canonical order, zero slices included) to an MPoly of
    degree t in the X variables.
    """
    sys = bez.system
    n = sys.n
    tn = critical_degree(sys.ds)
    if not 0 <= t <= tn:
        raise ValueError("t out of range")
    want = tn - t
    slices = {g: {} for g in monomial_basis(n, want)}
    for e, c in bez.poly.terms.items():
        g = e[n:]
        if sum(g) != want:
            continue
        slices[g][e[:n]] = c
    return {g: MPoly(n, bez.poly.domain, tm) for g, tm in slices.items()}


def delta_matrix(sys, t, bez=None):
    """LabeledMatrix of the slice coefficients: rows are the degree-t
    monomials, columns the dual slots T_g with |g| = tcrit - t."""
    if bez is None:
        bez = bezoutian(sys)
    n = sys.n
    slices = delta_slices(bez, t)
    rows = [("mono", e) for e in monomial_basis(n, t)]
    gs = sorted(slices, key=monomial_key)
    cols = [("slice", g) for g in gs]
    grid = [[slices[g].coeff(e) for g in gs] for (_, e) in rows]
    return LabeledMatrix(rows, cols, grid, sys.domain,
                         blocks={"delta": ((0, len(rows)), (0, len(cols)))})


def delta_zero(sys, bez=None):
    """The Bezoutian with the whole Y block set to zero."""
    if bez is None:
        bez = bezoutian(sys)
    n = sys.n
    out = {}
    for e, c in bez.poly.terms.items():
        if all(k == 0 for k in e[n:]):
            out[e[:n]] = c
    return MPoly(n, sys.domain, out)


def jacobian(sys):
    """Determinant of the matrix of partial derivatives."""
    from .corering import derivative

    n = sys.n
    grid = [[derivative(sys.polys[i], j) for j in range(n)] for i in range(n)]
    return minor_det(grid, MPoly.one(n, sys.domain))
