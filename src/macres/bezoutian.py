"""Bezoutian construction and its coefficient slices.

The Bezoutian of f_1..f_n is the determinant of the matrix of
incremental quotients; it lives in 2n variables (the X block followed
by the Y block) and is homogeneous of degree equal to the critical
degree.  Its coefficient slices along Y-monomials supply the left block
of every assembled matrix.
"""

from .combinat import DegreeSystem, critical_degree, monomial_basis
from .corering import MPoly, ParamRing, specialize
from .linalg import minor_det


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


def sparse_generic_system(degrees, supports):
    """The system whose coefficients on the listed exponents are
    independent named parameters, every other coefficient zero.

    Parameter a_i_k is the coefficient of the k-th degree-d_i monomial
    of f_i under the canonical monomial order (both indices 1-based),
    whatever the support, and parameters are ordered by i, then k.
    """
    ds = DegreeSystem(degrees)
    layout = []
    for i, (d, sup) in enumerate(zip(ds.degrees, supports), start=1):
        rank = {e: k for k, e in enumerate(monomial_basis(ds.n, d), start=1)}
        layout.append([(e, "a_%d_%d" % (i, rank[e]))
                       for e in sorted(sup, key=lambda e: rank[e])])
    blocks = [[nm for _, nm in pairs] for pairs in layout]
    ring = ParamRing([nm for block in blocks for nm in block])
    polys = [MPoly(ds.n, ring, {e: ring.gen(nm) for e, nm in pairs})
             for pairs in layout]
    return PolySystem(ds, polys, param_blocks=blocks)


def generic_system(degrees):
    """The generic system on full supports: every coefficient is an
    independent parameter (see sparse_generic_system)."""
    ds = DegreeSystem(degrees)
    return sparse_generic_system(
        ds.degrees, [monomial_basis(ds.n, d) for d in ds.degrees])


def monomial_system(degrees):
    """The integer system f_i = X_i^{d_i}."""
    ds = DegreeSystem(degrees)
    polys = []
    for i, d in enumerate(ds.degrees):
        e = [0] * ds.n
        e[i] = d
        polys.append(MPoly(ds.n, "int", {tuple(e): 1}))
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


def jacobian(sys):
    """Determinant of the matrix of partial derivatives."""
    from .corering import derivative

    n = sys.n
    grid = [[derivative(sys.polys[i], j) for j in range(n)] for i in range(n)]
    return minor_det(grid, MPoly.one(n, sys.domain))
