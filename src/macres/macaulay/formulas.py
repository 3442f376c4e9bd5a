"""Named formulas layered on the degree-t assemblies.

Univariate Sylvester/Bezout interpolation, Dixon's matrix for three
ternary forms of one degree, the ternary-quadric Sylvester determinant
over 512, the Jacobian column substitution at the critical degree, and
the generalized characteristic polynomial.
"""

import math
from fractions import Fraction

from ..bezoutian import PolySystem, jacobian, monomial_system
from ..combinat import critical_degree, monomial_basis
from ..corering import (
    MPoly,
    ParamRing,
    derivative,
    scalar_exact_div,
    scalar_from_int,
    scalar_zero,
)
from ..linalg import LabeledMatrix, bareiss_det, minor_det
from .assembly import (
    DegenerateSystemError,
    MacaulayAssembly,
    ResultantValue,
    _coeff_of_shifted,
    _extraneous_factor,
    _quotient_at,
    build_assembly,
    sign_normalization,
)


# ---------------------------------------------------------------------------
# binary forms: the Sylvester-to-Bezout family
# ---------------------------------------------------------------------------

def univariate_formulas(sys, t=None):
    """Resultant of two binary forms through the degree-t assembly.

    Binary systems have empty extraneous blocks at every degree
    0 <= t <= d1+d2-1, so each of these is a plain determinant formula:
    t = d1+d2-1 reproduces the Sylvester matrix, and t = d-1 with
    d1 = d2 = d reproduces the classical Bezout matrix of size d.
    """
    if sys.n != 2:
        raise ValueError("univariate_formulas expects a system of two "
                         "binary forms")
    tn = critical_degree(sys.ds)
    if t is None:
        t = tn + 1
    if not 0 <= t <= tn + 1:
        raise ValueError("t must lie in [0, %d] for degrees %r"
                         % (tn + 1, sys.ds.degrees))
    sides = _extraneous_factor(sys, t, {})
    if sides is None:
        raise AssertionError("binary systems have empty extraneous blocks, "
                             "their quotients cannot degenerate")
    return _quotient_at(build_assembly(sys, t), sides)


# ---------------------------------------------------------------------------
# Dixon's matrix for three ternary forms of one degree
# ---------------------------------------------------------------------------

def _cascade_rows(f, domain):
    """The three affine cascade entries for one ternary form, as
    polynomials in k[x1, x2, y1, y2].

    Stage one is the difference quotient in the first variable, stage
    two the difference quotient in the second after the first has been
    swapped out, stage three the full swap; their telescoping sum
    recovers f(x1, x2) - f(y1, y2) after clearing denominators.
    """
    zero = scalar_zero(domain)
    s1 = {}
    s2 = {}
    s3 = {}
    for e, c in f.terms.items():
        a, b = e[0], e[1]
        for u in range(a):
            key = (u, b, a - 1 - u, 0)
            s1[key] = s1.get(key, zero) + c
        for v in range(b):
            key = (0, v, a, b - 1 - v)
            s2[key] = s2.get(key, zero) + c
        key = (0, 0, a, b)
        s3[key] = s3.get(key, zero) + c
    return (MPoly(4, domain, s1), MPoly(4, domain, s2), MPoly(4, domain, s3))


def dixon_matrix(sys):
    """Dixon's square matrix of size 2d^2-d for three ternary forms of
    one common degree d.

    Rows are the degree-(d-1) coefficient slots followed by the three
    multiplier blocks at degree d-2; columns are the degree-(2d-2)
    monomials.  The coefficient rows expand the affine cascade
    determinant, and the whole matrix reproduces the transpose of the
    degree-(2d-2) assembly entry for entry.
    """
    ds = sys.ds
    if ds.n != 3 or len(set(ds.degrees)) != 1:
        raise ValueError(
            "a Dixon matrix needs three ternary forms of one common degree "
            "(binary systems are covered by univariate_formulas)")
    d = ds.degrees[0]
    t = 2 * d - 2
    cascade = [_cascade_rows(f, sys.domain) for f in sys.polys]
    grid = [[cascade[j][r] for j in range(3)] for r in range(3)]
    bez = minor_det(grid, MPoly.one(4, sys.domain))
    by_y = {}
    for e, c in bez.terms.items():
        by_y.setdefault((e[2], e[3]), {})[(e[0], e[1])] = c
    rows = [("slice", g) for g in monomial_basis(3, d - 1)]
    rows += [("mult", j, g) for j in range(1, 4)
             for g in monomial_basis(3, d - 2)]
    cols = [("mono", e) for e in monomial_basis(3, t)]
    zero = scalar_zero(sys.domain)
    out = []
    for rl in rows:
        if rl[0] == "slice":
            g = rl[1]
            bx = by_y.get((g[0], g[1]), {})
            out.append([bx.get((e[0], e[1]), zero) for (_, e) in cols])
        else:
            _, j, g = rl
            out.append([_coeff_of_shifted(sys.polys[j - 1], e, g)
                        for (_, e) in cols])
    nslice = len(monomial_basis(3, d - 1))
    blocks = {"coefficient": ((0, nslice), (0, len(cols))),
              "multiplication": ((nslice, len(rows)), (0, len(cols)))}
    return LabeledMatrix(rows, cols, out, sys.domain, blocks=blocks)


def dixon_resultant(sys):
    """The resultant through Dixon's matrix, sign-normalized like the
    quotient formulas (the extraneous blocks at 2d-2 are empty)."""
    m = dixon_matrix(sys)
    det = bareiss_det(m)
    sigma = sign_normalization(sys.ds, 2 * sys.ds.degrees[0] - 2)
    value = det if sigma > 0 else -det
    return ResultantValue(value, 2 * sys.ds.degrees[0] - 2, sigma, det, 1,
                          None, None)


# ---------------------------------------------------------------------------
# three ternary quadrics: the classical 6x6 over 512
# ---------------------------------------------------------------------------

def ternary_quadric_sylvester(sys):
    """Resultant of three ternary quadrics as the 6x6 determinant of
    the quadrics and the partials of their Jacobian determinant,
    divided by 512.  No sign correction is needed: the pure power
    system comes out at exactly +1."""
    if sys.n != 3 or sys.ds.degrees != (2, 2, 2):
        raise ValueError("ternary_quadric_sylvester expects three ternary "
                         "quadrics")
    jac = jacobian(sys)
    rows = [("f", i) for i in range(1, 4)] + [("dj", i) for i in range(1, 4)]
    cols = [("mono", e) for e in monomial_basis(3, 2)]
    forms = list(sys.polys) + [derivative(jac, i) for i in range(3)]
    grid = [[f.coeff(e) for (_, e) in cols] for f in forms]
    det6 = bareiss_det(LabeledMatrix(rows, cols, grid, sys.domain))
    value = scalar_exact_div(det6, scalar_from_int(sys.domain, 512))
    return ResultantValue(value, None, 1, det6, 512, None, None)


# ---------------------------------------------------------------------------
# Jacobian column substitution at the critical degree
# ---------------------------------------------------------------------------

def jacobian_variant(sys):
    """Quotient formula at the critical degree with the single dual
    coefficient column replaced by the Jacobian determinant's
    coefficients.

    The quotient of determinants equals d1*...*dn times the resultant;
    the returned value is divided back down, so it agrees exactly with
    the plain quotient formulas.  Characteristic zero only.
    """
    ds = sys.ds
    tn = critical_degree(ds)
    # the extraneous sides at the critical degree, E(tcrit) on the
    # multiplier columns and the empty E(0), never meet the replaced
    # column, so they are those of the plain assembly
    sides = _extraneous_factor(sys, tn, {})
    if sides is None:
        raise DegenerateSystemError(
            "extraneous determinant vanished at the critical degree; the "
            "Jacobian substitution cannot certify this specialization")
    asm = build_assembly(sys, tn)
    jac = jacobian(sys)
    m = asm.matrix
    j0 = m.col_index(("slice", (0,) * ds.n))
    grid = m.copy_grid()
    for i, rl in enumerate(m.row_labels):
        # at the critical degree every row is a monomial row
        grid[i][j0] = jac.coeff(rl[1])
    mt = LabeledMatrix(m.row_labels, m.col_labels, grid, m.domain,
                       blocks=m.blocks)
    out = _quotient_at(MacaulayAssembly(sys, tn, mt, asm.bez), sides)
    dprod = scalar_from_int(sys.domain, math.prod(ds.degrees))
    value = scalar_exact_div(out.value, dprod)
    return ResultantValue(value, tn, out.sigma, out.det_m, out.det_ebb,
                          None, None)


# ---------------------------------------------------------------------------
# generalized characteristic polynomial
# ---------------------------------------------------------------------------

def _interpolate(xs, ys):
    """Coefficients, lowest degree first, of the polynomial of degree
    below len(xs) through the points (xs[k], ys[k]), by Lagrange's
    formula over the rationals."""
    out = [Fraction(0)] * len(xs)
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        # basis: prod_{j != k} (s - x_j), lowest degree first
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j != k:
                basis = ([-xj * basis[0]]
                         + [a - xj * b for a, b in zip(basis, basis[1:])]
                         + [1])
                denom *= xk - xj
        for i, c in enumerate(basis):
            out[i] += Fraction(yk * c, denom)
    return out


def gcp(sys, t=None):
    """Generalized characteristic polynomial C(s) = Res(s*X^d - f) of an
    integer system (Canny, J. Symb. Comp. 9(3), 1990), as a
    lowest-degree-first integer coefficient list.

    C is monic of degree D = sum_i prod_{j != i} d_j, and its constant
    term is (-1)^D Res(f).  When that vanishes because of roots at
    infinity the lowest nonzero coefficient takes over as the
    meaningful invariant.  The values C(1), C(2), ... come from the
    degree-t quotient formula (default t = tcrit + 1), so the polynomial
    is the same at every t; a sample whose extraneous factor vanishes
    is skipped.  That factor is a polynomial in s with leading
    coefficient +-1, taken from the pure power system, so only finitely
    many samples are skipped.  The D values fix C(s) - s^D by
    interpolation.
    """
    if isinstance(sys.domain, ParamRing) or sys.domain != "int":
        raise TypeError("gcp expects integer coefficients")
    ds = sys.ds
    if t is None:
        t = critical_degree(ds) + 1
    degree = sum(ds.resultant_degree(i) for i in range(1, ds.n + 1))
    powers = monomial_system(ds.degrees).polys
    xs, ys = [], []
    s = 0
    while len(xs) < degree:
        s += 1
        g = PolySystem(ds, [p.scale(s) - f for p, f in zip(powers, sys.polys)])
        sides = _extraneous_factor(g, t, {})
        if sides is None:
            continue
        xs.append(s)
        ys.append(_quotient_at(build_assembly(g, t), sides).value - s ** degree)
    coeffs = _interpolate(xs, ys)
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("interpolated characteristic polynomial has a "
                             "non-integer coefficient; this indicates a bug")
    return [int(c) for c in coeffs] + [1]
