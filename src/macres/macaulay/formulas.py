"""Named formulas layered on the degree-t assemblies.

Univariate Sylvester/Bezout interpolation, Dixon's matrix for three
ternary forms of one degree, the ternary-quadric Sylvester determinant
over 512, the Jacobian column substitution at the critical degree, and
the generalized characteristic polynomial.
"""

from fractions import Fraction

from ..bezoutian import jacobian
from ..combinat import critical_degree, monomial_basis
from ..corering import (
    InexactDivisionError,
    MPoly,
    ParamPoly,
    ParamRing,
    derivative,
    scalar_is_zero,
    scalar_zero,
)
from ..linalg import LabeledMatrix, bareiss_det, berkowitz_charpoly, minor_det
from .assembly import (
    DegenerateSystemError,
    ResultantValue,
    _coeff_of_shifted,
    _perm_targets,
    _quotient_at,
    build_assembly,
    sign_normalization,
)


def _divide_exact(value, k):
    """value / k for a positive integer k, exact in the value's domain."""
    if isinstance(value, ParamPoly):
        return value.exact_div(value.ring.const(k))
    if isinstance(value, Fraction):
        return value / k
    q, r = divmod(value, k)
    if r:
        raise AssertionError("expected a multiple of %d, got %s" % (k, value))
    return q


def _divide_pair(det_m, det_ebb):
    """det_m / det_ebb, exact in the common domain."""
    if isinstance(det_m, ParamPoly):
        return det_m.exact_div(det_ebb)
    if isinstance(det_m, Fraction) or isinstance(det_ebb, Fraction):
        return Fraction(det_m) / Fraction(det_ebb)
    q, r = divmod(det_m, det_ebb)
    if r:
        raise AssertionError("extraneous determinant does not divide the "
                             "full determinant; this indicates a bug")
    return q


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
    out = _quotient_at(build_assembly(sys, t))
    if out is None:
        raise AssertionError("binary systems have empty extraneous blocks, "
                             "their quotients cannot degenerate")
    return out


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
    value = _divide_exact(det6, 512)
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
    # the extraneous blocks at the critical degree live entirely on the
    # multiplier side and never meet the replaced column
    det_ebb = bareiss_det(asm.extraneous_matrix())
    if scalar_is_zero(det_ebb):
        raise DegenerateSystemError(
            "extraneous determinant vanished at the critical degree; the "
            "Jacobian substitution cannot certify this specialization")
    det_m = bareiss_det(mt)
    quotient = _divide_pair(det_m, det_ebb)
    sigma = sign_normalization(ds, tn)
    if sigma < 0:
        quotient = -quotient
    dprod = 1
    for d in ds.degrees:
        dprod *= d
    value = _divide_exact(quotient, dprod)
    return ResultantValue(value, tn, sigma, det_m, det_ebb, None, None)


# ---------------------------------------------------------------------------
# generalized characteristic polynomial
# ---------------------------------------------------------------------------

def _identity_permuted(m, ds):
    """Columns rearranged so the pure power system specializes the
    matrix to the identity; row order is kept."""
    targets = _perm_targets(ds, m.col_labels)
    col_of = {}
    for j, tg in enumerate(targets):
        col_of[tg] = j
    order = []
    for rl in m.row_labels:
        j = col_of.get(rl)
        if j is None:
            raise AssertionError("no column lands on row %r under the pure "
                                 "power system" % (rl,))
        order.append(j)
    grid = [[row[j] for j in order] for row in m.entries]
    return LabeledMatrix(m.row_labels, [m.col_labels[j] for j in order],
                         grid, m.domain)


def _divmod_coeffs(num, den):
    """Quotient and remainder of integer coefficient lists, highest
    degree first; den must be monic."""
    out = []
    rem = list(num)
    dn = len(den) - 1
    while len(rem) - 1 >= dn:
        c = rem[0]
        out.append(c)
        for k in range(len(den)):
            rem[k] -= c * den[k]
        rem.pop(0)
    return out, rem


def gcp(sys, t=None):
    """Generalized characteristic polynomial of an integer system, as a
    lowest-degree-first integer coefficient list.

    Both the assembly and its extraneous submatrix are column-ordered
    so the pure power system specializes them to identity matrices;
    the result is the exact quotient of their characteristic
    polynomials.  Its constant term is plus or minus the resultant,
    and when that vanishes because of roots at infinity the lowest
    nonzero coefficient takes over as the meaningful invariant.

    The division is guaranteed above the critical degree (the default
    t); below it special systems can leave a remainder, and the error
    says to retry larger.
    """
    if isinstance(sys.domain, ParamRing) or sys.domain != "int":
        raise TypeError("gcp expects integer coefficients")
    ds = sys.ds
    tn = critical_degree(ds)
    if t is None:
        t = tn + 1
    asm = build_assembly(sys, t)
    num = berkowitz_charpoly(_identity_permuted(asm.matrix, ds))
    den = berkowitz_charpoly(_identity_permuted(asm.extraneous_matrix(), ds))
    quo, rem = _divmod_coeffs(num, den)
    if any(rem):
        if t <= tn:
            raise InexactDivisionError(
                "characteristic polynomial division left a remainder at "
                "t=%d; retry with t larger than the critical degree %d"
                % (t, tn))
        raise AssertionError("characteristic polynomial division failed "
                             "above the critical degree; this indicates a "
                             "bug")
    quo.reverse()
    return quo
