"""Assembly of the structured resultant matrices and the quotient formulas.

The matrix at degree t has rows indexed by the degree-t monomials
followed by dual multiplier slots at degree tcrit - t, and columns
indexed by the dual coefficient slots T_g followed by multiplier slots
at degree t.  Its determinant divided by the determinant of the
extraneous submatrix gives the resultant, normalized here so that the
pure power system X_1^{d_1}, ..., X_n^{d_n} has resultant +1.
"""

import itertools
import math
import random
from fractions import Fraction

from ..bezoutian import PolySystem, bezoutian
from ..combinat import (
    critical_degree,
    et_rows,
    etj_basis,
    minimal_t,
    monomial_basis,
    rho_size,
    stj_basis,
)
from ..corering import (
    MPoly,
    ParamPoly,
    ParamRing,
    scalar_is_zero,
    scalar_one,
    scalar_zero,
)
from ..linalg import LabeledMatrix, bareiss_det, permutation_sign, submatrix


class DegenerateSystemError(ValueError):
    """Every candidate extraneous minor vanished; the quotient formulas
    cannot certify a value for this specialization."""


def _coeff_of_shifted(f, target, shift):
    """Coefficient of X^target in X^shift * f, or domain zero."""
    e = tuple(a - b for a, b in zip(target, shift))
    if any(x < 0 for x in e):
        return scalar_zero(f.domain)
    return f.terms.get(e, scalar_zero(f.domain))


def assembly_labels(ds, t, mult_cols=None, dual_rows=None):
    """Row and column label lists for the degree-t assembly.

    mult_cols and dual_rows, when given, override the standard
    multiplier selections with explicit (j, exponent) pairs; this is
    the advanced entry point for alternate column choices.  No search
    is performed.
    """
    n = ds.n
    tn = critical_degree(ds)
    rows = [("mono", e) for e in monomial_basis(n, t)]
    if dual_rows is None:
        dual_rows = [(j, g) for j in range(1, n + 1)
                     for g in stj_basis(ds, tn - t, j)]
    rows += [("dual", j, tuple(g)) for j, g in dual_rows]
    cols = [("slice", g) for g in monomial_basis(n, tn - t)]
    if mult_cols is None:
        mult_cols = [(j, g) for j in range(1, n + 1)
                     for g in stj_basis(ds, t, j)]
    cols += [("mult", j, tuple(g)) for j, g in mult_cols]
    return rows, cols


class MacaulayAssembly:
    """The assembled matrix at degree t plus the label bookkeeping for
    its extraneous submatrices."""

    __slots__ = ("system", "t", "matrix", "bez")

    def __init__(self, system, t, matrix, bez):
        self.system = system
        self.t = t
        self.matrix = matrix
        self.bez = bez

    @property
    def size(self):
        return self.matrix.nrows

    def extraneous_labels(self):
        """Row and column labels of the extraneous submatrix."""
        ds = self.system.ds
        t = self.t
        tn = critical_degree(ds)
        rows = [("mono", e) for e in et_rows(ds, t)]
        rows += [("dual", j, g) for j in range(1, ds.n + 1)
                 for g in etj_basis(ds, tn - t, j)]
        cols = [("slice", g) for g in et_rows(ds, tn - t)]
        cols += [("mult", j, g) for j in range(1, ds.n + 1)
                 for g in etj_basis(ds, t, j)]
        return rows, cols

    def extraneous_matrix(self):
        rows, cols = self.extraneous_labels()
        return submatrix(self.matrix, rows, cols)

    def e_matrix(self):
        """The square minor E at degree t: doubly-divisible monomial
        rows against extraneous multiplier columns."""
        ds = self.system.ds
        rows = [("mono", e) for e in et_rows(ds, self.t)]
        cols = [("mult", j, g) for j in range(1, ds.n + 1)
                for g in etj_basis(ds, self.t, j)]
        return submatrix(self.matrix, rows, cols)

    def e_dual_matrix(self):
        """The transposed copy of E at degree tcrit - t living in the
        dual rows."""
        ds = self.system.ds
        tn = critical_degree(ds)
        rows = [("dual", j, g) for j in range(1, ds.n + 1)
                for g in etj_basis(ds, tn - self.t, j)]
        cols = [("slice", g) for g in et_rows(ds, tn - self.t)]
        return submatrix(self.matrix, rows, cols)


def build_assembly(sys, t, bez=None, mult_cols=None, dual_rows=None):
    """Assemble the degree-t matrix for the system.

    With the default label selections the matrix is square of size
    rho_size(ds, t); for t above the critical degree the dual side is
    empty and the matrix is the pure multiplication matrix.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    ds = sys.ds
    n = ds.n
    tn = critical_degree(ds)
    if bez is None and t <= tn:
        bez = bezoutian(sys)
    rows, cols = assembly_labels(ds, t, mult_cols=mult_cols, dual_rows=dual_rows)
    zero = scalar_zero(sys.domain)
    bterms = bez.poly.terms if bez is not None else {}
    grid = []
    for rl in rows:
        row = []
        for cl in cols:
            if rl[0] == "mono" and cl[0] == "slice":
                row.append(bterms.get(rl[1] + cl[1], zero))
            elif rl[0] == "mono" and cl[0] == "mult":
                row.append(_coeff_of_shifted(sys.polys[cl[1] - 1], rl[1], cl[2]))
            elif rl[0] == "dual" and cl[0] == "slice":
                row.append(_coeff_of_shifted(sys.polys[rl[1] - 1], cl[1], rl[2]))
            else:
                row.append(zero)
        grid.append(row)
    nmono = len(monomial_basis(n, t))
    nslice = len(monomial_basis(n, tn - t))
    blocks = {
        "delta": ((0, nmono), (0, nslice)),
        "sylvester": ((0, nmono), (nslice, len(cols))),
        "dual": ((nmono, len(rows)), (0, nslice)),
        "zero": ((nmono, len(rows)), (nslice, len(cols))),
    }
    m = LabeledMatrix(rows, cols, grid, sys.domain, blocks=blocks)
    if mult_cols is None and dual_rows is None and m.nrows != rho_size(ds, t):
        raise AssertionError("assembly size %d differs from predicted %d"
                             % (m.nrows, rho_size(ds, t)))
    return MacaulayAssembly(sys, t, m, bez)


def full_assembly(sys, t, bez=None):
    """The unrestricted map: full multiplier sets on both sides, all
    coefficient slots.  Rectangular in general."""
    ds = sys.ds
    n = ds.n
    tn = critical_degree(ds)
    mult_cols = [(j, g) for j in range(1, n + 1)
                 for g in monomial_basis(n, t - ds.degrees[j - 1])]
    dual_rows = [(j, g) for j in range(1, n + 1)
                 for g in monomial_basis(n, tn - t - ds.degrees[j - 1])]
    return build_assembly(sys, t, bez=bez,
                          mult_cols=mult_cols, dual_rows=dual_rows).matrix


# ---------------------------------------------------------------------------
# sign normalization against the pure power system
# ---------------------------------------------------------------------------

def _perm_targets(ds, col_labels):
    """For the pure power system, each column of the assembly holds a
    single +1; return the row label carrying it for each column."""
    d = ds.degrees
    targets = []
    for cl in col_labels:
        if cl[0] == "slice":
            g = cl[1]
            over = [i for i in range(ds.n) if g[i] >= d[i]]
            if not over:
                targets.append(("mono", tuple(d[i] - 1 - g[i] for i in range(ds.n))))
            else:
                j = min(over)
                g2 = list(g)
                g2[j] -= d[j]
                targets.append(("dual", j + 1, tuple(g2)))
        else:
            _, j, g = cl
            g2 = list(g)
            g2[j - 1] += d[j - 1]
            targets.append(("mono", tuple(g2)))
    return targets


def _perm_sign_for(ds, row_labels, col_labels):
    pos = {lab: i for i, lab in enumerate(row_labels)}
    perm = []
    for cl, target in zip(col_labels, _perm_targets(ds, col_labels)):
        if target not in pos:
            raise AssertionError("power-system image %r of column %r is not a row"
                                 % (target, cl))
        perm.append(pos[target])
    if sorted(perm) != list(range(len(row_labels))):
        raise AssertionError("power-system specialization is not a bijection")
    return permutation_sign(perm)


def sign_normalization(ds, t):
    """The sign of det(M_t)/det(extraneous) at the pure power system,
    computed combinatorially without building any matrix."""
    rows, cols = assembly_labels(ds, t)
    sign_m = _perm_sign_for(ds, rows, cols)
    tn = critical_degree(ds)
    erows = [("mono", e) for e in et_rows(ds, t)]
    erows += [("dual", j, g) for j in range(1, ds.n + 1)
              for g in etj_basis(ds, tn - t, j)]
    ecols = [("slice", g) for g in et_rows(ds, tn - t)]
    ecols += [("mult", j, g) for j in range(1, ds.n + 1)
              for g in etj_basis(ds, t, j)]
    sign_e = _perm_sign_for(ds, erows, ecols)
    return sign_m * sign_e


# ---------------------------------------------------------------------------
# resultants through the quotient formula
# ---------------------------------------------------------------------------

class ResultantValue:
    """A resultant plus the provenance of its computation."""

    __slots__ = ("value", "t", "sigma", "det_m", "det_ebb", "det_e", "det_e_dual")

    def __init__(self, value, t, sigma, det_m, det_ebb, det_e, det_e_dual):
        self.value = value
        self.t = t
        self.sigma = sigma
        self.det_m = det_m
        self.det_ebb = det_ebb
        self.det_e = det_e
        self.det_e_dual = det_e_dual

    def __repr__(self):
        return "ResultantValue(t=%r, value=%s)" % (self.t, self.value)


def _quotient_at(asm):
    """(value, details) for one assembly, or None when the extraneous
    determinant vanishes."""
    det_ebb = bareiss_det(asm.extraneous_matrix())
    if scalar_is_zero(det_ebb):
        return None
    det_m = bareiss_det(asm.matrix)
    if isinstance(det_m, ParamPoly):
        quotient = det_m.exact_div(det_ebb)
    elif isinstance(det_m, Fraction) or isinstance(det_ebb, Fraction):
        quotient = Fraction(det_m) / Fraction(det_ebb)
    else:
        q, r = divmod(det_m, det_ebb)
        if r:
            raise AssertionError("extraneous determinant does not divide the "
                                 "full determinant; this indicates a bug")
        quotient = q
    sigma = sign_normalization(asm.system.ds, asm.t)
    value = quotient if sigma > 0 else -quotient
    if asm.t > critical_degree(asm.system.ds):
        # the dual side is empty, so the extraneous matrix is E itself
        det_e, det_e_dual = det_ebb, scalar_one(asm.matrix.domain)
    else:
        det_e = bareiss_det(asm.e_matrix())
        det_e_dual = bareiss_det(asm.e_dual_matrix())
    return ResultantValue(value, asm.t, sigma, det_m, det_ebb, det_e, det_e_dual)


def resultant_generic(sys, t=None, max_symbolic_size=16):
    """Exact resultant of a system with parameter coefficients.

    Gated by matrix size: symbolic determinants grow quickly, so sizes
    above max_symbolic_size are refused with an explanation rather than
    silently hanging.
    """
    if not isinstance(sys.domain, ParamRing):
        raise TypeError("resultant_generic expects parameter coefficients")
    ds = sys.ds
    if t is None:
        t = minimal_t(ds)
    size = rho_size(ds, t)
    if size > max_symbolic_size:
        raise ValueError(
            "symbolic matrix size %d exceeds the gate %d; raise "
            "max_symbolic_size to force the computation" % (size, max_symbolic_size))
    asm = build_assembly(sys, t)
    out = _quotient_at(asm)
    if out is None:
        raise DegenerateSystemError(
            "extraneous determinant vanished symbolically at t=%d" % t)
    return out


def _clear_denominators(sys):
    """Rescale a fraction-coefficient system to integers; return the
    integer system and the overall factor by which its resultant
    exceeds the original one."""
    ds = sys.ds
    factor = Fraction(1)
    polys = []
    for i, f in enumerate(sys.polys, start=1):
        lcm = 1
        for c in f.terms.values():
            lcm = math.lcm(lcm, Fraction(c).denominator)
        terms = {}
        for e, c in f.terms.items():
            c = Fraction(c) * lcm
            terms[e] = int(c)
        polys.append(MPoly(ds.n, "int", terms))
        factor *= Fraction(lcm) ** ds.resultant_degree(i)
    return PolySystem(ds, polys), factor


def _candidate_ts(ds, t):
    tn = critical_degree(ds)
    if t is not None:
        return [t]
    first = [minimal_t(ds), tn + 1]
    rest = sorted((u for u in range(tn + 2) if u not in first),
                  key=lambda u: rho_size(ds, u))
    return list(dict.fromkeys(first + rest))


def _ladder(sys, t):
    """Try candidate degrees in cheapness order; None when every
    extraneous determinant vanishes."""
    bez = None
    tn = critical_degree(sys.ds)
    for u in _candidate_ts(sys.ds, t):
        if bez is None and u <= tn:
            bez = bezoutian(sys)
        asm = build_assembly(sys, u, bez=bez)
        out = _quotient_at(asm)
        if out is not None:
            return out
    return None


def _permuted_system(sys, poly_perm, var_perm):
    """Apply a polynomial reordering and a variable relabeling."""
    ds = sys.ds
    n = ds.n
    polys = []
    for i in poly_perm:
        f = sys.polys[i]
        terms = {}
        for e, c in f.terms.items():
            e2 = tuple(e[var_perm[k]] for k in range(n))
            terms[e2] = c
        polys.append(MPoly(n, f.domain, terms))
    return PolySystem([ds.degrees[i] for i in poly_perm], polys)


def _calibrate_perm_sign(ds, poly_perm, var_perm, rng):
    """The constant sign relating the resultant of a permuted system to
    the original, found by evaluating both routes at a random integer
    system where both succeed."""
    n = ds.n
    for _ in range(64):
        polys = []
        for d in ds.degrees:
            terms = {e: rng.randint(-5, 5) for e in monomial_basis(n, d)}
            polys.append(MPoly(n, "int", terms))
        probe = PolySystem(ds, polys)
        r1 = _ladder(probe, None)
        if r1 is None or r1.value == 0:
            continue
        r2 = _ladder(_permuted_system(probe, poly_perm, var_perm), None)
        if r2 is None or r2.value == 0:
            continue
        if r1.value == r2.value:
            return 1
        if r1.value == -r2.value:
            return -1
        raise AssertionError("permutation changed the resultant by more than "
                             "a sign; this indicates a bug")
    raise DegenerateSystemError("could not calibrate a permutation sign")


def resultant_specialized(sys, t=None):
    """Exact resultant of an integer or rational system.

    Strategy: try the cheapest degrees first; when every extraneous
    determinant vanishes, retry under polynomial reorderings and
    variable relabelings, whose effect on the resultant is a known
    sign (calibrated exactly on random probes).  When everything
    fails the specialization is reported degenerate; note that a zero
    resultant with a nonzero extraneous determinant is a normal output,
    not a degeneracy.
    """
    if isinstance(sys.domain, ParamRing):
        raise TypeError("resultant_specialized expects numeric coefficients")
    factor = None
    if sys.domain == "fraction":
        sys, factor = _clear_denominators(sys)
    out = _ladder(sys, t)
    if out is None:
        ds = sys.ds
        n = ds.n
        rng = random.Random(90210)
        identity_v = list(range(n))
        identity_p = list(range(n))
        perms = []
        for pp in itertools.permutations(range(n)):
            if list(pp) != identity_p:
                perms.append((list(pp), identity_v))
        for vp in itertools.permutations(range(n)):
            if list(vp) != identity_v:
                perms.append((identity_p, list(vp)))
        for pp, vp in perms:
            out2 = _ladder(_permuted_system(sys, pp, vp), t)
            if out2 is not None:
                eps = _calibrate_perm_sign(ds, pp, vp, rng)
                value = out2.value * eps
                out = ResultantValue(value, out2.t, out2.sigma, out2.det_m,
                                     out2.det_ebb, out2.det_e, out2.det_e_dual)
                break
    if out is None:
        raise DegenerateSystemError(
            "every candidate extraneous determinant vanished; the quotient "
            "formulas cannot certify this specialization")
    if factor is not None and factor != 1:
        out = ResultantValue(Fraction(out.value) / factor, out.t, out.sigma,
                             out.det_m, out.det_ebb, out.det_e, out.det_e_dual)
    return out


def classical_macaulay(sys, max_symbolic_size=16):
    """The quotient formula at the classical degree tcrit + 1."""
    t = critical_degree(sys.ds) + 1
    if isinstance(sys.domain, ParamRing):
        return resultant_generic(sys, t, max_symbolic_size=max_symbolic_size)
    return resultant_specialized(sys, t)
