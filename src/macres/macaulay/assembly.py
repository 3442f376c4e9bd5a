"""Assembly of the structured resultant matrices and the quotient formulas.

The matrix at degree t has rows indexed by the degree-t monomials
followed by dual multiplier slots at degree tcrit - t, and columns
indexed by the dual coefficient slots T_g followed by multiplier slots
at degree t.  Its determinant divided by the determinant of the
extraneous submatrix gives the resultant, normalized here so that the
pure power system X_1^{d_1}, ..., X_n^{d_n} has resultant +1.
"""

import functools
import itertools
import math
from fractions import Fraction

from ..bezoutian import Bezoutian, PolySystem, bezoutian, monomial_system
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
    ParamRing,
    scalar_exact_div,
    scalar_is_zero,
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


def _map_labels(ds, t, mults):
    """Row and column labels of a degree-t map: the degree-t monomials
    and the dual slots ("dual", j, g) for g in mults(ds, tcrit - t, j)
    as rows, the slices of degree tcrit - t and the multiplier slots
    ("mult", j, g) for g in mults(ds, t, j) as columns."""
    n = ds.n
    tn = critical_degree(ds)
    rows = [("mono", e) for e in monomial_basis(n, t)]
    rows += [("dual", j, g) for j in range(1, n + 1)
             for g in mults(ds, tn - t, j)]
    cols = [("slice", g) for g in monomial_basis(n, tn - t)]
    cols += [("mult", j, g) for j in range(1, n + 1)
             for g in mults(ds, t, j)]
    return rows, cols


def assembly_labels(ds, t):
    """Row and column label lists for the degree-t assembly."""
    return _map_labels(ds, t, stj_basis)


def full_labels(ds, t):
    """Row and column label lists of the unrestricted degree-t map:
    every multiplier slot on both sides, all coefficient slots."""
    return _map_labels(
        ds, t, lambda ds, u, j: monomial_basis(ds.n, u - ds.degrees[j - 1]))


def _side_labels(ds, u):
    """Row and column labels of the side E(u): the doubly-divisible
    degree-u monomials against the extraneous multipliers (j, g)."""
    rows = [("mono", e) for e in et_rows(ds, u)]
    cols = [("mult", j, g) for j in range(1, ds.n + 1)
            for g in etj_basis(ds, u, j)]
    return rows, cols


def _extraneous_labels(ds, t):
    """Row and column labels of the two sides of the degree-t extraneous
    submatrix [[B, E], [E_dual, 0]]: (E rows, E columns, E_dual rows,
    E_dual columns).  E is the side E(t); E_dual holds E(tcrit - t)
    transposed, its multipliers as dual rows and its monomials as slice
    columns."""
    e_rows, e_cols = _side_labels(ds, t)
    d_rows, d_cols = _side_labels(ds, critical_degree(ds) - t)
    dual_rows = [("dual", j, g) for _, j, g in d_cols]
    dual_cols = [("slice", e) for _, e in d_rows]
    return e_rows, e_cols, dual_rows, dual_cols


def _koszul_key(label):
    """(side, index tuple S, exponent g) of a label of the coupled
    complex: side 0 holds ("mono", e), ("mult", j, g) and ("k", S, g),
    side 1 holds ("slice", g), ("dual", j, g) and ("dualk", S, g)."""
    kind = label[0]
    side = 1 if kind in ("slice", "dual", "dualk") else 0
    if kind in ("mono", "slice"):
        return side, (), label[1]
    if kind in ("mult", "dual"):
        return side, (label[1],), label[2]
    return side, label[1], label[2]


def _fill(sys, rows, cols, bez=None):
    """The entry grid of the coupled Koszul complex on any labels: the
    one scatter behind the assembly, the full map, the sides and every
    differential.  A label (S, g) with i at position p of S holds
    (-1)^p X^g f_i along the labels (S minus i, g + e) of its own side,
    on side 0 as a column and on side 1 as a row (_koszul_key); a
    (mono, slice) entry is the Bezoutian coefficient when bez is given,
    and every other entry is domain zero."""
    zero = scalar_zero(sys.domain)
    grid = [[zero] * len(cols) for _ in rows]
    mono_at = {lab[1]: i for i, lab in enumerate(rows) if lab[0] == "mono"}
    slice_at = {lab[1]: j for j, lab in enumerate(cols) if lab[0] == "slice"}
    if bez is not None:
        bterms = bez.poly.terms
        for e, i in mono_at.items():
            row = grid[i]
            for g, j in slice_at.items():
                row[j] = bterms.get(e + g, zero)
    row_keys = [_koszul_key(lab) for lab in rows]
    col_keys = [_koszul_key(lab) for lab in cols]
    for side, src, dst in ((0, col_keys, row_keys), (1, row_keys, col_keys)):
        at = {}
        for b, (dst_side, s, g) in enumerate(dst):
            if dst_side == side:
                at.setdefault(s, {})[g] = b
        for a, (src_side, s, g) in enumerate(src):
            if src_side != side:
                continue
            for p, k in enumerate(s):
                rest_at = at.get(s[:p] + s[p + 1:], {})
                for e, c in sys.polys[k - 1].terms.items():
                    b = rest_at.get(tuple(x + y for x, y in zip(e, g)))
                    if b is not None:
                        i, j = (a, b) if side else (b, a)
                        grid[i][j] = c if p % 2 == 0 else -c
    return grid


class MacaulayAssembly:
    """The assembled matrix at degree t, its system and the Bezoutian
    it was built from."""

    __slots__ = ("system", "t", "matrix", "bez")

    def __init__(self, system, t, matrix, bez):
        self.system = system
        self.t = t
        self.matrix = matrix
        self.bez = bez

    def extraneous_matrix(self):
        e_rows, e_cols, dual_rows, dual_cols = _extraneous_labels(
            self.system.ds, self.t)
        return submatrix(self.matrix, e_rows + dual_rows, dual_cols + e_cols)


def side_matrix(sys, u):
    """The side E(u) of the extraneous minors, read from the polynomials:
    doubly-divisible degree-u monomial rows against the extraneous
    multiplier columns (j, g), each entry the coefficient of the row
    monomial in X^g * f_j; empty for u < 0.  The dual rows of the
    degree-t extraneous submatrix hold the same entries transposed, so
    its E_dual is E(tcrit - t)^T."""
    rows, cols = _side_labels(sys.ds, u)
    return LabeledMatrix(rows, cols, _fill(sys, rows, cols), sys.domain)


def _map_matrix(sys, t, labels, bez):
    """The degree-t map on labels(ds, t) with its four blocks, and the
    Bezoutian of its delta block, built when t <= tcrit and none is
    given."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if bez is None and t <= critical_degree(sys.ds):
        bez = bezoutian(sys)
    rows, cols = labels(sys.ds, t)
    nmono = sum(1 for lab in rows if lab[0] == "mono")
    nslice = sum(1 for lab in cols if lab[0] == "slice")
    blocks = {
        "delta": ((0, nmono), (0, nslice)),
        "sylvester": ((0, nmono), (nslice, len(cols))),
        "dual": ((nmono, len(rows)), (0, nslice)),
        "zero": ((nmono, len(rows)), (nslice, len(cols))),
    }
    m = LabeledMatrix(rows, cols, _fill(sys, rows, cols, bez), sys.domain,
                      blocks=blocks)
    return m, bez


def build_assembly(sys, t, bez=None):
    """Assemble the degree-t matrix for the system.

    The matrix is square of size rho_size(ds, t); for t above the
    critical degree the dual side is empty and the matrix is the pure
    multiplication matrix.  Its "delta" block is the Bezoutian slice
    of Y-degree tcrit - t.
    """
    m, bez = _map_matrix(sys, t, assembly_labels, bez)
    if m.nrows != rho_size(sys.ds, t):
        raise AssertionError("assembly size %d differs from predicted %d"
                             % (m.nrows, rho_size(sys.ds, t)))
    return MacaulayAssembly(sys, t, m, bez)


def full_assembly(sys, t, bez=None):
    """The unrestricted map on full_labels(ds, t).  Rectangular in
    general."""
    return _map_matrix(sys, t, full_labels, bez)[0]


# ---------------------------------------------------------------------------
# sign normalization against the pure power system
# ---------------------------------------------------------------------------

def _perm_sign_for(power, bez, row_labels, col_labels):
    """The determinant of _fill on the pure power system: every column
    holds a single +1, so it is the sign of the permutation read from
    the nonzero pattern."""
    grid = _fill(power, row_labels, col_labels, bez)
    hits = sorted((j, i) for i, row in enumerate(grid)
                  for j, c in enumerate(row) if c)
    perm = [i for _, i in hits]
    if ([j for j, _ in hits] != list(range(len(col_labels)))
            or sorted(perm) != list(range(len(row_labels)))):
        raise AssertionError("power-system specialization is not a bijection")
    return permutation_sign(perm)


@functools.lru_cache
def sign_normalization(ds, t):
    """The sign of det(M_t)/det(extraneous) at the pure power system,
    read through _fill from its permutation pattern; memoized, since it
    depends on the degrees and t alone."""
    power = monomial_system(ds.degrees)
    # its incremental-quotient matrix is diagonal, so the Bezoutian is
    # prod_i sum_u X_i^u Y_i^(d_i - 1 - u)
    d = ds.degrees
    bez = Bezoutian(power, MPoly(2 * ds.n, "int", {
        x + tuple(k - 1 - u for k, u in zip(d, x)): 1
        for x in itertools.product(*(range(k) for k in d))}))
    rows, cols = assembly_labels(ds, t)
    sign_m = _perm_sign_for(power, bez, rows, cols)
    e_rows, e_cols, dual_rows, dual_cols = _extraneous_labels(ds, t)
    sign_e = _perm_sign_for(power, bez, e_rows + dual_rows, dual_cols + e_cols)
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


def _extraneous_factor(sys, t, memo):
    """(det E(t), det E(tcrit - t), det_ebb) of the degree-t extraneous
    submatrix, or None as soon as one side is singular.

    The submatrix is [[B, E(t)], [E(tcrit - t)^T, 0]] with both sides
    square, so det_ebb = (-1)^(|E(t)| |E(tcrit - t)|) det E(t)
    det E(tcrit - t).  memo maps u to (size, det E(u)) for one system,
    so the degrees t and tcrit - t share their pair of sides.
    """
    sides = []
    for u in (t, critical_degree(sys.ds) - t):
        if u not in memo:
            e = side_matrix(sys, u)
            memo[u] = (e.nrows, bareiss_det(e))
        if scalar_is_zero(memo[u][1]):
            return None
        sides.append(memo[u])
    (size_e, det_e), (size_d, det_e_dual) = sides
    det_ebb = det_e * det_e_dual
    if size_e * size_d % 2:
        det_ebb = -det_ebb
    return det_e, det_e_dual, det_ebb


def _quotient_at(asm, sides):
    """The ResultantValue of one assembly, given its nonsingular
    extraneous factor from _extraneous_factor; the assembly itself only
    gives det(M)."""
    det_e, det_e_dual, det_ebb = sides
    det_m = bareiss_det(asm.matrix)
    quotient = scalar_exact_div(det_m, det_ebb)
    sigma = sign_normalization(asm.system.ds, asm.t)
    value = quotient if sigma > 0 else -quotient
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
    sides = _extraneous_factor(sys, t, {})
    if sides is None:
        raise DegenerateSystemError(
            "extraneous determinant vanished symbolically at t=%d" % t)
    return _quotient_at(build_assembly(sys, t), sides)


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
        if t < 0:
            raise ValueError("t must be nonnegative")
        return [t]
    first = [minimal_t(ds), tn + 1]
    rest = sorted((u for u in range(tn + 2) if u not in first),
                  key=lambda u: rho_size(ds, u))
    return list(dict.fromkeys(first + rest))


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


def resultant_specialized(sys, t=None):
    """Exact resultant of an integer or rational system.

    Strategy: one loop over the systems to try (the system itself, then
    every polynomial reordering sigma, then every variable relabeling
    tau) and, inside it, over the candidate degrees, cheapest first.  A
    degree whose side E(u) or E(tcrit - u) is singular is skipped before
    anything is assembled, so only the first degree that survives builds
    a Bezoutian and an assembly.  Reordering by sigma and relabeling by
    tau multiply the resultant by (sgn sigma * sgn tau)^(d_1...d_n)
    (Jouanolou 1991; Cox-Little-O'Shea, Using Algebraic Geometry,
    ch. 3), and a polynomial reordering multiplies the Bezoutian by
    sgn sigma, so a reordering takes the canonical Bezoutian with that
    sign while a relabeling builds its own.  When everything fails the
    specialization is reported degenerate; note that a zero resultant
    with a nonzero extraneous determinant is a normal output, not a
    degeneracy.
    """
    if isinstance(sys.domain, ParamRing):
        raise TypeError("resultant_specialized expects numeric coefficients")
    factor = 1
    if sys.domain == "fraction":
        sys, factor = _clear_denominators(sys)
    ds = sys.ds
    tn = critical_degree(ds)
    ts = _candidate_ts(ds, t)
    dprod = math.prod(ds.degrees)
    identity = tuple(range(ds.n))
    others = [p for p in itertools.permutations(identity) if p != identity]
    perms = ([(identity, identity)] + [(pp, identity) for pp in others]
             + [(identity, vp) for vp in others])
    for pp, vp in perms:
        psys = sys if pp == vp == identity else _permuted_system(sys, pp, vp)
        sgn_p = permutation_sign(pp)
        memo = {}
        for u in ts:
            sides = _extraneous_factor(psys, u, memo)
            if sides is None:
                continue
            if u > tn:
                bez = None
            elif vp != identity:
                bez = bezoutian(psys)
            else:
                bez = bezoutian(sys)
                if pp != identity:
                    # a reordering pp permutes the rows of the
                    # incremental-quotient matrix, so its Bezoutian is
                    # sgn(pp) times the canonical one
                    bez = Bezoutian(psys, bez.poly if sgn_p > 0 else -bez.poly)
            out = _quotient_at(build_assembly(psys, u, bez=bez), sides)
            out.value *= (sgn_p * permutation_sign(vp)) ** dprod
            if factor != 1:
                out.value = Fraction(out.value) / factor
            return out
    raise DegenerateSystemError(
        "every candidate extraneous determinant vanished; the quotient "
        "formulas cannot certify this specialization")


def classical_macaulay(sys, max_symbolic_size=16):
    """The quotient formula at the classical degree tcrit + 1."""
    t = critical_degree(sys.ds) + 1
    if isinstance(sys.domain, ParamRing):
        return resultant_generic(sys, t, max_symbolic_size=max_symbolic_size)
    return resultant_specialized(sys, t)
