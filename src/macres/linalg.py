"""Exact dense linear algebra over integral domains.

Matrices carry row and column labels (monomials, dual monomials,
coefficient slices, multiplier tags) so that structured submatrices can
be cut out by label.  Determinants of integer and rational matrices use
Bareiss elimination, whose divisions are exact in any integral domain;
determinants with polynomial entries use division-free memoized minor
expansion.
"""

from .corering import (
    ParamRing,
    scalar_exact_div,
    scalar_is_zero,
    scalar_one,
    scalar_zero,
)


class LabeledMatrix:
    """Dense grid of scalars with labeled rows and columns.

    blocks, when present, is a dict mapping a block name to a pair of
    half-open index ranges ((r0, r1), (c0, c1)).
    """

    __slots__ = ("row_labels", "col_labels", "entries", "domain", "blocks")

    def __init__(self, row_labels, col_labels, entries, domain, blocks=None):
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.entries = [list(row) for row in entries]
        self.domain = domain
        self.blocks = dict(blocks) if blocks else {}
        if len(self.entries) != len(self.row_labels):
            raise ValueError("entry grid does not match row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("entry grid does not match column labels")

    @property
    def nrows(self):
        return len(self.row_labels)

    @property
    def ncols(self):
        return len(self.col_labels)

    def is_square(self):
        return self.nrows == self.ncols

    def entry(self, i, j):
        return self.entries[i][j]

    def col_index(self, label):
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError("unknown column label %r" % (label,)) from None

    def transpose(self):
        grid = [[self.entries[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return LabeledMatrix(self.col_labels, self.row_labels, grid, self.domain)

    def copy_grid(self):
        return [list(row) for row in self.entries]

    def __repr__(self):
        return "LabeledMatrix(%dx%d)" % (self.nrows, self.ncols)


def submatrix(m, row_labels, col_labels):
    """Cut the submatrix on the given label sets, keeping the parent's
    row and column order."""
    rset = set(row_labels)
    cset = set(col_labels)
    unknown = rset - set(m.row_labels)
    if unknown:
        raise KeyError("unknown row labels: %r" % (sorted(unknown),))
    unknown = cset - set(m.col_labels)
    if unknown:
        raise KeyError("unknown column labels: %r" % (sorted(unknown),))
    ridx = [i for i, lab in enumerate(m.row_labels) if lab in rset]
    cidx = [j for j, lab in enumerate(m.col_labels) if lab in cset]
    grid = [[m.entries[i][j] for j in cidx] for i in ridx]
    return LabeledMatrix([m.row_labels[i] for i in ridx],
                         [m.col_labels[j] for j in cidx], grid, m.domain)


def permutation_sign(perm):
    """Sign of a permutation given as a list mapping position -> image."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pivot_weight(c):
    # prefer unit pivots
    return 0 if c == 1 or c == -1 else 1


def minor_det(grid, one):
    """Determinant of a square grid by Laplace expansion from the last
    row up, keeping one level of minors keyed by column-set bitmask.

    Division-free, so it needs only *, +, - and is_zero() from the
    entries (Gentleman & Johnson, ACM TOMS 2(3), 1976); one is the
    entries' unit and the determinant of the empty grid.  Zero entries
    are skipped and zero minors dropped, so sparse grids stay cheap.
    """
    n = len(grid)
    minors = {0: one}
    for i in range(n - 1, -1, -1):
        row = grid[i]
        nxt = {}
        for mask, minor in minors.items():
            # sign of column j in the expansion along the top row of
            # rows i..n-1 is the parity of the chosen columns before it
            odd = False
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    odd = not odd
                    continue
                a = row[j]
                if a.is_zero():
                    continue
                term = a * minor
                key = mask | bit
                prev = nxt.get(key)
                if prev is None:
                    nxt[key] = -term if odd else term
                else:
                    nxt[key] = prev - term if odd else prev + term
        minors = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not minors:
            return one - one
    return minors[(1 << n) - 1]


def _fraction_free(grid, domain):
    """Fraction-free Gaussian elimination of a grid in place (Bareiss,
    Math. Comp. 22, 1968), with full pivoting on the entry of fewest
    terms.  Every division is exact in an integral domain.

    Returns (rank, sign, last_pivot): the rank over the fraction field,
    the sign of the row and column swaps made, and the last nonzero
    pivot, which for a square grid of full rank is sign times its
    determinant.
    """
    nr = len(grid)
    nc = len(grid[0]) if grid else 0
    zero = scalar_zero(domain)
    sign = 1
    prev = scalar_one(domain)
    k = 0
    while k < nr and k < nc:
        best = None
        for i in range(k, nr):
            row = grid[i]
            for j in range(k, nc):
                c = row[j]
                if scalar_is_zero(c):
                    continue
                w = _pivot_weight(c)
                if best is None or w < best[0]:
                    best = (w, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            grid[k], grid[pi] = grid[pi], grid[k]
            sign = -sign
        if pj != k:
            for row in grid:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        top = grid[k]
        piv = top[k]
        for i in range(k + 1, nr):
            row = grid[i]
            aik = row[k]
            for j in range(k + 1, nc):
                row[j] = scalar_exact_div(row[j] * piv - aik * top[j], prev)
            row[k] = zero
        prev = piv
        k += 1
    return k, sign, prev


def bareiss_det(m):
    """Exact determinant of a square LabeledMatrix; the empty matrix
    has determinant 1.

    Integer and Fraction matrices use fraction-free Bareiss elimination
    with full pivoting.  Matrices over a ParamRing use minor_det, which
    avoids the exact polynomial divisions Bareiss would need.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if isinstance(m.domain, ParamRing):
        return minor_det(m.entries, m.domain.one())
    rank, sign, d = _fraction_free(m.copy_grid(), m.domain)
    if rank < m.nrows:
        return scalar_zero(m.domain)
    return -d if sign < 0 else d


def rank_over_fractions(m):
    """Rank over the fraction field of the entry domain, computed by
    fraction-free elimination (no actual fractions are formed)."""
    return _fraction_free(m.copy_grid(), m.domain)[0]


def grid_mul(a, b, domain):
    """Plain matrix product of two list-of-list grids over a domain."""
    if not a or not b:
        return [[scalar_zero(domain)] * (len(b[0]) if b else 0) for _ in a]
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("inner dimensions disagree")
    ncols = len(b[0])
    zero = scalar_zero(domain)
    out = []
    for row in a:
        orow = []
        for j in range(ncols):
            s = zero
            for k in range(inner):
                if not scalar_is_zero(row[k]) and not scalar_is_zero(b[k][j]):
                    s = s + row[k] * b[k][j]
            orow.append(s)
        out.append(orow)
    return out
