"""Exact dense linear algebra over integral domains.

Matrices carry row and column labels (monomials, dual monomials,
coefficient slices, multiplier tags) so that structured submatrices can
be cut out by label.  Determinants of integer and rational matrices use
Bareiss elimination, whose divisions are exact in any integral domain;
determinants with polynomial entries use division-free memoized minor
expansion; characteristic polynomials use the division-free Berkowitz
algorithm.
"""

from .corering import (
    ParamPoly,
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

    def row_index(self, label):
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise KeyError("unknown row label %r" % (label,)) from None

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
    # prefer pivots with few terms; among numbers prefer units
    if isinstance(c, ParamPoly):
        return len(c.terms)
    try:
        if c == 1 or c == -1:
            return 0
    except TypeError:
        pass
    return 1


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
    n = m.nrows
    if n == 0:
        return scalar_one(m.domain)
    a = m.copy_grid()
    sign = 1
    prev = scalar_one(m.domain)
    for k in range(n - 1):
        # full pivot search, fewest-terms entry wins
        best = None
        for i in range(k, n):
            for j in range(k, n):
                c = a[i][j]
                if scalar_is_zero(c):
                    continue
                w = _pivot_weight(c)
                if best is None or w < best[0]:
                    best = (w, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            return scalar_zero(m.domain)
        _, pi, pj = best
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                num = a[i][j] * piv - aik * a[k][j]
                a[i][j] = scalar_exact_div(num, prev)
            a[i][k] = scalar_zero(m.domain)
        prev = piv
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def berkowitz_charpoly(m):
    """Coefficients of det(sI - M), highest power first (monic).

    Division-free, so it works verbatim over parameter polynomials.
    The empty matrix yields the constant polynomial 1.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    one = scalar_one(m.domain)
    zero = scalar_zero(m.domain)
    if n == 0:
        return [one]
    grid = m.entries
    c = [one, -grid[0][0]]
    for r in range(1, n):
        # Toeplitz column: 1, -a_rr, -(R C), -(R A C), -(R A^2 C), ...
        rowv = [grid[r][k] for k in range(r)]
        colv = [grid[k][r] for k in range(r)]
        toep = [one, -grid[r][r]]
        v = colv
        for i in range(r):
            s = zero
            for k in range(r):
                s = s + rowv[k] * v[k]
            toep.append(-s)
            if i < r - 1:
                v = [sum_scalar(zero, (grid[a][b] * v[b] for b in range(r)))
                     for a in range(r)]
        cnew = []
        for i in range(r + 2):
            s = zero
            lo = max(0, i - len(toep) + 1)
            for j in range(lo, min(i, len(c) - 1) + 1):
                s = s + toep[i - j] * c[j]
            cnew.append(s)
        c = cnew
    return c


def sum_scalar(zero, items):
    total = zero
    for x in items:
        total = total + x
    return total


def rank_over_fractions(m):
    """Rank over the fraction field of the entry domain, computed by
    fraction-free elimination (no actual fractions are formed)."""
    a = m.copy_grid()
    nr, nc = m.nrows, m.ncols
    prev = scalar_one(m.domain)
    rank = 0
    r = 0
    cstart = 0
    while r < nr and cstart < nc:
        best = None
        for i in range(r, nr):
            for j in range(cstart, nc):
                cval = a[i][j]
                if scalar_is_zero(cval):
                    continue
                w = _pivot_weight(cval)
                if best is None or w < best[0]:
                    best = (w, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
        if pj != cstart:
            for row in a:
                row[cstart], row[pj] = row[pj], row[cstart]
        piv = a[r][cstart]
        for i in range(r + 1, nr):
            aik = a[i][cstart]
            for j in range(cstart + 1, nc):
                num = a[i][j] * piv - aik * a[r][j]
                a[i][j] = scalar_exact_div(num, prev)
            a[i][cstart] = scalar_zero(m.domain)
        prev = piv
        rank += 1
        r += 1
        cstart += 1
    return rank


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
