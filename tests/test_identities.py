"""Identities of the resultant under linear changes of variables and
under scaling one polynomial (Cox-Little-O'Shea, Using Algebraic
Geometry, ch. 3 section 3; Jouanolou, Adv. Math. 90, 1991, section 5):

    Res(f o A) = det(A)^(d_1...d_n) * Res(f),
    Res(..., c*f_i, ...) = c^(prod_{j != i} d_j) * Res(f),

checked through the quotient driver at the default degree and at every
t in 0..tcrit+1, on dense and sparse systems and on the fallback
systems whose canonical extraneous minors all vanish."""

import math
import random
from fractions import Fraction

from macres.bezoutian import PolySystem, system_from_terms
from macres.combinat import critical_degree, monomial_basis
from macres.corering import MPoly
from macres.macaulay import resultant_specialized

CELLS = [(2, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 2, 3)]


def _draw(rng, degrees, sparse):
    """Nonzero integer coefficients on every monomial, or on a random
    half of them (rounded up) when sparse."""
    maps = []
    for d in degrees:
        support = monomial_basis(len(degrees), d)
        if sparse:
            support = rng.sample(support, (len(support) + 1) // 2)
        maps.append({e: rng.choice((-1, 1)) * rng.randint(1, 5)
                     for e in support})
    return system_from_terms(degrees, maps)


def _compose(s, a):
    """The system f o A: X_i replaced by sum_j a[i][j] X_j."""
    n = s.n
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    forms = [MPoly(n, s.domain, {unit[j]: a[i][j] for j in range(n)})
             for i in range(n)]
    polys = []
    for f in s.polys:
        out = MPoly.zero(n, s.domain)
        for e, c in f.terms.items():
            term = MPoly.constant(n, s.domain, c)
            for form, k in zip(forms, e):
                for _ in range(k):
                    term = term * form
            out = out + term
        polys.append(out)
    return PolySystem(s.ds, polys)


def _scaled(s, i, c):
    """The system with f_i multiplied by c."""
    polys = list(s.polys)
    polys[i] = polys[i].scale(c)
    return PolySystem(s.ds, polys)


def _det_diagonal(diag):
    return math.prod(diag)


def _diagonal(diag):
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _transvection(n, row, col, c):
    """I + c*E_{row,col}: X_row goes to X_row + c*X_col, determinant 1."""
    return [[1 if i == j else (c if (i, j) == (row, col) else 0)
             for j in range(n)] for i in range(n)]


def _degrees_of_t(s):
    return [None] + list(range(critical_degree(s.ds) + 2))


def test_linear_change_and_scaling_on_seeded_systems():
    rng = random.Random(7001)
    checks = 0
    for degrees in CELLS:
        n = len(degrees)
        dprod = math.prod(degrees)
        for sparse in (False, True):
            s = _draw(rng, degrees, sparse)
            diag = [rng.choice((-2, -1, 2, 3)) for _ in range(n)]
            i = rng.randrange(n)
            c = rng.choice((-3, -2, 2, 3))
            cases = [
                (_compose(s, _transvection(n, 0, n - 1, rng.choice((-2, 1, 3)))),
                 1),
                (_compose(s, _diagonal(diag)), _det_diagonal(diag) ** dprod),
                (_scaled(s, i, c), c ** (dprod // degrees[i])),
            ]
            for t in _degrees_of_t(s):
                base = resultant_specialized(s, t).value
                assert sparse or base != 0, (degrees, t)
                for other, factor in cases:
                    got = resultant_specialized(other, t).value
                    assert got == factor * base, (degrees, sparse, t, factor)
                    checks += 1
    assert checks == 168


# the two frozen fallback systems of test_macaulay.py: no canonical
# candidate degree has a nonzero extraneous minor, so every value comes
# from a reordering, and the odd (1,3,3) one flips its sign.  A diagonal
# A keeps the supports, so the transformed system falls back too; the
# transvection X_n -> X_n + X_1 puts X_1 into the (1,3,3) system's f_1,
# so that value comes from the canonical system and checks the sign.
FALLBACK = {
    "zero leading coefficient": system_from_terms((1, 1, 2, 3), [
        {(0, 1, 0, 0): 3, (0, 0, 1, 0): 1},
        {(1, 0, 0, 0): 1, (0, 0, 0, 1): 2},
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 1, 1): 5},
        {(3, 0, 0, 0): 2, (0, 0, 3, 0): 1, (1, 1, 1, 0): 1}]),
    "odd (1,3,3)": system_from_terms((1, 3, 3), [
        {(0, 1, 0): 2, (0, 0, 1): -3},
        {(3, 0, 0): 1, (0, 0, 3): 4, (1, 2, 0): 1},
        {(3, 0, 0): 2, (0, 3, 0): 1, (0, 0, 3): -1, (1, 1, 1): 3}]),
}


def test_linear_changes_on_fallback_systems():
    checks = 0
    for name, s in FALLBACK.items():
        n = s.n
        diag = [2, -1, 3, -2][:n]
        cases = [
            (_compose(s, _diagonal(diag)),
             _det_diagonal(diag) ** math.prod(s.ds.degrees)),
            (_compose(s, _transvection(n, n - 1, 0, 1)), 1),
        ]
        for t in _degrees_of_t(s):
            base = resultant_specialized(s, t).value
            assert base != 0, (name, t)
            for other, factor in cases:
                got = resultant_specialized(other, t).value
                assert got == factor * base, (name, t, factor)
                checks += 1
    assert checks == 26


def test_fraction_system_scaled_by_a_fraction():
    s = system_from_terms((1, 2, 2), [
        {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-3),
         (0, 0, 1): Fraction(2, 3)},
        {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(-5, 4),
         (0, 1, 1): Fraction(2), (0, 0, 2): Fraction(1, 3)},
        {(2, 0, 0): Fraction(-1, 2), (0, 2, 0): Fraction(7),
         (1, 0, 1): Fraction(3, 5), (0, 0, 2): Fraction(-1)}], "fraction")
    c = Fraction(-3, 7)
    for i in range(3):
        scaled = _scaled(s, i, c)
        for t in _degrees_of_t(s):
            base = resultant_specialized(s, t).value
            got = resultant_specialized(scaled, t).value
            assert type(got) is Fraction
            assert got == c ** (4 // s.ds.degrees[i]) * base, (i, t)
