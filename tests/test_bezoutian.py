"""Bezoutian construction and its slice decomposition."""

import random

import pytest

from macres.bezoutian import (
    PolySystem,
    bezoutian,
    delta_slices,
    generic_system,
    incremental_quotient,
    jacobian,
    monomial_system,
    system_from_terms,
)
from macres.combinat import critical_degree, monomial_basis
from macres.corering import MPoly, derivative
from macres.macaulay import build_assembly


def random_system(rng, degrees, lo=-5, hi=5):
    n = len(degrees)
    polys = [MPoly(n, "int", {e: rng.randint(lo, hi)
                              for e in monomial_basis(n, d)})
             for d in degrees]
    return PolySystem(degrees, polys)


def embed_x(p, n):
    """View an n-variable polynomial inside k[X1..Xn, Y1..Yn]."""
    return MPoly(2 * n, p.domain,
                 {e + (0,) * n: c for e, c in p.terms.items()})


def embed_y(p, n):
    return MPoly(2 * n, p.domain,
                 {(0,) * n + e: c for e, c in p.terms.items()})


def test_incremental_quotients_telescope():
    # the defining identity: summing quotient * (X_j - Y_j) over the
    # interpolation positions recovers f_i(X) - f_i(Y)
    rng = random.Random(21)
    for degrees in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2), (1, 2, 3)]:
        s = random_system(rng, degrees)
        n = s.n
        for i in range(1, n + 1):
            f = s.polys[i - 1]
            total = MPoly.zero(2 * n, s.domain)
            for j in range(1, n + 1):
                step = MPoly(2 * n, s.domain, {
                    tuple(1 if k == j - 1 else 0 for k in range(2 * n)): 1,
                    tuple(1 if k == n + j - 1 else 0
                          for k in range(2 * n)): -1})
                total = total + incremental_quotient(s, i, j) * step
            assert total == embed_x(f, n) - embed_y(f, n)


def test_bezoutian_bidegree_structure():
    rng = random.Random(22)
    for degrees in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2)]:
        s = random_system(rng, degrees)
        bz = bezoutian(s)
        tn = critical_degree(s.ds)
        n = s.n
        for e in bz.poly.terms:
            assert sum(e) == tn


def test_monomial_bezoutian_product_oracle():
    # for f_i = X_i^{d_i} the quotient matrix is diagonal, so the
    # determinant is a product of geometric sums
    for degrees in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2), (2, 3, 4)]:
        s = monomial_system(degrees)
        n = s.n
        expected = MPoly(2 * n, "int", {(0,) * (2 * n): 1})
        for i, d in enumerate(degrees):
            geo = {}
            for u in range(d):
                e = [0] * (2 * n)
                e[i], e[n + i] = u, d - 1 - u
                geo[tuple(e)] = 1
            expected = expected * MPoly(2 * n, "int", geo)
        assert bezoutian(s).poly == expected


def test_frozen_slices_for_the_one_one_two_system():
    s = generic_system((1, 1, 2))
    ring = s.domain
    a = {k: ring.gen("a_1_%d" % k) for k in (1, 2, 3)}
    b = {k: ring.gen("a_2_%d" % k) for k in (1, 2, 3)}
    c = {k: ring.gen("a_3_%d" % k) for k in range(1, 7)}

    def bracket(i, j):
        return a[i] * b[j] - a[j] * b[i]

    slices = delta_slices(bezoutian(s), 0)
    assert set(slices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    expected = {
        (1, 0, 0): (c[1] * bracket(2, 3) - c[2] * bracket(1, 3)
                    + c[3] * bracket(1, 2)),
        (0, 1, 0): c[5] * bracket(1, 2) - c[4] * bracket(1, 3),
        (0, 0, 1): c[6] * bracket(1, 2),
    }
    for g, poly in expected.items():
        assert slices[g] == MPoly(3, ring, {(0, 0, 0): poly})


def test_frozen_bezoutian_of_an_integer_one_two_two_system():
    s = system_from_terms((1, 2, 2), [
        {(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 3},
        {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 4, (0, 1, 1): 1,
         (0, 0, 2): -3},
        {(2, 0, 0): -1, (1, 0, 1): 5, (0, 2, 0): 2, (0, 1, 1): -2,
         (0, 0, 2): 1},
    ])
    assert bezoutian(s).poly.terms == {
        (0, 0, 0, 0, 1, 1): 20, (0, 0, 0, 0, 2, 0): -20,
        (0, 0, 0, 1, 0, 1): -6, (0, 0, 0, 1, 1, 0): 65,
        (0, 0, 0, 2, 0, 0): -21, (0, 0, 1, 0, 0, 1): 5,
        (0, 0, 1, 0, 1, 0): -45, (0, 0, 1, 1, 0, 0): 31,
        (0, 0, 2, 0, 0, 0): -10, (0, 1, 0, 0, 0, 1): 18,
        (0, 1, 0, 0, 1, 0): -28, (0, 1, 0, 1, 0, 0): 48,
        (0, 1, 1, 0, 0, 0): -30, (0, 2, 0, 0, 0, 0): -12,
        (1, 0, 0, 0, 0, 1): -2, (1, 0, 0, 0, 1, 0): 17,
        (1, 0, 0, 1, 0, 0): -1, (1, 0, 1, 0, 0, 0): -5,
        (1, 1, 0, 0, 0, 0): 18,
    }


def test_slices_reassemble_the_bezoutian():
    rng = random.Random(23)
    for degrees in [(1, 2), (1, 1, 2), (2, 2, 2)]:
        s = random_system(rng, degrees)
        bz = bezoutian(s)
        n, tn = s.n, critical_degree(s.ds)
        rebuilt = MPoly.zero(2 * n, s.domain)
        for t in range(tn + 1):
            for g, p in delta_slices(bz, t).items():
                ymono = MPoly(2 * n, s.domain, {(0,) * n + g: 1})
                rebuilt = rebuilt + embed_x(p, n) * ymono
        assert rebuilt == bz.poly


def test_swap_is_an_involution_and_genuinely_moves_some_systems():
    rng = random.Random(24)
    s = random_system(rng, (1, 1, 2))
    bz = bezoutian(s)
    assert bz.swap_xy().swap_xy().poly == bz.poly
    # the incremental-quotient representative is not symmetric under
    # exchanging the two variable blocks; this system witnesses it
    w = system_from_terms((1, 1, 2), [{(1, 0, 0): 1}, {(0, 1, 0): 1},
                                      {(1, 0, 1): 1}])
    bw = bezoutian(w)
    assert dict(bw.poly.terms) == {(0, 0, 0, 1, 0, 0): 1}
    assert dict(bw.swap_xy().poly.terms) == {(1, 0, 0, 0, 0, 0): 1}


def test_bezoutian_restricted_to_diagonal_is_the_jacobian():
    rng = random.Random(25)
    for degrees in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2)]:
        s = random_system(rng, degrees)
        bz = bezoutian(s)
        n = s.n
        out = {}
        for e, c in bz.poly.terms.items():
            key = tuple(e[i] + e[n + i] for i in range(n))
            out[key] = out.get(key, 0) + c
        diag = MPoly(n, s.domain, {k: v for k, v in out.items() if v})
        assert diag == jacobian(s)


def test_multilinearity_in_each_polynomial():
    # scaling one input polynomial scales the Bezoutian linearly
    rng = random.Random(26)
    s = random_system(rng, (1, 1, 2))
    base = bezoutian(s).poly
    for i in range(3):
        polys = list(s.polys)
        polys[i] = polys[i].scale(7)
        scaled = bezoutian(PolySystem((1, 1, 2), polys)).poly
        assert scaled == base.scale(7)


def test_delta_matrix_entries_match_slices():
    # the assembly's "delta" block is the one builder of the slice
    # matrix: degree-t monomial rows against the slices in slice order
    rng = random.Random(27)
    s = random_system(rng, (1, 1, 2))
    bz = bezoutian(s)
    for t in (0, 1):
        m = build_assembly(s, t, bez=bz).matrix
        (r0, r1), (c0, c1) = m.blocks["delta"]
        slices = delta_slices(bz, t)
        assert [lab[1] for lab in m.row_labels[r0:r1]] == list(
            monomial_basis(s.n, t))
        assert [lab[1] for lab in m.col_labels[c0:c1]] == list(slices)
        for i in range(r0, r1):
            e = m.row_labels[i][1]
            for j in range(c0, c1):
                g = m.col_labels[j][1]
                assert m.entry(i, j) == slices[g].coeff(e)


def test_jacobian_euler_identity():
    rng = random.Random(29)
    s = random_system(rng, (2, 3, 2))
    for f, d in zip(s.polys, s.ds.degrees):
        n = f.nvars
        total = MPoly.zero(n, f.domain)
        for i in range(n):
            xi = MPoly(n, f.domain,
                       {tuple(1 if k == i else 0 for k in range(n)): 1})
            total = total + xi * derivative(f, i)
        assert total == f.scale(d)


def test_system_from_terms_and_validation():
    s = system_from_terms((1, 1, 2), [{(1, 0, 0): 1}, {(0, 1, 0): 1},
                                      {(0, 0, 2): 1}])
    assert s.ds.degrees == (1, 1, 2)
    with pytest.raises(ValueError):
        PolySystem((1, 2), [MPoly(2, "int", {(1, 0): 1}),
                            MPoly(2, "int", {(1, 0): 1})])
    with pytest.raises(ValueError):
        PolySystem((2,), [MPoly(1, "int", {(1,): 1, (0,): 1})])


def test_zero_polynomials_are_tolerated():
    s = PolySystem((1, 2), [MPoly(2, "int"), MPoly(2, "int", {(2, 0): 1})])
    assert bezoutian(s).poly.is_zero()
