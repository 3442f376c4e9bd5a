"""Special-case determinant formulas against the general quotient."""

import math
import random

import pytest

from macres.bezoutian import PolySystem, generic_system, monomial_system
from macres.combinat import critical_degree, monomial_basis
from macres.corering import MPoly
from macres.macaulay import (
    DegenerateSystemError,
    build_assembly,
    resultant_generic,
    resultant_specialized,
)
from macres.macaulay.assembly import _extraneous_factor
from macres.macaulay.formulas import (
    dixon_matrix,
    dixon_resultant,
    gcp,
    jacobian_variant,
    ternary_quadric_sylvester,
    univariate_formulas,
)


def random_system(rng, degrees, lo=-5, hi=5):
    n = len(degrees)
    return PolySystem(degrees, [
        MPoly(n, "int", {e: rng.randint(lo, hi)
                         for e in monomial_basis(n, d)})
        for d in degrees])


# -- univariate (n = 2) ------------------------------------------------------

def test_univariate_display_formula():
    s = generic_system((1, 2))
    ring = s.domain
    a1, a0 = ring.gen("a_1_1"), ring.gen("a_1_2")
    b2, b1, b0 = (ring.gen("a_2_%d" % k) for k in (1, 2, 3))
    expected = a1 * a1 * b0 - a0 * a1 * b1 + b2 * a0 * a0
    for t in (0, 1, 2):
        assert univariate_formulas(s, t).value == expected


def test_univariate_every_degree_agrees_symbolically():
    s = generic_system((2, 2))
    tn = critical_degree(s.ds)
    values = [univariate_formulas(s, t).value for t in range(tn + 2)]
    assert all(v == values[0] for v in values)
    assert values[0] == resultant_generic(s).value


def test_univariate_random_cross_check_up_to_degree_four():
    rng = random.Random(41)
    hits = 0
    for _ in range(60):
        d1 = rng.randint(1, 4)
        d2 = rng.randint(1, 4)
        s = random_system(rng, (d1, d2))
        tn = critical_degree(s.ds)
        try:
            small = univariate_formulas(s, tn // 2).value
            classical = univariate_formulas(s, tn + 1).value
        except DegenerateSystemError:
            continue
        assert small == classical
        hits += 1
    assert hits >= 40


def test_univariate_rejects_other_shapes():
    with pytest.raises(ValueError):
        univariate_formulas(monomial_system((1, 1, 2)))
    with pytest.raises(ValueError):
        univariate_formulas(monomial_system((2, 2)), 5)


# -- Dixon (n = 3, equal degrees) --------------------------------------------

def test_dixon_matrix_is_the_transposed_assembly():
    # checked symbolically: entry by entry against the degree 2d-2
    # assembly, transposed through the label correspondence
    for d in (1, 2):
        s = generic_system((d, d, d))
        dm = dixon_matrix(s)
        asm = build_assembly(s, 2 * d - 2).matrix
        assert dm.nrows == dm.ncols == asm.nrows
        at = asm.transpose()
        for i in range(dm.nrows):
            for j in range(dm.ncols):
                assert dm.entry(i, j) == at.entry(i, j)


def test_dixon_equals_quotient_on_random_quadrics():
    rng = random.Random(42)
    hits = 0
    for _ in range(25):
        s = random_system(rng, (2, 2, 2))
        try:
            q = resultant_specialized(s).value
        except DegenerateSystemError:
            continue
        assert dixon_resultant(s).value == q
        hits += 1
    assert hits >= 15


def test_dixon_monomial_calibration():
    assert dixon_resultant(monomial_system((2, 2, 2))).value == 1
    assert dixon_resultant(monomial_system((1, 1, 1))).value == 1


def test_dixon_rejects_other_shapes():
    with pytest.raises(ValueError):
        dixon_matrix(monomial_system((1, 2, 2)))
    with pytest.raises(ValueError):
        dixon_matrix(monomial_system((2, 2)))


# -- ternary quadrics --------------------------------------------------------

def test_ternary_quadric_determinant_scale():
    # the six-row matrix of the three quadrics and the three partials
    # of their jacobian has determinant exactly 512 times the resultant
    s = monomial_system((2, 2, 2))
    out = ternary_quadric_sylvester(s)
    assert out.value == 1
    assert out.det_m == 512
    assert out.det_ebb == 512


def test_ternary_quadric_equals_quotient():
    rng = random.Random(43)
    hits = 0
    for _ in range(25):
        s = random_system(rng, (2, 2, 2))
        try:
            q = resultant_specialized(s, 1).value
        except DegenerateSystemError:
            continue
        assert ternary_quadric_sylvester(s).value == q
        hits += 1
    assert hits >= 15


def test_ternary_quadric_rejects_other_shapes():
    with pytest.raises(ValueError):
        ternary_quadric_sylvester(monomial_system((2, 2, 3)))


# -- jacobian variant at the critical degree ---------------------------------

def test_jacobian_variant_monomial_calibration():
    for degs in [(1, 1, 2), (2, 2, 2), (1, 1, 1), (2, 3)]:
        assert jacobian_variant(monomial_system(degs)).value == 1


def test_jacobian_variant_equals_quotient():
    rng = random.Random(44)
    hits = 0
    for _ in range(25):
        s = random_system(rng, (1, 1, 2))
        try:
            q = resultant_specialized(s).value
        except DegenerateSystemError:
            continue
        assert jacobian_variant(s).value == q
        hits += 1
    assert hits >= 15


# -- generalized characteristic polynomial -----------------------------------

def test_gcp_worked_pair():
    s = PolySystem((2, 2), [MPoly(2, "int", {(1, 1): 1}),
                            MPoly(2, "int", {(2, 0): 1})])
    for t in range(4):
        assert gcp(s, t) == [0, -1, 0, 0, 1]


def test_gcp_monomial_patterns():
    # the perturbed monomial system is (s - 1) X^d, so the GCP is
    # (s - 1)^D with D the sum of the products of the other degrees
    assert gcp(monomial_system((2, 2)), 3) == [1, -4, 6, -4, 1]
    assert gcp(monomial_system((2, 2))) == [1, -4, 6, -4, 1]
    assert gcp(monomial_system((1, 1, 2)), 2) == [-1, 5, -10, 10, -5, 1]
    power12 = [(-1) ** (12 - k) * math.comb(12, k) for k in range(13)]
    for t in range(5):
        assert gcp(monomial_system((2, 2, 2)), t) == power12


def sparse_system(rng, degrees):
    n = len(degrees)
    return PolySystem(degrees, [
        MPoly(n, "int", {e: rng.randint(-3, 3)
                         for e in monomial_basis(n, d) if rng.random() < 0.5})
        for d in degrees])


def test_gcp_constant_term_is_a_signed_resultant():
    rng = random.Random(45)
    systems = [random_system(rng, (2, 2)) for _ in range(15)]
    systems += [sparse_system(rng, degs)
                for degs in [(1, 2, 2), (1, 2, 2), (1, 1, 1, 2), (1, 1, 1, 2)]]
    hits = 0
    for s in systems:
        try:
            q = resultant_specialized(s).value
        except DegenerateSystemError:
            continue
        ds = s.ds
        degree = sum(ds.resultant_degree(i) for i in range(1, ds.n + 1))
        coeffs = gcp(s)
        assert coeffs[0] == (-1) ** degree * q
        assert len(coeffs) == degree + 1 and coeffs[-1] == 1
        for t in range(critical_degree(ds) + 1):
            assert gcp(s, t) == coeffs
        hits += 1
    assert hits >= 15


def test_gcp_skips_samples_with_singular_sides():
    # f = (X1 + 2 X2, -X2 + 2 X3, 2 X1^2 - X1 X2 - X1 X3)
    s = PolySystem((1, 1, 2), [
        MPoly(3, "int", {(1, 0, 0): 1, (0, 1, 0): 2}),
        MPoly(3, "int", {(0, 1, 0): -1, (0, 0, 1): 2}),
        MPoly(3, "int", {(2, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -1})])
    # the sample s = 1 of the default degree t = 2 has a singular side
    powers = monomial_system((1, 1, 2)).polys
    g1 = PolySystem((1, 1, 2), [p - f for p, f in zip(powers, s.polys)])
    assert _extraneous_factor(g1, 2, {}) is None
    for t in (0, 1, 2):
        assert gcp(s, t) == [-44, 9, 4, -2, 0, 1]


def test_gcp_rejects_non_integer_domains():
    with pytest.raises(TypeError):
        gcp(generic_system((2, 2)))
