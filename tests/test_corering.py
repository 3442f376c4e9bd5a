"""Exact arithmetic in the two polynomial layers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macres.corering import (
    InexactDivisionError,
    MPoly,
    ParamPoly,
    ParamRing,
    monomial_key,
    scalar_exact_div,
    specialize,
)


def small_param_polys(ring):
    term = st.tuples(
        st.lists(st.integers(0, 3), min_size=ring.nparams,
                 max_size=ring.nparams),
        st.integers(-9, 9))
    return st.lists(term, max_size=5).map(
        lambda pairs: sum(
            (ring.const(c) * prod_gens(ring, e) for e, c in pairs),
            ring.zero()))


def prod_gens(ring, exps):
    p = ring.one()
    for i, k in enumerate(exps):
        p = p * ring.gen(i) ** k
    return p


RING = ParamRing(["u", "v", "w"])


@settings(max_examples=60, deadline=None)
@given(small_param_polys(RING), small_param_polys(RING),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_param_arithmetic_matches_integer_evaluation(p, q, point):
    # ring operations commute with evaluation at integer points
    pe, qe = p.evaluate(point), q.evaluate(point)
    assert (p + q).evaluate(point) == pe + qe
    assert (p - q).evaluate(point) == pe - qe
    assert (p * q).evaluate(point) == pe * qe
    assert (-p).evaluate(point) == -pe


def high_param_polys(ring):
    # exponents on both sides of half the field, so products land below,
    # at and past the largest packed exponent 255
    exponent = st.one_of(st.integers(0, 2), st.integers(120, 136),
                         st.integers(250, 255))
    term = st.tuples(
        st.lists(exponent, min_size=ring.nparams, max_size=ring.nparams),
        st.integers(-9, 9))
    return st.lists(term, max_size=3).map(
        lambda pairs: sum(
            (ring.const(c) * prod_gens(ring, e) for e, c in pairs),
            ring.zero()))


def top_exponents(p):
    return [max(RING.unpack(k)[i] for k in p.terms)
            for i in range(RING.nparams)]


@settings(max_examples=80, deadline=None)
@given(high_param_polys(RING), high_param_polys(RING),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@example(RING.gen(0) ** 200, RING.gen(0) ** 55, [2, 1, 1])
@example(RING.gen(0) ** 128 + RING.gen(1), RING.gen(0) ** 128 - RING.gen(1),
         [2, 1, 1])
def test_products_near_the_exponent_limit(p, q, point):
    # a product is exact while every exponent stays within 255 and
    # raises past it; no exponent ever carries into the next parameter
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
        return
    tops = [a + b for a, b in zip(top_exponents(p), top_exponents(q))]
    if max(tops) > 255:
        with pytest.raises(OverflowError):
            p * q
        return
    pq = p * q
    assert top_exponents(pq) == tops
    assert pq.evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(small_param_polys(RING), small_param_polys(RING))
def test_exact_division_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(small_param_polys(RING), st.integers(-9, 9).filter(bool),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_one_term_division_inverts_multiplication(p, c, exps):
    # constant and monomial divisors take the term-by-term path
    q = RING.const(c) * prod_gens(RING, exps)
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(small_param_polys(RING), st.integers(-9, 9).filter(bool),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_one_term_division_raises_on_a_remainder(p, c, exps):
    assume(abs(c) > 1 or any(exps))
    q = RING.const(c) * prod_gens(RING, exps)
    with pytest.raises(InexactDivisionError):
        (p * q + RING.one()).exact_div(q)


def test_inexact_division_raises():
    u, v = RING.gen("u"), RING.gen("v")
    with pytest.raises(InexactDivisionError):
        (u * u + RING.one()).exact_div(v)
    with pytest.raises(ZeroDivisionError):
        u.exact_div(RING.zero())


def test_param_display_form():
    u, v = RING.gen("u"), RING.gen("v")
    p = (u + RING.const(2)) * (v - RING.const(1))
    assert str(p) == "-2 - u + 2*v + u*v"
    assert str(u ** 2 - RING.one()) == "-1 + u^2"
    assert str(RING.zero()) == "0"


def test_monomial_order_is_degree_then_reverse_lex():
    exps = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert sorted(exps, key=monomial_key) == exps


def test_mpoly_arithmetic_against_dense_oracle():
    # multiply two random bivariate polynomials and compare against a
    # hand-rolled dense convolution
    rng = random.Random(7)
    for _ in range(20):
        a = {(i, j): rng.randint(-5, 5) for i in range(3) for j in range(3)}
        b = {(i, j): rng.randint(-5, 5) for i in range(3) for j in range(3)}
        pa = MPoly(2, "int", a)
        pb = MPoly(2, "int", b)
        dense = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                dense[k] = dense.get(k, 0) + c1 * c2
        assert (pa * pb) == MPoly(2, "int", dense)


def test_mpoly_display_form():
    m = MPoly(2, "int", {(1, 0): -1, (0, 1): 2})
    assert str(m) == "-X1 + 2*X2"
    u, v = RING.gen("u"), RING.gen("v")
    p = (u + RING.const(2)) * (v - RING.const(1))
    m2 = MPoly(2, RING, {(2, 0): p, (0, 2): RING.const(3)})
    assert str(m2) == "(-2 - u + 2*v + u*v)*X1^2 + 3*X2^2"


def test_mpoly_homogeneity_and_degree():
    m = MPoly(3, "int", {(2, 0, 0): 1, (0, 1, 1): -4})
    assert m.is_homogeneous()
    assert m.total_degree() == 2
    assert not MPoly(2, "int", {(1, 0): 1, (0, 2): 1}).is_homogeneous()
    assert MPoly(2, "int").is_zero()


def test_specialize_is_a_ring_map():
    u, v, w = (RING.gen(s) for s in "uvw")
    f = MPoly(2, RING, {(1, 0): u * v, (0, 1): w - RING.const(1)})
    g = MPoly(2, RING, {(1, 0): RING.one(), (0, 1): u})
    vals = {"u": 2, "v": -3, "w": 5}
    fs, gs = specialize(f, vals), specialize(g, vals)
    assert specialize(f * g, vals) == fs * gs
    assert specialize(f + g, vals) == fs + gs
    assert fs == MPoly(2, "int", {(1, 0): -6, (0, 1): 4})


def test_scalar_exact_div_domains():
    assert scalar_exact_div(6, 3) == 2
    with pytest.raises(InexactDivisionError):
        scalar_exact_div(7, 3)
    assert scalar_exact_div(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    u = RING.gen("u")
    assert scalar_exact_div(u * u, u) == u
