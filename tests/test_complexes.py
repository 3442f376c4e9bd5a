"""Rank profiles and exactness of the coupled complex."""

import random
from fractions import Fraction

import pytest

from macres.bezoutian import (
    PolySystem,
    bezoutian,
    generic_system,
    monomial_system,
    system_from_terms,
)
from macres.combinat import critical_degree, monomial_basis
from macres.corering import MPoly, scalar_zero
from macres.macaulay import DegenerateSystemError, resultant_specialized
from macres.macaulay.assembly import _coeff_of_shifted
from macres.macaulay.complexes import (
    complex_profile,
    exactness_check,
    _differential,
    _term_labels,
)


def random_system(rng, degrees, lo=-4, hi=4):
    n = len(degrees)
    return PolySystem(degrees, [
        MPoly(n, "int", {e: rng.randint(lo, hi)
                         for e in monomial_basis(n, d)})
        for d in degrees])


def test_term_dimensions_for_one_one_two():
    s = monomial_system((1, 1, 2))
    for t in (0, 1):
        prof = complex_profile(s, t)
        spine = [prof.term_ranks[k] for k in range(-3, 3)]
        assert spine == [0, 0, 3, 3, 0, 0]


def test_term_dimensions_for_three_linear_forms():
    s = monomial_system((1, 1, 1))
    prof = complex_profile(s, 0)
    spine = [prof.term_ranks[k] for k in range(-3, 3)]
    assert spine == [0, 0, 1, 1, 0, 0]


def test_alternating_sum_of_dimensions_vanishes():
    # the complex is numerically balanced at every degree
    for degs in [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2), (1, 1, 2, 3)]:
        s = monomial_system(degs)
        n = s.n
        tn = critical_degree(s.ds)
        for t in range(tn + 1):
            total = 0
            for k in range(-n, n):
                dim = len(_term_labels(s.ds, t, k))
                total += dim if k % 2 == 0 else -dim
            assert total == 0


def test_compositions_are_zero():
    rng = random.Random(51)
    for degs in [(1, 2), (1, 1, 2), (2, 2, 2)]:
        s = random_system(rng, degs)
        n = s.n
        tn = critical_degree(s.ds)
        for t in range(tn + 1):
            maps = {k: _differential(s, t, k) for k in range(-n, n - 1)}
            for k in range(-n, n - 2):
                first, second = maps[k], maps[k + 1]
                # each map sends slot k (columns) to slot k + 1 (rows),
                # so the composite is second applied after first
                assert second.col_labels == first.row_labels
                for i in range(second.nrows):
                    for j in range(first.ncols):
                        acc = 0
                        for m in range(second.ncols):
                            acc += second.entry(i, m) * first.entry(m, j)
                        assert acc == 0


def _as_pair(label):
    """Normalize any multiplier-flavored label to (index tuple, exponent)."""
    if label[0] in ("k", "dualk"):
        return label[1], label[2]
    return (label[1],), label[2]


def _koszul_scalar(sys, big, g, small, m, zero):
    """One entry of the downward Koszul differential: the coefficient
    with its alternating sign when small is big minus one index, zero
    otherwise."""
    if len(small) != len(big) - 1 or not set(small) <= set(big):
        return zero
    dropped = (set(big) - set(small)).pop()
    pos = big.index(dropped)
    c = _coeff_of_shifted(sys.polys[dropped - 1], m, g)
    return c if pos % 2 == 0 else -c


def _differential_entry(s, k, rl, cl, bterms, zero):
    """The entry of the map from slot k to slot k+1, cell by cell: the
    Koszul map of the column on the multiplier side (k <= -2), the
    transposed one of the row on the dual side (k >= 0), and the
    assembly rule at k = -1."""
    if k == -1:
        if rl[0] == "mono" and cl[0] == "slice":
            return bterms.get(rl[1] + cl[1], zero)
        if rl[0] == "mono" and cl[0] == "mult":
            return _koszul_scalar(s, (cl[1],), cl[2], (), rl[1], zero)
        if rl[0] == "dual" and cl[0] == "slice":
            return _koszul_scalar(s, (rl[1],), rl[2], (), cl[1], zero)
        return zero
    if k <= -2:
        if rl[0] == "slice":
            return zero
        small, m = _as_pair(rl)
        return _koszul_scalar(s, cl[1], cl[2], small, m, zero)
    if cl[0] == "mono":
        return zero
    big, g = _as_pair(rl)
    small, m = _as_pair(cl)
    return _koszul_scalar(s, big, g, small, m, zero)


def test_differential_entries_follow_the_koszul_rule():
    # every entry, value and type, of every differential against the
    # cell-by-cell rule, on integer, rational and sparse integer systems
    rng = random.Random(53)
    for degs in [(1, 2), (1, 1, 2), (2, 2, 2), (1, 1, 2, 3)]:
        n = len(degs)
        dense = random_system(rng, degs)
        sparse = PolySystem(degs, [
            MPoly(n, "int", {e: c for e, c in f.terms.items()
                             if rng.random() < 0.5})
            for f in random_system(rng, degs).polys])
        rational = PolySystem(degs, [
            MPoly(n, "fraction", {e: Fraction(c, rng.randint(1, 3))
                                  for e, c in f.terms.items()})
            for f in random_system(rng, degs).polys])
        for s in (dense, sparse, rational):
            zero = scalar_zero(s.domain)
            bterms = bezoutian(s).poly.terms
            for t in range(critical_degree(s.ds) + 1):
                for k in range(-n, n - 1):
                    m = _differential(s, t, k)
                    assert m.row_labels == _term_labels(s.ds, t, k + 1)
                    assert m.col_labels == _term_labels(s.ds, t, k)
                    for i, rl in enumerate(m.row_labels):
                        for j, cl in enumerate(m.col_labels):
                            want = _differential_entry(s, k, rl, cl,
                                                       bterms, zero)
                            got = m.entry(i, j)
                            assert got == want, (degs, t, k, rl, cl)
                            assert type(got) is type(want)


def test_exactness_tracks_nonvanishing_resultant():
    rng = random.Random(52)
    for degs in [(1, 1, 2), (1, 1, 1)]:
        s0 = monomial_system(degs)
        tn = critical_degree(s0.ds)
        seen_nonzero = 0
        for _ in range(12):
            s = random_system(rng, degs)
            try:
                res = resultant_specialized(s).value
            except DegenerateSystemError:
                continue
            if res == 0:
                continue
            seen_nonzero += 1
            for t in range(tn + 1):
                report = exactness_check(s, t)
                assert report.is_exact
        assert seen_nonzero >= 6


def test_common_root_breaks_exactness():
    # (0, 0, 1) is a common projective zero, so the resultant vanishes
    # and the complex cannot be exact everywhere
    f1 = {(1, 0, 0): 1}
    f2 = {(0, 1, 0): 1}
    f3 = {(1, 0, 1): 1, (0, 2, 0): 3}
    s = system_from_terms((1, 1, 2), [f1, f2, f3])
    broken = []
    tn = critical_degree(s.ds)
    for t in range(tn + 1):
        report = exactness_check(s, t)
        if not report.is_exact:
            broken.append(t)
    assert broken, "expected at least one non-exact degree"


def test_exactness_rejects_generic_systems():
    with pytest.raises(TypeError):
        exactness_check(generic_system((1, 1, 2)), 0)


def test_profile_validates_range():
    s = monomial_system((1, 1, 2))
    with pytest.raises(ValueError):
        complex_profile(s, 5)
