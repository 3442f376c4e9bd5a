"""Assembly of the structured matrices and the quotient formulas."""

import itertools
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
from macres.combinat import (
    DegreeSystem,
    critical_degree,
    minimal_t,
    monomial_basis,
    rho_size,
)
from macres.corering import MPoly, ParamRing, specialize
from macres.linalg import bareiss_det
from macres.macaulay import (
    DegenerateSystemError,
    build_assembly,
    classical_macaulay,
    full_assembly,
    resultant_generic,
    resultant_specialized,
    sign_normalization,
)


def random_system(rng, degrees, lo=-5, hi=5):
    n = len(degrees)
    return PolySystem(degrees, [
        MPoly(n, "int", {e: rng.randint(lo, hi)
                         for e in monomial_basis(n, d)})
        for d in degrees])


def test_assemblies_are_square_of_the_predicted_size():
    for n in (1, 2, 3, 4):
        for degs in itertools.combinations_with_replacement((1, 2, 3, 4), n):
            if n == 4 and max(degs) > 2:
                continue
            ds = DegreeSystem(degs)
            s = monomial_system(degs)
            tn = critical_degree(ds)
            for t in range(tn + 2):
                m = build_assembly(s, t).matrix
                assert m.nrows == m.ncols == rho_size(ds, t)


def test_block_pattern_one_one_two():
    # t = 2 is the classical degree: 6x6, no dual rows, no mult gap
    s = generic_system((1, 1, 2))
    m = build_assembly(s, 2).matrix
    assert m.nrows == m.ncols == 6
    kinds_r = [l[0] for l in m.row_labels]
    kinds_c = [l[0] for l in m.col_labels]
    assert kinds_r == ["mono"] * 6
    # above the critical degree there is no slice block left at all:
    # every column multiplies some f_j
    assert kinds_c == ["mult"] * 6
    mult_js = [l[1] for l in m.col_labels if l[0] == "mult"]
    assert mult_js == [1, 1, 1, 2, 2, 3]


def test_block_pattern_one_one_two_three():
    s = generic_system((1, 1, 2, 3))
    m = build_assembly(s, 2).matrix
    assert m.nrows == m.ncols == 12
    kinds_r = [l[0] for l in m.row_labels]
    kinds_c = [l[0] for l in m.col_labels]
    assert kinds_r == ["mono"] * 10 + ["dual"] * 2
    assert kinds_c == ["slice"] * 4 + ["mult"] * 8
    # the dual-by-mult corner is identically zero
    for i in range(10, 12):
        for j in range(4, 12):
            assert m.entry(i, j).is_zero()
    dual_js = [l[1] for l in m.row_labels if l[0] == "dual"]
    assert dual_js == [1, 2]
    assert [l[1] for l in m.col_labels if l[0] == "mult"] == \
        [1, 1, 1, 1, 2, 2, 2, 3]


def test_entries_implement_the_three_populated_blocks():
    rng = random.Random(31)
    s = random_system(rng, (1, 1, 2))
    bz = bezoutian(s)
    tn = critical_degree(s.ds)
    for t in (0, 1):
        m = build_assembly(s, t, bez=bz).matrix
        for i, rl in enumerate(m.row_labels):
            for j, cl in enumerate(m.col_labels):
                v = m.entry(i, j)
                if rl[0] == "mono" and cl[0] == "slice":
                    e, d = rl[1], cl[1]
                    key = e + d
                    assert v == bz.poly.terms.get(key, 0)
                elif rl[0] == "mono" and cl[0] == "mult":
                    e, (jj, g) = rl[1], (cl[1], cl[2])
                    shifted = tuple(a - b for a, b in zip(e, g))
                    if min(shifted) < 0:
                        assert v == 0
                    else:
                        assert v == s.polys[jj - 1].terms.get(shifted, 0)
                elif rl[0] == "dual" and cl[0] == "slice":
                    (jj, g), d = (rl[1], rl[2]), cl[1]
                    shifted = tuple(a - b for a, b in zip(d, g))
                    if min(shifted) < 0:
                        assert v == 0
                    else:
                        assert v == s.polys[jj - 1].terms.get(shifted, 0)
                else:
                    assert v == 0


def test_sign_normalization_frozen_values():
    assert [sign_normalization(DegreeSystem((1, 2)), t)
            for t in range(3)] == [-1, -1, 1]
    assert [sign_normalization(DegreeSystem((1, 1, 2)), t)
            for t in range(3)] == [1, 1, 1]
    assert [sign_normalization(DegreeSystem((1, 1, 2, 3)), t)
            for t in range(5)] == [1, -1, -1, 1, 1]
    assert [sign_normalization(DegreeSystem((2, 2)), t)
            for t in range(4)] == [-1, -1, -1, 1]


def test_monomial_systems_normalize_to_plus_one():
    for degs in [(1, 2), (2, 2), (1, 1, 2), (2, 3), (1, 1, 2, 3),
                 (2, 2, 2)]:
        s = monomial_system(degs)
        tn = critical_degree(s.ds)
        for t in range(tn + 2):
            out = resultant_specialized(s, t)
            assert out.value == 1


def test_symbolic_quotients_are_exact_and_t_independent():
    for degs in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)]:
        s = generic_system(degs)
        tn = critical_degree(s.ds)
        values = []
        for t in range(tn + 2):
            out = resultant_generic(s, t)
            assert out.det_ebb * out.value * out.sigma == out.det_m
            values.append(out.value)
        assert all(v == values[0] for v in values)


def test_degree_law_in_each_coefficient_block():
    # the normalized resultant is homogeneous of degree
    # prod_{j != i} d_j in the coefficients of f_i
    for degs in [(1, 2), (2, 2), (1, 1, 2)]:
        s = generic_system(degs)
        ring = s.domain
        value = resultant_generic(s).value
        n = len(degs)
        prod = 1
        for d in degs:
            prod *= d
        for i in range(n):
            want = prod // degs[i]
            block = set()
            for nm in s.param_blocks[i]:
                block.add(ring.index[nm])
            for key in value.terms:
                exps = ring.unpack(key)
                got = sum(exps[k] for k in block)
                assert got == want


def test_worked_example_against_elimination_oracle():
    s = generic_system((1, 1, 2))
    ring = s.domain
    a = [ring.gen("a_1_%d" % k) for k in (1, 2, 3)]
    b = [ring.gen("a_2_%d" % k) for k in (1, 2, 3)]
    cs = [ring.gen("a_3_%d" % k) for k in range(1, 7)]
    m1 = a[1] * b[2] - a[2] * b[1]
    m2 = a[0] * b[2] - a[2] * b[0]
    m3 = a[0] * b[1] - a[1] * b[0]
    # the common zero of the two generic linear forms, by Cramer
    point = [m1, -m2, m3]
    oracle = ring.zero()
    for cv, e in zip(cs, monomial_basis(3, 2)):
        term = cv
        for x, k in zip(point, e):
            term = term * x ** k
        oracle = oracle + term
    for t in (0, 1, 2):
        assert resultant_generic(s, t).value == oracle
    out = resultant_generic(s, 2)
    assert out.det_ebb == a[0]
    assert out.det_m == a[0] * oracle


def test_transpose_law_with_swapped_bezoutian():

    def to_row(label):
        if label[0] == "slice":
            return ("mono", label[1])
        return ("dual", label[1], label[2])

    def to_col(label):
        if label[0] == "mono":
            return ("slice", label[1])
        return ("mult", label[1], label[2])

    rng = random.Random(32)
    for degs in [(1, 2), (2, 2), (1, 1, 2), (2, 3)]:
        s = random_system(rng, degs)
        bz = bezoutian(s)
        bw = bz.swap_xy()
        tn = critical_degree(s.ds)
        for t in range(tn + 1):
            a = build_assembly(s, t, bez=bz).matrix
            b = build_assembly(s, tn - t, bez=bw).matrix
            bi = {rl: i for i, rl in enumerate(b.row_labels)}
            bj = {cl: j for j, cl in enumerate(b.col_labels)}
            for i, rl in enumerate(a.row_labels):
                for j, cl in enumerate(a.col_labels):
                    assert a.entry(i, j) == \
                        b.entry(bi[to_row(cl)], bj[to_col(rl)])


def test_specialized_agrees_with_generic():
    rng = random.Random(33)
    for degs in [(1, 2), (2, 2), (1, 1, 2)]:
        s = generic_system(degs)
        sym = resultant_generic(s).value
        for _ in range(10):
            assignment = {nm: rng.randint(-6, 6) for nm in s.domain.names}
            inst = s.specialized(assignment)
            try:
                got = resultant_specialized(inst).value
            except DegenerateSystemError:
                continue
            assert got == sym.evaluate(
                [assignment[nm] for nm in s.domain.names])


def test_extraneous_minor_splits_into_the_two_sides():
    s = generic_system((1, 1, 2, 3))
    asm = build_assembly(s, 2)
    full = bareiss_det(asm.extraneous_matrix())
    left = bareiss_det(asm.e_matrix())
    right = bareiss_det(asm.e_dual_matrix())
    assert full == left * right or full == -(left * right)


def test_side_determinants_above_the_critical_degree():
    # for t > tcrit the dual side is empty, so E is the whole
    # extraneous matrix and E_dual is the empty matrix
    rng = random.Random(37)
    systems = [random_system(rng, degs)
               for degs in [(2, 2), (1, 1, 2), (1, 2, 3), (2, 2, 2),
                            (1, 1, 2, 3)]]
    systems += [generic_system((1, 1, 2)), generic_system((1, 2))]
    for s in systems:
        t = critical_degree(s.ds) + 1
        if isinstance(s.domain, ParamRing):
            out = resultant_generic(s, t)
        else:
            out = resultant_specialized(s, t)
        assert out.det_e == out.det_ebb
        assert out.det_e_dual == 1
        asm = build_assembly(s, t)
        assert asm.e_dual_matrix().nrows == 0
        assert bareiss_det(asm.e_matrix()) == bareiss_det(
            asm.extraneous_matrix())


def test_permutation_fallback_rescues_zero_leading_coefficient():
    # f_1 with no X1 term makes the canonical extraneous minor vanish;
    # reordering the variables must rescue the quotient, including at
    # an explicitly requested degree
    f1 = {(0, 1, 0, 0): 3, (0, 0, 1, 0): 1}
    f2 = {(1, 0, 0, 0): 1, (0, 0, 0, 1): 2}
    f3 = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 1, 1): 5}
    f4 = {(3, 0, 0, 0): 2, (0, 0, 3, 0): 1, (1, 1, 1, 0): 1}
    s = system_from_terms((1, 1, 2, 3), [f1, f2, f3, f4])
    direct = resultant_specialized(s)
    pinned = resultant_specialized(s, 4)
    assert direct.value == pinned.value
    assert resultant_specialized(s, 2).value == direct.value


def test_degenerate_specialization_raises():
    s = system_from_terms((1, 1, 2), [{}, {}, {(2, 0, 0): 1}])
    with pytest.raises(DegenerateSystemError):
        resultant_specialized(s, 2)


def test_classical_macaulay_equals_minimal_quotient():
    for degs in [(1, 2), (1, 1, 2)]:
        s = generic_system(degs)
        classical = classical_macaulay(s)
        assert classical.t == critical_degree(s.ds) + 1
        assert classical.value == resultant_generic(s).value


def test_rational_systems_clear_denominators():
    f1 = MPoly(2, "fraction", {(1, 0): Fraction(1, 2),
                               (0, 1): Fraction(3)})
    f2 = MPoly(2, "fraction", {(2, 0): Fraction(1),
                               (0, 2): Fraction(-1, 3)})
    s = PolySystem((1, 2), [f1, f2])
    out = resultant_specialized(s)
    assert out.value == Fraction(107, 12)


def test_full_assembly_covers_all_labels():
    s = generic_system((1, 1, 2))
    m = full_assembly(s, 1)
    # at this degree every multiplier class is full, so the full and
    # reduced assemblies coincide
    r = build_assembly(s, 1).matrix
    assert m.row_labels == r.row_labels
    assert m.col_labels == r.col_labels


def test_resultant_generic_size_gate():
    s = generic_system((2, 2, 2))
    with pytest.raises(ValueError):
        resultant_generic(s, max_symbolic_size=4)


def test_multiplicativity_under_power_substitution():
    # Res(f1, f2)(X1 -> X1, X2 -> X2) sanity: product of two linear
    # forms against a quadratic splits multiplicatively
    rng = random.Random(34)
    for _ in range(10):
        l1 = {(1, 0): rng.randint(-4, 4), (0, 1): rng.randint(-4, 4)}
        l2 = {(1, 0): rng.randint(-4, 4), (0, 1): rng.randint(-4, 4)}
        g = {e: rng.randint(-4, 4) for e in monomial_basis(2, 2)}
        p1 = MPoly(2, "int", l1)
        p2 = MPoly(2, "int", l2)
        prod = p1 * p2
        if prod.is_zero() or MPoly(2, "int", g).is_zero():
            continue
        try:
            lhs = resultant_specialized(
                PolySystem((2, 2), [prod, MPoly(2, "int", g)])).value
            r1 = resultant_specialized(
                PolySystem((1, 2), [p1, MPoly(2, "int", g)])).value
            r2 = resultant_specialized(
                PolySystem((1, 2), [p2, MPoly(2, "int", g)])).value
        except DegenerateSystemError:
            continue
        assert lhs == r1 * r2
