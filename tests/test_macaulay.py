"""Assembly of the structured matrices and the quotient formulas."""

import itertools
import random
from fractions import Fraction

import pytest

from macres.bezoutian import (
    Bezoutian,
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
from macres.corering import MPoly, ParamRing, scalar_zero, specialize
from macres.linalg import bareiss_det, permutation_sign, submatrix
from macres.macaulay import (
    DegenerateSystemError,
    build_assembly,
    classical_macaulay,
    full_assembly,
    resultant_generic,
    resultant_specialized,
    sign_normalization,
)
import macres.macaulay.assembly as assembly
from macres.macaulay.assembly import (
    _candidate_ts,
    _coeff_of_shifted,
    _extraneous_factor,
    _extraneous_labels,
    _permuted_system,
    _quotient_at,
    side_matrix,
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


def _assert_entry_rule(m, s, bterms):
    """Every entry of an assembly equals the cell-by-cell rule: the
    Bezoutian coefficient in the delta block, a shifted coefficient of
    f_j in the multiplier and dual blocks, domain zero elsewhere; the
    type is checked as well, so zeros stay in the system's domain."""
    zero = scalar_zero(s.domain)
    for i, rl in enumerate(m.row_labels):
        for j, cl in enumerate(m.col_labels):
            if rl[0] == "mono" and cl[0] == "slice":
                want = bterms.get(rl[1] + cl[1], zero)
            elif rl[0] == "mono" and cl[0] == "mult":
                want = _coeff_of_shifted(s.polys[cl[1] - 1], rl[1], cl[2])
            elif rl[0] == "dual" and cl[0] == "slice":
                want = _coeff_of_shifted(s.polys[rl[1] - 1], cl[1], rl[2])
            else:
                want = zero
            got = m.entry(i, j)
            assert got == want and type(got) is type(want), (rl, cl)


def test_entries_implement_the_three_populated_blocks():
    # integer, rational and generic systems, square and rectangular
    systems = [random_system(random.Random(31), (1, 1, 2))]
    rng = random.Random(38)
    systems += [random_system(rng, degs)
                for degs in [(2, 3), (1, 2, 2), (1, 1, 2, 3)]]
    systems += [PolySystem(degs, [
        MPoly(len(degs), "fraction",
              {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for e in monomial_basis(len(degs), d)})
        for d in degs]) for degs in [(1, 2), (2, 1, 2)]]
    systems += [generic_system((1, 2)), generic_system((1, 1, 2))]
    # a sparse system leaves zeros inside the multiplier and dual blocks
    systems.append(system_from_terms(
        (1, 1, 2, 3), [{(0, 1, 0, 0): 3}, {(0, 0, 0, 1): 2},
                       {(1, 1, 0, 0): 1}, {(0, 0, 3, 0): 1}]))
    for s in systems:
        bz = bezoutian(s)
        tn = critical_degree(s.ds)
        for t in range(tn + 2):
            bterms = bz.poly.terms if t <= tn else {}
            _assert_entry_rule(build_assembly(s, t, bez=bz).matrix, s, bterms)
            full = full_assembly(s, t, bez=bz)
            _assert_entry_rule(full, s, bterms)
            # the rectangular map has every multiplier and dual slot
            assert full.nrows - len(monomial_basis(s.n, t)) == sum(
                len(monomial_basis(s.n, tn - t - d)) for d in s.ds.degrees)
            assert full.ncols - len(monomial_basis(s.n, tn - t)) == sum(
                len(monomial_basis(s.n, t - d)) for d in s.ds.degrees)


def test_sign_normalization_frozen_values():
    # every degree system in {1,2,3}^n for n <= 3 and the n = 4 ones with
    # sum(d) <= 9, one sign per t = 0..tcrit+2; permuted tuples such as
    # (1, 1, 2) and (2, 1, 1) differ, so the memo must key on the order
    table = {
        (1,): "+++", (2,): "++++", (3,): "+++++", (1, 1): "+++",
        (1, 2): "--++", (1, 3): "+-+++", (2, 1): "++++", (2, 2): "---++",
        (2, 3): "+--+++", (3, 1): "+-+++", (3, 2): "----++", (3, 3): "+---+++",
        (1, 1, 1): "+++", (1, 1, 2): "++++", (1, 1, 3): "-+-++",
        (1, 2, 1): "--++", (1, 2, 2): "+++++", (1, 2, 3): "+--+++",
        (1, 3, 1): "-+-++", (1, 3, 2): "----++", (1, 3, 3): "+-+-+++",
        (2, 1, 1): "+++-", (2, 1, 2): "+++-+", (2, 1, 3): "-++-+-",
        (2, 2, 1): "+++++", (2, 2, 2): "+--+++", (2, 2, 3): "--+--++",
        (2, 3, 1): "-++-+-", (2, 3, 2): "--+---+", (2, 3, 3): "+----++-",
        (3, 1, 1): "++++-", (3, 1, 2): "-----+", (3, 1, 3): "-+++-+-",
        (3, 2, 1): "++++++", (3, 2, 2): "--+--++", (3, 2, 3): "-+--+-++",
        (3, 3, 1): "--+--+-", (3, 3, 2): "+----+-+", (3, 3, 3): "++-+-+++-",
        (1, 1, 1, 1): "+++", (1, 1, 1, 2): "--++", (1, 1, 1, 3): "---++",
        (1, 1, 2, 1): "++++", (1, 1, 2, 2): "+-+++", (1, 1, 2, 3): "+--+++",
        (1, 1, 3, 1): "---++", (1, 1, 3, 2): "----++", (1, 1, 3, 3): "+---+++",
        (1, 2, 1, 1): "--+-", (1, 2, 1, 2): "+-+-+", (1, 2, 1, 3): "-++-+-",
        (1, 2, 2, 1): "+-+++", (1, 2, 2, 2): "+--+++", (1, 2, 2, 3): "--+--++",
        (1, 2, 3, 1): "-++-+-", (1, 2, 3, 2): "--+---+",
        (1, 2, 3, 3): "-+--+-+-", (1, 3, 1, 1): "+-++-",
        (1, 3, 1, 2): "-----+", (1, 3, 1, 3): "-+-+-+-",
        (1, 3, 2, 1): "++++++", (1, 3, 2, 2): "--+--++",
        (1, 3, 2, 3): "+----+++", (1, 3, 3, 1): "-----+-",
        (1, 3, 3, 2): "-+--+--+", (2, 1, 1, 1): "++++", (2, 1, 1, 2): "+-+-+",
        (2, 1, 1, 3): "----++", (2, 1, 2, 1): "+-+++", (2, 1, 2, 2): "++++++",
        (2, 1, 2, 3): "-+++---", (2, 1, 3, 1): "----++",
        (2, 1, 3, 2): "-+++-+-", (2, 1, 3, 3): "+----+++",
        (2, 2, 1, 1): "+-+++", (2, 2, 1, 2): "+--+--", (2, 2, 1, 3): "+-+-+++",
        (2, 2, 2, 1): "-++-++", (2, 2, 2, 2): "-+-+-++",
        (2, 2, 2, 3): "+-++-+++", (2, 2, 3, 1): "+++++++",
        (2, 2, 3, 2): "--------", (2, 3, 1, 1): "-++---",
        (2, 3, 1, 2): "--+---+", (2, 3, 1, 3): "+----+--",
        (2, 3, 2, 1): "-+++-++", (2, 3, 2, 2): "++++++++",
        (2, 3, 3, 1): "+----+--", (3, 1, 1, 1): "+-+--",
        (3, 1, 1, 2): "-++--+", (3, 1, 1, 3): "-------",
        (3, 1, 2, 1): "+--+++", (3, 1, 2, 2): "-+++-++",
        (3, 1, 2, 3): "-+--+---", (3, 1, 3, 1): "-+-+---",
        (3, 1, 3, 2): "+----++-", (3, 2, 1, 1): "-++-+-",
        (3, 2, 1, 2): "-+++-+-", (3, 2, 1, 3): "--++--+-",
        (3, 2, 2, 1): "+-+-+++", (3, 2, 2, 2): "++--++++",
        (3, 2, 3, 1): "--++--+-", (3, 3, 1, 1): "-----+-",
        (3, 3, 1, 2): "------++", (3, 3, 2, 1): "++++++++",
    }
    assert len(table) == 39 + 66
    for degs, want in table.items():
        ds = DegreeSystem(degs)
        assert len(want) == critical_degree(ds) + 3
        got = "".join("+" if sign_normalization(ds, t) > 0 else "-"
                      for t in range(len(want)))
        assert got == want, degs


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


def _assert_same_entries(a, b):
    # equal values of one type: a bare 0 where Fraction(0) belongs is
    # a different entry
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x, y = a.entry(i, j), b.entry(i, j)
            assert type(x) is type(y) and x == y, (i, j)


def test_extraneous_minor_splits_into_the_two_sides():
    s = generic_system((1, 1, 2, 3))
    asm = build_assembly(s, 2)
    full = bareiss_det(asm.extraneous_matrix())
    left = bareiss_det(side_matrix(s, 2))
    right = bareiss_det(side_matrix(s, critical_degree(s.ds) - 2))
    assert full == left * right
    rng = random.Random(41)
    # (1,1,2,4) and (1,1,3,3) at t = 2 have both sides nonempty and of
    # odd size, the only cells here where the sign of the split shows
    systems = [random_system(rng, degs)
               for degs in [(2, 2), (1, 1, 2), (2, 2, 2), (1, 2, 3),
                            (1, 1, 2, 3), (1, 1, 2, 4), (1, 1, 3, 3)]]
    systems.append(PolySystem((1, 2, 2), [
        MPoly(3, "fraction",
              {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for e in monomial_basis(3, d)})
        for d in (1, 2, 2)]))
    systems += [generic_system((1, 1, 2)), generic_system((1, 2, 2))]
    odd_sign = 0
    for s in systems:
        tn = critical_degree(s.ds)
        for t in range(tn + 2):
            # the sides cut out of the assembly are E(t) and, in the dual
            # rows, E(tcrit - t) transposed, both read from the polynomials
            asm = build_assembly(s, t)
            e_rows, e_cols, dual_rows, dual_cols = _extraneous_labels(s.ds, t)
            e = submatrix(asm.matrix, e_rows, e_cols)
            e_dual = submatrix(asm.matrix, dual_rows, dual_cols)
            side = side_matrix(s, t)
            _assert_entry_rule(side, s, {})
            assert (e.row_labels, e.col_labels) == (side.row_labels,
                                                    side.col_labels)
            _assert_same_entries(e, side)
            _assert_same_entries(e_dual, side_matrix(s, tn - t).transpose())
            # the extraneous matrix is [[B, E], [E_dual, 0]]: moving the
            # E columns past the E_dual ones gives
            # det = (-1)^(|E| |E_dual|) det E det E_dual
            assert e.is_square() and e_dual.is_square()
            split = bareiss_det(e) * bareiss_det(e_dual)
            if e.nrows * e_dual.nrows % 2:
                split = -split
                odd_sign += 1
            full = bareiss_det(asm.extraneous_matrix())
            assert full == split
            sides = _extraneous_factor(s, t, {})
            if full == 0:
                assert sides is None
            else:
                assert sides[2] == full
                assert _quotient_at(asm, sides).det_ebb == full
    assert odd_sign == 2


def test_side_determinants_above_the_critical_degree():
    # for t > tcrit the dual side E(tcrit - t) is empty, so E(t) is the
    # whole extraneous matrix
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
        assert side_matrix(s, -1).nrows == 0
        assert bareiss_det(side_matrix(s, t)) == bareiss_det(
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


# the last four have an odd degree product, where odd permutations
# flip the sign of the resultant
SIGN_SYSTEM_DEGREES = [(2, 3), (3, 2), (1, 2, 2), (2, 1, 2), (1, 1, 2, 3),
                       (1, 3), (1, 1, 3), (1, 3, 3), (1, 1, 1, 1)]


def dense_system(rng, degrees):
    """Every coefficient nonzero, so no reordering or relabeling loses
    a leading coefficient."""
    n = len(degrees)
    return PolySystem(degrees, [
        MPoly(n, "int", {e: rng.choice((-1, 1)) * rng.randint(1, 9)
                         for e in monomial_basis(n, d)})
        for d in degrees])


def _first_quotient(s, bez):
    """The quotient at the first candidate degree of s whose extraneous
    sides are both nonsingular, assembled with the given Bezoutian."""
    memo = {}
    for u in _candidate_ts(s.ds, None):
        sides = _extraneous_factor(s, u, memo)
        if sides is not None:
            return _quotient_at(build_assembly(s, u, bez=bez), sides)
    return None


def test_closed_form_permutation_sign():
    # Res(f_sigma o tau) = (sgn sigma * sgn tau)^(d_1...d_n) Res(f) for
    # every polynomial reordering sigma and variable relabeling tau.
    # Each tau-relabeled system gets its own Bezoutian; the reorderings
    # of it reuse that one with sign sgn sigma, as the fallback does
    rng = random.Random(39)
    for degs in SIGN_SYSTEM_DEGREES:
        s = dense_system(rng, degs)
        n = len(degs)
        dprod = 1
        for d in degs:
            dprod *= d
        want = resultant_specialized(s).value
        assert want != 0
        for vp in itertools.permutations(range(n)):
            identity = list(range(n))
            relabeled = _permuted_system(s, identity, list(vp))
            bz = bezoutian(relabeled)
            for pp in itertools.permutations(range(n)):
                eps = (permutation_sign(pp) * permutation_sign(vp)) ** dprod
                p = _permuted_system(s, list(pp), list(vp))
                pbez = Bezoutian(p, bz.poly.scale(permutation_sign(pp)))
                out = _first_quotient(p, pbez)
                assert out.value * eps == want, (degs, pp, vp)
            # and once more without any reuse, through resultant_specialized
            p = _permuted_system(s, identity[::-1], list(vp))
            eps = (permutation_sign(identity[::-1])
                   * permutation_sign(vp)) ** dprod
            assert resultant_specialized(p).value * eps == want


def test_polynomial_reordering_flips_the_bezoutian_by_its_sign():
    rng = random.Random(40)
    for degs in SIGN_SYSTEM_DEGREES:
        s = dense_system(rng, degs)
        n = len(degs)
        terms = bezoutian(s).poly.terms
        for pp in itertools.permutations(range(n)):
            sgn = permutation_sign(pp)
            p = _permuted_system(s, list(pp), list(range(n)))
            assert bezoutian(p).poly.terms == {e: sgn * c
                                               for e, c in terms.items()}


# (value, t, sigma, det_m, det_ebb, det_e, det_e_dual) of fallback
# systems, taken from the code that calibrated the permutation sign on
# random probe systems and rebuilt every Bezoutian.  Every one of them
# is rescued by swapping f_1 and f_2; the degree products of the last
# two systems are odd, so the swap flips the sign of the resultant.
FROZEN_FALLBACK = [
    ("zero leading coefficient", None,
     (1368016, 1, -1, -1368016, 1, 1, 1)),
    ("zero leading coefficient", 2,
     (1368016, 2, -1, -1368016, 1, 1, 1)),
    ("zero leading coefficient", 4,
     (1368016, 4, 1, 110809296, 81, 81, 1)),
    ("sparse split (1,1,2,3)", None,
     (5030989318992, 1, -1, -5030989318992, 1, 1, 1)),
    ("odd (1,1,3)", 0, (610, 0, -1, 610, 1, 1, 1)),
    ("odd (1,1,3)", 3, (610, 3, 1, -610, 1, 1, 1)),
    ("odd (1,3,3)", 0, (91125, 0, -1, 182250, 2, 1, 2)),
    ("odd (1,3,3)", 5, (91125, 5, 1, -729000, 8, 8, 1)),
]


def _fallback_systems():
    f1 = {(0, 1, 0, 0): 3, (0, 0, 1, 0): 1}
    f2 = {(1, 0, 0, 0): 1, (0, 0, 0, 1): 2}
    f3 = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 1, 1): 5}
    f4 = {(3, 0, 0, 0): 2, (0, 0, 3, 0): 1, (1, 1, 1, 0): 1}
    # a product of linear forms with the supports of the sparse
    # benchmark cell: f_1 omits X1, so no canonical minor survives
    g1 = {(0, 1, 0, 0): 2, (0, 0, 1, 0): -3, (0, 0, 0, 1): 5}
    g2 = {(1, 0, 0, 0): 1, (0, 0, 1, 0): 4, (0, 0, 0, 1): -2}
    g3 = {(0, 0, 0, 2): 5, (0, 0, 1, 1): -5, (0, 1, 0, 1): -22,
          (0, 1, 1, 0): 7, (0, 2, 0, 0): 21, (1, 0, 0, 1): -2,
          (1, 0, 1, 0): 2, (1, 1, 0, 0): 6}
    g4 = {(0, 0, 1, 2): -12, (0, 0, 2, 1): 13, (0, 0, 3, 0): -3,
          (0, 1, 0, 2): 60, (0, 1, 1, 1): -65, (0, 1, 2, 0): 15,
          (1, 0, 0, 2): 24, (1, 0, 1, 1): 1, (1, 0, 2, 0): -13,
          (1, 1, 0, 1): -135, (1, 1, 1, 0): 95, (2, 0, 0, 1): -54,
          (2, 0, 1, 0): 32, (2, 1, 0, 0): 30, (3, 0, 0, 0): 12}
    return {
        "zero leading coefficient":
            system_from_terms((1, 1, 2, 3), [f1, f2, f3, f4]),
        "sparse split (1,1,2,3)":
            system_from_terms((1, 1, 2, 3), [g1, g2, g3, g4]),
        "odd (1,1,3)": system_from_terms((1, 1, 3), [
            {(0, 1, 0): 2, (0, 0, 1): -3}, {(1, 0, 0): 1, (0, 0, 1): 4},
            {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): -1, (1, 1, 1): 3}]),
        "odd (1,3,3)": system_from_terms((1, 3, 3), [
            {(0, 1, 0): 2, (0, 0, 1): -3},
            {(3, 0, 0): 1, (0, 0, 3): 4, (1, 2, 0): 1},
            {(3, 0, 0): 2, (0, 3, 0): 1, (0, 0, 3): -1, (1, 1, 1): 3}]),
    }


def test_fallback_provenance_is_frozen():
    systems = _fallback_systems()
    for name, t, want in FROZEN_FALLBACK:
        s = systems[name]
        # no canonical candidate degree has a nonzero extraneous minor
        for u in _candidate_ts(s.ds, t):
            assert bareiss_det(build_assembly(s, u).extraneous_matrix()) == 0
            assert _extraneous_factor(s, u, {}) is None
        out = resultant_specialized(s, t)
        got = (out.value, out.t, out.sigma, out.det_m, out.det_ebb,
               out.det_e, out.det_e_dual)
        assert got == want, name
        assert all(type(x) is int for x in got)


def test_only_the_rescuing_degree_is_assembled(monkeypatch):
    # singular sides are skipped before anything is built, so a fallback
    # call builds one assembly and at most one Bezoutian, as does a
    # system whose first candidate degree succeeds
    calls = {"build_assembly": 0, "bezoutian": 0}

    def counted(name):
        fn = getattr(assembly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(assembly, name, counted(name))
    systems = _fallback_systems()
    cases = [(systems[name], t) for name, t, _ in FROZEN_FALLBACK]
    cases.append((dense_system(random.Random(42), (1, 2, 2)), None))
    for s, t in cases:
        for name in calls:
            calls[name] = 0
        resultant_specialized(s, t)
        assert calls["build_assembly"] == 1, (s.ds, t)
        assert calls["bezoutian"] <= 1, (s.ds, t)


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
