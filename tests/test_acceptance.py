"""Acceptance suite: ten criteria, one test each, all exact equality.

Criterion 5 contains a measured infeasibility and criterion 10 contains
a stated identity that is off by one; both tests run every part that
can run, then fail with the blocking analysis instead of being
weakened.  Everything else must pass.
"""

import itertools
import json
import random
import signal
from fractions import Fraction

import pytest

from macres.bezoutian import (
    PolySystem,
    bezoutian,
    delta_slices,
    generic_system,
    system_from_terms,
)
from macres.cli import main as cli_main
from macres.combinat import (
    DegreeSystem,
    binom,
    critical_degree,
    et_rows,
    hilbert_function,
    minimal_t,
    monomial_basis,
    reduced_basis,
    rho_size,
)
from macres.corering import MPoly, scalar_is_zero
from macres.linalg import LabeledMatrix, bareiss_det
from macres.macaulay import (
    DegenerateSystemError,
    build_assembly,
    resultant_generic,
    resultant_specialized,
)
from macres.macaulay.complexes import exactness_check
from macres.macaulay.formulas import (
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


def elimination_oracle_112(ring):
    """Resultant of the generic (1,1,2) system, computed by hand: the
    two linear forms meet in one projective point by Cramer, and the
    quadric is evaluated there."""
    a = [ring.gen("a_1_%d" % k) for k in (1, 2, 3)]
    b = [ring.gen("a_2_%d" % k) for k in (1, 2, 3)]
    cs = [ring.gen("a_3_%d" % k) for k in range(1, 7)]
    m1 = a[1] * b[2] - a[2] * b[1]
    m2 = a[0] * b[2] - a[2] * b[0]
    m3 = a[0] * b[1] - a[1] * b[0]
    point = [m1, -m2, m3]
    oracle = ring.zero()
    for cv, e in zip(cs, monomial_basis(3, 2)):
        term = cv
        for x, k in zip(point, e):
            term = term * x ** k
        oracle = oracle + term
    return oracle


def test_criterion_01_worked_example_one_one_two():
    s = generic_system((1, 1, 2))
    ring = s.domain
    a1 = ring.gen("a_1_1")
    oracle = elimination_oracle_112(ring)
    out2 = resultant_generic(s, 2)
    assert out2.det_ebb == a1
    assert out2.det_m == a1 * oracle
    out0 = resultant_generic(s, 0)
    assert out0.det_m == oracle or out0.det_m == -oracle
    assert out0.value == out2.value
    for t in (0, 1, 2):
        assert resultant_generic(s, t).value == oracle


def test_criterion_02_worked_example_one_one_two_three():
    s = generic_system((1, 1, 2, 3))
    m2 = build_assembly(s, 2).matrix
    assert m2.nrows == m2.ncols == 12
    assert [l[0] for l in m2.row_labels] == ["mono"] * 10 + ["dual"] * 2
    assert [l[0] for l in m2.col_labels] == ["slice"] * 4 + ["mult"] * 8
    for i in range(10, 12):
        for j in range(4, 12):
            assert m2.entry(i, j).is_zero()

    ds = DegreeSystem((1, 1, 2, 3))
    asm4_shape = build_assembly(s, 4).matrix
    assert asm4_shape.nrows == asm4_shape.ncols == 35
    assert len(list(et_rows(ds, 4))) == 18

    rng = random.Random(777)
    accepted = 0
    trials = 0
    while accepted < 20 and trials < 80:
        trials += 1
        asg = {nm: rng.randint(-5, 5) for nm in s.domain.names}
        inst = s.specialized(asg)
        asm4 = build_assembly(inst, 4)
        e4 = bareiss_det(asm4.e_matrix()) * bareiss_det(asm4.e_dual_matrix())
        if e4 == 0:
            continue
        det4 = bareiss_det(asm4.matrix)
        res, rem = divmod(det4, e4)
        assert rem == 0
        det2 = bareiss_det(build_assembly(inst, 2).matrix)
        assert det2 == -asg["a_1_1"] * res
        accepted += 1
    assert accepted >= 20


def test_criterion_03_bezoutian_slices():
    s = generic_system((1, 1, 2))
    ring = s.domain
    a = {k: ring.gen("a_1_%d" % k) for k in (1, 2, 3)}
    b = {k: ring.gen("a_2_%d" % k) for k in (1, 2, 3)}
    c = {k: ring.gen("a_3_%d" % k) for k in range(1, 7)}

    def bracket(i, j):
        return a[i] * b[j] - a[j] * b[i]

    slices = delta_slices(bezoutian(s), 0)
    expected = {
        (1, 0, 0): (c[1] * bracket(2, 3) - c[2] * bracket(1, 3)
                    + c[3] * bracket(1, 2)),
        (0, 1, 0): c[5] * bracket(1, 2) - c[4] * bracket(1, 3),
        (0, 0, 1): c[6] * bracket(1, 2),
    }
    assert set(slices) == set(expected)
    for g, poly in expected.items():
        assert slices[g] == MPoly(3, ring, {(0, 0, 0): poly})


SIZE_TABLE = [
    ((10, 70), 70, 80),
    ((150, 200), 200, 350),
    ((1, 1, 2), 3, 6),
    ((1, 2, 5), 14, 28),
    ((2, 2, 6), 21, 45),
    ((1, 1, 2, 3), 12, 35),
    ((2, 2, 5, 5), 94, 364),
    ((2, 3, 4, 5), 90, 364),
    ((4, 4, 4, 4, 4), 670, 4845),
    ((2, 3, 3, 3, 3, 3, 3), 2373, 38760),
    ((3,) * 10, 175803, 14307150),
    ((2,) * 20, 39875264, 131282408400),
]


def test_criterion_04_size_table_through_the_cli(capsys):
    for degs, smallest, classical in SIZE_TABLE:
        assert cli_main(["sizes"] + [str(d) for d in degs]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["minimal_size"] == smallest
        assert row["classical_size"] == classical


class _Timeout(Exception):
    pass


def _attempt_with_alarm(fn, seconds):
    def handler(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, handler)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_criterion_05_symbolic_sweep_small_degrees():
    # every degree system with n <= 3 and d_i <= 3, every degree t from
    # 0 through the classical one: nonzero extraneous determinant,
    # exact division, quotient independent of t
    cells = []
    for n in (1, 2, 3):
        cells.extend(itertools.combinations_with_replacement((1, 2, 3), n))
    feasible = [c for c in cells if c not in
                {(1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)}]
    for degs in feasible:
        s = generic_system(degs)
        tn = critical_degree(s.ds)
        values = []
        for t in range(tn + 2):
            out = resultant_generic(s, t, max_symbolic_size=10 ** 9)
            assert not scalar_is_zero(out.det_ebb)
            assert out.det_ebb * out.value * out.sigma == out.det_m
            values.append(out.value)
        assert all(v == values[0] for v in values), degs

    # the five remaining cells: attempt each briefly and report the
    # measured blocker honestly instead of weakening the sweep
    blocked = []
    for degs in [(1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]:
        s = generic_system(degs)
        try:
            _attempt_with_alarm(
                lambda: resultant_generic(s, minimal_t(s.ds),
                                          max_symbolic_size=10 ** 9), 3)
        except _Timeout:
            blocked.append(degs)
    if blocked:
        pytest.fail(
            "the 14 feasible cells all passed (nonzero extraneous "
            "determinant, exact division, t-independent quotient), but "
            "the full sweep over n <= 3, d_i <= 3 is blocked: the cells "
            "%s did not finish one symbolic determinant within 3s each "
            "here.  With division-free minor expansion, (2,2,2) and "
            "(1,3,3) finish their minimal degree in under 0.5s (21894 "
            "and 25312 terms), but (2,2,3) spends about 18-21s on one "
            "8x8 determinant whose value has 888121 terms, and (2,3,3) "
            "and (3,3,3) (11x11 and 13x13 at their minimal degree) did "
            "not finish within 40s in a dedicated run.  The size of "
            "these exact resultants, not the elimination, is what no "
            "test budget covers; reported as a measured blocker."
            % (blocked,))


def test_criterion_06_degree_law():
    for degs in [(1, 2), (2, 2), (1, 1, 2)]:
        s = generic_system(degs)
        ring = s.domain
        value = resultant_generic(s).value
        prod = 1
        for d in degs:
            prod *= d
        for i in range(len(degs)):
            want = prod // degs[i]
            block = {ring.index[nm] for nm in s.param_blocks[i]}
            for key in value.terms:
                exps = ring.unpack(key)
                assert sum(exps[k] for k in block) == want


def test_criterion_07_cross_formula_agreement():
    rng = random.Random(4242)

    def run_until(count, make, check):
        done = 0
        attempts = 0
        while done < count and attempts < count * 5:
            attempts += 1
            s = make()
            try:
                if check(s):
                    done += 1
            except DegenerateSystemError:
                continue
        assert done >= count, "only %d of %d comparisons ran" % (done, count)

    def univariate(s):
        tn = critical_degree(s.ds)
        small = univariate_formulas(s, tn // 2).value
        classical = univariate_formulas(s, tn + 1).value
        assert small == classical
        return True

    run_until(50, lambda: random_system(
        rng, (rng.randint(1, 4), rng.randint(1, 4))), univariate)

    def dixon(s):
        q = resultant_specialized(s).value
        assert dixon_resultant(s).value == q
        return True

    run_until(50, lambda: random_system(rng, (2, 2, 2)), dixon)

    def ternary(s):
        q = resultant_specialized(s, 1).value
        assert ternary_quadric_sylvester(s).value == q
        return True

    run_until(50, lambda: random_system(rng, (2, 2, 2)), ternary)

    shapes = [(1, 1, 2), (2, 2, 2), (2, 3)]

    def jac(s):
        q = resultant_specialized(s).value
        assert jacobian_variant(s).value == q
        return True

    run_until(50, lambda: random_system(rng, shapes[rng.randint(0, 2)]), jac)


def test_criterion_08_gcp_worked_pair():
    s = PolySystem((2, 2), [MPoly(2, "int", {(1, 1): 1}),
                            MPoly(2, "int", {(2, 0): 1})])
    coeffs = gcp(s, 3)
    assert coeffs[0] == 0

    # independent oracle: perturb each polynomial by -s times the pure
    # power of its own variable, take the classical 4x4 two-form
    # resultant determinant at five sample values, and interpolate
    def sylvester22(p, q):
        grid = [[p[0], p[1], p[2], 0], [0, p[0], p[1], p[2]],
                [q[0], q[1], q[2], 0], [0, q[0], q[1], q[2]]]
        return bareiss_det(
            LabeledMatrix(list(range(4)), list(range(4)), grid, "fraction"))

    samples = []
    for s0 in (1, 2, 3, 4, 5):
        p = [Fraction(-s0), Fraction(1), Fraction(0)]
        q = [Fraction(1), Fraction(0), Fraction(-s0)]
        samples.append((Fraction(s0), sylvester22(p, q)))

    def lagrange(points):
        k = len(points)
        out = [Fraction(0)] * k
        for i, (xi, yi) in enumerate(points):
            num = [Fraction(1)]
            den = Fraction(1)
            for j, (xj, _) in enumerate(points):
                if j == i:
                    continue
                new = [Fraction(0)] * (len(num) + 1)
                for m, c in enumerate(num):
                    new[m] += c * (-xj)
                    new[m + 1] += c
                num = new
                den *= xi - xj
            for m in range(k):
                out[m] += yi * num[m] / den
        return out

    interpolated = lagrange(samples)
    assert interpolated == [Fraction(c) for c in coeffs]
    lowest = next(c for c in coeffs if c != 0)
    lowest_oracle = next(c for c in interpolated if c != 0)
    assert Fraction(lowest) == lowest_oracle


def test_criterion_09_complex_exactness():
    rng = random.Random(909)
    for degs in [(1, 1, 2), (1, 1, 1)]:
        tn = critical_degree(DegreeSystem(degs))
        seen = 0
        for _ in range(15):
            s = random_system(rng, degs)
            try:
                res = resultant_specialized(s).value
            except DegenerateSystemError:
                continue
            if res == 0:
                continue
            seen += 1
            for t in range(tn + 1):
                assert exactness_check(s, t).is_exact
        assert seen >= 8

    withroot = system_from_terms(
        (1, 1, 2),
        [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(1, 0, 1): 1, (0, 2, 0): 3}])
    assert resultant_specialized(withroot).value == 0
    broken = [t for t in range(2)
              if not exactness_check(withroot, t).is_exact]
    assert broken


def test_criterion_10_combinatorial_properties():
    cells = []
    for n in (1, 2, 3, 4, 5):
        cells.extend(itertools.combinations_with_replacement((1, 2, 3, 4),
                                                             n))
    off_by_one = []
    for degs in cells:
        ds = DegreeSystem(degs)
        n = ds.n
        tn = critical_degree(ds)
        for t in range(tn + 1):
            assert hilbert_function(ds, t) == hilbert_function(ds, tn - t)
            assert rho_size(ds, t) == rho_size(ds, tn - t)
            assert len(list(reduced_basis(ds, t))) == hilbert_function(ds, t)
        for t in range(tn // 2):
            assert hilbert_function(ds, t) <= hilbert_function(ds, t + 1)
        if rho_size(ds, tn) != binom(n + tn - 1, n - 1) - 1:
            off_by_one.append(degs)
    if off_by_one:
        pytest.fail(
            "the stated identity rho(t_n) = C(n+t_n-1, n-1) - 1 fails at "
            "%d of %d cells (every one of them); the measured value is "
            "C(n+t_n-1, n-1) exactly, with no subtraction: at the "
            "critical degree the dual summand i(0) vanishes, so the "
            "matrix size is the full monomial count.  Example: degrees "
            "(1, 1) give t_n = 0 and a 1x1 matrix, not 0x0.  The "
            "symmetry, monotonicity, and reduced-count clauses above "
            "all passed exhaustively for n <= 5, d_i <= 4."
            % (len(off_by_one), len(cells)))
