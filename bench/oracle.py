"""Expected values computed apart from macres.

Split systems: when every f_i is a product of d_i linear forms
L_i1 ... L_id_i, the resultant is the product over all choices
(k_1, ..., k_n) of det(L_1k_1, ..., L_nk_n), with the forms as rows.
The pure power system (every form of f_i equal to X_i) gives +1, which
is the sign convention macres normalizes to.  The determinants here use
this module's own Fraction elimination, not macres.linalg.

Symbolic outputs are checked by properties a resultant must have; see
check_symbolic.
"""

import itertools
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output of the program disagrees with the oracle."""


def det(rows):
    """Determinant of a small square matrix of ints or Fractions, by
    Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i]), None)
        if p is None:
            return 0
        if p != i:
            m[i], m[p] = m[p], m[i]
            out = -out
        piv = m[i][i]
        out *= piv
        for r in range(i + 1, n):
            f = m[r][i] / piv
            if f:
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
    return out.numerator if out.denominator == 1 else out


def split_resultant(forms):
    """Resultant of the system whose i-th polynomial is the product of
    the linear forms forms[i] (each a coefficient list of length n)."""
    value = 1
    for choice in itertools.product(*forms):
        value *= det(choice)
        if not value:
            return 0
    return value


def expand(forms, n):
    """Coefficient map {exponent tuple: coefficient} of a product of
    linear forms in n variables."""
    terms = {(0,) * n: 1}
    for form in forms:
        out = {}
        for e, c in terms.items():
            for k, a in enumerate(form):
                if a:
                    e2 = e[:k] + (e[k] + 1,) + e[k + 1:]
                    out[e2] = out.get(e2, 0) + c * a
        terms = {e: c for e, c in out.items() if c}
    return terms


def canonical_monomials(n, d):
    """Degree-d exponent vectors in n variables in macres' canonical
    order (descending lexicographic within one degree); a_i_k names the
    coefficient of the k-th of them in f_i."""
    out = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    out.sort(reverse=True)
    return out


def parameter_values(degrees, forms, names):
    """Values of the parameters a_i_k when the generic system is
    specialized to the split system given by forms."""
    n = len(degrees)
    value_of = {}
    for i, (d, fs) in enumerate(zip(degrees, forms), start=1):
        terms = expand(fs, n)
        for k, e in enumerate(canonical_monomials(n, d), start=1):
            value_of["a_%d_%d" % (i, k)] = terms.get(e, 0)
    return [value_of[s] for s in names]


def check_symbolic(value, degrees, ring, reference, point_forms, expected):
    """Raise CheckFailed unless value (a ParamPoly) could be the generic
    resultant for these degrees:

    - it equals reference, the value another t gave for the same cell;
    - in the parameters of block i it is homogeneous of degree
      prod_{j != i} d_j;
    - the monomial prod_i a_{i,k_i}^{prod_{j != i} d_j}, with X_i^{d_i}
      the k_i-th monomial of degree d_i, has coefficient +1;
    - specialized to the split system point_forms it equals expected,
      the closed form.
    """
    n = len(degrees)
    if reference is not None and value != reference:
        raise CheckFailed("value differs from the one another t gave")
    total = 1
    for d in degrees:
        total *= d
    want = [total // d for d in degrees]
    block = [[] for _ in range(n)]
    for idx, name in enumerate(ring.names):
        block[int(name.split("_")[1]) - 1].append(idx)
    for key in value.terms:
        exps = ring.unpack(key)
        for i in range(n):
            if sum(exps[k] for k in block[i]) != want[i]:
                raise CheckFailed("not homogeneous of degree %d in block %d"
                                  % (want[i], i + 1))
    pure = [0] * ring.nparams
    for i, d in enumerate(degrees):
        power = tuple(d if k == i else 0 for k in range(n))
        rank = canonical_monomials(n, d).index(power) + 1
        pure[ring.index["a_%d_%d" % (i + 1, rank)]] = want[i]
    if value.terms.get(ring.pack(pure), 0) != 1:
        raise CheckFailed("pure-power monomial does not have coefficient +1")
    got = value.evaluate(parameter_values(degrees, point_forms, ring.names))
    if got != expected:
        raise CheckFailed("split specialization gives %s, closed form %s"
                          % (got, expected))


def _must_reject(fn, what, needle):
    try:
        fn()
    except CheckFailed as exc:
        if needle in str(exc):
            return
        raise CheckFailed("self-test: %s was rejected for another reason: %s"
                          % (what, exc)) from None
    raise CheckFailed("self-test: %s was accepted" % what)


def self_test():
    """Hand-worked cases for the oracle, and one mutant per symbolic
    check that the check must reject.  Raises CheckFailed on failure."""
    # pure power system X^2, Y^3, Z: every chosen determinant is det(I)
    if split_resultant([[[1, 0, 0]] * 2, [[0, 1, 0]] * 3, [[0, 0, 1]]]) != 1:
        raise CheckFailed("self-test: pure power system is not +1")

    # binary (2,1): f1 = (x + 2y)(3x - y) = 3x^2 + 5xy - 2y^2, f2 = 2x + 5y.
    # Sylvester: det [[3, 5, -2], [2, 5, 0], [0, 2, 5]] = 75 - 50 - 8 = 17.
    f1 = expand([[1, 2], [3, -1]], 2)
    p = [f1.get((2, 0), 0), f1.get((1, 1), 0), f1.get((0, 2), 0)]
    sylvester = [p, [2, 5, 0], [0, 2, 5]]
    if p != [3, 5, -2] or det(sylvester) != 17 \
            or split_resultant([[[1, 2], [3, -1]], [[2, 5]]]) != 17:
        raise CheckFailed("self-test: binary Sylvester case is not 17")

    # (1,1,2): f1 = x + 2z, f2 = y - z meet at the Cramer point
    # (-2, 1, 1); f3 = (x + z)(y + 3z) is (-1)(4) = -4 there.
    l1, l2 = [1, 0, 2], [0, 1, -1]
    point = [det([l1[1:], l2[1:]]),
             -det([[l1[0], l1[2]], [l2[0], l2[2]]]),
             det([l1[:2], l2[:2]])]
    f3 = expand([[1, 0, 1], [0, 1, 3]], 3)
    at_point = sum(c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
                   for e, c in f3.items())
    if point != [-2, 1, 1] or at_point != -4 \
            or split_resultant([[l1], [l2], [[1, 0, 1], [0, 1, 3]]]) != -4:
        raise CheckFailed("self-test: (1,1,2) Cramer case is not -4")

    # symbolic checks on the generic (1,1) resultant a11*a22 - a12*a21
    from macres.bezoutian import generic_system

    ring = generic_system((1, 1)).domain
    a11, a12, a21, a22 = (ring.gen(s) for s in ("a_1_1", "a_1_2", "a_2_1", "a_2_2"))
    good = a11 * a22 - a12 * a21
    forms = [[[2, 3]], [[1, -4]]]
    expected = split_resultant(forms)

    def check(v, ref=good):
        check_symbolic(v, (1, 1), ring, ref, forms, expected)

    check(good)
    _must_reject(lambda: check(good, ref=-good), "a value differing across t",
                 "another t")
    _must_reject(lambda: check(good + 1, ref=None), "a non-homogeneous value",
                 "homogeneous")
    _must_reject(lambda: check(-good, ref=None), "the negated value", "+1")
    _must_reject(lambda: check(good + a12 * a21 * 2, ref=None),
                 "a perturbed homogeneous value", "closed form")
