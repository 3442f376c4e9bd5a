"""Labeled matrices and fraction-free kernels."""

import itertools
import random
from fractions import Fraction

import pytest

from macres.corering import ParamRing
from macres.linalg import (
    LabeledMatrix,
    bareiss_det,
    berkowitz_charpoly,
    grid_mul,
    minor_det,
    permutation_sign,
    rank_over_fractions,
    submatrix,
)


def square(grid, domain="int"):
    n = len(grid)
    labels = list(range(n))
    return LabeledMatrix(labels, labels, grid, domain)


def cofactor_det(grid, zero, one):
    """Textbook Laplace expansion, the independent oracle."""
    n = len(grid)
    if n == 0:
        return one
    if n == 1:
        return grid[0][0]
    total = zero
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        term = grid[0][j] * cofactor_det(minor, zero, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_bareiss_matches_cofactor_on_random_integer_matrices():
    rng = random.Random(11)
    for n in range(6):
        for _ in range(8):
            grid = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(square(grid)) == cofactor_det(grid, 0, 1)


def test_bareiss_big_integers_mod_primes():
    # cross-check a determinant with large intermediate growth by
    # reducing modulo a few primes
    rng = random.Random(12)
    grid = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(8)]
            for _ in range(8)]
    d = bareiss_det(square(grid))
    for p in (10007, 2 ** 31 - 1, 999983):
        dm = _det_mod(grid, p)
        assert d % p == dm


def _det_mod(grid, p):
    g = [[x % p for x in row] for row in grid]
    n = len(g)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if g[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            g[c], g[piv] = g[piv], g[c]
            det = -det % p
        det = det * g[c][c] % p
        inv = pow(g[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = g[r][c] * inv % p
            if f:
                g[r] = [(a - f * b) % p for a, b in zip(g[r], g[c])]
    return det % p


def test_bareiss_symbolic_and_rational():
    ring = ParamRing(["a", "b", "c", "d"])
    a, b, c, d = (ring.gen(s) for s in "abcd")
    m = LabeledMatrix(["r1", "r2"], ["c1", "c2"], [[a, b], [c, d]], ring)
    assert bareiss_det(m) == a * d - b * c
    f = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(4)]]
    m2 = square(f, "fraction")
    assert bareiss_det(m2) == Fraction(1, 2) * 4 - Fraction(1, 3) * Fraction(1, 5)


def test_permutation_sign_matches_inversion_parity():
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            assert permutation_sign(perm) == (-1) ** inv


def test_charpoly_frozen_triangular_case():
    m = LabeledMatrix(["r1", "r2"], ["c1", "c2"], [[2, 1], [0, 3]], "int")
    assert berkowitz_charpoly(m) == [1, -5, 6]
    assert bareiss_det(m) == 6


def test_charpoly_against_symbolic_determinant():
    # det(s*I - M) expanded over a one-parameter ring is the oracle
    rng = random.Random(13)
    ring = ParamRing(["s"])
    s = ring.gen("s")
    for n in (1, 2, 3, 4):
        grid = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        coeffs = berkowitz_charpoly(square(grid))
        sym = [[(s if i == j else ring.zero()) - ring.const(grid[i][j])
                for j in range(n)] for i in range(n)]
        det = bareiss_det(square(sym, ring))
        oracle = ring.zero()
        for k, c in enumerate(coeffs):
            oracle = oracle + ring.const(c) * s ** (n - k)
        assert det == oracle


def test_cayley_hamilton():
    rng = random.Random(14)
    for _ in range(5):
        n = 3
        grid = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        coeffs = berkowitz_charpoly(square(grid))
        acc = [[0] * n for _ in range(n)]
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for c in reversed(coeffs):
            acc = [[acc[i][j] + c * power[i][j] for j in range(n)]
                   for i in range(n)]
            power = grid_mul(power, grid, "int")
        assert acc == [[0] * n for _ in range(n)]


def test_rank_on_matrices_of_known_rank():
    rng = random.Random(15)
    for m, n, r in [(3, 3, 1), (4, 5, 2), (5, 4, 3), (4, 4, 4), (3, 5, 0)]:
        left = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        left += [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m - r)]
        right = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for row in right:
            row.extend(rng.randint(-3, 3) for _ in range(n - r))
        grid = grid_mul(left, right, "int") if r else [[0] * n
                                                       for _ in range(m)]
        mat = LabeledMatrix(list(range(m)), list(range(n)), grid, "int")
        assert rank_over_fractions(mat) == r


def test_submatrix_keeps_parent_order():
    m = LabeledMatrix(["r1", "r2", "r3"], ["c1", "c2", "c3"],
                      [[1, 2, 3], [4, 5, 6], [7, 8, 9]], "int")
    s = submatrix(m, ["r3", "r1"], ["c2", "c1"])
    assert s.row_labels == ["r1", "r3"]
    assert s.col_labels == ["c1", "c2"]
    assert s.entries == [[1, 2], [7, 8]]


def test_empty_determinant_is_one():
    m = LabeledMatrix([], [], [], "int")
    assert bareiss_det(m) == 1
    assert berkowitz_charpoly(m) == [1]


def test_labeled_matrix_validation():
    with pytest.raises(ValueError):
        LabeledMatrix(["r"], ["c1", "c2"], [[1]], "int")
    m = LabeledMatrix(["r"], ["c"], [[5]], "int")
    assert m.entry(0, 0) == 5
    with pytest.raises(KeyError):
        m.row_index("missing")


def test_minor_det_edge_cases():
    ring = ParamRing(["a", "b"])
    a, b = ring.gen("a"), ring.gen("b")
    one = ring.one()
    assert minor_det([], one) == one
    # a repeated row, and a row that is a multiple of another
    assert minor_det([[a, b], [a, b]], one).is_zero()
    assert minor_det([[a, b, one], [a * b, b * b, b], [one, a, b]],
                     one).is_zero()


def test_minor_det_of_permutation_grids_is_the_sign():
    ring = ParamRing(["a"])
    one, zero = ring.one(), ring.zero()
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            grid = [[one if perm[i] == j else zero for j in range(n)]
                    for i in range(n)]
            assert minor_det(grid, one) == permutation_sign(perm)


def test_minor_det_matches_bareiss_at_integer_points():
    rng = random.Random(16)
    ring = ParamRing(["a", "b", "c"])
    gens = [ring.gen(i) for i in range(3)]
    for n in range(1, 6):
        for _ in range(4):
            grid = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    p = ring.const(rng.randint(-3, 3))
                    if rng.random() < 0.6:
                        g = rng.choice(gens)
                        p = p + ring.const(rng.randint(-3, 3)) * g
                    row.append(p)
                grid.append(row)
            det = minor_det(grid, ring.one())
            for _ in range(3):
                point = [rng.randint(-4, 4) for _ in range(3)]
                ints = [[p.evaluate(point) for p in row] for row in grid]
                assert det.evaluate(point) == bareiss_det(square(ints))
