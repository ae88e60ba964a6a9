import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine_rank, solve_rational as gauss_jordan_solve
from regtriang.linalg import (
    affine_dependence,
    barycentric,
    det_int,
    hnf,
    integer_kernel,
    lattice_length,
    normalized_simplex_volume,
    primitive,
    primitive_direction,
    rank_int,
    rank_rows,
    saturation_basis,
    scale_to_integers,
    solve_integer_saturated,
    solve_rational,
)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return m


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_det_small():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def cofactor(m):
    """Determinant by cofactor expansion along the first row."""
    total = 0 if m else 1
    for j in range(len(m)):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor(sub)
    return total


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == cofactor(m)


def test_det_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        u = random_unimodular(rng, n)
        assert abs(det_int(mat_mul(u, m))) == abs(det_int(m))


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3, 0, 9)) == (-1, 0, 3)


def test_primitive_direction():
    assert primitive_direction((0, -2, 4)) == (0, 1, -2)
    assert primitive_direction((3, -6)) == (1, -2)
    with pytest.raises(ValueError):
        primitive_direction((0, 0))


def test_rank():
    assert rank_rows([[1, 2], [2, 4]]) == 1
    assert rank_rows([[1, 0], [0, 1]]) == 2
    assert rank_rows([[0, 0]]) == 0
    assert rank_rows([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_hnf_canonical_for_lattice():
    # two bases of the same lattice must yield the same HNF
    rng = random.Random(3)
    for _ in range(40):
        k, d = rng.randint(1, 3), rng.randint(2, 5)
        base = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(k)]
        if rank_rows(base) < k:
            continue
        u = random_unimodular(rng, k)
        other = mat_mul(u, base)
        assert hnf(base) == hnf(other)


def test_integer_kernel_basics():
    ker = integer_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0
    # kernel of an invertible matrix is trivial
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_integer_kernel_saturated():
    # x + y = 0 over Z^2: saturated kernel generated by (1, -1), not (2, -2)
    ker = integer_kernel([[2, 2]])
    assert len(ker) == 1
    assert primitive(ker[0]) == tuple(ker[0])


def test_saturation_basis_depends_only_on_span():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        r = rank_rows(gens)
        sat = saturation_basis(gens, dim=d)
        assert len(sat) == r
        # doubling the generators must not change the result
        doubled = [[2 * x for x in g] for g in gens]
        assert saturation_basis(doubled, dim=d) == sat
        # every generator lies in the lattice spanned by sat
        for g in gens:
            coords = solve_rational(
                [[sat[j][i] for j in range(r)] for i in range(d)], g
            )
            if r:
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


def test_saturation_basis_segment():
    sat = saturation_basis([(1, -1, 1, -1)], dim=4)
    assert sat == [(1, -1, 1, -1)]
    sat2 = saturation_basis([(2, -2, 2, -2)], dim=4)
    assert sat2 == [(1, -1, 1, -1)]


def test_solve_rational():
    x = solve_rational([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    x = solve_rational([[1, 1]], [3])
    assert x is not None and x[0] + x[1] == 3


@st.composite
def _systems(draw):
    """(A, b, consistent) with A up to 5 x 5: integer entries, or integers
    and Fractions with denominators up to 3, sometimes a product through
    an inner dimension below both sides (rank deficient), with random rows
    and columns zeroed. A consistent b is A times a random vector; any
    other b is drawn at random."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    ints = st.integers(-3, 3)
    entries = draw(st.sampled_from([ints, st.one_of(ints, st.fractions(-3, 3, max_denominator=3))]))

    def matrix(rows, cols):
        return draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        ))

    if draw(st.booleans()):
        a = matrix(m, n)
    else:
        k = draw(st.integers(0, min(m, n)))
        left, right = matrix(m, k), matrix(k, n)
        a = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    zero_rows = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    zero_cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = [
        [0 if zr or zc else x for x, zc in zip(row, zero_cols)]
        for row, zr in zip(a, zero_rows)
    ]
    consistent = draw(st.booleans())
    if consistent:
        x0 = draw(st.lists(entries, min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return a, b, consistent


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_one_elimination_matches_the_oracles(system):
    a, b, consistent = system
    x = solve_rational(a, b)
    # the same vector as Gauss-Jordan, free variables 0
    assert x == gauss_jordan_solve(a, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    elif consistent:
        pytest.fail("a consistent system was called inconsistent")
    n = len(a[0]) if a else 0
    ints = [list(scale_to_integers(row)[0]) for row in a]
    rank = affine_rank([[0] * n] + ints)
    assert rank_int(ints) == rank == rank_rows(a)
    k = min(len(a), n)
    square = [row[:k] for row in ints[:k]]
    assert det_int(square) == cofactor(square)


def test_solve_integer_saturated():
    rng = random.Random(9)
    for _ in range(40):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        sat = saturation_basis(gens, dim=d)
        if len(sat) != k:
            continue
        w = [rng.randint(-6, 6) for _ in range(k)]
        n_vec = solve_integer_saturated(sat, w)
        assert all(isinstance(v, int) for v in n_vec)
        for b, wi in zip(sat, w):
            assert sum(x * y for x, y in zip(b, n_vec)) == wi


def test_affine_dependence_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    dep = affine_dependence(pts)
    assert dep == (1, -1, 1, -1)


def test_affine_dependence_interior_point():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
    dep = affine_dependence(pts)
    # (1,1) is the midpoint of (2,0) and (0,2)
    assert dep == (0, 1, 1, -2)


def test_affine_dependence_independent():
    assert affine_dependence([(0, 0), (1, 0), (0, 1)]) is None


def test_barycentric():
    simplex = [(0, 0), (1, 0), (0, 1)]
    assert barycentric(simplex, (0, 0)) == [1, 0, 0]
    coords = barycentric(simplex, (Fraction(1, 3), Fraction(1, 3)))
    assert coords == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    assert barycentric([(0, 0), (1, 0)], (0, 1)) is None


def test_normalized_volume():
    assert normalized_simplex_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert normalized_simplex_volume([(0, 0), (2, 0), (0, 2)]) == 4
    assert normalized_simplex_volume([(0, 0), (1, 1), (2, 2)]) == 0
    assert normalized_simplex_volume([(5, 7)]) == 1
    # segment in the plane: lattice length
    assert normalized_simplex_volume([(0, 0), (3, 6)]) == 3
    # unit tetrahedron
    assert normalized_simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    # triangle embedded in Z^3
    assert normalized_simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 1
    assert normalized_simplex_volume([(0, 0, 0), (2, 0, 0), (0, 2, 0)]) == 4


def test_normalized_volume_unimodular_invariance():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k + 1)]
        u = random_unimodular(rng, d)
        shift = [rng.randint(-3, 3) for _ in range(d)]
        moved = [
            tuple(sum(u[i][j] * p[j] for j in range(d)) + shift[i] for i in range(d))
            for p in pts
        ]
        assert normalized_simplex_volume(moved) == normalized_simplex_volume(pts)


def test_lattice_length():
    assert lattice_length((0, 0), (4, 2)) == 2
    assert lattice_length((1, 1), (1, 1)) == 0


def test_affine_dependence_rejects_fat_kernel():
    with pytest.raises(ValueError):
        affine_dependence([(0, 0), (0, 0), (1, 0), (2, 0)])
