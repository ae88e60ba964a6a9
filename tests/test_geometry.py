from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import affine_rank, hull_faces, hull_facets, hull_vertices, hull_volume, in_hull
from regtriang.errors import BadConfig
from regtriang.fixtures import fixture, fixture_names
from regtriang.geometry import (
    LatticePolytope,
    PointConfiguration,
    normally_equivalent,
)
from regtriang.polytopes import hurwitz_degree_formula, relative_interior_contains
from regtriang.prism import prism_configuration

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
HEXAGON = [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
TRI_PRISM = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]


def test_square_hull():
    p = LatticePolytope(SQUARE)
    assert p.dim == 2
    assert p.vertices == sorted(map(tuple, SQUARE))
    assert len(p.facets) == 4
    for normal, off in p.facets:
        for q in SQUARE:
            assert sum(a * b for a, b in zip(normal, q)) >= off


def test_interior_point_not_vertex():
    pts = [(0, 0), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)]
    p = LatticePolytope(pts)
    assert p.vertices == [(0, 0), (0, 2), (2, 0)]
    assert len(p.facets) == 3
    assert p.normalized_volume() == 4
    assert p.boundary_volume() == 6


def test_hexagon():
    p = LatticePolytope(HEXAGON)
    assert len(p.vertices) == 6
    assert (0, 0) not in p.vertices
    assert p.normalized_volume() == 6
    assert p.boundary_volume() == 6
    assert len(p.facets) == 6


def test_cube():
    p = LatticePolytope(CUBE)
    assert len(p.vertices) == 8
    assert len(p.facets) == 6
    assert p.normalized_volume() == 6
    assert len(p.edges()) == 12
    assert len(p.faces(2)) == 6
    assert len(p.faces(1)) == 12
    assert len(p.faces(0)) == 8
    assert len(p.faces(3)) == 1


def test_triangular_prism_faces():
    p = LatticePolytope(TRI_PRISM)
    assert len(p.vertices) == 6
    assert len(p.facets) == 5
    assert len(p.faces(2)) == 5
    assert len(p.faces(1)) == 9
    assert p.normalized_volume() == 3


def test_segment_in_high_dim():
    p = LatticePolytope([(2, 1, 2, 1), (1, 2, 1, 2)])
    assert p.dim == 1
    assert len(p.vertices) == 2
    fan = p.normal_fan()
    assert len(fan) == 2
    rays = sorted(c[0] for c in fan)
    assert rays == [(-1,), (1,)]


def test_point_polytope():
    p = LatticePolytope([(3, 4)])
    assert p.dim == 0
    assert p.vertices == [(3, 4)]
    assert p.contains((3, 4))
    assert not p.contains((3, 5))
    assert relative_interior_contains(p, (3, 4))


def test_square_normal_fan():
    p = LatticePolytope(SQUARE)
    fan = p.normal_fan()
    assert len(fan) == 4
    all_rays = sorted({r for cone in fan for r in cone})
    assert all_rays == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for cone in fan:
        assert len(cone) == 2


def test_normally_equivalent_scaling():
    p1 = LatticePolytope(SQUARE)
    p2 = LatticePolytope([(2 * x, 2 * y) for x, y in SQUARE])
    assert normally_equivalent(p1, p2)
    # rectangles share the square's fan
    p3 = LatticePolytope([(0, 0), (3, 0), (3, 1), (0, 1)])
    assert normally_equivalent(p1, p3)
    # translation does not matter
    p4 = LatticePolytope([(x + 5, y - 7) for x, y in SQUARE])
    assert normally_equivalent(p1, p4)
    # a triangle does not
    p5 = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert not normally_equivalent(p1, p5)


def test_normally_equivalent_needs_parallel_hulls():
    s1 = LatticePolytope([(0, 0, 0), (1, 0, 0)])
    s2 = LatticePolytope([(0, 0, 0), (0, 1, 0)])
    assert not normally_equivalent(s1, s2)
    s3 = LatticePolytope([(5, 3, 0), (7, 3, 0)])
    assert normally_equivalent(s1, s3)


def test_segment_scaled_fan_equal():
    p1 = LatticePolytope([(2, 1, 2, 1), (1, 2, 1, 2)])
    p2 = LatticePolytope([(4, 2, 4, 2), (2, 4, 2, 4)])
    assert normally_equivalent(p1, p2)


def test_contains():
    p = LatticePolytope(SQUARE)
    assert p.contains((Fraction(1, 2), Fraction(1, 2)))
    assert relative_interior_contains(p, (Fraction(1, 2), Fraction(1, 2)))
    assert p.contains((0, Fraction(1, 2)))
    assert not relative_interior_contains(p, (0, Fraction(1, 2)))
    assert not p.contains((2, 0))
    assert (1, 1) in p.vertices
    assert (0, Fraction(1, 2)) not in p.vertices


def test_contains_off_affine_hull():
    p = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert p.contains((0, 0, 0))
    assert not p.contains((0, 0, 1))


def test_lattice_points():
    p = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    pts = p.lattice_points()
    assert len(pts) == 6
    p2 = LatticePolytope(HEXAGON)
    assert len(p2.lattice_points()) == 7


def test_rational_hull():
    p = LatticePolytope([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4))])
    assert len(p.vertices) == 3
    assert p.contains((Fraction(1, 8), Fraction(1, 8)))


def test_rational_polygon_has_no_boundary_volume():
    half = LatticePolytope([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))])
    with pytest.raises(BadConfig, match=r"vertex .*Fraction\(1, 2\).* not a lattice point"):
        half.boundary_volume()
    with pytest.raises(BadConfig):
        hurwitz_degree_formula(half)
    # integral vertices given as Fractions are lattice points
    whole = LatticePolytope([(0, 0), (Fraction(2), 0), (0, Fraction(2)), (Fraction(1, 2), 0)])
    assert whole.boundary_volume() == 6


def test_config_validation():
    with pytest.raises(BadConfig):
        PointConfiguration([])
    with pytest.raises(BadConfig):
        PointConfiguration([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(BadConfig):
        PointConfiguration([(0, 0), (1, 0), (2, 0)])  # collinear in the plane
    with pytest.raises(BadConfig):
        PointConfiguration([(0, 0), (1, 0), (Fraction(1, 2), 1)])
    with pytest.raises(BadConfig):
        PointConfiguration([(0, 0), (1, 0), (0, 1, 0)])


def test_config_basic():
    cfg = PointConfiguration(SQUARE, name="square")
    assert len(cfg) == 4
    assert cfg.point(1) == (0, 0)
    assert cfg.point(4) == (0, 1)
    assert cfg.digest() == PointConfiguration(SQUARE).digest()
    other = PointConfiguration([(0, 0), (1, 1), (1, 0), (0, 1)])
    assert cfg.digest() != other.digest()  # label order is part of identity


def test_face_masks_hexagon():
    cfg = PointConfiguration(HEXAGON)
    edges = cfg.face_point_masks(1)
    assert len(edges) == 6
    for m in edges:
        assert bin(m).count("1") == 2
        assert not m & 1  # center (label 1) is on no boundary edge
    assert reduce(or_, cfg.face_point_masks(1)) == 0b1111110
    verts = cfg.face_point_masks(0)
    assert len(verts) == 6
    top = cfg.face_point_masks(2)
    assert top == [0b1111111]


def test_face_masks_veronese():
    pts = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    cfg = PointConfiguration(pts)
    edges = cfg.face_point_masks(1)
    assert len(edges) == 3
    sizes = sorted(bin(m).count("1") for m in edges)
    assert sizes == [3, 3, 3]
    # (1,1) is the midpoint of the hypotenuse: every point is on the boundary
    assert reduce(or_, cfg.face_point_masks(1)) == 0b111111


def test_triangulate_covers_volume():
    p = LatticePolytope(HEXAGON)
    tris = p.triangulate()
    assert all(len(t) == 3 for t in tris)
    from regtriang.linalg import normalized_simplex_volume

    assert sum(normalized_simplex_volume(t) for t in tris) == 6


def test_reduced_coordinates_of_lattice_points_are_ints():
    poly = LatticePolytope([(0, 0, 0), (2, 1, 0), (1, 3, 5), (4, 4, 1), (1, 1, 1)])
    assert all(type(x) is int for t in poly.reduced for x in t)
    half = LatticePolytope([(0, 0), (Fraction(1, 2), 0), (0, 1)])
    assert {type(x) for t in half.reduced for x in t} == {int, Fraction}


@st.composite
def _embedded_sets(draw):
    """(points, base, queries): distinct points spanning dimension k <= 4,
    with denominators up to 3, and their image under x -> (x, Mx + b) in
    up to two more integer coordinates, shuffled. The image of Z^k is the
    saturated lattice of the span, so the volumes of both agree. The
    queries are images of rational points of the span with denominators
    up to 3 (inside, on the boundary or outside), of the midpoint of two
    of the points, and, when embedded, such an image moved off the span."""
    k = draw(st.integers(0, 4))
    extra = draw(st.integers(0, min(2, 4 - k)))
    den = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple)
    base = draw(st.lists(coords, min_size=k + 1, max_size=k + 5, unique=True))
    base = [tuple(Fraction(x, den) for x in p) for p in base]
    assume(affine_rank(base) == k)
    rows = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=k + 1, max_size=k + 1),
        min_size=extra, max_size=extra,
    ))
    order = draw(st.permutations(range(k + extra)))

    def embed(p):
        q = p + tuple(sum(a * x for a, x in zip(r, p)) + r[-1] for r in rows)
        return tuple(q[i] for i in order)

    points = [embed(p) for p in base]
    thirds = st.lists(st.integers(-7, 7).map(lambda x: Fraction(x, 3)), min_size=k, max_size=k)
    queries = [embed(tuple(draw(thirds))) for _ in range(3)]
    a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
    queries.append(embed(tuple((x + y) / 2 for x, y in zip(a, b))))
    if extra:
        off = list(queries[0])
        off[order.index(k)] += Fraction(1, 2)
        queries.append(tuple(off))
    return points, base, queries


def _inequality(f):
    """(primitive integer normal, offset) of c0 + c.x >= 0."""
    scale = reduce(lcm, (c.denominator for c in f), 1)
    ints = [int(c * scale) for c in f]
    g = reduce(gcd, ints[1:], 0)
    return tuple(c // g for c in ints[1:]), Fraction(-ints[0], g)


def _tight_sets(points, facets):
    return {
        frozenset(i for i, p in enumerate(points) if sum(a * x for a, x in zip(n, p)) == off)
        for n, off in facets
    }


@settings(max_examples=80, deadline=None)
@given(_embedded_sets())
def test_hull_matches_the_brute_force_oracle(case):
    points, base, queries = case
    poly = LatticePolytope(points)
    assert poly.dim == len(base[0])
    assert poly.vertices == sorted(hull_vertices(points))
    assert poly.normalized_volume() == hull_volume(base)
    for normal, off in poly.facets:
        assert all(sum(a * x for a, x in zip(normal, p)) >= off for p in points)
    assert _tight_sets(points, poly.facets) == {tight for _, tight in hull_facets(points)}
    if len(points[0]) == len(base[0]):
        # full-dimensional: the primitive inner normals are unique
        expected = [_inequality(f) for f, _ in hull_facets(points)]
        assert sorted(poly.facets) == sorted(expected)
    for q in queries:
        assert poly.contains(q) == in_hull(q, points), q


def _assert_faces_match_the_oracle(points, poly):
    """faces, face_masks, edges and normal_fan against the oracle's
    vertex-set face search over the brute-force hull; returns the
    oracle's faces."""
    faces = sorted(hull_faces(points), key=lambda f: sorted(f[1]))
    for k in range(-1, poly.dim + 2):
        want = [(members, on) for d, members, on in faces if d == k]
        assert [(f.dim, f.vertices) for f in poly.faces(k)] == [
            (k, tuple(sorted(points[i] for i in members))) for members, _ in want
        ]
        assert poly.face_masks.get(k, []) == [sum(1 << i for i in on) for _, on in want]
    assert poly.edges() == sorted(
        tuple(sorted(points[i] for i in members)) for d, members, _ in faces if d == 1
    )
    red = poly.reduced

    def tight(u):
        values = [sum(a * x for a, x in zip(u, p)) for p in red]
        return frozenset(i for i, v in enumerate(values) if v == min(values))

    facets = [on for d, _, on in faces if d == poly.dim - 1]
    verts = [v for d, members, _ in faces if d == 0 for v in members]
    assert {frozenset(map(tight, cone)) for cone in poly.normal_fan()} == {
        frozenset(on for on in facets if v in on) for v in verts
    }
    return faces


@settings(max_examples=80, deadline=None)
@given(_embedded_sets())
def test_faces_match_the_oracle_face_search(case):
    points, _, _ = case
    _assert_faces_match_the_oracle(points, LatticePolytope(points))


def test_fixture_and_prism_faces_match_the_oracle_face_search():
    seen = set()  # hexagon and 6a are the same points
    for name in fixture_names():
        for config in (fixture(name), prism_configuration(fixture(name))):
            if config.points in seen:
                continue
            seen.add(config.points)
            faces = _assert_faces_match_the_oracle(list(config.points), config.polytope)
            for k in range(config.dim + 1):
                want = {sum(1 << i for i in on) for d, _, on in faces if d == k}
                assert set(config.face_point_masks(k)) == want
