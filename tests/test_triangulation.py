import random
import weakref
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from regtriang.enumeration import enumerate_regular
from regtriang.errors import (
    CheckFailed,
    DegenerateSimplex,
    OverlapNotFace,
    UnsupportedFlip,
    VolumeMismatch,
)
from regtriang import geometry
from regtriang.fixtures import fixture, fixture_names
from regtriang.geometry import PointConfiguration
from regtriang.linalg import rank_int
from regtriang.lp import strict_feasible
from regtriang.prism import prism_configuration
from regtriang.triangulation import (
    NOT_REGULAR,
    Engine,
    Triangulation,
    engine,
    flip,
    height_subdivision,
    is_regular,
    lower_hull_subdivision,
    placing_triangulation,
    supported_flips,
)

from oracles import fold_rows, placing_cells

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

# square scaled by 2 with its center as a fifth point
CENTER_SQUARE = PointConfiguration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])

# two nested triangles, the standard source of non-regular triangulations
NESTED = PointConfiguration([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])


def full_column_engine(config):
    """An engine with an empty frame: its fold rows keep every column."""
    eng = Engine(config)
    eng.frame = ()
    return eng

# both twists of the nested-triangle annulus; the mirror symmetry
# x <-> y maps one to the other
PINWHEELS = (
    [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6), (4, 5, 6)],
    [(1, 2, 5), (1, 4, 5), (2, 3, 6), (2, 5, 6), (1, 3, 4), (3, 4, 6), (4, 5, 6)],
)


def test_encode_decode_canonical():
    t = Triangulation(SQUARE, [(3, 1, 4), (2, 3, 1)])
    assert t.encode() == "1,2,3;1,3,4"
    assert Triangulation.decode(SQUARE, "1,2,3;1,3,4") == t


def test_square_triangulations_validate_and_are_regular():
    t1 = Triangulation(SQUARE, [(1, 2, 3), (1, 3, 4)])
    t2 = Triangulation(SQUARE, [(1, 2, 4), (2, 3, 4)])
    for t in (t1, t2):
        assert t.validate()
        heights = is_regular(t)
        assert heights  # truthy tuple of certified heights


def test_not_regular_value_is_falsy():
    assert not NOT_REGULAR
    assert bool(NOT_REGULAR) is False


def test_validate_degenerate_cell():
    cfg = PointConfiguration([(0, 0), (1, 0), (2, 0), (0, 1)])
    t = Triangulation(cfg, [(1, 2, 3), (1, 3, 4)])
    with pytest.raises(DegenerateSimplex):
        t.validate()


def test_validate_volume_mismatch():
    t = Triangulation(SQUARE, [(1, 2, 3)])
    with pytest.raises(VolumeMismatch):
        t.validate()


def test_validate_overlap_not_face():
    # on a line: [0,2] and [1,2] have the right total length but overlap
    cfg = PointConfiguration([(0,), (1,), (2,), (3,)])
    t = Triangulation(cfg, [(1, 3), (2, 3)])
    with pytest.raises(OverlapNotFace):
        t.validate()


def test_common_face_tests():
    eng = engine(SQUARE)
    diag1 = 0b0111  # cells of the two square triangulations
    diag2 = 0b1101
    assert eng.meet_in_common_face(diag1, diag2)  # share the diagonal
    eng2 = engine(CENTER_SQUARE)
    assert eng2.meet_in_common_face(0b00111, 0b01101)
    # overlapping segments on a line are not face-to-face
    line = PointConfiguration([(0,), (1,), (2,), (3,)])
    enl = engine(line)
    assert not enl.meet_in_common_face(0b101, 0b110)
    assert enl.meet_in_common_face(0b011, 0b110)  # share the point 1
    assert enl.meet_in_common_face(0b0011, 0b1100)  # disjoint segments


def test_square_flip_is_the_diagonal_circuit():
    t1 = Triangulation(SQUARE, [(1, 2, 3), (1, 3, 4)])
    flips = supported_flips(t1)
    assert len(flips) == 1
    c = flips[0]
    assert c.plus == 0b0101 and c.minus == 0b1010
    t2 = flip(t1, c)
    assert t2.encode() == "1,2,4;2,3,4"
    assert flip(t2, c) == t1  # involution


def test_insertion_flip_pulls_in_the_center():
    t1 = Triangulation(CENTER_SQUARE, [(1, 2, 3), (1, 3, 4)])
    assert reduce(or_, t1.masks) == 0b01111
    flips = supported_flips(t1)
    assert [(c.plus, c.minus) for c in flips] == [(0b00101, 0b01010), (0b00101, 0b10000)]
    star = flip(t1, flips[1])
    assert star.encode() == "1,2,5;1,4,5;2,3,5;3,4,5"
    assert star.validate()
    assert reduce(or_, star.masks) == 0b11111
    assert flip(star, flips[1]) == t1


def test_unsupported_flip_raises():
    t2 = Triangulation(CENTER_SQUARE, [(1, 2, 4), (2, 3, 4)])
    insertion = supported_flips(
        Triangulation(CENTER_SQUARE, [(1, 2, 3), (1, 3, 4)])
    )[1]
    with pytest.raises(UnsupportedFlip):
        flip(t2, insertion)


def test_cells_sharing_a_wall_three_ways_have_no_circuit_list():
    # flips and fold rows read one circuit list, and neither takes a wall
    # that more than two cells share
    hexagon = fixture("hexagon")
    t = Triangulation(hexagon, [(1, 2, 3), (1, 2, 4), (1, 2, 7)])
    assert all(engine(hexagon).volume(m) for m in t.masks)
    with pytest.raises(CheckFailed, match="more than two cells"):
        supported_flips(t)
    with pytest.raises(CheckFailed, match="more than two cells"):
        engine(hexagon).fold_rows(t.masks)


def test_placing_square_is_deterministic():
    assert placing_triangulation(SQUARE).encode() == "1,2,3;1,3,4"


def test_placing_skips_interior_points():
    t = placing_triangulation(CENTER_SQUARE)
    assert t.encode() == "1,2,3;1,3,4"
    assert t.validate()


def test_placing_interior_first_uses_all_points():
    t = placing_triangulation(CENTER_SQUARE, order=[5, 1, 2, 3, 4])
    assert t.validate()
    assert reduce(or_, t.masks) == 0b11111
    assert is_regular(t)


_PLACING_CONFIGS = [fixture(name) for name in fixture_names()] + [
    prism_configuration(fixture(name)) for name in fixture_names()
]


@pytest.mark.parametrize(
    "config", _PLACING_CONFIGS,
    ids=list(fixture_names()) + [f"{name}-prism" for name in fixture_names()],
)
def test_placing_matches_the_hull_per_point_oracle(config):
    # label order, then random orders of random subsets, as the K-energy
    # refinement places the points of each coarse cell
    rng = random.Random(len(config) * 101 + config.dim)
    labels = list(config.labels())
    orders = [labels] + [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(4)]
    for order in orders:
        expected = placing_cells(config.points, [l - 1 for l in order])
        assert sorted(placing_triangulation(config, order).masks) == expected


def test_placing_builds_no_polytope(monkeypatch):
    built = []
    init = geometry.LatticePolytope.__init__

    def counted(self, points):
        built.append(len(points))
        init(self, points)

    monkeypatch.setattr(geometry.LatticePolytope, "__init__", counted)
    config = prism_configuration(fixture("hexagon"))
    placing_triangulation(config)
    placing_triangulation(config, [14, 3, 9, 1, 7, 12, 5])
    assert built == []


def test_lower_hull_subdivision_builds_one_hull(monkeypatch):
    built = []
    init = geometry._Hull.__init__

    def counted(self, pts, dim):
        built.append(dim)
        init(self, pts, dim)

    monkeypatch.setattr(geometry._Hull, "__init__", counted)
    config = prism_configuration(fixture("4b"))
    heights = [i * i for i in range(len(config))]
    assert lower_hull_subdivision(config.points, heights)
    assert built == [config.dim + 1]


def test_height_subdivision_square():
    flat = height_subdivision(SQUARE, [0, 0, 0, 0])
    assert flat == [(1, 2, 3, 4)]
    lifted = height_subdivision(SQUARE, [0, 0, 1, 0])
    assert lifted == [(1, 2, 4), (2, 3, 4)]
    other = height_subdivision(SQUARE, [1, 0, 1, 0])
    assert other == [(1, 2, 4), (2, 3, 4)]


def test_pinwheels_are_not_regular():
    eng = engine(NESTED)
    for cells in PINWHEELS:
        t = Triangulation(NESTED, cells)
        assert t.validate()
        assert is_regular(t) is NOT_REGULAR
        assert eng.regular_quick(t.masks)[0] is False


def test_pinwheel_rejections_carry_a_convex_dependence_of_fold_rows():
    # u >= 0 with sum 1 and u.rows = 0 proves no heights fold strictly;
    # it holds on the full rows too, since the frame drop loses nothing
    eng = engine(NESTED)
    for cells in PINWHEELS:
        masks = Triangulation(NESTED, cells).masks
        rows = eng.fold_rows(masks)
        ok, u, _ = strict_feasible(rows)
        assert not ok
        assert all(x >= 0 for x in u) and sum(u) == 1
        for full in (rows, full_column_engine(NESTED).fold_rows(masks)):
            for column in zip(*full):
                assert sum(x * c for x, c in zip(u, column)) == 0


@pytest.mark.parametrize(
    "config",
    [
        fixture("square"),
        fixture("4b"),
        fixture("hexagon"),
        prism_configuration(fixture("square")),
        prism_configuration(fixture("4b")),
    ],
    ids=["square", "4b", "hexagon", "cube", "4b-prism"],
)
def test_fold_rows_are_affine_dependences_and_heights_rebuild(config):
    eng = engine(config)
    full = full_column_engine(config)
    frame = eng.frame
    assert rank_int([list(config.point(l)) + [1] for l in frame]) == len(frame) == config.dim + 1
    kept = [l - 1 for l in config.labels() if l not in frame]
    for enc in enumerate_regular(config, collect=True).encodings:
        t = Triangulation.decode(config, enc)
        rows = full.fold_rows(t.masks)
        assert rows == fold_rows(config.points, t.masks)
        assert [[row[j] for j in kept] for row in rows] == eng.fold_rows(t.masks)
        for row in rows:
            assert sum(row) == 0
            for k in range(config.dim):
                assert sum(r * p[k] for r, p in zip(row, config.points)) == 0
        ok, heights = eng.regular_quick(t.masks)
        assert ok
        assert all(heights[l - 1] == 0 for l in frame)
        assert sorted(lower_hull_subdivision(config.points, heights)) == sorted(t.masks)


def test_flip_exploration_of_nested_triangles():
    # walk the whole flip graph; the two pinwheels are the only
    # non-regular triangulations and every triangulation supports a flip
    eng = engine(NESTED)
    seen = {}
    frontier = [placing_triangulation(NESTED)]
    while frontier:
        t = frontier.pop()
        if t.cells in seen:
            continue
        t.validate()
        box = bool(is_regular(t))
        quick = eng.regular_quick(t.masks)[0]
        assert box == quick
        seen[t.cells] = box
        for nb in [flip(t, c) for c in supported_flips(t)]:
            if nb.cells not in seen:
                frontier.append(nb)
    assert len(seen) == 18
    assert sum(1 for v in seen.values() if not v) == 2


def test_regularity_paths_agree_on_random_height_subdivisions():
    rng = random.Random(7)
    eng = engine(NESTED)
    checked = 0
    for _ in range(60):
        hs = [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(6)]
        cells = height_subdivision(NESTED, hs)
        if any(len(c) != 3 for c in cells):
            continue
        t = Triangulation(NESTED, cells)
        t.validate()
        assert is_regular(t)
        assert eng.regular_quick(t.masks)[0]
        checked += 1
    assert checked >= 40


def test_engine_is_freed_with_its_configuration():
    config = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])
    eng = engine(config)
    assert engine(config) is eng
    assert is_regular(placing_triangulation(config))
    freed = weakref.ref(eng)
    del eng, config
    assert freed() is None
