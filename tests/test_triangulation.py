import json
import math
import random
import weakref
from fractions import Fraction
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regtriang.enumeration import enumerate_regular
from regtriang.errors import (
    BudgetExceeded,
    CheckFailed,
    DegenerateSimplex,
    OverlapNotFace,
    UnsupportedFlip,
    VolumeMismatch,
)
from regtriang import geometry, lp, triangulation
from regtriang.fixtures import fixture, fixture_names
from regtriang.geometry import PointConfiguration, bit_indices
from regtriang.linalg import barycentric, rank_int
from regtriang.lp import strict_feasible
from regtriang.prism import prism_configuration
from regtriang.triangulation import (
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

from oracles import (
    fold_rows,
    meet_in_common_face,
    pairwise_verdict,
    placing_cells,
    present_side,
)
from test_enumeration import _planar, accepted, counted_lp

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

# square scaled by 2 with its center as a fifth point
CENTER_SQUARE = PointConfiguration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])

# two nested triangles, the standard source of non-regular triangulations
NESTED = PointConfiguration([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])

# every fixture and its prism
_FIXTURE_CONFIGS = [fixture(name) for name in fixture_names()] + [
    prism_configuration(fixture(name)) for name in fixture_names()
]
_FIXTURE_IDS = list(fixture_names()) + [f"{name}-prism" for name in fixture_names()]


def full_column_engine(config):
    """An engine with an empty frame: its fold rows keep every column."""
    eng = Engine(config)
    eng.frame = ()
    return eng


def check_cached_refutation(eng, config, masks):
    """Check again each refutation in the engine's cache that rejects the
    triangulation: weights u > 0 on its support, fold rows the
    triangulation has, and u.rows = 0 on every column of those rows.
    is_regular rejects the triangulation too."""
    full = full_column_engine(config)
    circuits = full.circuits(masks)
    rows = {
        (c.support, 1 if c.plus >> (apex - 1) & 1 else -1): row
        for (c, apex), row in zip(circuits, full.fold_rows(masks, circuits))
    }
    found = {support: u for support, u in eng.refutations.items() if support <= rows.keys()}
    assert found
    for support, u in found.items():
        assert set(u) == support and all(w > 0 for w in u.values())
        for column in zip(*(rows[key] for key in u)):
            assert sum(w * x for w, x in zip(u.values(), column)) == 0
    assert is_regular(Triangulation.from_masks(config, masks)) is None


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


def _parsed_masks(text):
    """Cell masks of an encoding read label by label, in sorted order."""
    return tuple(sorted(sum(1 << (int(l) - 1) for l in part.split(",")) for part in text.split(";")))


def test_decode_reads_any_spelling_with_the_memo_warm():
    config = PointConfiguration(fixture("4b").points)
    warm = Triangulation(config, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5)])
    assert warm.encode() == "1,2,3;1,2,5;1,3,4;1,4,5"  # every cell's text is held now
    for text in ("3,1,2;4,1,3;5,4,1;2,5,1", "1,2,3;1,5,2;01,3,4;1,4,5", "1,4,5;1,2,3;1,3,4;1,2,5"):
        t = Triangulation.decode(config, text)
        assert t.masks == _parsed_masks(text) == warm.masks
    assert Triangulation.decode(config, "3,1,2;4,1,3").masks == _parsed_masks("1,2,3;1,3,4")
    with pytest.raises(ValueError):
        Triangulation.decode(config, "1,2,3;1,3,x")
    with pytest.raises(DegenerateSimplex):
        Triangulation.decode(config, "1,2,3;0,1,3")


_PLACED = st.sampled_from(["square", "4b", "4c", "hexagon", "5a", "4b-prism", "4c-prism"]).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.permutations(range(1, len(_NAMED[name]) + 1)),
    )
)
_NAMED = {
    **{name: fixture(name) for name in ("square", "4b", "4c", "hexagon", "5a")},
    "4b-prism": prism_configuration(fixture("4b")),
    "4c-prism": prism_configuration(fixture("4c")),
}


@settings(max_examples=60, deadline=None)
@given(_PLACED)
def test_decode_undoes_encode(placed):
    name, order = placed
    config = _NAMED[name]
    t = placing_triangulation(config, list(order))
    text = t.encode()
    assert Triangulation.decode(config, text) == t
    assert Triangulation.decode(PointConfiguration(config.points), text).masks == t.masks
    cells = sorted(tuple(i + 1 for i in bit_indices(m)) for m in t.masks)
    assert text == ";".join(",".join(map(str, c)) for c in cells)


def test_square_triangulations_validate_and_are_regular():
    t1 = Triangulation(SQUARE, [(1, 2, 3), (1, 3, 4)])
    t2 = Triangulation(SQUARE, [(1, 2, 4), (2, 3, 4)])
    for t in (t1, t2):
        assert t.validate()
        heights = is_regular(t)
        assert heights  # truthy tuple of certified heights


def test_a_label_below_one_is_a_degenerate_simplex():
    square = fixture("square")
    for label in (0, -1):
        with pytest.raises(DegenerateSimplex):
            Triangulation(square, [(label, 1, 2)])
    with pytest.raises(DegenerateSimplex):
        Triangulation.decode(square, "0,1,2;1,3,4")


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


def test_validate_rejects_a_repeated_cell():
    # the volumes fill the hull, and a cell meets its copy in a common face
    hexagon = fixture("hexagon")
    for config, enc in (
        (SQUARE, "1,2,3;1,2,3"),
        (hexagon, "1,2,3;1,2,3;1,3,4;1,4,5;1,5,6;1,6,7"),
    ):
        t = Triangulation.decode(config, enc)
        assert pairwise_verdict(config.points, t.masks) is None
        with pytest.raises(OverlapNotFace):
            t.validate()


def test_validate_rejects_a_wall_of_one_cell_inside_the_hull():
    # the cells cover the square once, but 1,4,5 and 3,4,5 split 1,3,4 at
    # the center 5, which is inside the edge 1-3 of the cell 1,2,3: the
    # walls 1-3, 1-5 and 3-5 each belong to one cell
    t = Triangulation(CENTER_SQUARE, [(1, 2, 3), (1, 4, 5), (3, 4, 5)])
    assert sum(engine(CENTER_SQUARE).volume(m) for m in t.masks) == 8
    assert pairwise_verdict(CENTER_SQUARE.points, t.masks) == "overlap"
    with pytest.raises(OverlapNotFace):
        t.validate()


def test_common_face_tests():
    # the pairwise oracle that validate's wall rule replaced
    diag1 = 0b0111  # cells of the two square triangulations
    diag2 = 0b1101
    assert meet_in_common_face(SQUARE.points, diag1, diag2)  # share the diagonal
    assert meet_in_common_face(CENTER_SQUARE.points, 0b00111, 0b01101)
    # overlapping segments on a line are not face-to-face
    line = [(0,), (1,), (2,), (3,)]
    assert not meet_in_common_face(line, 0b101, 0b110)
    assert meet_in_common_face(line, 0b011, 0b110)  # share the point 1
    assert meet_in_common_face(line, 0b0011, 0b1100)  # disjoint segments


_VERDICT = {DegenerateSimplex: "degenerate", VolumeMismatch: "volume", OverlapNotFace: "overlap"}


def _verdict(config, masks):
    try:
        Triangulation.from_masks(config, masks).validate()
    except tuple(_VERDICT) as exc:
        return _VERDICT[type(exc)]
    return None


def _perturbed(config, masks, rng):
    """Cell sets near a triangulation: a label swapped for one off its cell,
    a cell replaced by a copy of another, a cell dropped."""
    masks = list(masks)
    out = []
    for _ in range(8 if len(config) > config.dim + 1 else 0):
        k = rng.randrange(len(masks))
        cell = masks[k]
        gone = rng.choice(bit_indices(cell))
        come = rng.choice(bit_indices(((1 << len(config)) - 1) & ~cell))
        out.append(masks[:k] + [(cell ^ 1 << gone) | 1 << come] + masks[k + 1:])
    for _ in range(3 if len(masks) > 1 else 0):
        i, j = rng.sample(range(len(masks)), 2)
        out.append(masks[:i] + [masks[j]] + masks[i + 1:])
    return out + [masks[1:]]


@pytest.mark.parametrize("config", _FIXTURE_CONFIGS, ids=_FIXTURE_IDS)
def test_validate_agrees_with_the_pairwise_oracle(config):
    # the wall rule and the old pairwise LPs agree on every set, except
    # that only the wall rule rejects a repeated cell
    rng = random.Random(len(config) * 31 + config.dim)
    t = placing_triangulation(config)
    for base in [t] + [flip(t, circ) for circ in supported_flips(t)[:2]]:
        assert _verdict(config, base.masks) is None
        for masks in _perturbed(config, base.masks, rng):
            expected = pairwise_verdict(config.points, masks)
            if len(set(masks)) < len(masks):
                expected = expected or "overlap"
            assert _verdict(config, masks) == expected, masks


def test_validating_fixture_prisms_solves_no_lp(monkeypatch):
    # every LP of the package starts in lp._phase1
    def no_lp(*args):
        raise AssertionError("validate solved an LP")

    for name in ("square", "triangle", "triangle4", "3", "4a", "4b", "4c"):
        config = prism_configuration(fixture(name))
        encodings = accepted(config)
        with monkeypatch.context() as patched:
            patched.setattr(lp, "_phase1", no_lp)
            for enc in encodings:
                assert Triangulation.decode(config, enc).validate()


@pytest.mark.parametrize("config", _FIXTURE_CONFIGS, ids=_FIXTURE_IDS)
def test_circuits_decide_containment_as_barycentric_coordinates_do(config):
    # every cell of the placing triangulations in label order and in
    # reverse (which leaves points unused on facets, as in the hexagon
    # prism) and of their flip neighbours, against every point
    eng = engine(config)
    kinds = set()
    for t in (placing_triangulation(config), placing_triangulation(config, config.labels()[::-1])):
        for base in [t] + [flip(t, circ) for circ in supported_flips(t)]:
            for cell in base.masks:
                for label in config.labels():
                    coords = barycentric(eng.points_of(cell), config.point(label))
                    inside = all(c >= 0 for c in coords)
                    assert eng.cell_contains(cell, label) == inside, (cell, label)
                    if not cell >> (label - 1) & 1:
                        kinds.add(("boundary" if 0 in coords else "interior") if inside else "outside")
    assert "outside" in kinds or len(config) == config.dim + 1
    has_non_vertices = len(config.polytope.vertices) < len(config)
    assert bool(kinds & {"boundary", "interior"}) == has_non_vertices


def test_enumeration_computes_no_barycentric_coordinates(monkeypatch):
    # circuits decide which cell holds an unused point
    def no_barycentric(*args):
        raise AssertionError("barycentric coordinates computed")

    monkeypatch.setattr(triangulation, "barycentric", no_barycentric)
    golden = Path(__file__).parent / "golden" / "table_reflexive.json"
    rows = json.loads(golden.read_text())["rows"]
    for name in ("3", "4a", "4b", "4c"):
        want = next(row["prism_count"] for row in rows if row["label"] == name)
        assert enumerate_regular(prism_configuration(fixture(name))) == want


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


@pytest.mark.parametrize("config", _FIXTURE_CONFIGS, ids=_FIXTURE_IDS)
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
        assert is_regular(t) is None
        assert eng.regular_quick(t.masks)[0] is False


def test_a_lying_tableau_cannot_make_a_regular_triangulation_non_regular(monkeypatch):
    # a tableau that reports a zero optimum claims the dual is feasible;
    # the rejection is checked, so the claim fails instead of answering
    real = lp._Tableau.bland

    def lying(self):
        status = real(self)
        self.t[0] = [0] * len(self.t[0])
        return status

    t = placing_triangulation(fixture("hexagon"))
    assert is_regular(t)
    monkeypatch.setattr(lp._Tableau, "bland", lying)
    with pytest.raises(CheckFailed):
        is_regular(t)


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
    for enc in accepted(config):
        t = Triangulation.decode(config, enc)
        rows = full.fold_rows(t.masks)
        oracle = fold_rows(config.points, t.masks)
        # the oracle's rows in order, each once: walls of one circuit repeat
        assert rows == [row for k, row in enumerate(oracle) if row not in oracle[:k]]
        assert len({tuple(row) for row in rows}) == len(rows)
        assert [[row[j] for j in kept] for row in rows] == eng.fold_rows(t.masks)
        for row in rows:
            assert sum(row) == 0
            for k in range(config.dim):
                assert sum(r * p[k] for r, p in zip(row, config.points)) == 0
        ok, heights = eng.regular_quick(t.masks)
        assert ok
        assert all(heights[l - 1] == 0 for l in frame)
        assert sorted(lower_hull_subdivision(config.points, heights)) == sorted(t.masks)


@pytest.mark.parametrize("name", ["4b", "5a", "hexagon"])
def test_hinted_decisions_on_prisms_agree_with_is_regular(name, monkeypatch):
    # a sample of parents from the first BFS levels; every flip neighbour
    # is decided with the parent's heights and the flipped circuit
    config = prism_configuration(fixture(name))
    eng = engine(config)
    full = full_column_engine(config)
    found = []
    with pytest.raises(BudgetExceeded):
        enumerate_regular(config, budget=40, on_accept=found.append)
    lp_calls = counted_lp(monkeypatch)
    accepted = certified = cached = 0
    for enc in found[:: len(found) // 6][:6]:
        t = Triangulation.decode(config, enc)
        ok, heights = eng.regular_quick(t.masks)
        assert ok and all(isinstance(h, int) for h in heights)
        for circ in supported_flips(t):
            nb = flip(t, circ)
            before = len(lp_calls)
            ok, hinted = eng.regular_quick(nb.masks, hints=[(heights, circ)])
            by_hint = len(lp_calls) == before
            assert ok == bool(is_regular(nb))
            # every rejection is the LP's, or a cached certificate's
            if not ok and by_hint:
                cached += 1
                check_cached_refutation(eng, config, nb.masks)
            if ok:
                accepted += 1
                certified += by_hint
                if by_hint:  # every fold row is positive on the moved or repaired heights
                    for row in full.fold_rows(nb.masks):
                        assert sum(r * h for r, h in zip(row, hinted)) > 0
                else:  # the LP's heights are 0 on the frame
                    assert all(hinted[l - 1] == 0 for l in eng.frame)
                rebuilt = lower_hull_subdivision(config.points, hinted)
                assert sorted(rebuilt) == sorted(nb.masks)
    # most accepted neighbours need no LP, and some rejections none either
    assert 2 * certified > accepted > 0 and cached > 0


@pytest.mark.parametrize("name, count", [("4b", 1270), ("5a", 26540)])
def test_grouped_sides_equal_the_scan(name, count, monkeypatch):
    # every circuit the walk asks about, supported or not, on every
    # regular triangulation of the prism: one grouping pass finds the side
    # the per-point scan finds
    grouped = triangulation._present_side
    asked = []

    def checked(masks, circ):
        side = grouped(masks, circ)
        assert side == present_side(masks, circ)
        asked.append(side is not None)
        return side

    monkeypatch.setattr(triangulation, "_present_side", checked)
    assert enumerate_regular(prism_configuration(fixture(name))) == count
    assert 0 < sum(asked) < len(asked)


_END = st.one_of(st.none(), st.tuples(st.integers(-60, 60), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(_END, _END)
def test_simplest_between_is_the_least_denominator_in_the_interval(lo, hi):
    low = None if lo is None else Fraction(*lo)
    high = None if hi is None else Fraction(*hi)
    assume(low is None or high is None or low < high)
    p, q = triangulation._simplest_between(lo, hi)
    t = Fraction(p, q)
    assert q > 0 and math.gcd(p, q) == 1
    assert (low is None or low < t) and (high is None or t < high)

    def inside(x):
        return (low is None or low < x) and (high is None or x < high)

    # no rational with a smaller denominator, or a smaller size, lies inside
    for den in range(1, q + 1):
        first = -abs(p) * den if low is None else math.floor(low * den)
        last = abs(p) * den if high is None else math.ceil(high * den)
        for num in range(first, last + 1):
            if inside(Fraction(num, den)):
                assert (den, abs(num)) >= (q, abs(p))


def _regular_heights(config):
    eng = engine(config)
    out = []
    for enc in accepted(config):
        ok, heights = eng.regular_quick(Triangulation.decode(config, enc).masks)
        out.append(heights)
    return out


def test_a_lying_hint_never_makes_a_pinwheel_regular(monkeypatch):
    # the heights of every regular triangulation, each across every circuit
    # the engine knows, plus random heights: the pinwheels have no strictly
    # convex heights, so no hint and no repair passes the row check. The
    # LP rejects each pinwheel once, and its cached certificate every time
    # after
    eng = Engine(NESTED)
    rng = random.Random(11)
    lies = _regular_heights(NESTED)
    lies += [tuple(0 if l in eng.frame else rng.randint(-9, 9) for l in NESTED.labels())
             for _ in range(20)]
    circuits = list(engine(NESTED)._circuits.values())
    lp_calls = counted_lp(monkeypatch)
    pinwheels = [Triangulation(NESTED, cells).masks for cells in PINWHEELS]
    for k, masks in enumerate(pinwheels):
        for heights in lies:
            for circ in circuits:
                assert eng.regular_quick(masks, hints=[(heights, circ)]) == (False, None)
                assert len(lp_calls) == k + 1
    assert len(eng.refutations) == 2
    for masks in pinwheels:
        check_cached_refutation(eng, NESTED, masks)


def _check_repairs_and_refutations(config):
    """Walk the configuration's flip graph and check each decision the
    repair or the cache made: repaired heights rebuild the candidate
    through lower_hull_subdivision, and a rejection without an LP is a
    cached refutation that is checked again and confirmed by is_regular.
    Returns the number of repairs and of cache rejections."""
    eng = engine(config)
    seen = {"lp": 0, "repaired": None}
    checked = {"repairs": 0, "cached": 0}
    quick, repaired, solve = Engine.regular_quick, Engine._repaired, triangulation.strict_feasible

    def counting(rows):
        seen["lp"] += 1
        return solve(rows)

    def kept(self, rows, g):
        seen["repaired"] = repaired(self, rows, g)
        return seen["repaired"]

    def checked_quick(self, masks, circuits=None, hints=()):
        seen["lp"], seen["repaired"] = 0, None
        ok, heights = quick(self, masks, circuits, hints)
        if ok and heights is seen["repaired"]:
            checked["repairs"] += 1
            assert sorted(lower_hull_subdivision(config.points, heights)) == sorted(masks)
        elif not ok and not seen["lp"]:
            checked["cached"] += 1
            check_cached_refutation(eng, config, masks)
        return ok, heights

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangulation, "strict_feasible", counting)
        mp.setattr(Engine, "_repaired", kept)
        mp.setattr(Engine, "regular_quick", checked_quick)
        enumerate_regular(config)
    return checked["repairs"], checked["cached"]


@settings(max_examples=40, deadline=None)
@given(_planar())
def test_repaired_heights_rebuild_and_cached_refutations_hold(config):
    _check_repairs_and_refutations(config)


def test_repairs_and_refutations_on_the_4b_prism_walk():
    assert _check_repairs_and_refutations(prism_configuration(fixture("4b"))) == (190, 46)


def test_a_wrong_hint_leaves_a_regular_triangulation_regular():
    # the LP decides when the hint fails, and what it returns rebuilds T
    eng = engine(NESTED)
    lies = _regular_heights(NESTED)
    circuits = list(eng._circuits.values())
    for enc in accepted(NESTED):
        t = Triangulation.decode(NESTED, enc)
        for heights, circ in zip(lies, circuits):
            ok, found = eng.regular_quick(t.masks, hints=[(heights, circ)])
            assert ok
            assert sorted(lower_hull_subdivision(NESTED.points, found)) == sorted(t.masks)


def test_hinted_heights_stay_primitive_integers():
    # g' = q g - p R is divided by its gcd, so heights do not grow with depth
    config = prism_configuration(fixture("4c"))
    eng = engine(config)
    t = placing_triangulation(config)
    ok, heights = eng.regular_quick(t.masks)
    seen = {t.masks}
    for _ in range(30):  # a walk of accepted flips, each hinted by the last
        for circ in supported_flips(t):
            nb = flip(t, circ)
            if nb.masks in seen:
                continue
            ok, hinted = eng.regular_quick(nb.masks, hints=[(heights, circ)])
            if ok:
                seen.add(nb.masks)
                t, heights = nb, hinted
                break
        assert reduce(math.gcd, heights) == 1
        assert max(map(abs, heights)) < 10**6
    assert len(seen) == 31


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
