from fractions import Fraction

import pytest

from regtriang import checkpoint, enumeration, polytopes
from regtriang.enumeration import BudgetExceeded
from regtriang.errors import NonconstantSum
from regtriang.fixtures import fixture
from regtriang.geometry import LatticePolytope, PointConfiguration
from regtriang.polytopes import (
    WeightPolytope,
    check_conjecture,
    degree_from_polytope,
    hurwitz_candidate_polytope,
    hurwitz_degree_formula,
    inclusion,
    prism_hurwitz_polytope,
    project_pi,
    relative_interior_contains,
    secondary_polytope,
    standard_semistability,
    sweep,
    vertex_edge_correspondence,
)
from regtriang.prism import prism_configuration
from regtriang.triangulation import Triangulation
from regtriang.weights import eta_k, hurwitz_vector

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

VERONESE = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

HEXAGON = PointConfiguration(
    [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
)

VERONESE_HURWITZ = {
    (4, 0, 1, 0, 6, 1),
    (3, 2, 0, 0, 6, 1),
    (3, 0, 1, 2, 6, 0),
    (2, 2, 0, 2, 6, 0),
    (1, 0, 4, 6, 0, 1),
    (0, 2, 3, 6, 0, 1),
    (1, 0, 3, 6, 2, 0),
    (0, 2, 2, 6, 2, 0),
    (1, 6, 1, 0, 0, 4),
    (0, 6, 1, 2, 0, 3),
    (1, 6, 0, 0, 2, 3),
    (0, 6, 0, 2, 2, 2),
    (4, 0, 4, 0, 0, 4),
    (0, 4, 0, 4, 4, 0),
}

# Regular non-vertical 15-tetrahedron triangulation of the hexagon prism
# whose folded vector (2, 7, 4, 0, 7, 4, 0) is in the Hurwitz hull without
# being one of its vertices.
FIFTEEN = (
    "2,3,5,9;2,5,6,9;2,6,7,14;2,6,9,14;3,4,5,10;3,5,9,10;4,5,10,11;"
    "5,6,8,9;5,6,8,12;5,8,9,11;5,8,11,12;5,9,10,11;6,8,9,13;6,8,12,13;"
    "6,9,13,14"
)

FIFTEEN_NU = (2, 7, 4, 0, 7, 4, 0)


def test_square_secondary_polytope_is_a_segment():
    chow = secondary_polytope(SQUARE)
    assert chow.kind == "chow"
    # [DERIVED] GKZ vectors of the two triangulations of the square
    assert set(chow.vertices) == {(2, 1, 2, 1), (1, 2, 1, 2)}
    assert {chow.generators[v] for v in chow.vertices} == {
        "1,2,3;1,3,4",
        "1,2,4;2,3,4",
    }
    assert chow.coordinate_sum() == 6


def test_square_hurwitz_candidate_is_a_segment():
    hur = hurwitz_candidate_polytope(SQUARE)
    assert hur.kind == "hurwitz-candidate"
    # [PAPER] the two Hurwitz vectors of the square
    assert set(hur.vertices) == {(2, 0, 2, 0), (0, 2, 0, 2)}
    assert hur.coordinate_sum() == 4
    assert (1, 1, 1, 1) in hur
    assert (4, 0, 0, 0) not in hur


def test_veronese_hurwitz_candidate_vertices():
    hur = hurwitz_candidate_polytope(VERONESE)
    # [PAPER] all 14 published vectors, and every one is a vertex
    assert set(hur.vertices) == VERONESE_HURWITZ


def test_hexagon_hurwitz_candidate_vertices():
    hur = hurwitz_candidate_polytope(HEXAGON)
    assert len(hur.vertices) == 32
    assert len(hur.generators) == 32
    assert set(hur.vertices) == set(hur.generators)


def test_degree_from_polytope_examples():
    # [DERIVED] vertex sums 24/2, 6/3, 12/2
    assert degree_from_polytope(hurwitz_candidate_polytope(HEXAGON), 2) == 12
    assert degree_from_polytope(secondary_polytope(SQUARE), 3) == 2
    assert degree_from_polytope(hurwitz_candidate_polytope(VERONESE), 2) == 6


def test_chow_degree_is_the_normalized_volume():
    for config in (SQUARE, VERONESE, HEXAGON):
        chow = secondary_polytope(config)
        assert degree_from_polytope(chow, 3) == config.polytope.normalized_volume()


def test_hurwitz_degree_matches_the_formula():
    expected = {id(SQUARE): 2, id(VERONESE): 6, id(HEXAGON): 12}
    for config in (SQUARE, VERONESE, HEXAGON):
        hur = hurwitz_candidate_polytope(config)
        assert hurwitz_degree_formula(config) == expected[id(config)]
        assert degree_from_polytope(hur, 2) == hurwitz_degree_formula(config)


def test_nonconstant_sum_is_rejected():
    with pytest.raises(NonconstantSum):
        WeightPolytope("chow", {(1, 0): "a", (1, 1): "b"})
    chow = secondary_polytope(SQUARE)
    with pytest.raises(NonconstantSum):
        degree_from_polytope(chow, 4)


def test_project_pi():
    assert project_pi((5, 5, 5, 5)) == (0, 0, 0)
    v = (3, 1, 4, 1)
    shifted = tuple(x + 7 for x in v)
    assert project_pi(v) == project_pi(shifted)
    assert project_pi((2, 0, 2, 0)) == (2, 0, 2)


def test_inclusion_is_reflexive_and_proper():
    segment = [(2, 0, 2, 0), (0, 2, 0, 2)]
    midpoint = [(1, 1, 1, 1)]
    stretched = [(3, -1, 3, -1), (-1, 3, -1, 3)]
    assert inclusion(segment, segment)
    assert inclusion(midpoint, segment)
    assert not inclusion(segment, midpoint)
    # transitive chain: midpoint within the segment within its stretch
    assert inclusion(segment, stretched)
    assert inclusion(midpoint, stretched)
    hur = hurwitz_candidate_polytope(HEXAGON)
    assert inclusion(hur, hur)


def test_inclusion_of_interior_boundary_and_outside_points():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert inclusion([(Fraction(1, 2), Fraction(1, 2))], square)
    assert not inclusion([(2, 0)], square)
    triangle = [(0, 0), (2, 0), (0, 2)]
    assert inclusion([(1, 0), (1, 1)], triangle)  # (1, 1) is on the diagonal edge
    assert not inclusion([(1, 1), (Fraction(3, 2), 1)], triangle)


def test_square_chow_and_hurwitz_edges_are_parallel():
    chow = secondary_polytope(SQUARE)
    hur = hurwitz_candidate_polytope(SQUARE)
    report = vertex_edge_correspondence(chow, hur)
    assert report["vertices"] == (2, 2)
    assert report["edges"] == (1, 1)
    # directions (1,-1,1,-1) and (2,-2,2,-2) agree after normalization
    assert report["parallel_directions"] == 1
    assert report["all_parallel"]
    assert report["normal_equivalent"]


def test_correspondence_with_a_dilate_is_complete():
    hur = hurwitz_candidate_polytope(HEXAGON)
    doubled = LatticePolytope(
        [tuple(2 * x for x in v) for v in hur.vertices]
    )
    report = vertex_edge_correspondence(hur, doubled)
    assert report["vertices"] == (32, 32)
    assert report["edges"][0] == report["edges"][1]
    assert report["all_parallel"]
    assert report["normal_equivalent"]


def test_hexagon_chow_and_hurwitz_have_matching_shape():
    chow = secondary_polytope(HEXAGON)
    hur = hurwitz_candidate_polytope(HEXAGON)
    report = vertex_edge_correspondence(hur, chow)
    assert report["vertices"] == (32, 32)
    assert report["all_parallel"]
    assert report["normal_equivalent"]


def test_check_conjecture_square():
    report = check_conjecture(SQUARE)
    assert report == {
        "base_count": 2,
        "prism_count": 74,
        "nu_vertex_count": 2,
        "vertices_match": True,
        "normal_equivalent": True,
    }


def test_square_prism_hull_equals_the_candidate():
    prism_hull = prism_hurwitz_polytope(SQUARE)
    hur = hurwitz_candidate_polytope(SQUARE)
    assert prism_hull.kind == "prism-hurwitz"
    assert set(prism_hull.vertices) == set(hur.vertices)
    for xi in hur.vertices:
        assert xi in prism_hull


def test_budget_exceeded_propagates():
    with pytest.raises(BudgetExceeded):
        prism_hurwitz_polytope(SQUARE, budget=10)


def test_fifteen_nu_sits_inside_the_hull_without_being_a_vertex():
    prism = prism_configuration(HEXAGON)
    t = Triangulation.decode(prism, FIFTEEN)
    from regtriang.prism import nu_vector

    assert nu_vector(t).values == FIFTEEN_NU
    hur = hurwitz_candidate_polytope(HEXAGON)
    assert FIFTEEN_NU in hur
    assert FIFTEEN_NU not in set(hur.vertices)
    # not the midpoint of any pair of Hurwitz vectors either
    vs = sorted(hur.vertices)
    for i, a in enumerate(vs):
        for b in vs[i:]:
            assert any(p + q != 2 * r for p, q, r in zip(a, b, FIFTEEN_NU))
    # it does touch the relative boundary: three facets are tight on it,
    # so strict interior membership is genuinely false
    assert not relative_interior_contains(hur, FIFTEEN_NU)
    centroid = tuple(
        sum(Fraction(v[i]) for v in vs) / len(vs) for i in range(7)
    )
    assert relative_interior_contains(hur, centroid)


def test_standard_semistability_square():
    report = standard_semistability(SQUARE)
    assert report == {
        "chow_degree": 2,
        "hurwitz_degree": 2,
        "semistable": True,
        "semistable_sum_matched": True,
    }


def test_standard_semistability_veronese():
    report = standard_semistability(VERONESE)
    assert report["chow_degree"] == 4
    assert report["hurwitz_degree"] == 6
    # the degree-scaled inclusion fails while the sum-matched one holds
    assert not report["semistable"]
    assert report["semistable_sum_matched"]


def test_standard_semistability_hexagon():
    report = standard_semistability(HEXAGON)
    assert report["chow_degree"] == 6
    assert report["hurwitz_degree"] == 12
    assert not report["semistable"]
    assert report["semistable_sum_matched"]


def _count_calls(monkeypatch, name, *modules):
    """Record the first argument of every call to the named function."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_folds_one_enumeration_into_every_hull(monkeypatch):
    calls = _count_calls(monkeypatch, "enumerate_regular", polytopes)
    count, hulls = sweep(
        VERONESE, {"chow": lambda t: eta_k(t, 2), "hurwitz-candidate": hurwitz_vector}
    )
    assert len(calls) == 1
    assert count == 14
    assert set(hulls["hurwitz-candidate"].vertices) == VERONESE_HURWITZ
    assert hulls["chow"].generators == secondary_polytope(VERONESE).generators


def test_check_conjecture_enumerates_base_and_prism_once(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.jsonl")
    with pytest.raises(BudgetExceeded):
        check_conjecture(SQUARE, budget=10, checkpoint_path=ck)
    calls = _count_calls(monkeypatch, "enumerate_regular", polytopes)
    reads = _count_calls(monkeypatch, "read_checkpoint", enumeration, checkpoint)
    report = check_conjecture(SQUARE, checkpoint_path=ck, resume=True)
    assert report["prism_count"] == 74
    assert len(calls) == 2
    assert calls[0] is SQUARE and calls[1].base is SQUARE
    assert len(reads) == 1


def test_semistability_enumerates_the_base_once(monkeypatch):
    calls = _count_calls(monkeypatch, "enumerate_regular", polytopes)
    standard_semistability(SQUARE)
    assert calls == [SQUARE]


def test_resumed_check_and_prism_hull_equal_uninterrupted(tmp_path):
    config = fixture("3")
    whole = check_conjecture(config)
    hull = prism_hurwitz_polytope(config)
    for name, build in (
        ("check", lambda **kw: check_conjecture(config, **kw)),
        ("hull", lambda **kw: prism_hurwitz_polytope(config, **kw)),
    ):
        ck = str(tmp_path / f"{name}.jsonl")
        with pytest.raises(BudgetExceeded):
            build(budget=30, checkpoint_path=ck)
        for _ in range(2):  # stopped by the budget, then finished
            resumed = build(checkpoint_path=ck, resume=True)
            if name == "check":
                assert resumed == whole
            else:
                assert resumed.generators == hull.generators
                assert resumed.vertices == hull.vertices
