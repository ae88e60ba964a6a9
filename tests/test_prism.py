from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from regtriang.errors import DimensionUnsupported
from regtriang.geometry import PointConfiguration
from regtriang.triangulation import (
    Engine,
    Triangulation,
    engine,
    flip,
    is_regular,
    placing_triangulation,
    supported_flips,
)
from regtriang.weights import eta_k, hurwitz_vector
from regtriang.prism import (
    find_cubic_mixed,
    mixed_volumes,
    circuit_z1,
    circuit_z2,
    nu_vector,
    prism_configuration,
    vertical_triangulation,
)

from test_enumeration import accepted

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

VERONESE = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

HEXAGON = PointConfiguration(
    [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
)

UNIT_TRIANGLE = PointConfiguration([(0, 0), (1, 0), (0, 1)])

# area 2, normalized volume 4
BIG_TRIANGLE = PointConfiguration([(0, 0), (2, 0), (0, 2)])

# the reconstructed 15-tetrahedron triangulation of the hexagon prism
FIFTEEN = (
    "2,3,5,9;2,5,6,9;2,6,7,14;2,6,9,14;3,4,5,10;3,5,9,10;4,5,10,11;"
    "5,6,8,9;5,6,8,12;5,8,9,11;5,8,11,12;5,9,10,11;6,8,9,13;6,8,12,13;6,9,13,14"
)


def all_regular(config):
    return [Triangulation.decode(config, enc) for enc in accepted(config)]


def test_prism_points_are_two_stacked_copies():
    pr = prism_configuration(SQUARE)
    assert pr.base_size == 4
    assert pr.points[:4] == tuple((x, y, 0) for x, y in SQUARE.points)
    assert pr.points[4:] == tuple((x, y, 1) for x, y in SQUARE.points)
    assert pr.bottom(2) == 2
    assert pr.top(2) == 6


def test_only_planar_bases_are_supported():
    with pytest.raises(DimensionUnsupported):
        prism_configuration(PointConfiguration([(0,), (1,), (2,)]))
    with pytest.raises(DimensionUnsupported):
        prism_configuration(prism_configuration(SQUARE))


def test_vertical_over_square_diagonals():
    t1 = Triangulation.decode(SQUARE, "1,2,3;1,3,4")
    t2 = Triangulation.decode(SQUARE, "1,2,4;2,3,4")
    v1 = vertical_triangulation(t1)
    v2 = vertical_triangulation(t2)
    assert len(v1.cells) == 6
    v1.validate()
    v2.validate()
    assert nu_vector(v1).values == (2, 0, 2, 0) == hurwitz_vector(t1).values
    assert nu_vector(v2).values == (0, 2, 0, 2) == hurwitz_vector(t2).values
    assert nu_vector(v1).values == nu_vector(v1).values
    assert nu_vector(v1).values != nu_vector(v2).values


def test_triangle_prisms_and_their_folds():
    for base, fold in ((UNIT_TRIANGLE, 4), (BIG_TRIANGLE, 16)):
        pr = prism_configuration(base)
        encodings = accepted(pr)
        assert len(encodings) == 6
        for enc in encodings:
            t = Triangulation.decode(pr, enc)
            top = eta_k(t, 3)
            for i in range(1, 4):
                assert top.entry(i) + top.entry(i + 3) == fold


def classify(config):
    """Labels split into polygon vertices, edge-interior, and interior."""
    vertices = set()
    for mask in config.face_point_masks(0):
        vertices.update(i + 1 for i in range(len(config.points)) if mask >> i & 1)
    bmask = reduce(or_, config.face_point_masks(config.dim - 1))
    boundary = {i + 1 for i in range(len(config.points)) if bmask >> i & 1}
    labels = set(range(1, len(config.points) + 1))
    return vertices, boundary - vertices, labels - boundary


def test_vertical_fold_matches_hurwitz_everywhere():
    for config in (SQUARE, VERONESE, HEXAGON):
        for t in all_regular(config):
            vt = vertical_triangulation(t)
            assert nu_vector(vt).values == hurwitz_vector(t).values


def test_vertical_fold_identities_by_point_class():
    for config in (SQUARE, VERONESE, HEXAGON):
        m = len(config.points)
        vertices, edge_interior, interior = classify(config)
        for t in all_regular(config):
            vt = vertical_triangulation(t)
            folds = {}
            for k in range(4):
                ek = eta_k(vt, k)
                folds[k] = [ek.entry(i) + ek.entry(i + m) for i in range(1, m + 1)]
            e2 = eta_k(t, 2)
            e1 = eta_k(t, 1)
            for i in range(1, m + 1):
                got = tuple(folds[k][i - 1] for k in (3, 2, 1, 0))
                if i in vertices:
                    want = (
                        4 * e2.entry(i),
                        2 * e2.entry(i) + 3 * e1.entry(i),
                        2 * e1.entry(i) + 2,
                        2,
                    )
                elif i in edge_interior:
                    want = (
                        4 * e2.entry(i),
                        2 * e2.entry(i) + 3 * e1.entry(i),
                        2 * e1.entry(i),
                        0,
                    )
                else:
                    assert i in interior
                    want = (4 * e2.entry(i), 2 * e2.entry(i), 0, 0)
                assert got == want, (config.points, t.encode(), i)


def twisted_refinement():
    """A regular hexagon triangulation and a non-regular refinement of
    its vertical prism triangulation.

    The base's interior edges (2,4), (4,6), (2,6) form a 3-cycle, so the
    per-prism staircases below cannot come from one global vertex order.
    """
    base = Triangulation(
        HEXAGON, [(2, 3, 4), (4, 5, 6), (2, 6, 7), (1, 2, 4), (1, 4, 6), (1, 2, 6)]
    )
    pr = prism_configuration(HEXAGON)
    m = pr.base_size
    orders = {
        (2, 3, 4): (2, 3, 4),
        (4, 5, 6): (4, 5, 6),
        (2, 6, 7): (6, 7, 2),
        (1, 2, 4): (1, 2, 4),
        (1, 4, 6): (1, 4, 6),
        (1, 2, 6): (1, 6, 2),
    }
    cells = []
    for x1, x2, x3 in orders.values():
        cells.append((x1, x2, x3, x3 + m))
        cells.append((x1, x2, x2 + m, x3 + m))
        cells.append((x1, x1 + m, x2 + m, x3 + m))
    return base, Triangulation(pr, cells)


def test_twisted_refinement_is_nonregular_but_folds_the_same():
    base, twisted = twisted_refinement()
    base.validate()
    assert is_regular(base)
    twisted.validate()
    assert is_regular(twisted) is None
    assert nu_vector(twisted).values == hurwitz_vector(base).values


def test_cell_by_point_decider_reads_no_circuit(monkeypatch):
    # the test oracle must stay independent of the fold rows, which are
    # built from circuits: with circuit_of gone it still agrees with them
    targets = []
    for config in (SQUARE, HEXAGON, VERONESE):
        t = placing_triangulation(config)
        targets += [t] + [flip(t, c) for c in supported_flips(t)]
    targets.append(twisted_refinement()[1])
    quick = [engine(t.config).regular_quick(t.masks)[0] for t in targets]
    assert not quick[-1] and all(quick[:-1])

    def no_circuit(*args):
        raise AssertionError("circuit read")

    monkeypatch.setattr(Engine, "circuit_of", no_circuit)
    assert [is_regular(t) is not None for t in targets] == quick


def test_fold_sum_is_twice_the_hurwitz_degree():
    pr = prism_configuration(HEXAGON)
    targets = [Triangulation.decode(pr, FIFTEEN)]
    targets += [vertical_triangulation(t) for t in all_regular(HEXAGON)]
    for t in targets:
        assert sum(nu_vector(t).values) == 2 * (3 * 6 - 6)


def test_fifteen_tetrahedra_fixture():
    pr = prism_configuration(HEXAGON)
    t = Triangulation.decode(pr, FIFTEEN)
    t.validate()
    assert len(t.cells) == 15
    assert is_regular(t)
    assert nu_vector(t).values == (2, 7, 4, 0, 7, 4, 0)
    assert find_cubic_mixed(t) == []


def test_vertical_triangulations_have_no_cubic_mixed_simplex():
    for config in (SQUARE, HEXAGON):
        for t in all_regular(config):
            assert find_cubic_mixed(vertical_triangulation(t)) == []


def cube_mixed_triangulations():
    pr = prism_configuration(SQUARE)
    out = []
    for enc in accepted(pr):
        t = Triangulation.decode(pr, enc)
        found = find_cubic_mixed(t)
        if found:
            out.append((t, found))
    return out


def test_cube_mixed_simplices_and_midpoint_shifts():
    hits = cube_mixed_triangulations()
    assert len(hits) == 2
    tets = {ms.tet for _, found in hits for ms in found}
    assert (1, 3, 6, 8) in tets

    pr = prism_configuration(SQUARE)
    for t, found in hits:
        assert nu_vector(t).values == (1, 1, 1, 1)
        ms = found[0]
        a, b, c, d = mixed_volumes(pr, ms)
        vol = engine(pr).volume(Triangulation(pr, [ms.tet]).masks[0])
        assert a + b == c + d == vol

        one = flip(t, circuit_z1(pr, ms))
        other = flip(t, circuit_z2(pr, ms))
        one.validate()
        other.validate()
        nu = nu_vector(t).values
        nu1 = nu_vector(one).values
        nu2 = nu_vector(other).values
        shift = {ms.i: -d, ms.j: -c, ms.ip: b, ms.jp: a}
        for label in range(1, 5):
            assert nu1[label - 1] == nu[label - 1] + shift.get(label, 0)
            assert nu2[label - 1] == nu[label - 1] - shift.get(label, 0)
        assert all(
            2 * x == y + z for x, y, z in zip(nu, nu1, nu2)
        ), "folded vector is not the midpoint of its two modifications"


def test_h_equivalence_of_the_two_mixed_triangulations():
    (t1, _), (t2, _) = cube_mixed_triangulations()
    assert t1 != t2
    assert t1.config.digest() == t2.config.digest()
    assert nu_vector(t1).values == nu_vector(t2).values
