from functools import cache
from itertools import combinations

import pytest

from oracles import hull_faces
from test_enumeration import accepted
from regtriang.fixtures import fixture, fixture_names
from regtriang.geometry import PointConfiguration
from regtriang.linalg import normalized_simplex_volume
from regtriang.prism import nu_vector, prism_configuration
from regtriang.triangulation import Triangulation, _mask, engine, placing_triangulation
from regtriang.weights import eta_k, hurwitz_vector, massive_gkz

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

HEXAGON_HURWITZ = {
    (12, 2, 2, 2, 2, 2, 2),
    (10, 0, 4, 2, 2, 2, 4),
    (10, 2, 2, 2, 4, 0, 4),
    (10, 2, 2, 4, 0, 4, 2),
    (10, 2, 4, 0, 4, 2, 2),
    (10, 4, 0, 4, 2, 2, 2),
    (10, 4, 2, 2, 2, 4, 0),
    (8, 0, 4, 2, 4, 0, 6),
    (8, 0, 4, 4, 0, 4, 4),
    (8, 0, 6, 0, 4, 2, 4),
    (8, 2, 4, 0, 6, 0, 4),
    (8, 4, 0, 4, 4, 0, 4),
    (8, 4, 0, 6, 0, 4, 2),
    (8, 4, 2, 4, 0, 6, 0),
    (8, 4, 4, 0, 4, 4, 0),
    (8, 6, 0, 4, 2, 4, 0),
    (6, 0, 6, 0, 6, 0, 6),
    (6, 6, 0, 6, 0, 6, 0),
    (0, 0, 4, 6, 4, 0, 10),
    (0, 0, 4, 8, 0, 4, 8),
    (0, 0, 8, 4, 0, 8, 4),
    (0, 0, 8, 0, 8, 0, 8),
    (0, 0, 10, 0, 4, 6, 4),
    (0, 4, 0, 8, 4, 0, 8),
    (0, 4, 0, 10, 0, 4, 6),
    (0, 4, 6, 4, 0, 10, 0),
    (0, 4, 8, 0, 4, 8, 0),
    (0, 6, 4, 0, 10, 0, 4),
    (0, 8, 0, 4, 8, 0, 4),
    (0, 8, 0, 8, 0, 8, 0),
    (0, 8, 4, 0, 8, 4, 0),
    (0, 10, 0, 4, 6, 4, 0),
}


@cache
def _oracle_face_masks(points):
    """{k: point masks of the k-faces} from the oracle's face search."""
    out = {}
    for d, _, on in hull_faces(list(points)):
        out.setdefault(d, []).append(sum(1 << i for i in on))
    return out


def is_massive(config, labels):
    """Reference: the simplex lies in a hull face of its own dimension;
    maximal simplices always do."""
    k = len(labels) - 1
    if k == config.dim:
        return True
    sm = _mask(labels)
    return any(sm & fm == sm for fm in _oracle_face_masks(config.points).get(k, []))


def reference_eta(triangulation, k):
    """Reference eta_k: its own pass over the distinct k-faces of the cells."""
    cfg = triangulation.config
    vals = [0] * len(cfg)
    faces = {sub for cell in triangulation.cells for sub in combinations(cell, k + 1)}
    for face in faces:
        if is_massive(cfg, face):
            v = normalized_simplex_volume([cfg.point(l) for l in face])
            for l in face:
                vals[l - 1] += v
    return tuple(vals)


def all_regular(config):
    return [Triangulation.decode(config, enc) for enc in accepted(config)]


def test_square_weight_vectors():
    t1 = Triangulation.decode(SQUARE, "1,2,3;1,3,4")
    assert eta_k(t1, 2).values == (2, 1, 2, 1)
    assert eta_k(t1, 1).values == (2, 2, 2, 2)
    assert eta_k(t1, 0).values == (1, 1, 1, 1)
    assert massive_gkz(t1).values == (1, 0, 1, 0)
    assert hurwitz_vector(t1).values == (2, 0, 2, 0)
    t2 = Triangulation.decode(SQUARE, "1,2,4;2,3,4")
    assert hurwitz_vector(t2).values == (0, 2, 0, 2)


def test_entry_accessor_is_one_based():
    t1 = Triangulation.decode(SQUARE, "1,2,3;1,3,4")
    v = eta_k(t1, 2)
    assert v.entry(1) == 2
    assert v.entry(4) == 1
    assert list(v) == [2, 1, 2, 1]
    assert len(v) == 4


def test_massiveness_on_the_hexagon():
    # label 1 is the interior point
    assert not is_massive(HEXAGON, (1,))
    assert not is_massive(HEXAGON, (1, 2))
    assert is_massive(HEXAGON, (2,))
    assert is_massive(HEXAGON, (2, 3))
    assert is_massive(HEXAGON, (1, 2, 3))  # full-dimensional
    # chords between non-adjacent vertices cross the interior
    assert not is_massive(HEXAGON, (2, 4))


def reference_vectors(triangulation):
    """(eta_0..eta_n, massive, hurwitz, nu) from the four reference passes;
    nu is None off a prism."""
    cfg = triangulation.config
    n = cfg.dim
    etas = [reference_eta(triangulation, k) for k in range(n + 1)]
    massive = tuple(
        sum((-1) ** (n - k) * etas[k][i] for k in range(n + 1)) for i in range(len(cfg))
    )
    hurwitz = tuple(n * a - b for a, b in zip(etas[n], etas[n - 1]))
    m = getattr(cfg, "base_size", None)
    nu = None if m is None else tuple(massive[i] + massive[i + m] for i in range(m))
    return etas, massive, hurwitz, nu


def _weight_vectors(t):
    """(eta_0..eta_n, massive, hurwitz, nu) as the package folds them, each
    weight map in turn; nu is None off a prism."""
    n = t.config.dim
    etas = [eta_k(t, k).values for k in range(n + 1)]
    nu = nu_vector(t).values if hasattr(t.config, "base_size") else None
    return etas, massive_gkz(t).values, hurwitz_vector(t).values, nu


def test_weight_vectors_match_the_four_pass_reference():
    # fresh configurations, so the first round fills the engine's shares
    # and the second reads them; every weight map is asked in turn for one
    # triangulation before the next, so the maps' shares never mix
    bases = [PointConfiguration(fixture(name).points) for name in fixture_names()]
    prisms = [prism_configuration(PointConfiguration(fixture(name).points)) for name in ("square", "4b", "4c")]
    for config in bases + prisms:
        sample = all_regular(config)
        expected = [reference_vectors(t) for t in sample]
        for _ in range(2):
            for t, want in zip(sample, expected):
                assert _weight_vectors(t) == want, (config.points, t.encode())
            sample.reverse()
            expected.reverse()
        # eta_0..eta_n, massive (which nu folds) and hurwitz: one map each
        assert len(engine(config).weight_shares) == config.dim + 3


def test_weight_vectors_need_no_label_cells(monkeypatch):
    # the face walk reads cell masks only
    prism = prism_configuration(fixture("hexagon"))
    sample = all_regular(prism_configuration(fixture("4b")))[::50]
    sample.append(placing_triangulation(prism))
    expected = [reference_vectors(t) for t in sample]

    def no_cells(self):
        raise AssertionError("label cells derived")

    monkeypatch.setattr(Triangulation, "cells", property(no_cells))
    for t, (etas, massive, hurwitz, nu) in zip(sample, expected):
        t = Triangulation.from_masks(t.config, t.masks)
        assert [eta_k(t, k).values for k in range(len(etas))] == etas
        assert massive_gkz(t).values == massive
        assert hurwitz_vector(t).values == hurwitz
        assert nu_vector(t).values == nu
    with pytest.raises(AssertionError, match="label cells"):
        Triangulation.from_masks(prism, sample[-1].masks).cells


def test_veronese_hurwitz_vectors_exactly():
    got = {hurwitz_vector(t).values for t in all_regular(VERONESE)}
    assert got == VERONESE_HURWITZ


def test_hexagon_hurwitz_vectors_exactly():
    got = {hurwitz_vector(t).values for t in all_regular(HEXAGON)}
    assert got == HEXAGON_HURWITZ


def test_weight_sums_depend_only_on_the_polygon():
    # volumes are normalized: unit triangle 1, unit boundary segment 1
    for config, vol, bvol in ((SQUARE, 2, 4), (VERONESE, 4, 6), (HEXAGON, 6, 6)):
        for t in all_regular(config):
            assert sum(eta_k(t, 2).values) == 3 * vol
            assert sum(eta_k(t, 1).values) == 2 * bvol
            assert sum(hurwitz_vector(t).values) == 2 * (3 * vol - bvol)
