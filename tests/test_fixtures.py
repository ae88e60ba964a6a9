"""Built-in fixture corpus: reflexivity, lattice data, base counts."""

import pytest

from regtriang.enumeration import enumerate_regular
from regtriang.errors import BadConfig
from regtriang.fixtures import fixture, fixture_names

REFLEXIVE_LABELS = (
    "3", "4a", "4b", "4c", "5a", "5b", "6a", "6b", "6c", "6d",
)


def test_fixture_names_cover_corpus():
    # [TRIVIAL] examples plus the ten reflexive classification labels.
    names = fixture_names()
    for name in ("square", "veronese", "hexagon", "triangle", "triangle4"):
        assert name in names
    for label in REFLEXIVE_LABELS:
        assert label in names


def test_unknown_fixture_raises():
    # [TRIVIAL]
    with pytest.raises(BadConfig):
        fixture("doughnut")


def test_fixture_instances_are_shared():
    # [TRIVIAL] repeated lookups return the same object (engine caching).
    assert fixture("hexagon") is fixture("hexagon")


def test_hexagon_is_row_6a():
    # [PAPER] the running hexagon example is the smooth seven-point row.
    assert fixture("hexagon").points == fixture("6a").points


@pytest.mark.parametrize("label", REFLEXIVE_LABELS)
def test_reflexive_fixture_lattice_data(label):
    """Each labeled polygon is reflexive with the advertised point count.

    [DERIVED] reflexive here means every facet inequality is
    normal.x >= -1 with a primitive inner normal, so the origin is the
    unique interior lattice point.  The label's leading digit counts the
    boundary lattice points, and the fixture lists every lattice point:
    the origin first, then the boundary.
    """
    config = fixture(label)
    poly = config.polytope
    assert poly.dim == 2
    assert all(offset == -1 for _, offset in poly.facets)
    boundary = int(label[0])
    points = set(config.points)
    assert len(config) == boundary + 1
    assert config.points[0] == (0, 0)
    assert points == set(poly.lattice_points())
    assert poly.boundary_volume() == boundary
    # normalized area of a reflexive polygon equals its boundary count
    assert poly.normalized_volume() == boundary


@pytest.mark.parametrize(
    "label,count",
    [
        ("3", 2),
        ("4a", 3),
        ("4b", 4),
        ("4c", 4),
        ("5a", 10),
        ("5b", 12),
        ("6a", 32),
        ("6b", 35),
        ("6c", 32),
        ("6d", 32),
    ],
)
def test_reflexive_base_counts(label, count):
    # [DERIVED] regular-triangulation counts of the polygons themselves,
    # cross-checked against a brute-force oracle in the oracle tests.
    assert enumerate_regular(fixture(label)) == count
