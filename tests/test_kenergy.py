import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtriang import kenergy, lp, triangulation
from regtriang.errors import (
    CheckFailed,
    DimensionUnsupported,
    LinearityViolation,
    NonConvex,
    TriangulationMismatch,
)
from regtriang.fixtures import fixture
from regtriang.geometry import PointConfiguration
from regtriang.prism import prism_configuration
from regtriang.kenergy import (
    PLFunction,
    boundary_integral,
    induced_triangulation,
    integral_over_Q,
    k_energy_integral,
    k_energy_pairing,
)
from regtriang.triangulation import Triangulation, height_subdivision, is_regular

from oracles import refine_by_lower_hull

SQUARE = PointConfiguration([(0, 0), (1, 0), (1, 1), (0, 1)])

VERONESE = PointConfiguration([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

HEXAGON = PointConfiguration(
    [(0, 0), (0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0)]
)


def test_lower_hull_heights_induce_their_triangulation():
    f = PLFunction.from_heights(SQUARE, [0, 1, 0, 1])
    t, k = induced_triangulation(f)
    assert k == 1
    assert t.encode() == "1,2,3;1,3,4"


def test_affine_break_through_lattice_points():
    f = PLFunction.from_affine(SQUARE, [(0, 0, 0), (1, 1, -1)])
    assert f.is_faithful
    t, k = induced_triangulation(f)
    assert k == 1
    # the break line runs through the two off-diagonal corners
    assert t.encode() == "1,2,4;2,3,4"
    assert integral_over_Q(f, t) == Fraction(1, 6)
    assert k_energy_integral(f) == Fraction(1, 3)
    assert k_energy_pairing(f, t) == Fraction(1, 3)


def test_affine_function_gets_some_regular_triangulation():
    f = PLFunction.from_affine(HEXAGON, [(1, 2, 0)])
    t, k = induced_triangulation(f)
    assert k == 1
    assert t.validate()
    assert is_regular(t)


def test_integral_examples():
    one = PLFunction.from_affine(HEXAGON, [(0, 0, 1)])
    t, _ = induced_triangulation(one)
    assert integral_over_Q(one, t) == 3
    x = PLFunction.from_heights(SQUARE, [0, 1, 1, 0])
    tx, _ = induced_triangulation(x)
    assert integral_over_Q(x, tx) == Fraction(1, 2)


def test_boundary_examples():
    one = PLFunction.from_affine(HEXAGON, [(0, 0, 1)])
    t, _ = induced_triangulation(one)
    assert boundary_integral(one, t) == 6
    x = PLFunction.from_heights(SQUARE, [0, 1, 1, 0])
    tx, _ = induced_triangulation(x)
    assert boundary_integral(x, tx) == 2
    # an affine function centered on the symmetric hexagon cancels
    aff = PLFunction.from_affine(HEXAGON, [(1, 2, 0)])
    ta, _ = induced_triangulation(aff)
    assert boundary_integral(aff, ta) == 0


def test_boundary_integral_is_planar_only():
    cube = prism_configuration(fixture("square"))
    one = PLFunction.from_affine(cube, [(0, 0, 0, 1)])
    with pytest.raises(DimensionUnsupported):
        boundary_integral(one, one.refinement)


def test_envelope_needs_one_height_per_point(monkeypatch):
    def no_lift(*args):
        raise AssertionError("heights lifted")

    monkeypatch.setattr(kenergy, "height_subdivision", no_lift)
    monkeypatch.setattr(triangulation, "lower_hull_subdivision", no_lift)
    for heights in ([1, 2, 3], [0] * 8):
        with pytest.raises(ValueError, match="one height per configuration point"):
            PLFunction.envelope(fixture("hexagon"), heights)


@pytest.mark.parametrize("form", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
def test_affine_forms_need_one_entry_per_coordinate_and_a_constant(form):
    hexagon = fixture("hexagon")
    with pytest.raises(ValueError, match="needs 3 entries"):
        PLFunction.from_affine(hexagon, [(0, 0, 1), form])
    with pytest.raises(ValueError, match="needs 3 entries"):
        PLFunction(hexagon, [0] * 7, [form])


@pytest.mark.parametrize(
    "point, message",
    [
        ((1,), "not in 2 dimensions"),
        ((1, 5, 7), "not in 2 dimensions"),
        ((1, -1), "outside the configuration hull"),
        ((Fraction(1, 2), 5), "outside the configuration hull"),
    ],
    ids=["short", "long", "outside", "outside-rational"],
)
def test_a_point_of_the_wrong_dimension_is_refused_on_both_routes(point, message):
    hexagon = fixture("hexagon")
    f = PLFunction.from_affine(hexagon, [(1, 0, 0), (0, 1, 0)])
    for route in (f, PLFunction(hexagon, f.heights)):
        assert route((1, 0)) == 1
        assert route((Fraction(1, 2), Fraction(-1, 2))) == Fraction(1, 2)
        with pytest.raises(ValueError, match=message):
            route(point)


def test_square_height_example_both_routes():
    f = PLFunction.from_heights(SQUARE, [0, 1, 0, 1])
    t, _ = induced_triangulation(f)
    assert integral_over_Q(f, t) == Fraction(1, 3)
    assert boundary_integral(f, t) == 2
    assert k_energy_integral(f) == Fraction(2, 3)
    assert k_energy_pairing(f, t) == Fraction(2, 3)


def test_constant_and_scaling():
    c = PLFunction.from_affine(HEXAGON, [(0, 0, 7)])
    assert k_energy_integral(c) == 0
    assert k_energy_pairing(c) == 0
    f = PLFunction.from_heights(SQUARE, [0, 1, 0, 1])
    g = PLFunction.from_heights(SQUARE, [0, 3, 0, 3])
    assert k_energy_integral(g) == 3 * k_energy_integral(f)
    assert k_energy_pairing(g) == 3 * k_energy_pairing(f)


def test_off_lattice_break_needs_dilation():
    f = PLFunction.from_affine(SQUARE, [(0, 0, 0), (2, 0, -1)])
    assert not f.is_faithful
    assert f.dilation_order() == 2
    t, k = induced_triangulation(f)
    assert k == 2
    assert len(t.config) == 9
    assert k_energy_integral(f) == Fraction(1, 2)
    assert k_energy_pairing(f) == Fraction(1, 2)


def test_nonconvex_heights_rejected_and_enveloped():
    bump = [2, 0, 0, 0, 0, 0, 0]
    with pytest.raises(NonConvex):
        PLFunction.from_heights(HEXAGON, bump)
    flat = PLFunction.envelope(HEXAGON, bump)
    assert flat.heights == (0,) * 7
    # dents are fine: the center can hang strictly below the rim
    dent = PLFunction.from_heights(HEXAGON, [-1, 0, 0, 0, 0, 0, 0])
    assert dent.heights[0] == -1


def test_mismatched_triangulations_are_rejected():
    f = PLFunction.from_heights(SQUARE, [0, 1, 0, 1])
    other = Triangulation.decode(SQUARE, "1,2,4;2,3,4")
    with pytest.raises(TriangulationMismatch):
        k_energy_pairing(f, other)
    with pytest.raises(LinearityViolation):
        integral_over_Q(f, other)
    with pytest.raises(LinearityViolation):
        boundary_integral(f, other)
    hex_t, _ = induced_triangulation(
        PLFunction.from_affine(HEXAGON, [(0, 0, 1)])
    )
    with pytest.raises(TriangulationMismatch):
        k_energy_pairing(f, hex_t)


def test_pairing_is_refinement_independent():
    f = PLFunction.from_affine(SQUARE, [(1, 1, 0)])
    t1 = Triangulation.decode(SQUARE, "1,2,3;1,3,4")
    t2 = Triangulation.decode(SQUARE, "1,2,4;2,3,4")
    assert k_energy_pairing(f, t1) == k_energy_pairing(f, t2)
    assert k_energy_pairing(f, t1) == k_energy_integral(f)


def test_random_convex_functions_cross_check():
    rng = random.Random(20240811)
    for config in (SQUARE, VERONESE, HEXAGON):
        for trial in range(100):
            raw = [
                Fraction(rng.randrange(-12, 13), rng.choice((1, 1, 2, 3)))
                for _ in range(len(config))
            ]
            f = PLFunction.envelope(config, raw)
            t, k = induced_triangulation(f)
            assert k == 1
            assert t == refine_by_lower_hull(config, f.heights)
            energy = k_energy_integral(f)
            assert k_energy_pairing(f, t) == energy
            assert k_energy_integral(
                PLFunction(config, [2 * h for h in f.heights])
            ) == 2 * energy


def test_fractional_constant_needs_its_denominator_cleared():
    # max(x, 1/2 - x) breaks at x = 1/4, so the order is 4, not 2
    f = PLFunction.from_affine(SQUARE, [(1, 0, 0), (-1, 0, "1/2")])
    assert f.dilation_order() == 4
    assert k_energy_integral(f) == k_energy_pairing(f)


def test_configuration_missing_lattice_points_probes_order_one():
    # triangle4 holds only the corners of 2x the unit triangle;
    # max(0, x + y - 1) breaks through its edge midpoints (1, 0), (0, 1)
    forms = [(0, 0, 0), (1, 1, -1)]
    f = PLFunction.from_affine(fixture("triangle4"), forms)
    assert not f.is_faithful
    assert f.dilation_order() == 1
    full = PLFunction.from_affine(
        PointConfiguration(f.config.polytope.lattice_points()), forms
    )
    assert full.is_faithful
    assert k_energy_integral(f) == k_energy_pairing(f) == Fraction(1, 2)
    assert k_energy_integral(full) == k_energy_pairing(full) == Fraction(1, 2)


def test_k_energy_solves_no_lp(monkeypatch):
    def no_lp(*args):
        pytest.fail("an LP was solved")

    monkeypatch.setattr(lp, "_phase1", no_lp)
    f = PLFunction.envelope(HEXAGON, [-1, 0, 1, 2, 1, 0, 1])
    g = PLFunction.from_affine(SQUARE, [(0, 0, 0), (3, 0, -1)])
    for h in (f, g, PLFunction(HEXAGON, f.heights)):
        assert k_energy_integral(h) == k_energy_pairing(h)
    assert induced_triangulation(g)[1] == 3


def _lying_hull(monkeypatch, lie):
    real = kenergy.height_subdivision

    def lying(config, heights):
        return lie(real(config, heights))

    monkeypatch.setattr(kenergy, "height_subdivision", lying)


@pytest.mark.parametrize(
    "lie",
    [
        lambda cells: cells[1:],  # drops a facet
        lambda cells: [(1, 2, 4), (2, 3, 4)],  # flat, tiling, but above 3 and 1
        lambda cells: cells + [(1, 2, 3, 4)],  # four points on no one plane
    ],
    ids=["dropped", "other-diagonal", "not-flat"],
)
def test_a_lying_hull_never_gives_a_number(monkeypatch, lie):
    # [0, 1, 0, 1] on the square creases along the diagonal 1-3
    heights = [0, 1, 0, 1]
    assert height_subdivision(SQUARE, heights) == [(1, 2, 3), (1, 3, 4)]
    _lying_hull(monkeypatch, lie)
    with pytest.raises(CheckFailed):
        PLFunction.envelope(SQUARE, heights)
    with pytest.raises(CheckFailed):
        PLFunction.from_heights(SQUARE, heights)
    f = PLFunction(SQUARE, heights)
    with pytest.raises(CheckFailed):
        k_energy_integral(f)
    with pytest.raises(CheckFailed):
        k_energy_pairing(f)


def test_failed_dilation_bound_is_a_library_error(monkeypatch):
    # a wrong order (1 for this order-2 function) fails the faithfulness check
    monkeypatch.setattr(kenergy, "_clearing_order", lambda config, forms: 1)
    f = PLFunction.from_affine(SQUARE, [(0, 0, 0), (2, 0, -1)])
    assert f.dilation_order() == 1
    with pytest.raises(CheckFailed):
        k_energy_integral(f)


def _count_refinements(monkeypatch):
    builds = []
    real = kenergy._refine_heights

    def counting(config, heights):
        builds.append(len(config))
        return real(config, heights)

    monkeypatch.setattr(kenergy, "_refine_heights", counting)
    return builds


def test_one_refinement_per_function(monkeypatch):
    builds = _count_refinements(monkeypatch)
    f = PLFunction.from_heights(SQUARE, [0, 1, 0, 1])
    energy = k_energy_integral(f)
    assert k_energy_pairing(f) == energy
    assert induced_triangulation(f)[1] == 1
    assert builds == [4]


def test_one_refinement_per_probed_dilation(monkeypatch):
    builds = _count_refinements(monkeypatch)
    # the break line x = 1/3 gives the order 3: only 3Q is built
    f = PLFunction.from_affine(SQUARE, [(0, 0, 0), (3, 0, -1)])
    assert k_energy_integral(f) == k_energy_pairing(f)
    assert induced_triangulation(f)[1] == 3
    assert builds == [16]


def test_dilation_order_is_read_off_without_building(monkeypatch):
    def build(*args):
        pytest.fail("the order was probed by a build")

    monkeypatch.setattr(kenergy, "_refine_heights", build)
    monkeypatch.setattr(PLFunction, "dilate", build)
    # domain vertices (1/2, 1/2), (1/3, 1/3) and (-1/5, 3/5)
    f = PLFunction.from_affine(fixture("3"), [(1, 0, 0), (0, 1, 0), (-1, -1, 1)])
    assert f.dilation_order() == 30
    g = PLFunction.from_affine(fixture("4c"), [(0, 0, "1/3"), (1, 2, 0)])
    assert g.dilation_order() == 63


def probed_order(f, cap):
    """Reference: the least k <= cap whose dilation is faithful, found by
    building each dilation in turn; None past the cap."""
    return next((k for k in range(1, cap + 1) if f.dilate(k).is_faithful), None)


_PROBE_CAP = 5  # a probe at k builds a hull of ~k^2 area(Q) lifted points
_THIRDS = st.fractions(min_value=-1, max_value=1, max_denominator=3)
_FORM = st.tuples(
    _THIRDS, _THIRDS, st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("square", "hexagon", "triangle4")),
    st.lists(_FORM, min_size=2, max_size=3),
)
def test_dilation_order_equals_the_probe(name, forms):
    f = PLFunction.from_affine(fixture(name), forms)
    probed = probed_order(f, _PROBE_CAP)
    if probed is None:
        assert f.dilation_order() > _PROBE_CAP
    else:
        assert f.dilation_order() == probed
        # at its order, the domains refine as the lifted lower hull does
        t, k = induced_triangulation(f)
        g = f if t.config is f.config else f.dilate(k)
        assert t == refine_by_lower_hull(g.config, g.heights)


_RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@st.composite
def _heights(draw):
    config = fixture(draw(st.sampled_from(("square", "4c", "hexagon"))))
    n = len(config)
    return config, draw(st.lists(_RATIONAL, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(_heights())
def test_refinement_is_a_regular_triangulation_inside_the_subdivision(data):
    config, heights = data
    t = PLFunction(config, heights).refinement
    t.validate()
    assert is_regular(t)
    coarse = [set(cell) for cell in height_subdivision(config, heights)]
    for cell in t.cells:
        assert any(set(cell) <= big for big in coarse)


@settings(max_examples=40, deadline=None)
@given(
    _heights(),
    st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7),
    st.tuples(*[st.integers(-5, 5)] * 3),
)
def test_refinement_ignores_scale_and_affine_shift(data, scale, shift):
    config, heights = data
    a1, a2, c = shift
    moved = [
        scale * h + a1 * x + a2 * y + c
        for h, (x, y) in zip(heights, config.points)
    ]
    assert PLFunction(config, moved).refinement == PLFunction(config, heights).refinement
