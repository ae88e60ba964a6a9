"""Toric K-energy of convex piecewise-linear functions, two ways.

A convex rational PL function on Q is held as its affine pieces (the
forms of a max of affine forms, or the planes of the lower facets of
heights on the configuration points) and is the max of them. Its values,
dilations and domains of linearity, where each piece attains the max
(De Loera-Rambau-Santos, Triangulations, ch. 2 and 5), are read off the
pieces once they are checked against the heights. Its K-energy

    L(f) = integral of f over the boundary - n (vol dQ / vol Q) integral of f

is computed once from the two integrals and once through the pairing
with the weight vectors of a triangulation refining f's domains of
linearity; both routes are exact rationals and must agree.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, lcm

from .errors import (
    CheckFailed,
    DimensionUnsupported,
    LinearityViolation,
    NonConvex,
    TriangulationMismatch,
)
from .geometry import LatticePolytope, PointConfiguration
from .linalg import det_int, lattice_length, rank_int, scale_to_integers, solve_rational
from .polytopes import hurwitz_degree_formula
from .triangulation import (
    Triangulation,
    _labels,
    _walls,
    engine,
    height_subdivision,
    placing_triangulation,
)
from .weights import eta_k, hurwitz_vector


class PLFunction:
    """Convex piecewise-linear function on the hull of a configuration."""

    def __init__(self, config, heights, forms=None):
        self.config = config
        self.heights = tuple(Fraction(h) for h in heights)
        self.forms = None if forms is None else _affine_forms(config, forms)
        if len(self.heights) != len(config):
            raise ValueError("one height per configuration point")
        self._order = None
        self._dilated = {}

    @classmethod
    def from_heights(cls, config, heights):
        """Heights that must already sit on their own lower hull."""
        f = cls(config, heights)._tiling()
        for label in config.labels():
            value = f(config.point(label))
            if value != f.heights[label - 1]:
                raise NonConvex(
                    f"height at point {label} lies above the lower hull "
                    f"({f.heights[label - 1]} > {value})"
                )
        return f

    @classmethod
    def envelope(cls, config, heights):
        """Convexification: replace each height by its lower-hull value."""
        raw = cls(config, heights)._tiling()
        f = cls(config, [raw(p) for p in config.points])
        f._pieces = raw._pieces  # its lower facets, checked on raw already
        return f

    @classmethod
    def from_affine(cls, config, forms):
        """Pointwise max of affine forms (a1, ..., an, c)."""
        forms = _affine_forms(config, forms)
        if not forms:
            raise ValueError("need at least one affine form")
        heights = [
            max(_affine_at(form, config.point(label)) for form in forms)
            for label in config.labels()
        ]
        return cls(config, heights, forms)

    def __call__(self, point):
        if len(point) != self.config.dim:
            raise ValueError(f"point {point} is not in {self.config.dim} dimensions")
        if not self.config.polytope.contains(point):
            raise ValueError(f"point {point} is outside the configuration hull")
        return max(_affine_at(piece, point) for piece in self._pieces)

    def value_at_label(self, label):
        return self.heights[label - 1]

    @cached_property
    def _pieces(self):
        """Affine pieces (a1, ..., an, c) whose max is the function: the
        forms, or the plane through each lower facet of the heights."""
        if self.forms is not None:
            return self.forms
        pieces = []
        for cell in height_subdivision(self.config, self.heights):
            rows = [self.config.point(label) + (1,) for label in cell]
            piece = solve_rational(rows, [self.heights[label - 1] for label in cell])
            if piece is None:
                raise CheckFailed(f"lower facet {cell} is not flat")
            pieces.append(tuple(piece))
        return tuple(pieces)

    @cached_property
    def _domains(self):
        """Label masks of the full-dimensional domains of linearity, each once.

        A piece's domain is the set of points where it equals the height;
        every piece must lie on or below the height at every point.
        """
        domains = []
        for piece in self._pieces:
            mask, rows = 0, []
            for i, (p, h) in enumerate(zip(self.config.points, self.heights)):
                value = _affine_at(piece, p)
                if value > h:
                    raise CheckFailed(f"an affine piece lies above the height at point {i + 1}")
                if value == h:
                    mask |= 1 << i
                    rows.append(p + (1,))
            if mask not in domains and rank_int(rows) == self.config.dim + 1:
                domains.append(mask)
        return domains

    @cached_property
    def refinement(self):
        """Regular triangulation refining the domains of linearity."""
        return _refine_heights(self.config, self._domains)

    @cached_property
    def is_faithful(self):
        """Whether the domains tile Q: the refinement's volumes sum to Q's."""
        eng = engine(self.config)
        covered = sum(eng.volume(mask) for mask in self.refinement.masks)
        return covered == eng.hull_volume

    def _tiling(self):
        """f itself, once its domains are checked to tile Q."""
        if not self.is_faithful:
            raise CheckFailed("the domains of linearity do not tile Q")
        return self

    def dilation_order(self):
        """Minimal k so the function on kQ has lattice linearity domains.

        Heights break only at configuration points, so their order is 1;
        a max of forms has the order its domain vertices give.
        """
        if self._order is None:
            self._order = 1
            if self.forms is not None:
                self._order = _clearing_order(self.config, self.forms)
        return self._order

    def _at_order(self):
        """(g, k): the function on kQ for its dilation order k.

        g is f itself when k is 1 and f's domains tile Q, and otherwise
        the dilation by k, whose domains are checked to tile kQ. A
        function given by heights must tile Q and is never dilated.
        """
        k = self.dilation_order()
        if k == 1 and (self.forms is None or self.is_faithful):
            return self._tiling(), 1
        return self.dilate(k)._tiling(), k

    def dilate(self, k):
        """The function x -> k f(x/k) on the lattice points of kQ, built once
        per k as the max of the pieces (a, c) scaled to (a, k c)."""
        if k not in self._dilated:
            scaled = LatticePolytope([tuple(k * x for x in p) for p in self.config.points])
            big = PointConfiguration(sorted(scaled.lattice_points()))
            pieces = [piece[:-1] + (k * piece[-1],) for piece in self._pieces]
            self._dilated[k] = PLFunction.from_affine(big, pieces)
        return self._dilated[k]


def _affine_forms(config, forms):
    """The forms as tuples of Fractions, each (a1, ..., an, c) with n = config.dim."""
    forms = tuple(tuple(Fraction(x) for x in form) for form in forms)
    for form in forms:
        if len(form) != config.dim + 1:
            raise ValueError(f"affine form {form} needs {config.dim + 1} entries (a1, ..., an, c)")
    return forms


def _affine_at(form, point):
    return sum(a * x for a, x in zip(form, point)) + form[-1]


def _clearing_order(config, forms):
    """lcm of the coordinate denominators of the linearity domains' vertices.

    Domain i is {x in Q : form_i(x) >= form_j(x) for all j}, cut out by the
    facets of Q and the form differences. Its vertices are its points where
    d independent constraints are tight. A vertex of a lower-dimensional
    domain is a vertex of a full-dimensional one, so every domain counts.
    """
    d = config.dim
    # rows (a, c) of the constraints a.x + c >= 0, made integral below
    facets = [tuple(normal) + (-off,) for normal, off in config.polytope.facets]
    order = 1
    for i, fi in enumerate(forms):
        cons = list(facets)
        for j, fj in enumerate(forms):
            if j != i:
                cons.append(tuple(a - b for a, b in zip(fi, fj)))
        cons = [scale_to_integers(row)[0] for row in cons]
        if any(not any(row[:-1]) and row[-1] < 0 for row in cons):
            continue  # a form of equal slope lies above form i everywhere
        cons = [row for row in cons if any(row[:-1])]
        for tight in combinations(cons, d):
            normals = [row[:-1] for row in tight]
            if det_int(normals) == 0:
                continue
            x = solve_rational(normals, [-row[-1] for row in tight])
            if all(_affine_at(row, x) >= 0 for row in cons):
                order = lcm(order, *(c.denominator for c in x))
    return order


def _refine_heights(config, domains):
    """Regular triangulation refining the domains of linearity (masks).

    Each domain is triangulated by placing its points in label order.
    Placing refinements of one order agree on shared faces, and the
    placing refinement of a regular subdivision is regular
    (De Loera-Rambau-Santos, Triangulations, section 4.3).
    """
    simplex = config.dim + 1
    cells = []
    for mask in domains:
        if mask.bit_count() == simplex:
            cells.append(mask)
        else:
            cells.extend(placing_triangulation(config, _labels(mask)).masks)
    return Triangulation.from_masks(config, cells)


def induced_triangulation(f):
    """Regular triangulation on whose cells f is linear, with the dilation.

    Returns (triangulation, k). When f's linearity domains already have
    vertices on the configuration, k is 1 and the triangulation lives on
    f's own configuration; otherwise the function is recomputed on the
    lattice points of kQ for the minimal clearing k and the triangulation
    refers to that dilated configuration.
    """
    g, k = f._at_order()
    t = g.refinement
    _check_cells(g, t, CheckFailed)
    return t, k


def _check_cells(f, triangulation, error):
    """Every cell must lie in one domain of linearity of f."""
    if triangulation.config is not f.config and (
        triangulation.config.points != f.config.points
    ):
        raise error("triangulation lives on a different configuration")
    for cell in triangulation.masks:
        if not any(cell & domain == cell for domain in f._domains):
            raise error(f"function is not affine on cell {_labels(cell)}")


def integral_over_Q(f, triangulation):
    """Exact integral of f over Q: per cell, vol/(n+1)! times the vertex sum."""
    _check_cells(f, triangulation, LinearityViolation)
    eng = engine(f.config)
    n = f.config.polytope.dim
    total = Fraction(0)
    for mask in triangulation.masks:
        vertex_sum = sum(f.value_at_label(label) for label in _labels(mask))
        total += eng.volume(mask) * vertex_sum
    return total / factorial(n + 1)


def boundary_integral(f, triangulation):
    """Exact integral of f over the boundary of a polygon, against the
    lattice measure.

    The boundary edges are the walls of exactly one cell. Each contributes
    its lattice length times the average of the endpoint values, which is
    the exact integral of a function linear on the edge.
    """
    if f.config.dim != 2:
        raise DimensionUnsupported("boundary integral implemented for polygons")
    _check_cells(f, triangulation, LinearityViolation)
    total = Fraction(0)
    for wall, cells in _walls(engine(triangulation.config), triangulation.masks).items():
        if len(cells) == 1:
            a, b = _labels(wall)
            length = lattice_length(f.config.point(a), f.config.point(b))
            total += Fraction(length, 2) * (f.value_at_label(a) + f.value_at_label(b))
    return total


def k_energy_integral(f):
    """L(f) from the two integrals, dilating first when f needs it."""
    g, k = f._at_order()
    t = g.refinement
    poly = g.config.polytope
    n = poly.dim
    ratio = Fraction(poly.boundary_volume(), poly.normalized_volume())
    energy = boundary_integral(g, t) - n * ratio * integral_over_Q(g, t)
    return energy / (k * k)


def k_energy_pairing(f, triangulation=None):
    """L(f) through the weight vectors of a refining triangulation.

    Pairs the heights with n deg(Hurwitz) eta - (n+1) deg(Chow) xi and
    divides by (n+1)! vol(Q). The triangulation must refine f's domains
    of linearity; one is constructed when not supplied.
    """
    g, k = f._at_order()
    if triangulation is None:
        triangulation = g.refinement
    elif k != 1:
        raise TriangulationMismatch(
            "function needs dilation; pass no triangulation"
        )
    _check_cells(g, triangulation, TriangulationMismatch)
    poly = g.config.polytope
    n = poly.dim
    volume = poly.normalized_volume()
    deg_chow = volume
    deg_hurwitz = hurwitz_degree_formula(poly)
    eta = eta_k(triangulation, n).values
    xi = hurwitz_vector(triangulation).values
    weight = [
        n * deg_hurwitz * e - (n + 1) * deg_chow * x for e, x in zip(eta, xi)
    ]
    pairing = sum(h * w for h, w in zip(g.heights, weight))
    return pairing / (factorial(n + 1) * volume) / (k * k)
