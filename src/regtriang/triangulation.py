"""Triangulations of point configurations: validity, regularity, flips.

A triangulation is the sorted tuple of its cell bitmasks (bit i-1 =
label i); the sorted-label view and its string encoding are derived on
first use. A per-configuration engine caches simplex volumes and
affine dependences, since enumeration revisits the same small sets
constantly. The dependences decide containment too: a point lies in a
full-dimensional cell iff it is alone on its side of their circuit.

Fold rows and flips read one circuit list per triangulation,
`Engine.circuits`: the circuit of the two cells across each interior
wall, and of each unused point with the cell that holds it. Each is a
wall inequality of the secondary cone, and each may support a flip.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import or_

from .errors import (
    CheckFailed,
    DegenerateSimplex,
    OverlapNotFace,
    UnsupportedFlip,
    VolumeMismatch,
)
from .geometry import LatticePolytope, bit_indices, place
from .linalg import (
    affine_dependence,
    barycentric,
    normalized_simplex_volume,
    rank_int,
    scale_to_integers,
)
# max_eq_lp is not called here, but perfbench/layertrace.py looks it up as
# `triangulation.max_eq_lp` to count the K-energy LPs, so the name stays
from .lp import max_eq_lp, max_lp, strict_feasible


class NotRegular:
    """Falsy marker returned when no strictly convex heights exist."""

    def __bool__(self):
        return False

    def __repr__(self):
        return "NotRegular"


NOT_REGULAR = NotRegular()


def _labels(mask):
    return tuple(i + 1 for i in bit_indices(mask))


def _mask(labels):
    m = 0
    for l in labels:
        if l < 1:
            raise DegenerateSimplex(f"label {l} is below 1")
        m |= 1 << (l - 1)
    return m


@dataclass(frozen=True)
class Circuit:
    """A minimal affine dependence, split into its two sign classes.

    `plus` and `minus` are point masks (bit i-1 = label i), and `support`
    is their union; `plus` holds the smallest label of the support.
    Coefficients are the primitive integer dependence values, keyed by
    label, positive on `plus` and negative on `minus`.
    """

    plus: int
    minus: int
    coeffs: tuple  # ((label, coeff), ...) sorted by label

    @property
    def support(self):
        return self.plus | self.minus

    def __repr__(self):
        return f"Circuit(+{list(_labels(self.plus))}, -{list(_labels(self.minus))})"


class Triangulation:
    """A set of maximal simplices on a configuration, held as the sorted
    tuple of their cell bitmasks; the 1-based label view is derived."""

    def __init__(self, config, cells):
        self.config = config
        self.masks = tuple(sorted(_mask(c) for c in cells))

    @classmethod
    def from_masks(cls, config, masks):
        """The triangulation with these cell bitmasks, given in any order."""
        t = cls.__new__(cls)
        t.config = config
        t.masks = tuple(sorted(masks))
        return t

    @cached_property
    def cells(self):
        """Sorted label tuples of the cells (not aligned with `masks`)."""
        return tuple(sorted(_labels(m) for m in self.masks))

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.masks == other.masks
            and self.config.points == other.config.points
        )

    def __hash__(self):
        return hash(self.masks)

    def __repr__(self):
        return f"Triangulation({self.encode()})"

    def encode(self):
        return ";".join(",".join(str(l) for l in c) for c in self.cells)

    @classmethod
    def decode(cls, config, text):
        return cls(config, [map(int, part.split(",")) for part in text.split(";")])

    def validate(self):
        """Check the cells triangulate the hull; raise a specific error.

        The cells must be (n+1)-subsets of the labels with positive
        volume (else DegenerateSimplex) whose volumes sum to the hull's
        (else VolumeMismatch). No cell may repeat, every wall held by one
        cell must lie in a facet of the hull, every wall held by two must
        have them on opposite sides, and none may be held by three or more
        (else OverlapNotFace). This pseudo-manifold property makes the
        cells cover the hull a constant number of times, and the volume
        makes that number one (De Loera-Rambau-Santos, *Triangulations*,
        ch. 4). No LP is solved.
        """
        eng = engine(self.config)
        total = 0
        for mask in self.masks:
            if mask >> eng.m or mask.bit_count() != eng.n + 1:
                raise DegenerateSimplex(f"cell {_labels(mask)} is not an (n+1)-subset of 1..N")
            v = eng.volume(mask)
            if v == 0:
                raise DegenerateSimplex(f"cell {_labels(mask)} has volume 0")
            total += v
        if total != eng.hull_volume:
            raise VolumeMismatch(f"cells fill {total}, hull has {eng.hull_volume}")
        if len(set(self.masks)) != len(self.masks):
            raise OverlapNotFace("a cell appears twice")
        walls = _walls(self.masks)
        inside = [wall for wall, owners in walls.items() if len(owners) == 1]
        for facet in self.config.face_point_masks(eng.n - 1):
            inside = [wall for wall in inside if wall & ~facet]
        if inside:
            raise OverlapNotFace(f"wall {_labels(inside[0])} of one cell is inside the hull")
        try:
            eng.wall_circuits(walls)
        except CheckFailed as exc:
            raise OverlapNotFace(str(exc)) from None
        return True


def _walls(masks):
    """Each wall of the cells (a cell minus one point), mapped to the cells
    holding it in the order given."""
    walls = {}
    for cm in masks:
        mm = cm
        while mm:
            low = mm & (-mm)
            walls.setdefault(cm ^ low, []).append(cm)
            mm ^= low
    return walls


class Engine:
    """Per-configuration caches and the flip/regularity machinery.

    Regularity is decided on an affine frame: d+1 affinely independent
    labels, picked once, on the first fold. Every fold row is an affine
    dependence (its entries sum to 0 and sum r_i p_i = 0), so it vanishes
    on every affine function, and subtracting from heights g the affine
    function that agrees with g on the frame leaves each row value r.g
    unchanged. Strictly convex heights therefore exist iff some exist that
    are 0 on the frame: the fold drops the frame's columns, the dual LP
    loses d+1 of its m+1 equality rows, and the heights returned are 0
    there.
    """

    def __init__(self, config):
        # no reference back to config, so dropping it frees the engine too
        self.pts = config.points
        self.m = len(config.points)
        self.n = config.dim
        self.full_mask = (1 << self.m) - 1
        self.hull_volume = config.polytope.normalized_volume()
        self._vol = {}
        self._dep = {}
        self._circuits = {}
        # always empty, since circuits decide containment (cell_contains);
        # perfbench/layertrace.py counts its entries, so the name stays
        self._bary = {}
        # one int object per cell mask, shared by the mask tuples holding it
        self.cell_masks = {}

    def points_of(self, mask):
        return [self.pts[i] for i in bit_indices(mask)]

    def volume(self, mask):
        v = self._vol.get(mask)
        if v is None:
            v = normalized_simplex_volume(self.points_of(mask))
            self._vol[mask] = v
        return v

    def cell_contains(self, cell_mask, label):
        """Whether the point lies in the full-dimensional cell: it is a
        vertex, or alone on its side of the circuit of the cell and the
        point (so none of its barycentric coordinates is negative)."""
        bit = 1 << (label - 1)
        if cell_mask & bit:
            return True
        circ = self.circuit_of(cell_mask | bit)
        return bit in (circ.plus, circ.minus)

    def circuit_of(self, smask):
        """Circuit supported inside the point set smask, or None.

        smask must have a one-dimensional affine dependence space (r+2
        points spanning r dimensions).
        """
        if smask in self._dep:
            return self._dep[smask]
        labels = _labels(smask)
        dep = affine_dependence([self.pts[l - 1] for l in labels])
        if dep is None:
            self._dep[smask] = None
            return None
        support = [(l, c) for l, c in zip(labels, dep) if c != 0]
        if support[0][1] < 0:
            support = [(l, -c) for l, c in support]
        plus = _mask(l for l, c in support if c > 0)
        minus = _mask(l for l, c in support if c < 0)
        circ = self._circuits.get((plus, minus))
        if circ is None:
            circ = Circuit(plus=plus, minus=minus, coeffs=tuple(support))
            self._circuits[(plus, minus)] = circ
        self._dep[smask] = circ
        return circ

    # -- regularity ------------------------------------------------------

    @cached_property
    def frame(self):
        """Labels of the affine frame: the first affinely independent ones."""
        frame = []
        lifted = []
        for i, p in enumerate(self.pts):
            if rank_int(lifted + [list(p) + [1]]) > len(lifted):
                lifted.append(list(p) + [1])
                frame.append(i + 1)
                if len(frame) == self.n + 1:
                    break
        return tuple(frame)

    @cached_property
    def _free_columns(self):
        fixed = {l - 1 for l in self.frame}
        return tuple(i for i in range(self.m) if i not in fixed)

    def wall_circuits(self, walls):
        """(circuit of its two cells, apex label) for each wall of `walls`
        (see _walls) held by two cells, in order; the apex is the first
        cell's point off the wall. Raises CheckFailed if a wall is held by
        more than two cells, or its two cells lie on one side of it."""
        out = []
        for wall, owners in walls.items():
            if len(owners) == 1:
                continue
            if len(owners) != 2:
                raise CheckFailed("wall shared by more than two cells")
            a, b = owners
            circ = self.circuit_of(a | b)
            apex, other = a & ~wall, b & ~wall
            # opposite sides of the wall are one sign class of its circuit
            if (
                circ is None
                or not apex & circ.support
                or not other & (circ.plus if apex & circ.plus else circ.minus)
            ):
                raise CheckFailed(f"cells {_labels(a)} and {_labels(b)} fold onto one side")
            out.append((circ, apex.bit_length()))
        return out

    def circuits(self, masks):
        """The cells' circuits, as (circuit, apex label) pairs.

        One per interior wall, in the order the cells meet it (see
        wall_circuits). Then one per unused point, ascending: the circuit
        of the point and the first cell that holds it, apex the point.
        (Cells meeting face to face give every cell holding the point the
        same circuit.) Raises CheckFailed when the cells do not fold like
        a triangulation (see wall_circuits) or a point is outside every
        cell.
        """
        out = self.wall_circuits(_walls(masks))
        for i in bit_indices(self.full_mask & ~reduce(or_, masks, 0)):
            host = next((cm for cm in masks if self.cell_contains(cm, i + 1)), None)
            if host is None:
                raise CheckFailed("unused point outside every cell")
            out.append((self.circuit_of(host | (1 << i)), i + 1))
        return out

    def fold_rows(self, masks):
        """Integer rows r with r.g > 0 for all rows iff heights g induce T.

        One row per circuit of the cells (see circuits), signed positive
        at its apex: local convexity of the fold across an interior wall,
        or an unused point lifted strictly above its cell. Each row is an
        affine dependence of the points, given without the frame's
        columns. Raises CheckFailed as circuits does.
        """
        rows = []
        for circ, apex in self.circuits(masks):
            sign = 1 if circ.plus & (1 << (apex - 1)) else -1
            row = [0] * self.m
            for l, c in circ.coeffs:
                row[l - 1] = sign * c
            rows.append(row)
        free = self._free_columns
        return [[row[i] for i in free] for row in rows]

    def regular_quick(self, masks):
        """Fast regularity decision via strict wall-fold feasibility.

        Returns (True, heights) with heights 0 on the frame, or
        (False, None).
        """
        heights = [Fraction(0)] * self.m
        rows = self.fold_rows(masks)
        if rows:
            ok, g, _ = strict_feasible(rows)
            if not ok:
                return False, None
            for i, x in zip(self._free_columns, g):
                heights[i] = x
        return True, tuple(heights)


# Live engines, for instrumentation only. The values are weak: an engine
# lives exactly as long as the configuration that holds it.
_ENGINES = weakref.WeakValueDictionary()


def engine(config):
    """The configuration's engine, built on first use and kept on it."""
    eng = config._engine
    if eng is None:
        eng = config._engine = Engine(config)
        _ENGINES[id(eng)] = eng
    return eng


def lower_hull_subdivision(config_points, heights):
    """Cells (point-index masks) of the lower hull of lifted points.

    Base points must span their ambient space. A height vector whose lift
    is not full-dimensional (an affine function) yields the single
    trivial cell. Heights are scaled to integers first: a positive scale
    leaves the cells unchanged and keeps the hull arithmetic on ints.
    """
    heights, _ = scale_to_integers(heights)
    lifted = [tuple(p) + (h,) for p, h in zip(config_points, heights)]
    poly = LatticePolytope(lifted)
    base_dim = len(config_points[0])
    if poly.dim <= base_dim:
        return [(1 << len(lifted)) - 1]
    # the lift spans its space, so the hull's normals are ambient normals,
    # and the facets with upward inner normals are the lower ones
    return sorted(m for normal, _, m in poly.hull.facets if normal[-1] > 0)


def height_subdivision(config, heights):
    """Label sets of the regular subdivision induced by heights."""
    masks = lower_hull_subdivision(config.points, heights)
    return [_labels(m) for m in masks]


def is_regular(triangulation):
    """Certified regularity: heights with strictly positive margin, or
    the falsy NOT_REGULAR.

    Solves the exact LP: variables are heights g in [-1, 1] and a margin
    d; for every cell and every point off the cell, the lift of the point
    must exceed the cell's affine interpolation by at least d; maximize d.
    The triangulation is regular iff the optimum is positive, and the
    returned heights are verified by reconstructing their subdivision.
    """
    config = triangulation.config
    eng = engine(config)
    m = len(config)
    rows = []
    for cell in triangulation.cells:
        cmask = _mask(cell)
        for label in config.labels():
            if cmask & (1 << (label - 1)):
                continue
            coords = barycentric(eng.points_of(cmask), config.point(label))
            if coords is None:  # a full-dimensional cell spans everything
                raise CheckFailed(f"cell {cell} does not span point {label}")
            den = lcm(*(c.denominator for c in coords))
            row = [0] * (m + 1)
            row[label - 1] = den
            for l, c in zip(cell, coords):
                row[l - 1] -= int(c * den)
            row[m] = -den  # ... - den * delta >= 0
            rows.append(row)
    if not rows:
        # every point is a vertex of the single cell; all heights work
        return _reconstructed(triangulation, tuple(Fraction(0) for _ in range(m)))
    # to standard <= form with x = g + 1 in [0, 2]: coefficient sums over
    # g-entries are zero, so the substitution leaves row values unchanged
    ineq = [[-v for v in row] for row in rows]
    for i in range(m):
        box = [0] * (m + 1)
        box[i] = 1
        ineq.append(box)
    rhs = [0] * len(rows) + [2] * m
    obj = [0] * m + [1]
    status, x, delta = max_lp(obj, ineq, rhs)
    if status != "optimal":
        raise CheckFailed(f"regularity LP ended {status}")
    if delta <= 0:
        return NOT_REGULAR
    return _reconstructed(triangulation, tuple(xi - 1 for xi in x[:m]))


def _reconstructed(triangulation, heights):
    """The heights, once their lower hull is checked to be the triangulation."""
    rebuilt = lower_hull_subdivision(triangulation.config.points, heights)
    if sorted(rebuilt) != sorted(triangulation.masks):
        raise CheckFailed("certificate failed to reproduce the triangulation")
    return heights


def placing_triangulation(config, order=None):
    """Triangulation built by inserting points in label order.

    Points inside the hull of the already-placed set are skipped; points
    outside cone over the visible boundary; points off the current affine
    span cone over every cell.
    """
    labels = order if order is not None else config.labels()
    cells, _ = place(config.points, [l - 1 for l in labels])
    return Triangulation.from_masks(config, cells)


def supported_flips(triangulation):
    """All circuits currently supporting a flip, in canonical order."""
    masks = triangulation.masks
    circuits = {c.support: c for c, _ in engine(triangulation.config).circuits(masks)}
    out = [c for c in circuits.values() if _present_side(masks, c) is not None]
    return sorted(out, key=lambda c: _labels(c.support))


def _present_side(masks, circ):
    """The side of the circuit present in T as (taus, link, new), or None.

    T holds every cell tau | lam, for tau the support minus one point of
    one side and lam in the link; the flip replaces them by the cells
    made with the points of the other side, `new` (a mask). The plus
    side (cells using all of circ.plus) is tried first.
    """
    smask = circ.support
    cellset = set(masks)
    for old, new in ((circ.minus, circ.plus), (circ.plus, circ.minus)):
        taus = [smask ^ (1 << i) for i in bit_indices(old)]
        tau0 = taus[0]
        link = [c & ~tau0 for c in masks if c & tau0 == tau0]
        if link and all(
            sum(1 for c in masks if c & tau == tau) == len(link)
            and all(tau | lam in cellset for lam in link)
            for tau in taus
        ):
            return taus, link, new
    return None


def flip(triangulation, circuit):
    """Apply the circuit flip; UnsupportedFlip if it does not apply."""
    eng = engine(triangulation.config)
    side = _present_side(triangulation.masks, circuit)
    if side is None:
        raise UnsupportedFlip(f"{circuit} is not supported")
    taus, link, new = side
    old_cells = {tau | lam for tau in taus for lam in link}
    result = [c for c in triangulation.masks if c not in old_cells]
    # no link mask meets the support, so the new cells are distinct
    new_cells = [(circuit.support ^ (1 << i)) | lam for i in bit_indices(new) for lam in link]
    result.extend(eng.cell_masks.setdefault(c, c) for c in new_cells)
    return Triangulation.from_masks(triangulation.config, result)
