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
A caller that holds the list passes it on, to `regular_quick` (and so
`fold_rows`) and, de-duplicated (`distinct_circuits`), to
`supported_flips`, which finds each circuit's present side once and
leaves it on the triangulation for `flip`.

A flip crosses one wall of the secondary fan (GKZ; De Loera-Rambau-Santos,
*Triangulations*, ch. 5), so the strictly convex heights of the
triangulation it came from, moved along that wall's normal, usually
certify the new one. `regular_quick` takes such a hint, (heights,
circuit), and tries it before any LP; heights it certifies are checked
on every fold row in integers, and `strict_feasible` runs only when the
hint fails.
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
    primitive,
    rank_int,
    scale_to_integers,
)
# nothing in the package calls max_eq_lp, but perfbench/layertrace.py counts
# calls to `triangulation.max_eq_lp` (now 0), so the name stays
from .lp import max_eq_lp, strict_feasible


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

    # present sides of the supported flips by circuit support, left by
    # supported_flips for flip
    _sides = None

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

    @cached_property
    def _frame_coords(self):
        """(D, columns): for each frame label f, D times the affine
        coordinate on f of each free column's point, as ints, with D > 0
        their common denominator. The circuit of the frame and a point p
        gives them: c_p p + sum_f c_f f = 0 puts p at -c_f / c_p on f."""
        frame = _mask(self.frame)
        free = self._free_columns
        deps = [dict(self.circuit_of(frame | 1 << i).coeffs) for i in free]
        den = lcm(*(dep[i + 1] for i, dep in zip(free, deps)))
        return den, {
            f: [-dep.get(f, 0) * (den // dep[i + 1]) for i, dep in zip(free, deps)]
            for f in self.frame
        }

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

    def fold_rows(self, masks, circuits=None):
        """Integer rows r with r.g > 0 for all rows iff heights g induce T.

        One row per circuit of the cells (see circuits; pass their list if
        it is at hand), signed positive at its apex: local convexity of the
        fold across an interior wall, or an unused point lifted strictly
        above its cell. Each row is an affine dependence of the points,
        given without the frame's columns. Raises CheckFailed as circuits
        does.
        """
        if circuits is None:
            circuits = self.circuits(masks)
        rows = []
        for circ, apex in circuits:
            sign = 1 if circ.plus & (1 << (apex - 1)) else -1
            row = [0] * self.m
            for l, c in circ.coeffs:
                row[l - 1] = sign * c
            rows.append(row)
        free = self._free_columns
        return [[row[i] for i in free] for row in rows]

    def regular_quick(self, masks, circuits=None, hint=None):
        """Fast regularity decision via strict wall-fold feasibility.

        `circuits` is `self.circuits(masks)`, if the caller has it. `hint`
        is (heights, circuit): heights returned for a triangulation that
        `masks` is one flip away from, across that circuit. It is tried
        first (see _across_wall) and may be wrong: what it yields counts
        only once every fold row is checked positive on it in integers.
        Otherwise `strict_feasible` decides on `fold_rows`, and a rejection
        carries its checked dual certificate. Returns (True, heights),
        primitive integer heights that are 0 on the frame, or (False, None).
        """
        if circuits is None:
            circuits = self.circuits(masks)
        if hint is not None:
            heights = self._across_wall(circuits, *hint)
            if heights is not None:
                return True, heights
        heights = [0] * self.m
        rows = self.fold_rows(masks, circuits)
        if rows:
            ok, g, _ = strict_feasible(rows)
            if not ok:
                return False, None
            for i, x in zip(self._free_columns, primitive(scale_to_integers(g)[0])):
                heights[i] = x
        return True, tuple(heights)

    def _across_wall(self, circuits, heights, circ):
        """Heights g' = g - t R on which every fold row is positive, or None.

        g is `heights` with the frame's entries set to 0. R is the
        circuit's dependence read as heights, minus the affine function
        that agrees with it on the frame, times D (see _frame_coords): R is
        0 on the frame, and every row takes D times its value on the
        dependence, since rows vanish on affine functions. So g' is 0 on
        the frame, and each row r bounds t through a = r.g and b = r.R:
        a - t b > 0. t = p/q is the simplest rational in the open interval
        the bounds leave, g' is q g - p R divided by its gcd, and every
        row is then checked on g'. The rows are read off the (circuit,
        apex) pairs `circuits`, as fold_rows reads them.
        """
        den, columns = self._frame_coords
        g = list(heights)
        for f in self.frame:
            g[f - 1] = 0
        direction = [0] * self.m
        for l, c in circ.coeffs:
            if l in columns:
                for i, x in zip(self._free_columns, columns[l]):
                    direction[i] -= x * c
            else:
                direction[l - 1] += den * c
        # each row as its circuit's coefficients and its sign at the apex
        rows = [(c.coeffs, 1 if c.plus >> (apex - 1) & 1 else -1) for c, apex in circuits]
        lo = hi = None  # t > lo and t < hi, each as (num, den) with den > 0
        for coeffs, sign in rows:
            a = b = 0
            for l, c in coeffs:
                a += c * g[l - 1]
                b += c * direction[l - 1]
            a, b = sign * a, sign * b
            if b > 0:
                if hi is None or a * hi[1] < hi[0] * b:
                    hi = (a, b)
            elif b < 0:
                if lo is None or a * lo[1] < lo[0] * b:
                    lo = (-a, -b)
            elif a <= 0:
                return None
        if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
            return None
        p, q = _simplest_between(lo, hi)
        moved = primitive([q * x - p * y for x, y in zip(g, direction)])
        for coeffs, sign in rows:
            value = 0
            for l, c in coeffs:
                value += c * moved[l - 1]
            if sign * value <= 0:
                return None
        return moved


def _simplest_between(lo, hi):
    """The simplest rational p/q in the open interval (lo, hi), as (p, q)
    with q > 0: least q, then least |p|. The ends are (num, den) pairs
    with den > 0, lo < hi; None is an infinite end."""
    if (lo is None or lo[0] < 0) and (hi is None or hi[0] > 0):
        return 0, 1
    if lo is None or lo[0] < 0:  # the interval lies below 0: mirror it
        p, q = _simplest_above(-hi[0], hi[1], *((1, 0) if lo is None else (-lo[0], lo[1])))
        return -p, q
    return _simplest_above(*lo, *(hi or (1, 0)))


def _simplest_above(ln, ld, hn, hd):
    """_simplest_between for 0 <= ln/ld < hn/hd, where hd = 0 is infinity."""
    n = ln // ld + 1
    if hd == 0 or n * hd < hn:
        return n, 1
    # both ends lie in [f, f + 1]: the answer is f + 1/s, for s the simplest
    # rational between the reciprocals of their fractional parts
    f = n - 1
    p, q = _simplest_above(hd, hn - f * hd, ld, ln - f * ld)
    return f * p + q, p


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
    """Certified regularity: strictly convex heights, or None.

    For every cell and every point off it, the lift of the point must lie
    strictly above the cell's affine interpolation. With the point's
    barycentric coordinates c in the cell and den their common
    denominator, that is the integer row den g_point - sum den c_l g_l > 0,
    and `strict_feasible` decides all rows at once. No circuit is read,
    so this decider is independent of `Engine.fold_rows`. Both answers
    are certified: a rejection by the checked dual certificate, and the
    heights by reconstructing their subdivision.
    """
    config = triangulation.config
    m = len(config)
    rows = []
    for cell in triangulation.cells:
        points = [config.point(l) for l in cell]
        for label in config.labels():
            if label in cell:
                continue
            coords = barycentric(points, config.point(label))
            if coords is None:  # a full-dimensional cell spans everything
                raise CheckFailed(f"cell {cell} does not span point {label}")
            den = lcm(*(c.denominator for c in coords))
            row = [0] * m
            row[label - 1] = den
            for l, c in zip(cell, coords):
                row[l - 1] -= int(c * den)
            rows.append(row)
    if not rows:
        # every point is a vertex of the single cell; all heights work
        return _reconstructed(triangulation, tuple(Fraction(0) for _ in range(m)))
    ok, heights, _ = strict_feasible(rows)
    return _reconstructed(triangulation, heights) if ok else None


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


def distinct_circuits(pairs):
    """The circuits of Engine.circuits' (circuit, apex) pairs, each once."""
    return tuple({c.support: c for c, _ in pairs}.values())


def supported_flips(triangulation, circuits=None):
    """All circuits currently supporting a flip, in canonical order.

    `circuits` are the triangulation's distinct circuits, if the caller
    has them (see distinct_circuits). The present side found for each is
    left on the triangulation, so flip does not look for it again.
    """
    masks = triangulation.masks
    if circuits is None:
        circuits = distinct_circuits(engine(triangulation.config).circuits(masks))
    cellset = set(masks)
    sides = triangulation._sides = {}
    for c in circuits:
        side = _present_side(masks, c, cellset)
        if side is not None:
            sides[c.support] = side
    return sorted((c for c in circuits if c.support in sides), key=lambda c: _labels(c.support))


def _present_side(masks, circ, cellset):
    """The side of the circuit present in T as (taus, link, new), or None.

    T holds every cell tau | lam, for tau the support minus one point of
    one side and lam in the link; the flip replaces them by the cells
    made with the points of the other side, `new` (a mask). The plus
    side (cells using all of circ.plus) is tried first. `cellset` is
    set(masks).
    """
    smask = circ.support
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
    masks = triangulation.masks
    side = (triangulation._sides or {}).get(circuit.support) or _present_side(
        masks, circuit, set(masks)
    )
    if side is None:
        raise UnsupportedFlip(f"{circuit} is not supported")
    taus, link, new = side
    old_cells = {tau | lam for tau in taus for lam in link}
    result = [c for c in masks if c not in old_cells]
    # no link mask meets the support, so the new cells are distinct
    new_cells = [(circuit.support ^ (1 << i)) | lam for i in bit_indices(new) for lam in link]
    result.extend(eng.cell_masks.setdefault(c, c) for c in new_cells)
    return Triangulation.from_masks(triangulation.config, result)
