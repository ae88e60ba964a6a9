"""Triangulations of point configurations: validity, regularity, flips.

A triangulation is the sorted tuple of its cell bitmasks (bit i-1 =
label i); the sorted-label view and its string encoding are derived on
first use. A per-configuration engine caches simplex volumes, affine
dependences, each cell's labels and text (and the mask of each text),
each cell's weight shares (see weights), each cell's 96-bit key (see
Engine.digest), each cell's walls, and the checked (circuit, apex) of
each pair of cells across a wall (see Engine.wall_circuits), since
enumeration revisits the same small sets constantly. The dependences
decide containment too: a point lies in a full-dimensional cell iff it
is alone on its side of their circuit.

Fold rows and flips read one circuit list per triangulation,
`Engine.circuits`: the circuit of the two cells across each interior
wall, and of each unused point with the cell that holds it, each row
once. Each is a wall inequality of the secondary cone, and each may
support a flip. A caller that holds the list passes it on, to
`regular_quick` (and so `fold_rows`) and, as its circuits, to
`supported_flips`. That finds each circuit's present side by the size of
its support (see _present_side): with n+2 points, by whether each
simplex of a side is a cell; with n+1, from the cells holding each such
simplex as a wall; with fewer, in one pass over the cells. It leaves the
sides on the triangulation for `flip`.

A flip crosses one wall of the secondary fan (GKZ; De Loera-Rambau-Santos,
*Triangulations*, ch. 5), so the strictly convex heights of the
triangulation it came from, moved by the flipped circuit's own
dependence, usually certify the new one. `regular_quick` takes such
hints, (heights, circuit), one from each accepted triangulation that
reaches the candidate by a flip, and tries them in order. When every
hint fails, a cached refutation may reject the candidate: the fold rows
on which an earlier LP rejection's dual certificate is nonzero, all
present again. Else the first hint's heights are repaired in integers by
the relaxation method, and `strict_feasible` runs only when that fails
too. Heights are checked on every fold row in integers, and every
rejection carries a checked dual certificate, from the LP or from the
cache.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from hashlib import blake2b
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

    @cached_property
    def support(self):
        return self.plus | self.minus

    @cached_property
    def taus(self):
        """{sign class: the support minus each point of it, ascending}, for
        plus and minus: the simplices a flip's cells hold on one side."""
        return {
            side: [self.support ^ (1 << i) for i in bit_indices(side)]
            for side in (self.plus, self.minus)
        }

    def __repr__(self):
        return f"Circuit(+{list(_labels(self.plus))}, -{list(_labels(self.minus))})"


class Triangulation:
    """A set of maximal simplices on a configuration, held as the sorted
    tuple of their cell bitmasks; the 1-based label view is derived."""

    # present sides of the supported flips by circuit support, left by
    # supported_flips for flip
    _sides = None
    # the Engine.circuits pairs, left by validate
    _circuits = None

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
        return tuple(sorted(labels for labels, _ in map(engine(self.config).cell_code, self.masks)))

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
        return ";".join(text for _, text in sorted(map(engine(self.config).cell_code, self.masks)))

    @classmethod
    def decode(cls, config, text):
        return cls.from_masks(config, map(engine(config).cell_mask, text.split(";")))

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
        ch. 4). No LP is solved. The Engine.circuits pairs read on the way
        are left on the triangulation as `_circuits`.
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
        walls = _walls(eng, self.masks)
        inside = [wall for wall, owners in walls.items() if len(owners) == 1]
        for facet in self.config.face_point_masks(eng.n - 1):
            inside = [wall for wall in inside if wall & ~facet]
        if inside:
            raise OverlapNotFace(f"wall {_labels(inside[0])} of one cell is inside the hull")
        try:
            self._circuits = eng.circuits(self.masks, walls)
        except CheckFailed as exc:
            raise OverlapNotFace(str(exc)) from None
        return True


def _walls(eng, masks):
    """Each wall of the cells (a cell minus one point), mapped to the cells
    holding it in the order given. Each cell's walls are read from the
    engine's memo, `cell_walls`."""
    walls = {}
    memo = eng.cell_walls
    for cm in masks:
        own = memo.get(cm)
        if own is None:
            own = tuple(cm ^ (1 << i) for i in bit_indices(cm))
            if cm.bit_count() == eng.n + 1 and not cm >> eng.m:
                memo[cm] = own
        for wall in own:
            holders = walls.get(wall)
            if holders is None:
                walls[wall] = [cm]
            else:
                holders.append(cm)
    return walls


class Engine:
    """Per-configuration caches and the flip/regularity machinery.

    The LP decides regularity on an affine frame: d+1 affinely
    independent labels, picked once, on the first fold. Every fold row is
    an affine dependence (its entries sum to 0 and sum r_i p_i = 0), so it
    vanishes on every affine function, and subtracting from heights g the
    affine function that agrees with g on the frame leaves each row value
    r.g unchanged. Strictly convex heights therefore exist iff some exist
    that are 0 on the frame: the fold drops the frame's columns, the dual
    LP loses d+1 of its m+1 equality rows, and the heights it returns are
    0 there. Heights certified by a hint (see _across_wall) need no frame.
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
        # {weight map: (fixed faces' sum, {cell mask: share})}, filled by
        # weights._face_walk
        self.weight_shares = {}
        # (labels, text) of each cell mask met, and the mask of each text
        self._codes = {}
        self._text_masks = {}
        # {key set: {key: u numerator}} of each LP rejection, one per key
        # set: the fold rows its dual certificate u weighs, a key being
        # (circuit support, sign at the apex); see regular_quick
        self.refutations = {}
        # the 96-bit key of each cell mask met; see digest
        self._keys = {}
        # the n+1 walls of each cell mask met, read by _walls
        self.cell_walls = {}
        # {(a, b): (circuit, apex label)} of each pair of cells across a
        # wall whose fold wall_circuits has checked and passed
        self.wall_pairs = {}

    def points_of(self, mask):
        return [self.pts[i] for i in bit_indices(mask)]

    def volume(self, mask):
        v = self._vol.get(mask)
        if v is None:
            v = normalized_simplex_volume(self.points_of(mask))
            self._vol[mask] = v
        return v

    def cell_code(self, mask):
        """(labels, text) of the cell: its labels ascending and their
        canonical spelling. Only (n+1)-subsets of 1..m are kept, so the
        memo holds no more than the configuration's possible cells."""
        code = self._codes.get(mask)
        if code is None:
            labels = _labels(mask)
            code = labels, ",".join(map(str, labels))
            if mask.bit_count() == self.n + 1 and not mask >> self.m:
                self._codes[mask] = code
                self._text_masks[code[1]] = mask
        return code

    def cell_mask(self, text):
        """The mask of a cell's text: a memo hit for a canonical text the
        engine has spelled, else parsed label by label."""
        mask = self._text_masks.get(text)
        return _mask(map(int, text.split(","))) if mask is None else mask

    def cell_key(self, mask):
        """The cell's 96-bit key, from blake2b of its mask."""
        key = self._keys.get(mask)
        if key is None:
            raw = blake2b(mask.to_bytes((self.m + 7) // 8, "little"), digest_size=12)
            key = self._keys[mask] = int.from_bytes(raw.digest(), "little")
        return key

    def digest(self, masks):
        """The order-free digest of a triangulation: its cells' keys summed
        mod 2^96. A flip moves it by the keys of the cells it changes (see
        flip_digest). Two distinct cell sets differ by a nonzero +-1 sum of
        independent keys, so n triangulations share a digest with odds
        about n^2 / 2^97."""
        return sum(map(self.cell_key, masks)) % _DIGESTS

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
        more than two cells, or its two cells lie on one side of it. Each
        pair that passes is kept in `wall_pairs`, and one that fails is
        not, so it fails on every call."""
        out = []
        pairs = self.wall_pairs
        for wall, owners in walls.items():
            if len(owners) == 1:
                continue
            if len(owners) != 2:
                raise CheckFailed("wall shared by more than two cells")
            a, b = owners
            pair = pairs.get((a, b))
            if pair is None:
                circ = self.circuit_of(a | b)
                apex, other = a & ~wall, b & ~wall
                # opposite sides of the wall are one sign class of its circuit
                if (
                    circ is None
                    or not apex & circ.support
                    or not other & (circ.plus if apex & circ.plus else circ.minus)
                ):
                    raise CheckFailed(f"cells {_labels(a)} and {_labels(b)} fold onto one side")
                pair = pairs[(a, b)] = circ, apex.bit_length()
            out.append(pair)
        return out

    def circuits(self, masks, walls=None):
        """The cells' circuits, as (circuit, apex label) pairs, each row once.

        One per interior wall, in the order the cells meet it (see
        wall_circuits). Then one per unused point, ascending: the circuit
        of the point and the first cell that holds it, apex the point.
        (Cells meeting face to face give every cell holding the point the
        same circuit.) A pair is dropped when an earlier one has the same
        circuit with its apex on the same side, and so the same fold row:
        all walls of one circuit are one wall of the secondary fan. Raises
        CheckFailed when the cells do not fold like a triangulation (see
        wall_circuits) or a point is outside every cell. `walls` is
        _walls(self, masks), if the caller has it.
        """
        out = self.wall_circuits(_walls(self, masks) if walls is None else walls)
        for i in bit_indices(self.full_mask & ~reduce(or_, masks, 0)):
            host = next((cm for cm in masks if self.cell_contains(cm, i + 1)), None)
            if host is None:
                raise CheckFailed("unused point outside every cell")
            out.append((self.circuit_of(host | (1 << i)), i + 1))
        first = {}
        for circ, apex in out:
            first.setdefault((circ.support, circ.plus >> (apex - 1) & 1), (circ, apex))
        return list(first.values())

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

    def regular_quick(self, masks, circuits=None, hints=()):
        """Fast regularity decision via strict wall-fold feasibility.

        `circuits` is `self.circuits(masks)`, if the caller has it. Each
        of `hints` is (heights, circuit): heights returned for a
        triangulation that `masks` is one flip away from, across that
        circuit. The decision takes the first of four that decides:

        1. each hint in turn, moved across its circuit (see _across_wall);
        2. a cached refutation: the fold rows of an earlier rejection that
           are all among these (see `refutations`);
        3. the first hint's heights, repaired row by row (see _repaired);
        4. `strict_feasible` on `fold_rows`, whose rejection is cached.

        Hints may be wrong: heights count only once every fold row is
        checked positive on them in integers, and every rejection carries
        a checked dual certificate, from the LP or from the cache. Returns
        (True, heights), primitive integer heights (0 on the frame when
        the LP found them), or (False, None).
        """
        if circuits is None:
            circuits = self.circuits(masks)
        rows = _signed_rows(circuits)
        for g, circ in hints:
            heights = self._across_wall(rows, g, circ)
            if heights is not None:
                return True, heights
        keys = [(c.support, sign) for (c, _), (_, sign) in zip(circuits, rows)]
        present = set(keys)
        if any(support <= present for support in self.refutations):
            return False, None
        if hints:
            heights = self._repaired(rows, hints[0][0])
            if heights is not None:
                return True, heights
        heights = [0] * self.m
        lp_rows = self.fold_rows(masks, circuits)
        if lp_rows:
            ok, g, _ = strict_feasible(lp_rows)
            if not ok:
                u, _ = scale_to_integers(g)  # the dual certificate's numerators
                refutation = {key: w for key, w in zip(keys, u) if w}
                self.refutations.setdefault(frozenset(refutation), refutation)
                return False, None
            for i, x in zip(self._free_columns, primitive(scale_to_integers(g)[0])):
                heights[i] = x
        return True, tuple(heights)

    def _repaired(self, rows, g):
        """Heights on which every fold row is positive, or None.

        The relaxation method (Agmon; Motzkin-Schoenberg) in integers:
        from the heights g, up to _REPAIR_STEPS times, the most violated
        row r, of value v <= 0 and read as heights, is added
        floor(-v / |r|^2) + 1 times, which makes that row positive. What
        it returns is checked on every row and made primitive. `rows` is
        as for _across_wall.
        """
        g = list(g)
        steps = 0
        while (worst := _most_violated(rows, g)) is not None:
            if steps == _REPAIR_STEPS:
                return None
            v, coeffs, sign = worst
            k = -v // sum(c * c for _, c in coeffs) + 1
            for l, c in coeffs:
                g[l - 1] += k * sign * c
            steps += 1
        return primitive(g)

    def _across_wall(self, rows, g, circ):
        """Heights g' = q g - p Z on which every fold row is positive, or None.

        g is the hint's heights and Z the circuit's coefficients read as
        heights. Each row r bounds t = p/q through a = r.g and b = r.Z:
        a - t b > 0. t is the simplest rational in the open interval the
        bounds leave, g' is q g - p Z divided by its gcd, and every row is
        then checked on g'. `rows` holds each fold row as its circuit's
        coefficients and its sign at the apex, built once per candidate by
        regular_quick.
        """
        direction = [0] * self.m
        for l, c in circ.coeffs:
            direction[l - 1] = c
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
        return moved if _most_violated(rows, moved) is None else None


# digests are taken mod this; see Engine.digest
_DIGESTS = 1 << 96

# the relaxation steps _repaired takes before it gives up
_REPAIR_STEPS = 20


def _signed_rows(circuits):
    """Each fold row of the (circuit, apex) pairs as its circuit's
    coefficients and its sign at the apex."""
    return [(c.coeffs, 1 if c.plus >> (apex - 1) & 1 else -1) for c, apex in circuits]


def certifies(circuits, heights):
    """Whether every fold row of the (circuit, apex) pairs is positive on
    the integer heights: the check that ends _across_wall."""
    return _most_violated(_signed_rows(circuits), heights) is None


def _most_violated(rows, g):
    """(value, coefficients, sign) of the fold row of least value on the
    heights g if that value is not positive, else None."""
    worst = None
    for coeffs, sign in rows:
        value = 0
        for l, c in coeffs:
            value += c * g[l - 1]
        value *= sign
        if value <= 0 and (worst is None or value < worst[0]):
            worst = value, coeffs, sign
    return worst


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


def supported_flips(triangulation, circuits=None):
    """All circuits currently supporting a flip, in the order of the list.

    `circuits` are the circuits of the triangulation's Engine.circuits
    pairs, if the caller has them; each comes once, since no circuit of a
    triangulation has apexes on both of its sides. The present side
    found for each (see _present_side) is left on the triangulation, so
    flip and flip_digest do not look for it again.
    """
    eng = engine(triangulation.config)
    masks = triangulation.masks
    if circuits is None:
        circuits = [c for c, _ in eng.circuits(masks)]
    cells, walls = set(masks), _walls(eng, masks)
    sides = triangulation._sides = {}
    for c in circuits:
        side = _present_side(c, masks, cells, walls, eng.n)
        if side is not None:
            sides[c.support] = side
    return [c for c in circuits if c.support in sides]


def _present_side(circ, masks, cells, walls, n):
    """The side of the circuit present in T as (taus, link, new), or None.

    T holds every cell tau | lam, for tau the support minus one point of
    one side and lam in the link; the flip replaces them by the cells
    made with the points of the other side, `new` (a mask). No cell holds
    the whole support, so the cells holding tau are those meeting the
    support in exactly tau, and a side is present when all its taus share
    one non-empty link. `cells` is the set of the masks and `walls` their
    _walls map. How the link of tau is found depends on the support's size:

    - n+2 points: tau has n+1 and is a cell or not, so its link is [0]
      when tau is in `cells`;
    - n+1 points: tau is a wall, and its link is read from its owners;
    - fewer points: one pass groups the cells' links by their meet.

    The plus side (cells using all of circ.plus) is tried first.
    """
    smask = circ.support
    size = smask.bit_count()
    sides = (circ.minus, circ.plus), (circ.plus, circ.minus)
    if size == n + 2:
        for old, new in sides:
            taus = circ.taus[old]
            if cells.issuperset(taus):
                return taus, [0], new
        return None
    keep = ~smask
    if size == n + 1:  # each tau is a wall, held by the cells of its link

        def link_of(tau):
            return [c & keep for c in walls.get(tau, ())]

    else:  # one pass groups the cells by their meet with the support
        links = {}
        for c in masks:
            links.setdefault(c & smask, []).append(c & keep)
        link_of = links.get
    for old, new in sides:
        taus = circ.taus[old]
        link = link_of(taus[0])
        if link and all(link_of(tau) == link for tau in taus[1:]):
            return taus, link, new
    return None


def _flipped_cells(circuit, side):
    """(removed, created): the cells tau | lam the flip across the circuit
    takes out, and those it puts in, for its present side (taus, link,
    new). No link mask meets the support, so the created cells are
    distinct."""
    taus, link, new = side
    removed = [tau | lam for tau in taus for lam in link]
    created = [tau | lam for tau in circuit.taus[new] for lam in link]
    return removed, created


def flip_digest(triangulation, circuit, digest):
    """Engine.digest of the flip neighbour across a circuit that
    supported_flips returned, from the triangulation's own `digest`: the
    keys of the cells the flip removes are taken away and those of the
    cells it creates added. No mask tuple is built."""
    key = engine(triangulation.config).cell_key
    removed, created = _flipped_cells(circuit, triangulation._sides[circuit.support])
    return (digest - sum(map(key, removed)) + sum(map(key, created))) % _DIGESTS


def flip(triangulation, circuit):
    """Apply the circuit flip; UnsupportedFlip if it does not apply."""
    eng = engine(triangulation.config)
    masks = triangulation.masks
    side = (triangulation._sides or {}).get(circuit.support) or _present_side(
        circuit, masks, set(masks), _walls(eng, masks), eng.n
    )
    if side is None:
        raise UnsupportedFlip(f"{circuit} is not supported")
    removed, created = _flipped_cells(circuit, side)
    removed = set(removed)
    result = [c for c in masks if c not in removed]
    result.extend(eng.cell_masks.setdefault(c, c) for c in created)
    return Triangulation.from_masks(triangulation.config, result)
