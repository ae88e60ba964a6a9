"""Lattice point configurations, convex hulls, faces and normal fans.

Hulls are computed by beneath-beyond placing: the points are inserted
one at a time, each point beyond some boundary walls of the current
triangulation is coned over them, and the boundary walls that remain
triangulate the facets of the hull. The same routine gives the placing
triangulations of a configuration. All coordinates are integers or
Fractions; nothing is approximated.

Every face question is answered by one rule: a proper face of a polytope
is the intersection of the facets that contain it (Ziegler, Lectures on
Polytopes, 2.1). Each facet is held as the bitmask of the points on it,
so the smallest face holding some points is the AND of the facet masks
that hold them, the vertices are the points that are their own smallest
face, and the faces are the non-empty intersections of facet masks.
"""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .errors import BadConfig, CheckFailed, DimensionUnsupported
from .linalg import (
    det_int,
    hnf,
    integer_kernel,
    lattice_length,
    primitive,
    rank_rows,
    saturation_basis,
    scale_to_integers,
    solve_integer_saturated,
    solve_rational,
)


def _dirs(points, origin):
    return [tuple(a - b for a, b in zip(p, origin)) for p in points]


def _dot(u, p):
    return sum(a * b for a, b in zip(u, p))


def bit_indices(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _span(frame):
    """(chart columns, equations) of the affine span of affinely independent
    points: projecting onto the chart columns is injective on the span, and
    a point is in the span iff n.p == c for every equation (n, c)."""
    base = frame[0]
    dirs = [list(scale_to_integers(d)[0]) for d in _dirs(frame[1:], base)]
    dirs = dirs or [[0] * len(base)]
    cols = [next(j for j, x in enumerate(row) if x) for row in hnf(dirs)]
    return cols, [(n, _dot(n, base)) for n in integer_kernel(dirs)]


def _wall_functional(rows, apex):
    """Primitive integer f with f.(1, x) zero on the wall and positive at its
    apex, given as integer multiples of the rows (1, x) of their chart
    coordinates: the cofactors of a last row (1, x) under the wall's rows."""
    r = len(rows)
    f = primitive([
        (-1) ** (r + j) * det_int([row[:j] + row[j + 1:] for row in rows])
        for j in range(r + 1)
    ])
    side = _dot(f, apex)
    if side == 0:
        raise CheckFailed("placed cell is degenerate")
    return f if side > 0 else tuple(-c for c in f)


def place(points, order):
    """Beneath-beyond placing of the points, taken in the given index order.

    A point off the affine span of those placed so far makes a pyramid
    over every cell; a point strictly beyond some boundary walls is coned
    over them; any other point lies in the hull already and is skipped.
    Returns (cells, walls): the cells as index masks, and each boundary
    wall's index mask mapped to (apex, functional). The apex is the other
    vertex of the wall's cell. The functional f is zero on the wall and
    positive at the apex as f[0] + f[1:].x, with x read on the chart
    columns of the final span, which are all coordinates when the points
    span them. Functionals are derived once per wall and again only when
    the span grows.
    """
    order = iter(order)
    first = next(order)
    frame = [points[first]]
    cols, eqs = _span(frame)
    cells = [1 << first]
    walls = {0: first}  # boundary wall mask -> apex index
    funcs = {}
    rows = {}  # point index -> integer multiple of (1, chart coordinates)

    def row(i):
        r = rows.get(i)
        if r is None:
            r = rows[i] = scale_to_integers([1] + [points[i][c] for c in cols])[0]
        return r

    def functional(wall):
        f = funcs.get(wall)
        if f is None:
            f = funcs[wall] = _wall_functional(
                [row(i) for i in bit_indices(wall)], row(walls[wall])
            )
        return f

    for i in order:
        q = points[i]
        bit = 1 << i
        if any(_dot(n, q) != c for n, c in eqs):
            walls = {w | bit: a for w, a in walls.items()}
            walls.update((cell, i) for cell in cells)
            cells = [cell | bit for cell in cells]
            frame.append(q)
            cols, eqs = _span(frame)
            funcs = {}
            rows = {}
            continue
        x = row(i)
        visible = [w for w in walls if _dot(functional(w), x) < 0]
        # a ridge of one visible wall is on the horizon, of two is not
        horizon = {}
        for w in visible:
            cells.append(w | bit)
            del walls[w], funcs[w]
            for v in bit_indices(w):
                if horizon.pop(w ^ (1 << v), None) is None:
                    horizon[w ^ (1 << v)] = v
        for ridge, v in horizon.items():
            walls[ridge | bit] = v
    return cells, {w: (a, functional(w)) for w, a in walls.items()}


class _Hull:
    """Facets, vertices and a placing triangulation of distinct points
    spanning their `dim` coordinates."""

    def __init__(self, pts, dim):
        self.pts = pts
        self.dim = dim
        self.cells, walls = place(pts, range(len(pts)))
        if self.cells[0].bit_count() != dim + 1:
            raise CheckFailed("hull input not full-dimensional")
        self.full = (1 << len(pts)) - 1
        # facets: (primitive integer inner normal, offset, mask of tight points)
        self.facets = []
        normals = {primitive(f[1:]) for _, f in walls.values()} if dim else ()
        for u in normals:
            values = [_dot(u, p) for p in pts]
            off = min(values)
            self.facets.append((u, off, sum(1 << i for i, v in enumerate(values) if v == off)))
        self.facets.sort()
        self.vertices = tuple(i for i in range(len(pts)) if self.face(1 << i) == 1 << i)
        self.vertex_mask = sum(1 << i for i in self.vertices)

    def face(self, mask):
        """Mask of the smallest face holding the points of mask: the AND of
        the facets through them, or every point when no facet holds them."""
        out = self.full
        for _, _, m in self.facets:
            if m & mask == mask:
                out &= m
        return out


@dataclass(frozen=True)
class Face:
    """A face of a polytope: its dimension and its sorted ambient vertices."""

    dim: int
    vertices: tuple


class LatticePolytope:
    """Convex hull of finitely many integer or rational points."""

    def __init__(self, points):
        if not points:
            raise ValueError("empty point set")
        seen = {}
        for p in points:
            t = tuple(p)
            if t not in seen:
                seen[t] = len(seen)
        self.points = list(seen)
        self.ambient_dim = len(self.points[0])
        self.base = min(self.points)
        dirs = []
        for p in self.points:
            w, _ = scale_to_integers(tuple(a - b for a, b in zip(p, self.base)))
            dirs.append(w)
        self.basis = saturation_basis(dirs, dim=self.ambient_dim)
        self.dim = len(self.basis)
        self._reduced = None
        self._hull = None
        self._volume = None

    # -- coordinates ---------------------------------------------------

    @property
    def reduced(self):
        if self._reduced is None:
            sols = [self._coord_or_none(p) for p in self.points]
            if None in sols:
                raise CheckFailed("a point is off the affine hull")
            self._reduced = sols
        return self._reduced

    @property
    def hull(self):
        if self._hull is None:
            self._hull = _Hull(self.reduced, self.dim)
        return self._hull

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self):
        """Ambient vertices, sorted."""
        return sorted(self.points[i] for i in self.hull.vertices)

    @property
    def facets(self):
        """Ambient facets as (primitive integer inner normal, offset).

        Each inequality normal.x >= offset holds on the polytope and is
        tight on the facet; together with the affine hull they cut it out.
        """
        if self.dim == self.ambient_dim:
            return [(u, c + _dot(u, self.base)) for u, c, _ in self.hull.facets]
        out = []
        for u, c, _ in self.hull.facets:
            n_amb = solve_integer_saturated(self.basis, u)
            off = c + _dot(n_amb, self.base)
            g = 0
            for x in n_amb:
                g = gcd(g, x)
            if g > 1:
                n_amb = tuple(x // g for x in n_amb)
                off = Fraction(off, g)
            out.append((tuple(n_amb), off))
        return out

    def contains(self, point):
        t = self._coord_or_none(point)
        if t is None:
            return False
        return all(_dot(u, t) >= c for u, c, _ in self.hull.facets)

    def _coord_or_none(self, point):
        """Coordinates of the point in the saturated basis from the base
        point, integral ones as ints (which keeps the hull arithmetic off
        Fractions), or None when the point is off the affine hull."""
        diff = [a - b for a, b in zip(point, self.base)]
        if self.dim < self.ambient_dim:
            rows = [[self.basis[j][i] for j in range(self.dim)] for i in range(self.ambient_dim)]
            # an exact solution, or None when the system is inconsistent
            diff = solve_rational(rows, diff)
            if diff is None:
                return None
        # in full dimension the saturated basis is the identity: no solve
        return tuple(int(x) if x.denominator == 1 else x for x in diff)

    # -- faces -----------------------------------------------------------

    @cached_property
    def face_masks(self):
        """Point masks of the faces, the polytope itself included, keyed by
        dimension; each list is ordered by the faces' vertex indices."""
        hull = self.hull
        found = {hull.full}
        for _, _, m in hull.facets:
            found |= {f & m for f in found if f & m}
        red = self.reduced
        out = {}
        for (first, *rest), f in sorted((bit_indices(f & hull.vertex_mask), f) for f in found):
            d = rank_rows(_dirs([red[i] for i in rest], red[first])) if rest else 0
            out.setdefault(d, []).append(f)
        return out

    def faces(self, k):
        """All k-dimensional faces."""
        vmask = self.hull.vertex_mask
        return [
            Face(k, tuple(sorted(self.points[i] for i in bit_indices(f & vmask))))
            for f in self.face_masks.get(k, [])
        ]

    def edges(self):
        """Vertex pairs forming edges (1-faces), as sorted ambient pairs."""
        return sorted(face.vertices for face in self.faces(1))

    # -- fans, volumes ---------------------------------------------------

    def normal_fan(self):
        """Maximal cones of the normal fan, in reduced coordinates.

        Returns a frozenset of cones; each cone is the sorted tuple of the
        primitive inner normals of the facets through one vertex. Two
        polytopes with parallel affine hulls get comparable fans because
        the reduced basis is canonical for the direction space.
        """
        fac = self.hull.facets
        return frozenset(
            tuple(sorted(u for u, _, m in fac if m >> v & 1)) for v in self.hull.vertices
        )

    def triangulate(self):
        """Simplices (tuples of ambient points) covering the polytope."""
        return [
            tuple(self.points[i] for i in bit_indices(cell)) for cell in self.hull.cells
        ]

    def normalized_volume(self):
        """Normalized volume (dim! times euclidean) in the saturated lattice
        of the affine hull, read off the reduced coordinates; the hull's
        cells are walked once per polytope."""
        if self._volume is None:
            red = self.reduced
            total = 0
            for cell in self.hull.cells:
                first, *rest = bit_indices(cell)
                edges = [scale_to_integers(d) for d in _dirs([red[i] for i in rest], red[first])]
                total += Fraction(abs(det_int([w for w, _ in edges])), prod(s for _, s in edges))
            self._volume = int(total) if total.denominator == 1 else total
        return self._volume

    def lattice_points(self):
        """All integer points in the polytope, sorted."""
        from itertools import product as iproduct
        from math import ceil, floor

        vs = self.vertices
        lo = [min(floor(v[i]) for v in vs) for i in range(self.ambient_dim)]
        hi = [max(ceil(v[i]) for v in vs) for i in range(self.ambient_dim)]
        out = []
        for p in iproduct(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if self.contains(p):
                out.append(p)
        return out

    def boundary_volume(self):
        """Sum of the lattice lengths of the edges of a lattice polygon.

        Polygons only, and only with integer vertices: a vertex that is
        not a lattice point raises BadConfig.
        """
        if self.dim != 2:
            raise DimensionUnsupported("boundary volume implemented for polygons")
        for v in self.vertices:
            if any(Fraction(x).denominator != 1 for x in v):
                raise BadConfig(f"vertex {v} is not a lattice point")
        total = 0
        for _, _, m in self.hull.facets:
            ends = [
                tuple(map(int, self.points[i])) for i in bit_indices(m & self.hull.vertex_mask)
            ]
            if len(ends) != 2:
                raise CheckFailed(f"facet with {len(ends)} ends")
            total += lattice_length(ends[0], ends[1])
        return total


def normally_equivalent(p1, p2):
    """Whether two polytopes have the same normal fan.

    Requires parallel affine hulls (equal direction spaces); returns False
    otherwise. Scaling-invariant by construction.
    """
    if p1.ambient_dim != p2.ambient_dim:
        return False
    if p1.basis != p2.basis:
        return False
    return p1.normal_fan() == p2.normal_fan()


class PointConfiguration:
    """A labeled list of distinct lattice points spanning their space.

    Labels are 1-based and follow the input order.
    """

    def __init__(self, points, name=None):
        pts = []
        for p in points:
            t = tuple(p)
            if not all(isinstance(x, int) for x in t):
                raise BadConfig(f"non-integer coordinates in {t}")
            pts.append(t)
        if not pts:
            raise BadConfig("no points")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise BadConfig("inconsistent coordinate dimensions")
        if len(set(pts)) != len(pts):
            raise BadConfig("duplicate points")
        if rank_rows(_dirs(pts, pts[0])) != d:
            raise BadConfig("points do not span the ambient space")
        self.points = tuple(pts)
        self.dim = d
        self.name = name
        self._polytope = None
        self._engine = None  # set by triangulation.engine on first use

    def __len__(self):
        return len(self.points)

    def point(self, label):
        """Point for a 1-based label."""
        return self.points[label - 1]

    def labels(self):
        return range(1, len(self.points) + 1)

    @property
    def polytope(self):
        if self._polytope is None:
            self._polytope = LatticePolytope(self.points)
        return self._polytope

    def digest(self):
        enc = repr((self.dim, self.points)).encode()
        return hashlib.blake2b(enc, digest_size=16).hexdigest()

    def face_point_masks(self, k):
        """Bitmask of configuration points on each k-face of the hull.

        Bit i-1 set means label i lies on the face. The top face (k = dim)
        is the mask of all points.
        """
        return self.polytope.face_masks.get(k, [])
