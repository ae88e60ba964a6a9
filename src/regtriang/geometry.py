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

A set that does not span its space is read on the chart columns of its
affine span: the pivot columns of the Hermite form of its directions,
which depend only on the direction space, and onto which the span
projects injectively. Hulls, normals and fans live on those columns, and
volumes are lattice volumes from the maximal minors of the edges.
"""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import ceil, floor, lcm

from .errors import BadConfig, CheckFailed, DimensionUnsupported
from .linalg import (
    det_int,
    hnf,
    integer_kernel,
    lattice_length,
    normalized_simplex_volume,
    primitive,
    rank_rows,
    scale_to_integers,
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
    columns of the final span (see _span), which are all coordinates when
    the points span them; _Hull reads its hull on the same chart.
    Functionals are derived once per wall and again only when the span
    grows.
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
    """Facets, vertices and a placing triangulation of distinct points whose
    affine span has dimension `dim`, read on the span's chart columns."""

    def __init__(self, points, dim):
        self.cells, walls = place(points, range(len(points)))
        if self.cells[0].bit_count() != dim + 1:
            raise CheckFailed("placed hull disagrees with the rank of the points")
        # the first cell spans the set, and place read its walls on this chart
        self.cols, self.eqs = _span([points[i] for i in bit_indices(self.cells[0])])
        if len(self.cols) == len(points[0]):
            self.chart = points
        else:
            self.chart = [tuple(p[c] for c in self.cols) for p in points]
        self.full = (1 << len(points)) - 1
        # facets: (primitive integer inner normal, offset, mask of tight points)
        self.facets = []
        normals = {primitive(f[1:]) for _, f in walls.values()} if dim else ()
        for u in normals:
            values = [_dot(u, p) for p in self.chart]
            off = min(values)
            self.facets.append((u, off, sum(1 << i for i, v in enumerate(values) if v == off)))
        self.facets.sort()
        self.vertices = tuple(i for i in range(len(points)) if self.face(1 << i) == 1 << i)
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
        self.dim = rank_rows(_dirs(self.points, self.points[0]))
        self._hull = None
        self._volume = None

    # -- coordinates ---------------------------------------------------

    @property
    def reduced(self):
        """The points on the chart columns of their affine span, each
        coordinate of its input type; the points themselves when they
        span their space."""
        return self.hull.chart

    @property
    def hull(self):
        if self._hull is None:
            self._hull = _Hull(self.points, self.dim)
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
        A normal is the hull's chart normal put back on the chart columns,
        zero elsewhere: the same inequality on the span.
        """
        hull = self.hull
        out = []
        for u, c, _ in hull.facets:
            normal = [0] * self.ambient_dim
            for j, x in zip(hull.cols, u):
                normal[j] = x
            out.append((tuple(normal), c))
        return out

    def contains(self, point):
        """Whether the point is on the affine span and on the inner side of
        every facet, read on the chart."""
        hull = self.hull
        if any(_dot(n, point) != c for n, c in hull.eqs):
            return False
        x = [point[j] for j in hull.cols]
        return all(_dot(u, x) >= c for u, c, _ in hull.facets)

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
        """Maximal cones of the normal fan, on the chart columns.

        Returns a frozenset of cones; each cone is the sorted tuple of the
        primitive inner normals of the facets through one vertex. Two
        polytopes with parallel affine hulls get comparable fans because
        the chart columns depend only on the direction space.
        """
        fac = self.hull.facets
        return frozenset(
            tuple(sorted(u for u, _, m in fac if m >> v & 1)) for v in self.hull.vertices
        )

    def normalized_volume(self):
        """Normalized volume (dim! times euclidean) in the lattice of integer
        points of the affine hull: the sum over the hull's cells of
        normalized_simplex_volume, the gcd of the maximal minors of the
        edges, on each cell's points scaled by s to integers, over s**dim.
        The hull's cells are walked once per polytope."""
        if self._volume is None:
            total = 0
            for cell in self.hull.cells:
                pts = [self.points[i] for i in bit_indices(cell)]
                s = lcm(*(x.denominator for p in pts for x in p))
                scaled = [tuple(int(x * s) for x in p) for p in pts]
                total += Fraction(normalized_simplex_volume(scaled), s**self.dim)
            self._volume = int(total) if total.denominator == 1 else total
        return self._volume

    def lattice_points(self):
        """All integer points in the polytope, sorted."""
        vs = self.vertices
        lo = [min(floor(v[i]) for v in vs) for i in range(self.ambient_dim)]
        hi = [max(ceil(v[i]) for v in vs) for i in range(self.ambient_dim)]
        out = []
        for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
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

    Requires parallel affine hulls (equal direction spaces: the directions
    of both together have rank dim); returns False otherwise.
    Scaling-invariant by construction.
    """
    if (p1.ambient_dim, p1.dim) != (p2.ambient_dim, p2.dim):
        return False
    dirs = _dirs(p1.points, p1.points[0]) + _dirs(p2.points, p2.points[0])
    if rank_rows(dirs) != p1.dim:
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
