"""Lattice point configurations, convex hulls, faces and normal fans.

Hulls are computed by exact gift wrapping: facets are discovered by
rotating a supporting hyperplane inside a pencil until it touches new
points, and ridges come from recursing into facet hulls. All coordinates
are integers or Fractions; nothing is approximated.
"""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BadConfig, CheckFailed, DimensionUnsupported
from .linalg import (
    integer_kernel,
    lattice_length,
    normalized_simplex_volume,
    primitive,
    rank_rows,
    saturation_basis,
    scale_to_integers,
    solve_integer_saturated,
    solve_rational,
)


def _dirs(points, origin):
    return [tuple(a - b for a, b in zip(p, origin)) for p in points]


def _kernel_basis(vectors, dim):
    """Integer basis of {x : v.x = 0 for all v}, valid for rational input."""
    rows = []
    for v in vectors:
        w, _ = scale_to_integers(v)
        if any(w):
            rows.append(list(w))
    if not rows:
        rows = [[0] * dim]
    return integer_kernel(rows)


def _dot(u, p):
    return sum(a * b for a, b in zip(u, p))


class _Hull:
    """Facet structure of the convex hull of distinct full-dim points."""

    def __init__(self, pts, dim):
        self.pts = pts
        self.dim = dim
        # facets: list of (primitive integer inner normal, offset, tight tuple)
        if dim == 0:
            self.facets = []
            self.vertices = (0,)
            return
        if dim == 1:
            xs = [p[0] for p in pts]
            imin = min(range(len(pts)), key=lambda i: xs[i])
            imax = max(range(len(pts)), key=lambda i: xs[i])
            self.facets = [((1,), xs[imin], (imin,)), ((-1,), -xs[imax], (imax,))]
            self.vertices = tuple(sorted({imin, imax}))
            return
        self._wrap()

    def _tight(self, u, c):
        return tuple(i for i, p in enumerate(self.pts) if _dot(u, p) == c)

    def _sweep(self, u, base, keep_dirs, away_from=None):
        """Pivot a supporting functional u inside the pencil around keep_dirs.

        Picks w complementary to u in the pencil of functionals vanishing
        on keep_dirs and returns the supporting functional a*.w - b*.u for
        the candidate point minimizing b/a (a = u-value, b = w-value,
        relative to base). The result is tight on keep_dirs plus at least
        one point off their span. When away_from is given (a point tight
        under u but off keep_dirs), w is oriented so that point ends up
        strictly positive, which selects the neighbor facet across a ridge.
        """
        pts = self.pts
        kern = _kernel_basis(keep_dirs, self.dim)
        w = None
        for cand in kern:
            if rank_rows([u, cand]) == 2:
                w = cand
                break
        if w is None:
            raise CheckFailed("rotation pencil is degenerate")
        bvals = [_dot(w, p) - _dot(w, base) for p in pts]
        avals = [_dot(u, p) - _dot(u, base) for p in pts]
        if away_from is not None:
            bv = bvals[away_from]
            if avals[away_from] != 0 or bv == 0:
                raise CheckFailed("cannot leave the current facet")
            if bv < 0:
                w = tuple(-x for x in w)
                bvals = [-x for x in bvals]
        best = None
        for a, b in zip(avals, bvals):
            if a > 0 and (best is None or b * best[0] < best[1] * a):
                best = (a, b)
        if best is None:
            raise CheckFailed("hull input not full-dimensional")
        a, b = best
        phi = tuple(a * wi - b * ui for wi, ui in zip(w, u))
        phi_int, _ = scale_to_integers(phi)
        return primitive(phi_int)

    def _wrap(self):
        pts = self.pts
        k = self.dim
        # initial supporting functional: e_1, then rotate until the tight
        # set spans a hyperplane
        u = tuple([1] + [0] * (k - 1))
        c = min(_dot(u, p) for p in pts)
        tight = self._tight(u, c)
        base = pts[tight[0]]
        while rank_rows(_dirs([pts[i] for i in tight], base)) < k - 1:
            u = self._sweep(u, base, _dirs([pts[i] for i in tight], base))
            c = min(_dot(u, p) for p in pts)
            tight = self._tight(u, c)
            base = pts[tight[0]]
        facets = {}
        verts = set()
        queue = [(u, tight)]
        facets[u] = (u, _dot(u, pts[tight[0]]), tight)
        while queue:
            u, tight = queue.pop()
            tpts = [pts[i] for i in tight]
            sub = _sub_hull(tpts, k - 1)
            verts.update(tight[i] for i in sub.vertices)
            for _, _, ridge in sub.facets:
                r0 = tpts[ridge[0]]
                ridge_dirs = _dirs([tpts[i] for i in ridge], r0)
                rank0 = rank_rows(ridge_dirs)
                # a tight point off the ridge span fixes the rotation side
                away = None
                for j, q in enumerate(tpts):
                    d = tuple(a - b for a, b in zip(q, r0))
                    if rank_rows(ridge_dirs + [d]) > rank0:
                        away = tight[j]
                        break
                if away is None:
                    raise CheckFailed("no tight point off the ridge span")
                nu = self._sweep(u, r0, ridge_dirs, away_from=away)
                if nu not in facets:
                    nc = _dot(nu, r0)
                    ntight = self._tight(nu, nc)
                    facets[nu] = (nu, nc, ntight)
                    queue.append((nu, ntight))
        self.facets = sorted(facets.values())
        self.vertices = tuple(sorted(verts))


def _chart(points, dim):
    """Injective linear chart onto `dim` coordinates chosen by pivots."""
    if not points:
        return []
    p0 = points[0]
    dirs = _dirs(points, p0)
    rows = []
    for d in dirs:
        w, _ = scale_to_integers(d)
        rows.append(list(w))
    # find pivot columns by rational elimination
    ncols = len(p0)
    piv_cols = []
    work = [[Fraction(x) for x in r] for r in rows]
    rowi = 0
    for col in range(ncols):
        sel = None
        for i in range(rowi, len(work)):
            if work[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[rowi], work[sel] = work[sel], work[rowi]
        pv = work[rowi][col]
        for i in range(len(work)):
            if i != rowi and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[rowi])]
        piv_cols.append(col)
        rowi += 1
        if len(piv_cols) == dim:
            break
    if len(piv_cols) != dim:
        raise CheckFailed(f"chart has rank {len(piv_cols)}, not {dim}")
    return [tuple(p[c] for c in piv_cols) for p in points]


def _sub_hull(points, dim):
    """Hull of points whose affine span has the given dimension."""
    return _Hull(_chart(points, dim) if dim > 0 else [points[0]], dim)


@dataclass(frozen=True)
class Face:
    """A face of a polytope: dimension, vertex tuples, defining facets."""

    dim: int
    vertices: tuple
    facet_ids: tuple


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
        self._faces_cache = {}

    # -- coordinates ---------------------------------------------------

    @property
    def reduced(self):
        if self._reduced is None:
            if self.dim == 0:
                self._reduced = [() for _ in self.points]
            else:
                rows = [
                    [self.basis[j][i] for j in range(self.dim)]
                    for i in range(self.ambient_dim)
                ]
                out = []
                for p in self.points:
                    rhs = [a - b for a, b in zip(p, self.base)]
                    sol = solve_rational(rows, rhs)
                    if sol is None:
                        raise CheckFailed(f"point {p} is off the affine hull")
                    # integral coordinates as ints keep the hull arithmetic
                    # off Fractions
                    out.append(
                        tuple(int(x) if x.denominator == 1 else x for x in sol)
                    )
                self._reduced = out
        return self._reduced

    def _unreduce(self, t):
        return tuple(
            b + sum(t[j] * self.basis[j][i] for j in range(self.dim))
            for i, b in enumerate(self.base)
        )

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
        if self.dim == 0:
            return () if tuple(point) == tuple(self.base) else None
        rows = [[self.basis[j][i] for j in range(self.dim)] for i in range(self.ambient_dim)]
        rhs = [a - b for a, b in zip(point, self.base)]
        sol = solve_rational(rows, rhs)
        if sol is None:
            return None
        # solve_rational ignores extra inconsistencies only if rank looks ok;
        # verify the reconstruction to be safe
        if self._unreduce(sol) != tuple(point):
            return None
        return tuple(sol)

    # -- faces -----------------------------------------------------------

    def _incidence(self):
        hv = self.hull.vertices
        fac = self.hull.facets
        inc = {}
        for v in hv:
            inc[v] = frozenset(fi for fi, (_, _, tight) in enumerate(fac) if v in tight)
        return inc

    def _closure(self, vset, inc):
        common = None
        for v in vset:
            common = inc[v] if common is None else common & inc[v]
        if not common:
            return frozenset(inc), frozenset()
        members = frozenset(v for v in inc if common <= inc[v])
        return members, common

    def faces(self, k):
        """All k-dimensional faces."""
        if k < 0 or k > self.dim:
            return []
        if k in self._faces_cache:
            return self._faces_cache[k]
        if k == self.dim:
            out = [
                Face(
                    self.dim,
                    tuple(sorted(self.points[i] for i in self.hull.vertices)),
                    (),
                )
            ]
            self._faces_cache[k] = out
            return out
        inc = self._incidence()
        red = self.reduced
        found = {}
        frontier = {frozenset([v]) for v in self.hull.vertices}
        seen = set()
        while frontier:
            nxt = set()
            for vset in frontier:
                members, common = self._closure(vset, inc)
                if members in seen:
                    continue
                seen.add(members)
                mm = sorted(members)
                d = rank_rows(_dirs([red[i] for i in mm], red[mm[0]])) if len(mm) > 1 else 0
                if d < self.dim:
                    found[members] = (d, common)
                for w in self.hull.vertices:
                    if w not in members:
                        nxt.add(members | {w})
            frontier = nxt
        out = []
        for members, (d, common) in sorted(found.items(), key=lambda kv: sorted(kv[0])):
            if d == k:
                out.append(
                    Face(
                        d,
                        tuple(sorted(self.points[i] for i in members)),
                        tuple(sorted(common)),
                    )
                )
        self._faces_cache[k] = out
        return out

    def edges(self):
        """Vertex pairs forming edges (1-faces), as sorted ambient pairs."""
        inc = self._incidence()
        hv = self.hull.vertices
        out = []
        for a in range(len(hv)):
            for b in range(a + 1, len(hv)):
                va, vb = hv[a], hv[b]
                common = inc[va] & inc[vb]
                members = [v for v in hv if common <= inc[v]]
                if len(members) == 2:
                    out.append(tuple(sorted((self.points[va], self.points[vb]))))
        return sorted(out)

    # -- fans, volumes ---------------------------------------------------

    def normal_fan(self):
        """Maximal cones of the normal fan, in reduced coordinates.

        Returns a frozenset of cones; each cone is the sorted tuple of the
        primitive inner normals of the facets through one vertex. Two
        polytopes with parallel affine hulls get comparable fans because
        the reduced basis is canonical for the direction space.
        """
        if self.dim == 0:
            return frozenset({()})
        inc = self._incidence()
        fac = self.hull.facets
        cones = set()
        for v in self.hull.vertices:
            rays = tuple(sorted(fac[fi][0] for fi in inc[v]))
            cones.add(rays)
        return frozenset(cones)

    def triangulate(self):
        """Simplices (tuples of ambient points) covering the polytope."""
        if self.dim == 0:
            return [(tuple(self.points[0]),)]
        if self.dim == 1:
            vs = self.vertices
            return [(tuple(vs[0]), tuple(vs[-1]))]
        v0 = self.points[self.hull.vertices[0]]
        out = []
        for u, c, tight in self.hull.facets:
            t0 = self.reduced[self.hull.vertices[0]]
            if _dot(u, t0) == c:
                continue
            sub = LatticePolytope([self.points[i] for i in tight])
            for simplex in sub.triangulate():
                out.append((tuple(v0),) + simplex)
        return out

    def normalized_volume(self):
        """Normalized lattice volume (dim! times euclidean, saturated)."""
        return sum(normalized_simplex_volume(s) for s in self.triangulate())

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
        """Sum of normalized facet volumes; polygons only."""
        if self.dim != 2:
            raise DimensionUnsupported("boundary volume implemented for polygons")
        total = 0
        for u, c, tight in self.hull.facets:
            sub = [self.points[i] for i in tight]
            ends = LatticePolytope(sub).vertices
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
        self._face_masks = {}
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
        if k in self._face_masks:
            return self._face_masks[k]
        poly = self.polytope
        if k == poly.dim:
            out = [(1 << len(self.points)) - 1]
        else:
            facets = poly.facets
            tight_masks = []
            for normal, off in facets:
                m = 0
                for i, p in enumerate(self.points):
                    if _dot(normal, p) == off:
                        m |= 1 << i
                tight_masks.append(m)
            out = []
            for face in poly.faces(k):
                m = (1 << len(self.points)) - 1
                for fi in face.facet_ids:
                    m &= tight_masks[fi]
                out.append(m)
        self._face_masks[k] = out
        return out
