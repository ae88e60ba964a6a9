"""Independent brute-force oracles for the library's geometry.

- all_triangulations: every triangulation of a tiny plane configuration,
  to cross-check the flip-graph enumeration. Candidate cells are all
  non-collinear triples, a tiling is grown by always covering one fixed
  uncovered witness point, and completed tilings are deduplicated as sets.
- hull_facets, hull_vertices, hull_volume: the convex hull by brute force,
  a facet being the hyperplane through affinely independent points with
  every point on one side.
- placing_cells: the placing triangulation built from a new brute-force
  hull of the placed points at every step.
- hull_faces: every face of the brute-force hull, by a search over
  vertex sets grown one vertex at a time, each closed to the vertices on
  every facet through all of its own.
- fold_rows: the regularity rows of a triangulation, one per interior
  wall (the kernel of its two cells, positive at the first cell's apex)
  and one per unused point (den e_i minus den times its barycentric
  coordinates in the first cell holding it).
- present_side: the side of a circuit present in a triangulation, by a
  scan of every cell for each point of a side, the search the library
  made before it grouped the cells by their meet with the support.
- pairwise_verdict: whether cells triangulate the hull, by the volume and
  a face-to-face test of every pair of cells (meet_in_common_face), the
  check `Triangulation.validate` made before it read walls alone.
- solve_rational: one solution of A x = b by Gauss-Jordan elimination in
  Fractions, free variables 0, the solve the library made before its
  fraction-free elimination.
- refine_by_lower_hull: the K-energy refinement of heights read off the
  lower hull of the lifted points, each lower facet placed in label
  order, the route the library took before it read the domains of
  linearity off the affine pieces.
- mask_tuple_digest: the 96-bit blake2b digest of the repr of a
  triangulation's sorted mask tuple, the key of the enumeration's seen
  set before it summed per-cell keys.

Everything is exact rational arithmetic. Nothing here shares logic with
the library, except that meet_in_common_face solves its LP with the
library's `max_eq_lp`, and refine_by_lower_hull lifts with the library's
`height_subdivision` and places with its `placing_triangulation`.
"""

from fractions import Fraction
from functools import lru_cache
from hashlib import blake2b
from itertools import combinations
from math import gcd, lcm

from regtriang.lp import max_eq_lp
from regtriang.triangulation import Triangulation, height_subdivision, placing_triangulation


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _clip(subject, a, b):
    """Keep the part of a convex polygon left of the directed line a->b."""
    out = []
    m = len(subject)
    for i in range(m):
        p, q = subject[i], subject[(i + 1) % m]
        sp, sq = _cross(a, b, p), _cross(a, b, q)
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = Fraction(sp, sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    # collapse duplicates the clipping can introduce
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if dedup and dedup[0] == dedup[-1] and len(dedup) > 1:
        dedup.pop()
    return dedup


def _ccw(tri):
    a, b, c = tri
    return (a, b, c) if _cross(a, b, c) > 0 else (a, c, b)


def _intersection(t1, t2):
    """Vertices of the intersection of two triangles, exact."""
    poly = list(_ccw(t1))
    t2 = _ccw(t2)
    for i in range(3):
        if not poly:
            return []
        poly = _clip(poly, t2[i], t2[(i + 1) % 3])
    return poly


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    lo = [min(a[i], b[i]) for i in range(2)]
    hi = [max(a[i], b[i]) for i in range(2)]
    return all(lo[i] <= p[i] <= hi[i] for i in range(2))


def _face_to_face(c1, p1, c2, p2):
    """Whether two cells meet exactly in the face spanned by shared labels."""
    inter = _intersection(p1, p2)
    shared = [p for lab, p in zip(c1, p1) if lab in c2]
    if not shared:
        return not inter
    if len(shared) == 1:
        return all(v == shared[0] for v in inter)
    return all(_on_segment(v, shared[0], shared[1]) for v in inter)


def _area2(tri):
    return abs(_cross(*tri))


def _strictly_inside(p, tri):
    t = _ccw(tri)
    return all(_cross(t[i], t[(i + 1) % 3], p) > 0 for i in range(3))


def all_triangulations(config):
    """Every triangulation of the configuration, as frozensets of cells.

    Cells are 1-based label triples like the library's. Points may be
    omitted (a cell may contain unused configuration points in its
    interior or on its edges), but cells must pairwise meet face to face
    and together cover the hull.
    """
    labels = list(config.labels())
    pts = {lab: tuple(config.point(lab)) for lab in labels}
    cells = []
    for trio in combinations(labels, 3):
        tri = tuple(pts[lab] for lab in trio)
        if _area2(tri):
            cells.append((trio, tri, _area2(tri)))
    compatible = {}
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            ok = _face_to_face(cells[i][0], cells[i][1], cells[j][0], cells[j][1])
            compatible[i, j] = compatible[j, i] = ok
    hull_area2 = config.polytope.normalized_volume()
    found = set()

    def witness(chosen_idx):
        for k, (_, tri, _) in enumerate(cells):
            centroid = (
                sum(Fraction(v[0]) for v in tri) / 3,
                sum(Fraction(v[1]) for v in tri) / 3,
            )
            if any(
                _strictly_inside(centroid, cells[i][1])
                or any(_on_segment(centroid, cells[i][1][a], cells[i][1][b])
                       for a, b in ((0, 1), (0, 2), (1, 2)))
                for i in chosen_idx
            ):
                continue
            return k, centroid
        return None

    def grow(chosen_idx, covered2):
        if covered2 == hull_area2:
            found.add(frozenset(cells[i][0] for i in chosen_idx))
            return
        w = witness(chosen_idx)
        if w is None:
            return
        _, point = w
        for k, (_, tri, a2) in enumerate(cells):
            if k in chosen_idx:
                continue
            inside = _strictly_inside(point, tri) or any(
                _on_segment(point, tri[a], tri[b])
                for a, b in ((0, 1), (0, 2), (1, 2))
            )
            if not inside:
                continue
            if all(compatible[k, i] for i in chosen_idx):
                grow(chosen_idx | {k}, covered2 + a2)

    grow(frozenset(), 0)
    return found


def _reduce(rows):
    """Reduced row echelon form over the rationals, zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def solve_rational(a_rows, b):
    """One exact solution of A x = b, or None if inconsistent.

    Underdetermined systems get free variables set to zero.
    """
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    aug = [[Fraction(x) for x in a_rows[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return x


def affine_rank(points):
    """Dimension of the affine span of the points."""
    return len(_reduce([[a - b for a, b in zip(p, points[0])] for p in points[1:]]))


def _value(f, p):
    return f[0] + sum(a * b for a, b in zip(f[1:], p))


def hull_facets(points):
    """Facets of conv(points) as (f, tight): f = (c0, c1, ..) with
    c0 + c.x >= 0 on the points and zero exactly on those with indices in
    the frozenset tight. For lower-dimensional points f is one of many
    functionals that agree on their affine span."""
    k = affine_rank(points)
    if k == 0:
        return []
    found = {}
    for subset in combinations(range(len(points)), k):
        on = [points[i] for i in subset]
        if affine_rank(on) != k - 1:
            continue
        off = next(p for p in points if affine_rank(on + [p]) == k)
        # f = (c0, c): zero on the subset and one at a point off its span
        rows = [[1] + list(p) + [0] for p in on] + [[1] + list(off) + [1]]
        echelon = _reduce(rows)
        f = [Fraction(0)] * (len(points[0]) + 1)
        for row in echelon:
            lead = next(j for j, x in enumerate(row) if x)
            f[lead] = row[-1]
        values = [_value(f, p) for p in points]
        if all(v >= 0 for v in values):
            tight = frozenset(i for i, v in enumerate(values) if v == 0)
            found.setdefault(tight, tuple(f))
    return [(f, tight) for tight, f in found.items()]


def in_hull(q, points):
    """Whether q lies in conv(points)."""
    if affine_rank(points + [q]) > affine_rank(points):
        return False
    if affine_rank(points) == 0:
        return True
    return all(_value(f, q) >= 0 for f, _ in hull_facets(points))


def hull_vertices(points):
    """The points that are not in the hull of the others."""
    return [
        p for i, p in enumerate(points)
        if len(points) == 1 or not in_hull(p, points[:i] + points[i + 1:])
    ]


def hull_volume(points):
    """dim! times the euclidean volume of full-dimensional points, summed
    over the pyramids from the first point over the facets: a pyramid of
    height f(v)/|c| has volume f(v) vol(F)/(d |c|), and projecting the
    facet F along a coordinate j with c_j != 0 scales its volume by
    |c_j|/|c|."""
    d = len(points[0])
    if d == 0:
        return 1
    total = 0
    for f, tight in hull_facets(points):
        height = _value(f, points[0])
        if height:
            j = next(j for j, c in enumerate(f[1:]) if c)
            facet = [points[i][:j] + points[i][j + 1:] for i in sorted(tight)]
            total += height / abs(f[j + 1]) * hull_volume(facet)
    return total


def hull_faces(points):
    """Every face of conv(points), the polytope itself included, as
    (dim, vertex indices, indices of the points on it). A vertex set on no
    common facet closes to the whole polytope."""
    vertex_points = hull_vertices(points)
    verts = [i for i, p in enumerate(points) if p in vertex_points]
    facets = [tight for _, tight in hull_facets(points)]
    inc = {v: frozenset(j for j, tight in enumerate(facets) if v in tight) for v in verts}
    everything = frozenset(range(len(points)))
    found = {}
    frontier = {frozenset([v]) for v in verts}
    while frontier:
        grown = set()
        for vset in frontier:
            common = frozenset.intersection(*(inc[v] for v in vset))
            members = frozenset(v for v in verts if common <= inc[v])
            if members in found:
                continue
            on = everything.intersection(*(facets[j] for j in common))
            found[members] = (affine_rank([points[i] for i in members]), on)
            grown.update(members | {w} for w in verts if w not in members)
        frontier = grown
    return [(d, members, on) for members, (d, on) in found.items()]


def placing_cells(points, order):
    """Cell masks (bit i = points[i]) of the placing triangulation in the
    given order: a point off the span of the placed points cones over every
    cell, a point beyond some facets of their hull cones over the cell
    walls on those facets, and any other point is skipped."""
    placed = []
    cells = []
    for i in order:
        p, bit = points[i], 1 << i
        if not placed:
            placed, cells = [i], [bit]
            continue
        current = [points[j] for j in placed]
        if affine_rank(current + [p]) > affine_rank(current):
            placed.append(i)
            cells = [c | bit for c in cells]
            continue
        beyond = [tight for f, tight in hull_facets(current) if _value(f, p) < 0]
        if not beyond:
            continue
        new = list(cells)
        for tight in beyond:
            facet = sum(1 << placed[t] for t in tight)
            for c in cells:
                for v in range(c.bit_length()):
                    wall = c & ~(1 << v)
                    if wall and wall != c and wall & facet == wall and wall | bit not in new:
                        new.append(wall | bit)
        placed.append(i)
        cells = new
    return sorted(cells)


def _solve(columns, rhs):
    """The x with sum_j x_j columns[j] = rhs, for independent columns, or
    None when there is none."""
    echelon = _reduce([list(row) + [b] for row, b in zip(zip(*columns), rhs)])
    if any(not any(row[:-1]) for row in echelon):
        return None
    return [row[-1] for row in echelon]


def fold_rows(points, masks):
    """Full-column fold rows of the cells (bit i = points[i]) of a
    triangulation: walls in the order the cells, in the given order, meet
    them (lowest bit first), then unused points ascending, each hosted by
    the first cell in sorted mask order that holds it."""
    lifted = [list(p) + [1] for p in points]
    walls = {}
    used = 0
    for c in masks:
        used |= c
        for v in range(c.bit_length()):
            if c >> v & 1:
                walls.setdefault(c & ~(1 << v), []).append(c)
    rows = []
    for wall, owners in walls.items():
        if len(owners) != 2:
            continue
        idx = [i for i in range(len(points)) if (owners[0] | owners[1]) >> i & 1]
        apex = (owners[0] & ~wall).bit_length() - 1
        # one kernel vector of the lifted columns: 1 at the apex, the rest solved
        rest = [i for i in idx if i != apex]
        coeffs = dict(zip(rest, _solve([lifted[i] for i in rest], [-a for a in lifted[apex]])))
        coeffs[apex] = Fraction(1)
        den = lcm(*(c.denominator for c in coeffs.values()))
        ints = {i: int(c * den) for i, c in coeffs.items()}
        g = gcd(*ints.values())
        row = [0] * len(points)
        for i, c in ints.items():
            row[i] = c // g
        rows.append(row)
    for i in range(len(points)):
        if used >> i & 1:
            continue
        for c in sorted(masks):
            cell = [j for j in range(len(points)) if c >> j & 1]
            coords = _solve([lifted[j] for j in cell], lifted[i])
            if coords is not None and all(x >= 0 for x in coords):
                break
        else:
            raise ValueError(f"point {i} is outside every cell")
        den = lcm(*(x.denominator for x in coords))
        row = [0] * len(points)
        row[i] = den
        for j, x in zip(cell, coords):
            row[j] -= int(x * den)
        rows.append(row)
    return rows


def present_side(masks, circ):
    """(taus, link, new) of the side of the circuit present in the cells,
    or None: every tau (the support minus one point of the side) lies in
    as many cells as the first, and tau | lam is a cell for each lam of
    the first one's link. The plus side is tried first."""
    cellset = set(masks)
    smask = circ.support
    for old, new in ((circ.minus, circ.plus), (circ.plus, circ.minus)):
        taus = [smask ^ (1 << i) for i in range(old.bit_length()) if old >> i & 1]
        tau0 = taus[0]
        link = [c & ~tau0 for c in masks if c & tau0 == tau0]
        if link and all(
            sum(1 for c in masks if c & tau == tau) == len(link)
            and all(tau | lam in cellset for lam in link)
            for tau in taus
        ):
            return taus, link, new
    return None


def meet_in_common_face(points, m1, m2):
    """Whether the simplices on cell masks m1 and m2 (bit i = points[i])
    intersect exactly in the face spanned by m1 & m2: the barycentric mass
    off the shared points, maximized over the intersection, is 0."""
    if m1 == m2:
        return True
    cols = []
    obj = []
    d = len(points[0])
    for cell, sign, lift in ((m1, 1, [1, 0]), (m2, -1, [0, 1])):
        for i in range(len(points)):
            if cell >> i & 1:
                cols.append([sign * x for x in points[i]] + lift)
                obj.append(0 if (m1 & m2) >> i & 1 else 1)
    status, _, value = max_eq_lp(obj, cols, [0] * d + [1, 1])
    if status == "infeasible":
        return True  # the simplices do not meet at all
    if status != "optimal":
        raise ValueError(f"common-face LP ended {status}")
    return value == 0


def _det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


@lru_cache(maxsize=None)
def _normalized_volume(points):
    return hull_volume(list(points))


def pairwise_verdict(points, masks):
    """The first rule the cells (bit i = points[i]) break, or None if they
    triangulate conv(points): "degenerate" (a cell not d+1 of the points
    with positive volume), "volume" (volumes not summing to the hull's) or
    "overlap" (two cells not meeting in a common face). A repeated cell
    meets its copy in a common face, so it passes the pair test."""
    d = len(points[0])
    total = 0
    for c in masks:
        idx = [i for i in range(len(points)) if c >> i & 1]
        if c >> len(points) or len(idx) != d + 1:
            return "degenerate"
        p0 = points[idx[0]]
        vol = abs(_det([[a - b for a, b in zip(points[i], p0)] for i in idx[1:]]))
        if vol == 0:
            return "degenerate"
        total += vol
    if total != _normalized_volume(tuple(points)):
        return "volume"
    if not all(meet_in_common_face(points, a, b) for a, b in combinations(masks, 2)):
        return "overlap"
    return None


def refine_by_lower_hull(config, heights):
    """Regular triangulation refining the lower-hull subdivision of the
    heights, each cell placed in label order."""
    simplex = config.dim + 1
    cells = []
    for cell in height_subdivision(config, heights):
        if len(cell) == simplex:
            cells.append(cell)
        else:
            cells.extend(placing_triangulation(config, cell).cells)
    return Triangulation(config, cells)


def mask_tuple_digest(masks):
    """96-bit blake2b digest of the repr of the sorted mask tuple."""
    return blake2b(repr(tuple(sorted(masks))).encode(), digest_size=12).digest()
