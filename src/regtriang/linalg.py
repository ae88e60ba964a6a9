"""Exact linear algebra over the integers and rationals.

Everything here is deterministic and exact, with no floating point.
Two eliminations serve every question. One fraction-free (Bareiss) row
echelon form gives determinants, ranks and rational solutions; a solve
scales each equation to integers first and back-substitutes over the
pivots in fractions.Fraction. Hermite normal forms give lattice bases
(integer kernels) and the pivot columns of a direction space.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (a, pivots, sign): the rows, swapped and reduced so that row r
    has its first nonzero entry in column pivots[r] and the rows past the
    pivots are zero; sign is (-1) to the number of swaps. Each entry is a
    minor of the swapped matrix, so every division is exact, and the last
    pivot of a nonsingular square matrix is sign times its determinant.
    """
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for col in range(ncols):
        row_r = a[r]
        pk = row_r[col]
        if not pk:
            for i in range(r + 1, m):
                if a[i][col]:
                    break
            else:
                continue
            a[r], a[i] = a[i], row_r
            row_r = a[r]
            pk = row_r[col]
            sign = -sign
        pivots.append(col)
        r += 1
        if r == m:
            break
        # only the columns right of the pivot change
        rest = range(col + 1, ncols)
        for row_i in a[r:]:
            aic = row_i[col]
            for j in rest:
                row_i[j] = (pk * row_i[j] - aic * row_r[j]) // prev
            row_i[col] = 0
        prev = pk
    return a, pivots, sign


def det_int(rows):
    """Determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[-1][-1] if len(pivots) == n else 0


def scale_to_integers(vec):
    """Return (w, s) with s a positive integer, w = s*vec integral."""
    mult = 1
    for x in vec:
        if isinstance(x, Fraction):
            mult = lcm(mult, x.denominator)
    return tuple(int(x * mult) for x in vec), mult


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def primitive_direction(vec):
    """Primitive integer vector of a line, its first nonzero entry positive."""
    vec = primitive(vec)
    lead = next((x for x in vec if x), 0)
    if not lead:
        raise ValueError("zero direction")
    return vec if lead > 0 else tuple(-x for x in vec)


def rank_int(rows):
    """Rank of an integer matrix."""
    return len(_echelon(rows)[1])


def rank_rows(rows):
    """Rank of a matrix with integer or Fraction entries."""
    cleaned = []
    for r in rows:
        w, _ = scale_to_integers(r)
        cleaned.append(w)
    return rank_int(cleaned)


def hnf_with_transform(rows):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U*M = H. H is in canonical form:
    pivots positive, entries above each pivot reduced into [0, pivot),
    zero rows at the bottom.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    ncols = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def addmul(dst, src, q):
        ad, asr = a[dst], a[src]
        for j in range(ncols):
            ad[j] += q * asr[j]
        ud, usr = u[dst], u[src]
        for j in range(m):
            ud[j] += q * usr[j]

    def swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        swap(row, piv)
        # euclidean reduction of the column below the pivot
        while True:
            nz = [i for i in range(row + 1, m) if a[i][col] != 0]
            if not nz:
                break
            # move smallest absolute value into pivot position
            best = min(nz + [row], key=lambda i: abs(a[i][col]))
            if best != row:
                swap(row, best)
            p = a[row][col]
            done = True
            for i in range(row + 1, m):
                if a[i][col] != 0:
                    q = a[i][col] // p
                    addmul(i, row, -q)
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if a[row][col] < 0:
            negate(row)
        p = a[row][col]
        for i in range(row):
            q = a[i][col] // p
            if q:
                addmul(i, row, -q)
        row += 1
        if row == m:
            break
    return [tuple(r) for r in a], [tuple(r) for r in u]


def hnf(rows):
    """Canonical Hermite normal form rows (zero rows dropped)."""
    h, _ = hnf_with_transform(rows)
    return [r for r in h if any(r)]


def integer_kernel(rows):
    """Basis of the saturated lattice {x in Z^d : M x = 0}.

    `rows` is an integer matrix with d columns; the result is a list of
    integer d-vectors forming a lattice basis of the kernel.
    """
    if not rows:
        raise ValueError("need at least the column count; pass [[0]*d] instead")
    d = len(rows[0])
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(d)]
    h, u = hnf_with_transform(transposed)
    return [u[i] for i in range(d) if not any(h[i])]


def solve_rational(a_rows, b):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables, the columns that depend on the ones before them, are
    set to zero. Each equation is scaled to integers and eliminated
    fraction-free; the pivot variables are back-substituted in Fractions.
    """
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    a, pivots, _ = _echelon(
        [scale_to_integers(list(row) + [rhs])[0] for row, rhs in zip(a_rows, b)]
    )
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for r in reversed(range(len(pivots))):
        row, col = a[r], pivots[r]
        x[col] = Fraction(row[n] - sum(row[j] * x[j] for j in pivots[r + 1:]), row[col])
    return x


def affine_dependence(points):
    """Primitive integer affine dependence among the points, or None.

    Requires the dependence space to be at most one-dimensional, which
    holds for any r+2 points whose affine span has dimension r.
    The sign is normalized so the first nonzero coefficient is positive.
    """
    k = len(points)
    d = len(points[0])
    rows = [[points[j][i] for j in range(k)] for i in range(d)]
    rows.append([1] * k)
    ker = integer_kernel(rows)
    if not ker:
        return None
    if len(ker) > 1:
        raise ValueError("dependence space has dimension > 1")
    return primitive_direction(ker[0])


def barycentric(simplex_points, p):
    """Affine coordinates of p in the given affinely independent points.

    Returns a list of Fractions summing to 1, or None when p lies
    outside the affine span.
    """
    k = len(simplex_points)
    d = len(p)
    rows = [[simplex_points[j][i] for j in range(k)] for i in range(d)]
    rows.append([1] * k)
    rhs = list(p) + [1]
    return solve_rational(rows, rhs)


def normalized_simplex_volume(points):
    """Normalized lattice volume of the simplex spanned by the points.

    For k+1 points in Z^d this is the gcd of all k x k minors of the edge
    matrix; it is 0 exactly when the points are affinely dependent, and
    equals k! times the euclidean k-volume relative to the sublattice
    when they are independent. A single point has volume 1.
    """
    k = len(points) - 1
    if k < 0:
        raise ValueError("empty point set")
    if k == 0:
        return 1
    p0 = points[0]
    edges = [tuple(p[i] - p0[i] for i in range(len(p0))) for p in points[1:]]
    d = len(p0)
    if k > d:
        return 0
    if k == d:
        return abs(det_int(edges))
    g = 0
    for cols in combinations(range(d), k):
        sub = [[e[c] for c in cols] for e in edges]
        g = gcd(g, abs(det_int(sub)))
        if g == 1:
            return 1
    return g


def lattice_length(a, b):
    """Number of lattice steps from a to b (gcd of coordinate differences)."""
    return normalized_simplex_volume([tuple(a), tuple(b)])
