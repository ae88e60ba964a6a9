"""Exact linear algebra over the integers and rationals.

Everything here is deterministic and exact: integer matrices go through
fraction-free (Bareiss) elimination or Hermite-style reductions, rational
data is handled with fractions.Fraction. No floating point anywhere.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def det_int(rows):
    """Determinant of a square integer matrix, fraction-free Bareiss."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


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
    """Rank of an integer matrix via fraction-free elimination."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pk = a[row][col]
        for i in range(row + 1, len(a)):
            aic = a[i][col]
            for j in range(col + 1, ncols):
                a[i][j] = (pk * a[i][j] - aic * a[row][j]) // prev
            a[i][col] = 0
        prev = pk
        rank += 1
        row += 1
        if row == len(a):
            break
    return rank


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


def saturation_basis(vectors, dim=None):
    """Canonical basis of span(vectors) ∩ Z^d.

    The result depends only on the rational span, not on the given
    generating set: it is the HNF basis of the saturated lattice.
    """
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        if dim is None:
            raise ValueError("empty span needs explicit ambient dim")
        return []
    d = len(vecs[0])
    k1 = integer_kernel(vecs)
    if not k1:
        k1 = [[0] * d]
    k2 = integer_kernel(k1)
    return hnf(k2)


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


def solve_integer_saturated(basis_rows, w):
    """Integer N with <N, b_j> = w_j for each row b_j of a saturated basis."""
    k = len(basis_rows)
    if k == 0:
        return ()
    d = len(basis_rows[0])
    h, ut = hnf_with_transform([[basis_rows[i][j] for i in range(k)] for j in range(d)])
    # ut * B^T = h, so B * ut^T = h^T; h^T is k x d with a k x k leading
    # unimodular block because the basis is saturated.
    hk = [[h[j][i] for j in range(k)] for i in range(k)]
    y = solve_rational(hk, w)
    if y is None:
        raise ValueError("inconsistent system")
    n_vec = [Fraction(0)] * d
    for j in range(k):
        if y[j]:
            for t in range(d):
                n_vec[t] += y[j] * ut[j][t]
    out = []
    for x in n_vec:
        if x.denominator != 1:
            raise ValueError("no integer solution; basis not saturated?")
        out.append(int(x))
    return tuple(out)


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
