import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from regtriang import lp
from regtriang.errors import CheckFailed
from regtriang.lp import eq_phase1, max_eq_lp, strict_feasible


def max_lp(c, rows, rhs):
    """max c.x over {rows.x <= rhs, x >= 0}, posed to max_eq_lp with one
    explicit slack column per row; returns (status, x, value) for the
    original variables."""
    m, n = len(rows), len(c)
    cols = [[r[j] for r in rows] for j in range(n)]
    cols += [[int(i == k) for k in range(m)] for i in range(m)]
    status, x, value = max_eq_lp(list(c) + [0] * m, cols, rhs)
    return status, None if x is None else x[:n], value


def test_max_lp_simple():
    # max x + y subject to x <= 2, y <= 3
    status, x, val = max_lp([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert status == "optimal"
    assert val == 5
    assert x == [2, 3]


def test_max_lp_diagonal_cut():
    # max x + y subject to x + y <= 4, x <= 3, y <= 3
    status, x, val = max_lp([1, 1], [[1, 1], [1, 0], [0, 1]], [4, 3, 3])
    assert status == "optimal"
    assert val == 4


def test_max_lp_unbounded():
    status, _, _ = max_lp([1], [[-1]], [0])
    assert status == "unbounded"


def test_max_lp_fractional_optimum():
    # max y subject to 2y <= 1
    status, x, val = max_lp([0, 1], [[0, 2]], [1])
    assert status == "optimal"
    assert val == Fraction(1, 2)


def test_max_lp_degenerate_terminates():
    # many redundant rows through the origin; Bland must still finish
    rows = [[1, -1], [2, -2], [3, -3], [1, 0], [0, 1]]
    rhs = [0, 0, 0, 5, 5]
    status, x, val = max_lp([1, 1], rows, rhs)
    assert status == "optimal"
    assert val == 10


def test_eq_phase1_feasible():
    # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
    cols = [[1, 1], [1, -1]]
    tab = eq_phase1(cols, [2, 0])
    assert tab.t[0][-1] == 0
    assert tab.solution(2) == [1, 1]


def test_eq_phase1_random_roundtrip():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        xs = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(cols[j][i] * xs[j] for j in range(n)) for i in range(m)]
        # negate the rows whose right-hand side is negative
        signs = [-1 if bi < 0 else 1 for bi in b]
        cols = [[s * c for s, c in zip(signs, col)] for col in cols]
        b = [s * bi for s, bi in zip(signs, b)]
        tab = eq_phase1(cols, b)
        assert tab.t[0][-1] == 0  # constructed to be feasible
        x = tab.solution(n)
        assert all(v >= 0 for v in x)
        for i in range(m):
            assert sum(cols[j][i] * x[j] for j in range(n)) == b[i]



def _in_hull(point, generators):
    """Membership of point in conv(generators) as the LP {sum x_j (g_j, 1)
    = (point, 1), x >= 0}; returns the convex coefficients or None."""
    cols = [list(g) + [1] for g in generators]
    status, x, _ = max_eq_lp([0] * len(cols), cols, list(point) + [1])
    return x if status == "optimal" else None


def _separates(point, generators):
    """A functional y with y.(g, 1) > 0 on every generator and
    y.(point, 1) < 0, found by strict_feasible, or None. The point's row
    is scaled by its common denominator: strict_feasible takes integers."""
    q = lcm(*(Fraction(v).denominator for v in point))
    rows = [list(g) + [1] for g in generators] + [[-int(q * v) for v in point] + [-q]]
    ok, y, margin = strict_feasible(rows)
    return y if ok else None


def test_in_hull_square():
    gens = [(0, 0), (1, 0), (1, 1), (0, 1)]
    point = (Fraction(1, 2), Fraction(1, 2))
    coeffs = _in_hull(point, gens)
    assert coeffs is not None
    assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
    assert all(sum(c * g[i] for c, g in zip(coeffs, gens)) == point[i] for i in range(2))
    assert _separates(point, gens) is None
    assert _in_hull((2, 0), gens) is None
    y = _separates((2, 0), gens)
    assert y is not None
    # separating functional
    assert sum(y[i] * v for i, v in enumerate((2, 0))) + y[2] < 0
    assert all(sum(y[i] * v for i, v in enumerate(g)) + y[2] > 0 for g in gens)


def test_in_hull_boundary():
    gens = [(0, 0), (2, 0), (0, 2)]
    assert _in_hull((1, 0), gens) is not None
    assert _in_hull((1, 1), gens) is not None  # on the diagonal edge
    # a boundary point admits no strict separation
    assert _separates((1, 1), gens) is None
    assert _in_hull((Fraction(3, 2), 1), gens) is None


def test_strict_feasible_simple():
    ok, g, margin = strict_feasible([[1, 0], [0, 1]])
    assert ok
    assert g[0] >= margin > 0 and g[1] >= margin


def test_strict_feasible_contradiction():
    ok, u, _ = strict_feasible([[1], [-1]])
    assert not ok
    # u is a convex combination certifying 0 in the row hull
    assert sum(u) == 1
    assert u[0] * 1 + u[1] * -1 == 0


def test_strict_feasible_zero_row():
    ok, u, _ = strict_feasible([[1, 1], [0, 0]])
    assert not ok


def test_strict_feasible_matches_brute_force():
    # compare against a coarse grid search on small random systems
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 3)
        nrows = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(nrows)]
        ok, _, _ = strict_feasible(rows)
        grid_hit = False
        for g in product(range(-4, 5), repeat=m):
            if all(sum(a * x for a, x in zip(r, g)) > 0 for r in rows):
                grid_hit = True
                break
        if grid_hit:
            assert ok
        # grid miss does not prove infeasibility, but the certificate does:
        if not ok:
            assert not grid_hit


def test_strict_feasible_checks_the_farkas_certificate(monkeypatch):
    # a tableau whose first height numerator reads -den fails the row check
    real = lp.eq_phase1

    def skewed(cols, b):
        tab = real(cols, b)
        tab.t[0][len(cols)] = 0
        return tab

    monkeypatch.setattr(lp, "eq_phase1", skewed)
    with pytest.raises(CheckFailed):
        strict_feasible([[1, 0], [0, 1]])


@pytest.mark.parametrize("shift", [(1, 0), (1, -1)])
def test_strict_feasible_checks_the_dual_certificate(monkeypatch, shift):
    # u off the simplex, or on it but with M^T u != 0, is refused
    real = lp._Tableau.numerators

    def skewed(self, nvars):
        return [v + s for v, s in zip(real(self, nvars), shift)]

    monkeypatch.setattr(lp._Tableau, "numerators", skewed)
    with pytest.raises(CheckFailed):
        strict_feasible([[1], [-1]])
