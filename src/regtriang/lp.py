"""Exact linear programming on integer data.

The tableau keeps integer entries with a shared positive denominator and
pivots fraction-free, so every intermediate value is a minor of the input
data. Bland's rule makes both phases terminate despite degeneracy.
"""

from fractions import Fraction

from .errors import CheckFailed
from .linalg import scale_to_integers


class _Tableau:
    """Dense simplex tableau with integer pivoting.

    Rows: index 0 is the objective, 1..m are constraints. The true tableau
    is self.t scaled by 1/self.den; basic columns are unit columns.
    The objective row holds reduced costs: entering improves while some
    entry is positive. The current objective value is -t[0][-1]/den.
    """

    def __init__(self, obj, rows, rhs, basis):
        self.t = [list(obj) + [0]] + [list(r) + [v] for r, v in zip(rows, rhs)]
        self.den = 1
        self.basis = list(basis)
        self.ncols = len(self.t[0])

    def price_out(self, row, col):
        """Clear the objective entry of an initially basic column."""
        coef = self.t[0][col]
        if coef:
            tr = self.t[row]
            self.t[0] = [a - coef * b for a, b in zip(self.t[0], tr)]

    def pivot(self, row, col):
        t = self.t
        den = self.den
        piv = t[row][col]
        tr = t[row]
        for i in range(len(t)):
            if i == row:
                continue
            ti = t[i]
            f = ti[col]
            if f:
                t[i] = [(piv * a - f * b) // den for a, b in zip(ti, tr)]
            else:
                # rescale to the new shared denominator
                t[i] = [(piv * a) // den for a in ti]
        self.den = piv
        self.basis[row - 1] = col

    def bland(self):
        """Run simplex to optimality. Returns 'optimal' or 'unbounded'."""
        t = self.t
        m = len(t) - 1
        while True:
            enter = -1
            obj = t[0]
            for j in range(self.ncols - 1):
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for i in range(1, m + 1):
                a = t[i][enter]
                if a <= 0:
                    continue
                if leave < 0:
                    leave = i
                    continue
                lhs = t[i][-1] * t[leave][enter]
                rhs = t[leave][-1] * a
                if lhs < rhs or (lhs == rhs and self.basis[i - 1] < self.basis[leave - 1]):
                    leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)

    def objective_value(self):
        return Fraction(-self.t[0][-1], self.den)

    def solution(self, nvars):
        x = [Fraction(0)] * nvars
        for i, var in enumerate(self.basis):
            if var < nvars:
                x[var] = Fraction(self.t[i + 1][-1], self.den)
        return x

    def reduced_cost(self, col):
        return Fraction(self.t[0][col], self.den)


def max_lp(c, rows, rhs):
    """Maximize c.x subject to rows.x <= rhs, x >= 0, all data integer.

    Requires rhs >= 0 so the slack basis is feasible. Returns
    (status, x, value) with exact Fractions.
    """
    m = len(rows)
    n = len(c)
    for v in rhs:
        if v < 0:
            raise ValueError("max_lp needs a nonnegative right-hand side")
    ext_rows = []
    for i, r in enumerate(rows):
        slack = [0] * m
        slack[i] = 1
        ext_rows.append(list(r) + slack)
    tab = _Tableau(list(c) + [0] * m, ext_rows, rhs, [n + i for i in range(m)])
    status = tab.bland()
    if status != "optimal":
        return status, None, None
    return "optimal", tab.solution(n), tab.objective_value()


def eq_phase1(cols, b):
    """Feasibility of {sum_j x_j * cols[j] = b, x >= 0} with integer data.

    Returns (feasible, x, y): when feasible, x is one solution (list of
    Fractions per column); when infeasible, y is a Farkas certificate with
    y.col_j >= 0 for every column and y.b < 0.
    """
    m = len(b)
    n = len(cols)
    rows = [[cols[j][i] for j in range(n)] for i in range(m)]
    rhs = list(b)
    for i in range(m):
        scaled, _ = scale_to_integers(rows[i] + [rhs[i]])
        rows[i] = list(scaled[:n])
        rhs[i] = scaled[n]
    flip = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flip[i] = True
    for i in range(m):
        art = [0] * m
        art[i] = 1
        rows[i] = rows[i] + art
    # maximize -(sum of artificials)
    obj = [0] * n + [-1] * m
    tab = _Tableau(obj, rows, rhs, [n + i for i in range(m)])
    for i in range(m):
        tab.price_out(i + 1, n + i)
    status = tab.bland()
    if status != "optimal":  # phase 1 objective is bounded above by 0
        raise CheckFailed(f"phase 1 ended {status}")
    value = tab.objective_value()
    if value == 0:
        return True, tab.solution(n), None
    y = []
    for i in range(m):
        yi = Fraction(-1) - tab.reduced_cost(n + i)
        y.append(-yi if flip[i] else yi)
    return False, None, y


def in_hull(point, generators):
    """Exact membership of point in conv(generators).

    Returns (inside, coeffs_or_certificate): coefficients of a convex
    combination when inside, otherwise a separating functional y with
    y.(g,1) >= 0 for all generators and y.(point,1) < 0.
    """
    if not generators:
        return False, None
    d = len(point)
    cols = [list(g) + [1] for g in generators]
    feasible, x, y = eq_phase1(cols, list(point) + [1])
    if feasible:
        return True, x
    return False, y


def strict_feasible(rows):
    """Decide whether some g satisfies row.g > 0 for every row (g free).

    Uses the dual system {M^T u = 0, sum u = 1, u >= 0}: it is feasible
    exactly when no strict solution exists. Returns (True, g, margin)
    with margin > 0 and row.g >= margin verified by evaluation, or
    (False, u) with the dual certificate.
    """
    if not rows:
        raise ValueError("no rows")
    m = len(rows[0])
    cols = [list(r) + [1] for r in rows]
    b = [0] * m + [1]
    feasible, u, y = eq_phase1(cols, b)
    if feasible:
        return False, u, None
    g = tuple(y[:m])
    margin = -y[m]
    if margin <= 0:
        raise CheckFailed(f"Farkas certificate has margin {margin}")
    for r in rows:
        val = sum(a * gi for a, gi in zip(r, g))
        if val < margin:
            raise CheckFailed(f"certificate gives {val} < margin {margin} on row {r}")
    return True, g, margin
