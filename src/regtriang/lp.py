"""Exact linear programming on integer data.

Two entry points: `strict_feasible` decides strict systems row.g > 0,
the question both regularity deciders ask (`Engine.regular_quick` on
fold rows, `triangulation.is_regular` on cell-by-point rows), and
`max_eq_lp` maximizes over {sum x_j cols[j] = b, x >= 0}, which gives
K-energy its lower-hull values and the tests their reference LP.

The tableau keeps integer entries with a shared positive denominator and
pivots fraction-free, so every intermediate value is a minor of the input
data. Bland's rule makes both phases terminate despite degeneracy. One
phase-1 routine serves every solve. Certificates are read off the final
tableau as integer numerators over its denominator and are checked in
integers; `Fraction`s appear only at the API edge, in the values
returned.
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
    The start basis is the identity in the last len(rows) columns, the
    artificial columns that _phase1 appends.
    """

    def __init__(self, obj, rows, rhs):
        self.t = [list(obj) + [0]] + [list(r) + [v] for r, v in zip(rows, rhs)]
        self.den = 1
        self.ncols = len(self.t[0])
        self.basis = list(range(self.ncols - 1 - len(rows), self.ncols - 1))

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

    def numerators(self, nvars):
        """The basic solution's first nvars entries, times self.den."""
        x = [0] * nvars
        for i, var in enumerate(self.basis):
            if var < nvars:
                x[var] = self.t[i + 1][-1]
        return x

    def solution(self, nvars):
        return [Fraction(v, self.den) for v in self.numerators(nvars)]


def _equality_rows(cols, b):
    """Rows of {sum_j x_j cols[j] = b} in integers with b >= 0.

    Each row is scaled to integers and negated when its right-hand side
    is negative. Returns (rows, rhs).
    """
    n = len(cols)
    rows, rhs = [], []
    for i, bi in enumerate(b):
        scaled, _ = scale_to_integers([col[i] for col in cols] + [bi])
        if scaled[n] < 0:
            scaled = [-v for v in scaled]
        rows.append(list(scaled[:n]))
        rhs.append(scaled[n])
    return rows, rhs


def _phase1(rows, rhs):
    """Phase 1 on {rows.x = rhs, x >= 0}: n integer columns, rhs >= 0.

    Artificial column n+i starts basic in row i; the objective, minus the
    artificials' sum, starts priced out (column sums, value -sum(rhs)).
    Returns the optimal tableau; the system is feasible iff t[0][-1] == 0.
    """
    m = len(rows)
    ext = []
    for i, r in enumerate(rows):
        art = [0] * m
        art[i] = 1
        ext.append(list(r) + art)
    obj = [sum(col) for col in zip(*rows)] + [0] * m
    tab = _Tableau(obj, ext, rhs)
    tab.t[0][-1] = sum(rhs)
    status = tab.bland()
    if status != "optimal":  # phase 1 objective is bounded above by 0
        raise CheckFailed(f"phase 1 ended {status}")
    return tab


def eq_phase1(cols, b):
    """The optimal phase-1 tableau of {sum_j x_j * cols[j] = b, x >= 0}.

    The data must be integers with b >= 0 and are used as given; the
    system is feasible iff t[0][-1] == 0, and the caller reads its
    certificate in integers (see _phase1).
    """
    return _phase1([[col[i] for col in cols] for i in range(len(b))], list(b))


def max_eq_lp(c, cols, b):
    """Maximize c.x over {sum x_j cols[j] = b, x >= 0}, exact.

    Phase 1 on artificials, then phase 2 on the real objective with
    artificial columns barred from entering.
    """
    m = len(b)
    n = len(cols)
    c, c_scale = scale_to_integers([Fraction(x) for x in c])
    rows, rhs = _equality_rows(cols, b)
    tab = _phase1(rows, rhs)
    if tab.t[0][-1] != 0:
        return "infeasible", None, None
    # drive leftover basic artificials out of the basis at level zero, so
    # later pivots cannot lift them (that would break the equalities)
    row = 1
    while row < len(tab.t):
        var = tab.basis[row - 1]
        if var >= n:
            target = None
            for j in range(n):
                if tab.t[row][j] != 0:
                    target = j
                    break
            if target is None:
                # equality row is redundant by now; drop it
                tab.t.pop(row)
                tab.basis.pop(row - 1)
                continue
            if tab.t[row][target] < 0:
                tab.t[row] = [-a for a in tab.t[row]]
            tab.pivot(row, target)
        row += 1
    # phase 2: swap in the real objective, keep artificials out
    # basic columns are den times unit columns, so pricing out each basic
    # variable subtracts its cost times its row, all in integers
    cost = list(c) + [0] * (m + 1)
    row0 = [tab.den * x for x in cost]
    for i, var in enumerate(tab.basis):
        f = cost[var]
        if f:
            row0 = [a - f * b for a, b in zip(row0, tab.t[i + 1])]
    tab.t[0] = row0
    tab.ncols = n + 1  # bar artificial columns from entering
    status = tab.bland()
    tab.ncols = n + m + 1
    if status != "optimal":
        return status, None, None
    return "optimal", tab.solution(n), tab.objective_value() / c_scale


def strict_feasible(rows):
    """Decide whether some g satisfies row.g > 0 for every row (g free).

    rows are integer lists. Uses the dual system {M^T u = 0, sum u = 1,
    u >= 0}: it is feasible exactly when no strict solution exists. Both
    answers are certified in integers off the phase-1 tableau, over its
    denominator den > 0: the Farkas certificate of an infeasible dual is
    g_i = -(den + t0[k+i]) with margin den + t0[k+m] (k rows, m columns),
    and row.g >= margin > 0 is checked on every row; a feasible dual's u
    is checked for u >= 0, sum u = 1 and M^T u = 0. Returns (True, g,
    margin) or (False, u, None) in Fractions.
    """
    if not rows:
        raise ValueError("no rows")
    k = len(rows)
    m = len(rows[0])
    tab = eq_phase1([list(r) + [1] for r in rows], [0] * m + [1])
    den = tab.den
    t0 = tab.t[0]
    if den <= 0:
        raise CheckFailed(f"tableau denominator {den} is not positive")
    if t0[-1] == 0:
        u = tab.numerators(k)
        if any(v < 0 for v in u) or sum(u) != den:
            raise CheckFailed(f"dual certificate {u} / {den} is not a convex combination")
        for i in range(m):
            if sum(v * r[i] for v, r in zip(u, rows) if v):
                raise CheckFailed(f"dual certificate {u} / {den} misses column {i}")
        return False, [Fraction(v, den) for v in u], None
    g = [-(den + t0[k + i]) for i in range(m)]
    margin = den + t0[k + m]
    if margin <= 0:
        raise CheckFailed(f"Farkas certificate has margin {margin}/{den}")
    for r in rows:
        val = sum(a * x for a, x in zip(r, g) if a)
        if val < margin:
            raise CheckFailed(f"certificate gives {val} < margin {margin} (over {den}) on row {r}")
    return True, tuple(Fraction(x, den) for x in g), Fraction(margin, den)
