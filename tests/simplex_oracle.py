"""Reference two-phase simplex over Fraction tableaux, kept for the test suite.

This is the solver causalprox.lp used before its integer (fraction-free)
tableau: a dense Fraction tableau whose reduced costs are rebuilt from
scratch on every iteration, with a separate phase 1 for every solve.  It
is slow but plainly correct, and it takes the same Bland pivot sequence, so
tests require `causalprox.lp.solve(lp) == oracle_solve(lp)` on the whole
LPResult, witness included.

`_Tableau` and `oracle_solve` (there named `solve`) are that code
unchanged; `_Q`, `_coerce` and `_fraction` stand in for its helpers, with
Fraction as the only number type.
"""

from fractions import Fraction

from causalprox.lp import LinearProgram, LPResult

_Q = Fraction


def _coerce(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def _fraction(value) -> Fraction:
    return Fraction(value)


class _Tableau:
    """Dense canonical-form tableau over exact rationals."""

    def __init__(self, rows, rhs, basis):
        self.rows = rows  # list of lists
        self.rhs = rhs
        self.basis = basis  # basis[r] = column index basic in row r

    def pivot(self, r, c):
        zero = _Q(0)
        piv = self.rows[r][c]
        inv = 1 / piv
        self.rows[r] = [a * inv for a in self.rows[r]]
        self.rhs[r] = self.rhs[r] * inv
        for i in range(len(self.rows)):
            if i == r:
                continue
            factor = self.rows[i][c]
            if factor == zero:
                continue
            prow = self.rows[r]
            self.rows[i] = [a - factor * b for a, b in zip(self.rows[i], prow)]
            self.rhs[i] = self.rhs[i] - factor * self.rhs[r]
        self.basis[r] = c

    def reduced_costs(self, cost):
        zero = _Q(0)
        ncols = len(cost)
        red = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb == zero:
                continue
            row = self.rows[r]
            for j in range(ncols):
                red[j] -= cb * row[j]
        return red

    def optimize(self, cost):
        """Bland-rule minimization; returns 'optimal' or 'unbounded'."""
        zero = _Q(0)
        while True:
            red = self.reduced_costs(cost)
            entering = next((j for j, z in enumerate(red) if z < zero), None)
            if entering is None:
                return "optimal"
            best_r = None
            best_ratio = None
            for r, row in enumerate(self.rows):
                a = row[entering]
                if a > zero:
                    ratio = self.rhs[r] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[best_r])
                    ):
                        best_ratio = ratio
                        best_r = r
            if best_r is None:
                return "unbounded"
            self.pivot(best_r, entering)

    def objective_value(self, cost):
        return sum(
            (cost[b] * self.rhs[r] for r, b in enumerate(self.basis)), _Q(0)
        )


def oracle_solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  Never raises on infeasible/unbounded."""
    zero = _Q(0)
    n = lp.n
    m = len(lp.equalities)
    rows = []
    rhs = []
    for row, b in lp.equalities:
        row = [_coerce(a) for a in row]
        b = _coerce(b)
        if b < zero:
            row = [-a for a in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    # phase 1: artificial variable per row, minimize their sum
    one = _Q(1)
    for r in range(m):
        rows[r] = rows[r] + [one if i == r else zero for i in range(m)]
    basis = [n + r for r in range(m)]
    tab = _Tableau(rows, rhs, basis)
    art_cost = [zero] * n + [one] * m
    tab.optimize(art_cost)
    if tab.objective_value(art_cost) != zero:
        return LPResult(status="infeasible", value=None, witness=None)

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for r in range(len(tab.basis)):
        if tab.basis[r] < n:
            keep.append(r)
            continue
        entering = next(
            (j for j in range(n) if tab.rows[r][j] != zero), None
        )
        if entering is not None:
            tab.pivot(r, entering)
            keep.append(r)
    tab.rows = [tab.rows[r][:n] for r in keep]
    tab.rhs = [tab.rhs[r] for r in keep]
    tab.basis = [tab.basis[r] for r in keep]

    # phase 2
    sign = one if lp.sense == "min" else -one
    cost = [sign * _coerce(c) for c in lp.objective]
    status = tab.optimize(cost)
    if status == "unbounded":
        return LPResult(status="unbounded", value=None, witness=None)
    witness = [Fraction(0)] * n
    for r, b in enumerate(tab.basis):
        witness[b] = _fraction(tab.rhs[r])
    value = _fraction(sign * tab.objective_value(cost))
    return LPResult(status="optimal", value=value, witness=tuple(witness))
