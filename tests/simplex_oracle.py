"""The test suite's exact LP: program types and a Fraction simplex.

LinearProgram, make_program and LPResult are the plain types of a
program min or max c.x subject to A x = b, x >= 0 and of its answer.
oracle_solve() is a dense two-phase simplex over Fraction tableaux under
Bland's rule: slow but plainly correct, exact and deterministic.  Each
phase builds its reduced-cost row from the basis once and then pivots it
with the tableau, which gives the same exact values as rebuilding it, so
Bland's rule picks the same pivots.  The
package answers its bounds programs in closed form and solves no LP;
the tests hold those answers to oracle_solve, and oracle_solve itself to
vertex enumeration (tests/vertex_oracle.py).  program_lp() turns a
CounterfactualProgram into the LinearProgram of one sense.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from causalprox.errors import FormatError
from causalprox.ratio import parse_rational


@dataclass(frozen=True)
class LinearProgram:
    """min or max objective.x over A x = b, x >= 0, all entries rational."""

    n: int
    equalities: tuple  # of (coefficient row, rhs)
    objective: tuple
    sense: str = "min"

    def __post_init__(self):
        if self.n < 1:
            raise FormatError("at least one variable required")
        if self.sense not in ("min", "max"):
            raise FormatError(f"unknown sense {self.sense!r}")
        if len(self.objective) != self.n:
            raise FormatError("objective length does not match variable count")
        for row, _ in self.equalities:
            if len(row) != self.n:
                raise FormatError("equality row length does not match variable count")


def make_program(n, equalities, objective, sense="min") -> LinearProgram:
    """Coerce arbitrary rational-like entries into a LinearProgram."""
    eqs = tuple(
        (tuple(map(parse_rational, row)), parse_rational(b)) for row, b in equalities
    )
    obj = tuple(parse_rational(c) for c in objective)
    return LinearProgram(n=n, equalities=eqs, objective=obj, sense=sense)


@dataclass(frozen=True)
class LPResult:
    status: str  # optimal | infeasible | unbounded
    value: Optional[Fraction]
    witness: Optional[tuple]


def program_lp(prog, sense: str) -> LinearProgram:
    """The LinearProgram of a CounterfactualProgram under sense."""
    return LinearProgram(
        n=len(prog.variables),
        equalities=prog.equalities,
        objective=prog.objective,
        sense=sense,
    )


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

    def pivot(self, r, c, red=None):
        """Pivot on entry (r, c); red, a reduced-cost row, is pivoted along.
        Zero entries of the pivot row leave the other rows' entries as
        they are."""
        piv = self.rows[r][c]
        inv = 1 / piv
        prow = self.rows[r] = [a * inv if a else a for a in self.rows[r]]
        self.rhs[r] = self.rhs[r] * inv
        for i, row in enumerate(self.rows):
            factor = row[c]
            if i == r or not factor:
                continue
            self.rows[i] = [a - factor * b if b else a for a, b in zip(row, prow)]
            self.rhs[i] = self.rhs[i] - factor * self.rhs[r]
        if red is not None and red[c]:
            factor = red[c]
            red[:] = [a - factor * b if b else a for a, b in zip(red, prow)]
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
        red = self.reduced_costs(cost)
        while True:
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
            self.pivot(best_r, entering, red)

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
