"""Exact linear programming over equality polytopes with nonnegative variables.

Problems are minimize/maximize c.x subject to A x = b, x >= 0, with every
coefficient rational.  solve() runs a two-phase simplex under Bland's rule,
so the answer is exact and deterministic.  Every returned value is a
Fraction.

The tableau holds Python integers (fraction-free pivoting after Edmonds and
Bareiss): each entry is det times the rational one, det > 0, and the pivot
on p = T[r][c] sets each other row to (p * T[i] - T[i][c] * T[r]) // det,
an exact division, then det = p.  Integers come from two uniform scalars:
all rows times the LCM of the coefficient denominators, then all right-hand
sides times the LCM of theirs.  This multiplies the phase-1 reduced costs of
the original columns by one positive number and the ratios of each ratio
test by another, so every Bland choice and the result are those of the
rational tableau.  Scaling rows separately would reweight the phase-1
objective and could change the pivot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import FormatError
from .ratio import parse_rational


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


# ---------------------------------------------------------------------------
# Simplex


def _eliminate(row, prow, p, c, det):
    """row after the integer pivot on prow[c] == p; the division is exact."""
    f = row[c]
    if f:
        return [(p * a - f * b) // det for a, b in zip(row, prow)]
    return row if p == det else [p * a // det for a in row]


class _Tableau:
    """rows[r]: det times row r of the rational tableau of the scaled program
    (coefficients, then right-hand side); basis[r]: its basic column; cost:
    the reduced-cost row, kept the same way, ending in -det times the
    objective, or None while no objective is optimized."""

    def __init__(self, rows, basis, cost):
        self.rows, self.basis, self.det, self.cost = rows, basis, 1, cost

    def pivot(self, r, c):
        prow = self.rows[r]
        p, det = prow[c], self.det
        self.rows = [
            row if i == r else _eliminate(row, prow, p, c, det)
            for i, row in enumerate(self.rows)
        ]
        if self.cost is not None:
            self.cost = _eliminate(self.cost, prow, p, c, det)
        self.basis[r] = c
        if p < 0:  # only a drive-out pivot, which has no cost row, is negative
            self.rows = [[-a for a in row] for row in self.rows]
            p = -p
        self.det = p

    def optimize(self):
        """Bland-rule minimization of the cost row; 'optimal' or 'unbounded'."""
        while True:
            cost = self.cost
            entering = next(
                (j for j in range(len(cost) - 1) if cost[j] < 0), None
            )
            if entering is None:
                return "optimal"
            best_r = None
            for r, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    # ratio row[-1] / a against best_b / best_a, cross-multiplied
                    if best_r is not None:
                        lhs, rhs = row[-1] * best_a, best_b * a
                        if lhs > rhs or (
                            lhs == rhs and self.basis[r] > self.basis[best_r]
                        ):
                            continue
                    best_r, best_a, best_b = r, a, row[-1]
            if best_r is None:
                return "unbounded"
            self.pivot(best_r, entering)


def solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  Never raises on infeasible/unbounded."""
    n, m = lp.n, len(lp.equalities)
    coeffs = [[parse_rational(a) for a in row] for row, _ in lp.equalities]
    rhs = [parse_rational(b) for _, b in lp.equalities]
    # one scalar for every row, then one for every right-hand side; the
    # true right-hand side of a tableau row is row[-1] / (det * scale)
    row_scale = lcm(*{a.denominator for row in coeffs for a in row})
    scale = lcm(*{(b * row_scale).denominator for b in rhs})
    rows = []
    for r, (row, b) in enumerate(zip(coeffs, rhs)):
        ints = [a.numerator * (row_scale // a.denominator) for a in row]
        v = b.numerator * (row_scale * scale // b.denominator)
        if v < 0:
            ints, v = [-a for a in ints], -v
        rows.append([*ints, *(int(i == r) for i in range(m)), v])

    # phase 1: artificial variable per row, minimize their sum; an
    # artificial's reduced cost is its cost 1 less the 1 in its row
    cost = [-sum(row[j] for row in rows) for j in range(n)]
    cost += [0] * m + [-sum(row[-1] for row in rows)]
    tab = _Tableau(rows, [n + r for r in range(m)], cost)
    tab.optimize()
    if tab.cost[-1] != 0:
        return LPResult(status="infeasible", value=None, witness=None)
    tab.cost = None

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if tab.basis[r] >= n:
            entering = next((j for j in range(n) if tab.rows[r][j] != 0), None)
            if entering is None:
                continue
            tab.pivot(r, entering)
        keep.append(r)
    tab.rows = [tab.rows[r][:n] + tab.rows[r][-1:] for r in keep]
    tab.basis = [tab.basis[r] for r in keep]

    # phase 2: the objective times the LCM of its denominators, negated
    # for "max", priced out against the basis
    sign = 1 if lp.sense == "min" else -1
    objective = [parse_rational(v) for v in lp.objective]
    gamma = lcm(*{v.denominator for v in objective})
    c = [sign * v.numerator * (gamma // v.denominator) for v in objective]
    cost = [tab.det * cj for cj in c] + [0]
    for row, b in zip(tab.rows, tab.basis):
        if c[b]:
            cost = [z - c[b] * a for z, a in zip(cost, row)]
    tab.cost = cost
    if tab.optimize() == "unbounded":
        return LPResult(status="unbounded", value=None, witness=None)
    denom = tab.det * scale
    witness = [Fraction(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        witness[b] = Fraction(row[-1], denom)
    value = Fraction(-sign * tab.cost[-1], denom * gamma)
    return LPResult(status="optimal", value=value, witness=tuple(witness))
