"""Exact linear programming over equality polytopes with nonnegative variables.

Problems are minimize/maximize c.x subject to A x = b, x >= 0, with every
coefficient rational.  solve() runs a two-phase simplex under Bland's rule,
so the answer is exact and deterministic; phase1() and phase2() are its two
steps, and one feasible start serves several objectives.  Every returned
value is a Fraction.

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

The coefficient part of the phase-1 tableau (row_scale, the scaled rows and
the artificial identity) depends only on A, so phase1() builds it once per
matrix and reuses it for every program whose equality rows are the same
tuple objects, as the bounds programs' rows are.  A call then only scales
its right-hand sides, appends them and negates the rows whose b < 0.  The
reused integers are the ones a fresh build gives, so the tableau, every
Bland choice and the result do not change.  The cache is keyed by the ids
of the rows and holds the rows themselves, so no id is reused while its
entry lives; it keeps only tuples, which cannot change.  Pivots build new
row lists, so a shared row is never written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import FormatError
from .ratio import parse_rational

#: phase-1 skeletons by (n, ids of the equality rows); oldest evicted first
_SKELETONS: dict = {}
_SKELETON_SLOTS = 16


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, int)):
        return parse_rational(value)
    raise FormatError(f"expected an exact rational, got {value!r}")


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
        (tuple(_coerce(a) for a in row), _coerce(b)) for row, b in equalities
    )
    obj = tuple(_coerce(c) for c in objective)
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
    (coefficients, then right-hand side, whose true value is rows[r][-1] /
    (det * scale)); basis[r]: its basic column; cost: the reduced-cost row,
    kept the same way, ending in -det times the objective.  Pivots build
    new row lists, so tableaus may share rows."""

    def __init__(self, rows, basis, det, scale, cost):
        self.rows, self.basis, self.det, self.scale = rows, basis, det, scale
        self.cost = cost

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


def _skeleton(n, rows):
    """(rows, row_scale, integer rows, column sums) for coefficient rows.

    Integer row r is row_scale * A[r] followed by the artificial unit
    vector e_r; the column sums cover the first n entries.  The lists are
    shared between calls and never written.
    """
    key = (n, *map(id, rows))
    hit = _SKELETONS.get(key)
    if hit is not None:
        return hit
    rows = tuple(rows)
    coeffs = [[_coerce(a) for a in row] for row in rows]
    m = len(rows)
    row_scale = lcm(*{a.denominator for row in coeffs for a in row})
    scaled = [
        [a.numerator * (row_scale // a.denominator) for a in row] for row in coeffs
    ]
    colsum = [sum(col) for col in zip([0] * n, *scaled)]
    ints = [row + [int(i == r) for i in range(m)] for r, row in enumerate(scaled)]
    skeleton = (rows, row_scale, ints, colsum)
    if all(type(row) is tuple for row in rows):
        if len(_SKELETONS) >= _SKELETON_SLOTS:
            del _SKELETONS[next(iter(_SKELETONS))]
        _SKELETONS[key] = skeleton
    return skeleton


def phase1(lp: LinearProgram) -> Optional[_Tableau]:
    """Feasible start for lp (a basis of its rows), or None when infeasible.

    The start keeps no artificial column and drops the rows that phase 1
    shows redundant; phase2() optimizes any objective from it.
    """
    n = lp.n
    m = len(lp.equalities)
    _, row_scale, prefixes, colsum = _skeleton(n, [row for row, _ in lp.equalities])
    rhs = [_coerce(b) for _, b in lp.equalities]
    # one scalar for every row, then one for every right-hand side
    scale = lcm(*{(b * row_scale).denominator for b in rhs})
    cost = [-c for c in colsum]
    ints = []
    for row, b in zip(prefixes, rhs):
        v = b.numerator * (row_scale * scale // b.denominator)
        if v < 0:
            neg = [-a for a in row[:n]]
            cost = [c - 2 * a for c, a in zip(cost, neg)]
            row, v = neg + row[n:], -v
        ints.append(row + [v])

    # phase 1: artificial variable per row, minimize their sum; an
    # artificial's reduced cost is its cost 1 less the 1 in its row
    cost += [0] * m + [-sum(row[-1] for row in ints)]
    tab = _Tableau(ints, [n + r for r in range(m)], 1, scale, cost)
    tab.optimize()
    if tab.cost[-1] != 0:
        return None
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
    return tab


def phase2(start: _Tableau, objective, sense: str) -> LPResult:
    """Optimize objective in sense from a phase1() start, which stays unchanged."""
    sign = 1 if sense == "min" else -1
    c = [_coerce(v) for v in objective]
    gamma = lcm(*{v.denominator for v in c})
    c = [sign * v.numerator * (gamma // v.denominator) for v in c]
    cost = [start.det * cj for cj in c] + [0]
    for row, b in zip(start.rows, start.basis):
        if c[b]:
            cost = [z - c[b] * a for z, a in zip(cost, row)]
    tab = _Tableau(start.rows, list(start.basis), start.det, start.scale, cost)
    if tab.optimize() == "unbounded":
        return LPResult(status="unbounded", value=None, witness=None)
    denom = tab.det * tab.scale
    witness = [Fraction(0)] * len(objective)
    for row, b in zip(tab.rows, tab.basis):
        witness[b] = Fraction(row[-1], denom)
    value = Fraction(-sign * tab.cost[-1], denom * gamma)
    return LPResult(status="optimal", value=value, witness=tuple(witness))


def solve(lp: LinearProgram) -> LPResult:
    """Exact two-phase simplex.  Never raises on infeasible/unbounded."""
    start = phase1(lp)
    if start is None:
        return LPResult(status="infeasible", value=None, witness=None)
    return phase2(start, lp.objective, lp.sense)
