"""Exact linear programming over equality polytopes with nonnegative variables.

Problems are minimize/maximize c.x subject to A x = b, x >= 0, with every
coefficient rational.  solve() runs a two-phase simplex under Bland's rule,
so the answer is exact and deterministic; phase1() and phase2() are its two
steps, and one feasible start serves several objectives.  Every returned
value is a Fraction.  enumerate_vertices() brute-forces all basic feasible
solutions, an independent optimality oracle for small instances.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional

from .errors import FormatError, SizeError
from .ratio import parse_rational

MAX_VERTEX_VARIABLES = 64
MAX_VERTEX_EQUALITIES = 12
MAX_BASIS_SETS = 2_000_000


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


def program_to_json(lp: LinearProgram) -> dict:
    return {
        "n": lp.n,
        "eq": [
            {"a": [str(a) for a in row], "b": str(b)}
            for row, b in lp.equalities
        ],
        "obj": [str(c) for c in lp.objective],
        "sense": lp.sense,
    }


def program_from_json(payload: dict) -> LinearProgram:
    try:
        return make_program(
            n=int(payload["n"]),
            equalities=[(eq["a"], eq["b"]) for eq in payload["eq"]],
            objective=payload["obj"],
            sense=payload.get("sense", "min"),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed program payload: {exc}") from exc


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


def phase1(lp: LinearProgram) -> Optional[_Tableau]:
    """Feasible start for lp (a basis of its rows), or None when infeasible.

    The start keeps no artificial column and drops the rows that phase 1
    shows redundant; phase2() optimizes any objective from it.
    """
    n = lp.n
    m = len(lp.equalities)
    rows = [[_coerce(a) for a in row] + [_coerce(b)] for row, b in lp.equalities]
    rows = [[-a for a in row] if row[-1] < 0 else row for row in rows]
    # one scalar for every row, then one for every right-hand side
    row_scale = lcm(*{a.denominator for row in rows for a in row[:-1]})
    scale = lcm(*{(row[-1] * row_scale).denominator for row in rows})
    ints = [
        [a.numerator * (row_scale // a.denominator) for a in row[:-1]]
        + [int(i == r) for i in range(m)]
        + [int(row[-1] * row_scale * scale)]
        for r, row in enumerate(rows)
    ]

    # phase 1: artificial variable per row, minimize their sum
    cost = [-sum(col) for col in zip([0] * (n + m + 1), *ints)]
    cost[n:-1] = [0] * m  # an artificial's cost 1 less the 1 in its row
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


# ---------------------------------------------------------------------------
# Vertex enumeration (oracle)


def _rref(matrix):
    """In-place exact reduced row echelon form; returns pivot column list."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, nrows) if matrix[i][c] != 0), None
        )
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [a * inv for a in matrix[r]]
        for i in range(nrows):
            if i != r and matrix[i][c] != 0:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def enumerate_vertices(equalities, n: int):
    """All basic feasible solutions of {A x = b, x >= 0}, deduplicated.

    Exhaustive over basis column subsets, so only suitable as a small-scale
    oracle; SizeError beyond the documented limits.  Returns a sorted list
    of Fraction tuples; empty when the system is infeasible.
    """
    if n > MAX_VERTEX_VARIABLES:
        raise SizeError(f"vertex enumeration supports at most "
                        f"{MAX_VERTEX_VARIABLES} variables, got {n}")
    if len(equalities) > MAX_VERTEX_EQUALITIES:
        raise SizeError(
            f"vertex enumeration supports at most {MAX_VERTEX_EQUALITIES} "
            f"equalities, got {len(equalities)}"
        )
    aug = [
        [_coerce(a) for a in row] + [_coerce(b)] for row, b in equalities
    ]
    for row, _ in equalities:
        if len(row) != n:
            raise FormatError("equality row length does not match variable count")
    pivots = _rref(aug)
    if n in pivots:
        return []  # 0 = 1 after elimination: no solutions at all
    rank = len(pivots)
    rows = [aug[r] for r in range(rank)]
    if comb(n, rank) > MAX_BASIS_SETS:
        raise SizeError(
            f"vertex enumeration would scan {comb(n, rank)} basis sets; "
            f"the supported maximum is {MAX_BASIS_SETS}"
        )
    seen = set()
    for cols in itertools.combinations(range(n), rank):
        square = [[rows[r][c] for c in cols] for r in range(rank)]
        target = [rows[r][n] for r in range(rank)]
        aug2 = [square[r] + [target[r]] for r in range(rank)]
        piv2 = _rref(aug2)
        if len(piv2) < rank or rank in piv2:
            continue  # singular basis or inconsistent
        values = [aug2[r][rank] for r in range(rank)]
        if any(v < 0 for v in values):
            continue
        point = [Fraction(0)] * n
        for c, v in zip(cols, values):
            point[c] = v
        seen.add(tuple(point))
    return sorted(seen)


def vertex_optimum(equalities, n, objective, sense="min"):
    """Brute-force optimum over enumerated vertices; None when infeasible."""
    verts = enumerate_vertices(equalities, n)
    if not verts:
        return None
    obj = [_coerce(c) for c in objective]
    pick = min if sense == "min" else max  # the first vertex among equals
    return pick(
        ((sum(c * x for c, x in zip(obj, v)), v) for v in verts),
        key=lambda pair: pair[0],
    )
