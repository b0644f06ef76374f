"""Brute-force LP oracle and program serialization, kept for the test suite.

enumerate_vertices() lists every basic feasible solution of
{A x = b, x >= 0} by trying each basis column subset that holds no two
identical columns (such a subset is singular, so skipping it loses no
vertex), and vertex_optimum() picks the best of such a list, so every
objective over one polytope shares one enumeration.  Together they check
the optimality of tests/simplex_oracle.py's simplex on small instances
with no code shared with it.  program_to_json() and program_from_json()
turn a LinearProgram into strings and back, so a failing program can be
printed exactly.
"""

import itertools
from fractions import Fraction
from math import comb

from simplex_oracle import LinearProgram, make_program

from causalprox.errors import FormatError, SizeError
from causalprox.ratio import parse_rational

MAX_VERTEX_VARIABLES = 64
MAX_VERTEX_EQUALITIES = 12
MAX_BASIS_SETS = 2_000_000


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
    of Fraction tuples; empty when the system is infeasible.  A subset
    with two identical columns is singular and is skipped unsolved.
    """
    return _scan_bases(equalities, n, skip_repeated=True)


def enumerate_vertices_every_basis(equalities, n: int):
    """enumerate_vertices, solving every basis column subset, repeated
    columns included: the cross-check of the repeated-column skip."""
    return _scan_bases(equalities, n, skip_repeated=False)


def _scan_bases(equalities, n, skip_repeated):
    if n > MAX_VERTEX_VARIABLES:
        raise SizeError(f"vertex enumeration supports at most "
                        f"{MAX_VERTEX_VARIABLES} variables, got {n}")
    if len(equalities) > MAX_VERTEX_EQUALITIES:
        raise SizeError(
            f"vertex enumeration supports at most {MAX_VERTEX_EQUALITIES} "
            f"equalities, got {len(equalities)}"
        )
    aug = [
        [parse_rational(a) for a in row] + [parse_rational(b)] for row, b in equalities
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
    # equal columns of the reduced rows share a class, as they do in A
    classes = {}
    column_class = [
        classes.setdefault(tuple(row[c] for row in rows), c) for c in range(n)
    ]
    seen = set()
    for cols in itertools.combinations(range(n), rank):
        if skip_repeated and len({column_class[c] for c in cols}) < rank:
            continue  # two identical columns: singular
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


def vertex_optimum(verts, objective, sense="min"):
    """Brute-force optimum over enumerate_vertices() output; None when empty."""
    if not verts:
        return None
    obj = [parse_rational(c) for c in objective]
    pick = min if sense == "min" else max  # the first vertex among equals
    # a vertex has at most rank nonzero coordinates; only they add to c.x
    return pick(
        ((sum((c * x for c, x in zip(obj, v) if x), Fraction(0)), v) for v in verts),
        key=lambda pair: pair[0],
    )
