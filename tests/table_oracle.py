"""Fraction-per-cell reference code for the table and cross-moment tests.

causalprox.table stores integer numerators over one denominator and
causalprox.eigenid reads cross moments off them with array sums.  The
code here does the same jobs the plain way, one Fraction per cell, one
mass() call per matrix entry, one parse_rational() per CSV prob cell and
one Fraction product per decimal string, so agreement with ``==`` is
evidence that the integer form loses nothing.  intervene_truncated is
the oracle for the back-door and front-door adjustment formulas, and
backdoor_adjust_per_mass and frontdoor_adjust_per_mass evaluate those
formulas with one table.mass() call per term, so that the package's
versions, which resolve every index once per call, must equal them bit
for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from causalprox.errors import (
    FormatError,
    PositivityError,
    SchemaMismatchError,
    UnknownVariableError,
    ZeroConditionalError,
    ZeroMassError,
)
from causalprox.ratio import parse_rational
from causalprox.table import _check_pair, _y_table


class FractionTable:
    """Rational joint table holding one Fraction per cell."""

    def __init__(self, schema, probs):
        self.schema = tuple((name, tuple(cats)) for name, cats in schema)
        shape = tuple(len(cats) for _, cats in self.schema)
        self.probs = np.empty(shape, dtype=object)
        flat = self.probs.reshape(-1)
        for i, p in enumerate(np.asarray(probs, dtype=object).reshape(-1)):
            flat[i] = Fraction(p)
        assert all(p >= 0 for p in flat) and flat.sum() == 1

    @property
    def variables(self):
        return tuple(name for name, _ in self.schema)

    def _index(self, assignment):
        idx = [slice(None)] * len(self.schema)
        for axis, (name, cats) in enumerate(self.schema):
            if name in assignment:
                idx[axis] = cats.index(assignment[name])
        return tuple(idx)

    def mass(self, assignment):
        block = self.probs[self._index(assignment)]
        return block.sum() if isinstance(block, np.ndarray) else block

    def marginal(self, variables):
        drop = tuple(i for i, (name, _) in enumerate(self.schema) if name not in variables)
        probs = self.probs.sum(axis=drop) if drop else self.probs
        return FractionTable([e for e in self.schema if e[0] in variables], probs)

    def condition(self, assignment):
        block = self.probs[self._index(assignment)]
        total = block.sum() if isinstance(block, np.ndarray) else block
        if total == 0:
            raise ZeroMassError(f"conditioning event {assignment!r} has zero probability")
        schema = [e for e in self.schema if e[0] not in assignment]
        if not isinstance(block, np.ndarray):
            return FractionTable(schema, np.full((), Fraction(1), dtype=object))
        return FractionTable(schema, block / total)

    def to_json(self):
        return {
            "schema": [[name, list(cats)] for name, cats in self.schema],
            "mode": "rational",
            "probs": [f"{p.numerator}/{p.denominator}" for p in self.probs.flat],
        }


def prob_column_per_cell(texts):
    """(numerators, denominator) of a CSV prob column, one parse_rational
    per cell: the cells over the LCM of their denominators, normalized
    by their sum."""
    values = [parse_rational(text.strip()) for text in texts]
    scale = math.lcm(*(v.denominator for v in values))
    num = [v.numerator * (scale // v.denominator) for v in values]
    return num, sum(num)


def decimal_string_by_division(value):
    """Exact decimal text of a Fraction: strip the 2s and 5s from the
    denominator one at a time, then scale by a Fraction multiplication."""
    value = Fraction(value)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise FormatError(f"{value} has no terminating decimal representation")
    places = max(twos, fives)
    digits = (value * 10**places).numerator
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    if places == 0:
        return f"{sign}{digits}"
    text = str(digits).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"


def cross_moments_per_entry(table, design, stratum=None):
    """(p, q, by_anchor) with one table.mass() quotient per entry."""
    stratum = dict(stratum or {})
    zmass = table.mass(stratum)
    s_events = [{}] + [dict(zip(design.s_vars, vec)) for vec in design.s_select]
    t_events = [{}] + [dict(zip(design.t_vars, vec)) for vec in design.t_select]
    by_anchor = {}
    for w_value in itertools.product(*(table.categories(v) for v in design.w_vars)):
        base = {**stratum, **dict(zip(design.w_vars, w_value))}
        matrix = np.empty((design.k, design.k), dtype=object)
        for i, s_ev in enumerate(s_events):
            for j, t_ev in enumerate(t_events):
                matrix[i, j] = table.mass({**base, **s_ev, **t_ev}) / zmass
        by_anchor[w_value] = matrix
    return sum(by_anchor.values()), by_anchor[tuple(design.w_value)], by_anchor


def intervene_truncated(table, g, x, y):
    """Interventional distribution of y under set(x) by truncated factorization.

    The diagram's vertices must be exactly the table's variables.  Each
    factor f(v | parents) is evaluated in topological order; a 0/0
    conditional on a branch that still has positive interventional mass
    raises ZeroConditionalError instead of being imputed.
    """
    xvar, xval = _check_pair(table, x, y)
    if set(g.vertices) != set(table.variables):
        raise SchemaMismatchError("diagram vertices and table variables differ")
    if g.bidirected:
        raise SchemaMismatchError("truncated factorization needs a fully observed DAG")

    order = []
    remaining = set(g.vertices)
    while remaining:
        free = sorted(v for v in remaining if not (g.parents(v) & remaining))
        order.extend(free)
        remaining -= set(free)

    families = {}
    for v in g.vertices:
        pa = tuple(sorted(g.parents(v)))
        families[v] = (pa, table.marginal([u for u in table.variables if u in (v,) + pa]))

    zero = Fraction(0) if table.mode == "rational" else 0.0
    masses = {c: zero for c in table.categories(y)}
    other = [v for v in table.variables if v != xvar]
    domains = [table.categories(v) for v in other]
    for combo in itertools.product(*domains):
        cell = dict(zip(other, combo))
        cell[xvar] = xval
        weight = Fraction(1) if table.mode == "rational" else 1.0
        for v in order:
            if v == xvar:
                continue
            pa, fam = families[v]
            pa_assign = {u: cell[u] for u in pa}
            denom = fam.mass(pa_assign)
            if denom == 0:
                raise ZeroConditionalError(
                    f"f({v}|{pa_assign}) is 0/0 on a branch reachable under set({xvar}={xval})"
                )
            weight = weight * fam.mass({v: cell[v], **pa_assign}) / denom
            if weight == 0:
                break
        masses[cell[y]] += weight
    return _y_table(table, y, masses)


def _adjustment_per_mass(table, x, y, zvars, what):
    """(xvar, xval, zero mass per y category, every assignment of zvars) of
    an adjustment formula, once its arguments are checked."""
    xvar, xval = _check_pair(table, x, y)
    zvars = list(zvars)
    for v in zvars:
        table._axis(v)
    if xvar in zvars or y in zvars:
        raise UnknownVariableError(f"{what} set overlaps the effect pair")
    zero = Fraction(0) if table.mode == "rational" else 0.0
    domains = [table.categories(v) for v in zvars]
    zassigns = [dict(zip(zvars, combo)) for combo in itertools.product(*domains)]
    return xvar, xval, dict.fromkeys(table.categories(y), zero), zassigns


def backdoor_adjust_per_mass(table, x, y, zvars):
    """Adjustment formula: sum_z f(y|x,z) f(z), one mass() call per term."""
    xvar, xval, masses, zassigns = _adjustment_per_mass(table, x, y, zvars, "adjustment")
    for zassign in zassigns:
        pz = table.mass(zassign)
        if pz == 0:
            continue
        pxz = table.mass({xvar: xval, **zassign})
        if pxz == 0:
            raise PositivityError(
                f"f({xvar}={xval}, {zassign}) = 0 on a stratum with positive probability"
            )
        for c in table.categories(y):
            masses[c] += table.mass({y: c, xvar: xval, **zassign}) / pxz * pz
    return _y_table(table, y, masses)


def frontdoor_adjust_per_mass(table, x, y, zvars):
    """Mediator formula: sum_z f(z|x) sum_x' f(y|x',z) f(x'), one mass()
    call per term."""
    xvar, xval, masses, zassigns = _adjustment_per_mass(table, x, y, zvars, "mediator")
    px = table.mass({xvar: xval})
    if px == 0:
        raise ZeroMassError(f"f({xvar}={xval}) = 0")
    for zassign in zassigns:
        pzx = table.mass({xvar: xval, **zassign}) / px
        if pzx == 0:
            continue
        for xprime in table.categories(xvar):
            pxp = table.mass({xvar: xprime})
            if pxp == 0:
                continue
            pxpz = table.mass({xvar: xprime, **zassign})
            if pxpz == 0:
                raise PositivityError(
                    f"f({xvar}={xprime}, {zassign}) = 0 but the formula needs f(y|...) there"
                )
            for c in table.categories(y):
                masses[c] += pzx * pxp * table.mass({y: c, xvar: xprime, **zassign}) / pxpz
    return _y_table(table, y, masses)
