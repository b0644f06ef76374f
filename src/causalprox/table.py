"""Dense discrete probability tables with exact-rational and float modes.

A table stores numerators over one common denominator: entry i has
probability ``num[i] / den``.  In rational mode ``num`` is an object
array of nonnegative Python ints (identify inputs reach 67-bit
denominators, past int64) summing to ``den``, so every sum over cells is
an integer sum bounded by ``den`` and a single Fraction is built at the
end.  Floats taken from a rational table come from ``int / int`` true
division, which rounds correctly and equals ``float(Fraction)``.  In
float mode ``num`` holds the float probabilities and ``den`` is 1.

Tables are immutable and their arrays read-only.  Category order inside
each variable follows the declared schema, never the order rows happen
to appear in a data file when a schema is supplied.

The public constructor validates the schema, then copies and checks
what it is given.  load_counts, which builds its array from the CSV
cells and checks it as it goes (shape from the schema, every cell >= 0,
den the sum), hands that array over uncopied through JointTable._checked,
so each input is checked once.
marginal and condition do the same with the sums and blocks they take
from a rational table, which are checked already; float tables go
through the public constructor.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDataError,
    FormatError,
    PositivityError,
    SchemaMismatchError,
    UnknownVariableError,
    ZeroMassError,
)
from .ratio import parse_rational

MASS_TOL = Fraction(1, 10**12)
# int() reads this many digits under any int_max_str_digits limit
SAFE_DIGITS = sys.int_info.str_digits_check_threshold


def _validate_schema(schema):
    schema = tuple((str(name), tuple(cats)) for name, cats in schema)
    names = [name for name, _ in schema]
    if len(set(names)) != len(names):
        raise FormatError("duplicate variable names in schema")
    for name, cats in schema:
        if not name or "," in name:
            raise FormatError(f"bad variable name {name!r}")
        if len(cats) < 2:
            raise FormatError(f"variable {name!r} needs at least two categories")
        if len(set(cats)) != len(cats):
            raise FormatError(f"duplicate categories for {name!r}")
        for c in cats:
            if not c or "," in c:
                raise FormatError(f"bad category label {c!r} for {name!r}")
    return schema


def _check_mode(mode):
    if mode not in ("rational", "float"):
        raise FormatError(f"unknown table mode {mode!r}")


def lcm_numerators(rationals):
    """([numerators], the LCM of the denominators) of ints and Fractions."""
    den = math.lcm(*(f.denominator for f in rationals))
    return [f.numerator * (den // f.denominator) for f in rationals], den


def over_lcm(values):
    """(numerators shaped like values, the LCM of their denominators)."""
    values = np.asarray(values, dtype=object)
    num, den = lcm_numerators([parse_rational(p) for p in values.flat])
    return np.array(num, dtype=object).reshape(values.shape), den


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint distribution over the schema's variables, row-major.

    Entry i has probability num[i] / den; see the module docstring.
    With den omitted, num holds the probabilities: exact rationals that
    parse_rational reads in rational mode, floats in float mode.  num is
    copied, checked and kept read-only; only load_counts, marginal and
    condition hand over arrays they know are checked, uncopied (see
    _checked).  probs, the read-only probability array, is built from num
    and den on first use in rational mode.
    """

    schema: tuple
    num: np.ndarray = field(repr=False)
    mode: str = "rational"
    den: int = None

    def __post_init__(self):
        _check_mode(self.mode)
        # no variables is valid: marginal([]) and a full condition() give such tables
        object.__setattr__(self, "schema", _validate_schema(self.schema))
        rational = self.mode == "rational"
        num = np.array(self.num, dtype=object if rational else np.float64)
        den = self.den
        if den is None and rational:
            num, den = over_lcm(num)
        shape = tuple(len(cats) for _, cats in self.schema)
        if num.shape != shape:
            raise SchemaMismatchError(
                f"probs shape {num.shape} does not match schema shape {shape}"
            )
        if any(n < 0 for n in num.flat) if rational else (num < 0).any():
            raise FormatError("negative probability entry")
        total = num.sum()
        if rational and total != den:
            raise FormatError(f"probabilities sum to {Fraction(total, den)}, not 1")
        if not rational and not abs(float(total) - 1.0) <= float(MASS_TOL):  # NaN, inf too
            raise FormatError(f"probabilities sum to {float(total)!r}, not 1")
        num.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", 1 if den is None else den)

    @classmethod
    def _checked(cls, schema, num, den):
        """The rational table num / den, num kept as it is and made read-only.

        Only for a caller that has already established what __post_init__
        checks: schema validated, num an object array of Python ints in the
        schema's shape, every entry >= 0, and den their sum.
        """
        num.flags.writeable = False
        table = object.__new__(cls)
        fields = {"schema": schema, "num": num, "mode": "rational", "den": den}
        for name, value in fields.items():
            object.__setattr__(table, name, value)
        return table

    @cached_property
    def probs(self):
        if self.mode == "float":
            return self.num
        probs = np.array([Fraction(n, self.den) for n in self.num.flat], dtype=object)
        probs.flags.writeable = False
        return probs.reshape(self.num.shape)

    # -- schema helpers ----------------------------------------------------

    @property
    def variables(self):
        return tuple(name for name, _ in self.schema)

    def categories(self, var):
        for name, cats in self.schema:
            if name == var:
                return cats
        raise UnknownVariableError(f"variable {var!r} not in table")

    def _axis(self, var):
        for i, (name, _) in enumerate(self.schema):
            if name == var:
                return i
        raise UnknownVariableError(f"variable {var!r} not in table")

    def _index_of(self, var, value):
        cats = self.categories(var)
        try:
            return cats.index(value)
        except ValueError:
            raise UnknownVariableError(f"{value!r} is not a category of {var!r}") from None

    def _block(self, assignment):
        """Numerators of the cells matching a partial assignment, as an array."""
        idx = [slice(None)] * len(self.schema)
        for var, value in assignment.items():
            idx[self._axis(var)] = self._index_of(var, value)
        return self.num[tuple(idx) + (Ellipsis,)]

    # -- queries -----------------------------------------------------------

    def mass(self, assignment):
        """Probability of a partial assignment (dict var -> category)."""
        n = self._block(assignment).sum()
        return Fraction(n, self.den) if self.mode == "rational" else n

    def prob(self, assignment):
        if set(assignment) != set(self.variables):
            raise UnknownVariableError("prob() needs a full assignment; use mass() otherwise")
        return self.mass(assignment)

    def marginal(self, variables):
        """Marginal table over the given variables, in table order."""
        keep = list(variables)
        for v in keep:
            self._axis(v)
        if len(set(keep)) != len(keep):
            raise UnknownVariableError("duplicate variable in marginal request")
        drop = tuple(i for i, (name, _) in enumerate(self.schema) if name not in keep)
        num = self.num.sum(axis=drop) if drop else self.num
        schema = tuple(entry for entry in self.schema if entry[0] in keep)
        if self.mode == "rational":  # sums of checked numerators, den in total
            return JointTable._checked(schema, np.asarray(num, dtype=object), self.den)
        return JointTable(schema, num, self.mode, self.den)

    def condition(self, assignment):
        """Table over the remaining variables given the assignment."""
        block = self._block(assignment)
        total = block.sum()
        if total == 0:
            raise ZeroMassError(f"conditioning event {assignment!r} has zero probability")
        schema = tuple(e for e in self.schema if e[0] not in assignment)
        if self.mode == "rational":  # a checked block over its own sum
            return JointTable._checked(schema, block, total)
        return JointTable(schema, block / total, "float", 1)

    # -- conversions ---------------------------------------------------------

    def to_float(self):
        if self.mode == "float":
            return self
        return JointTable(self.schema, self.num / self.den, "float")

    def to_json(self):
        rational = self.mode == "rational"
        flat = [f"{p.numerator}/{p.denominator}" if rational else float(p)
                for p in self.probs.flat]
        return {
            "schema": [[name, list(cats)] for name, cats in self.schema],
            "mode": self.mode,
            "probs": flat,
        }

    @staticmethod
    def from_json(payload):
        try:
            schema = [(name, tuple(cats)) for name, cats in payload["schema"]]
            mode = payload["mode"]
            flat = payload["probs"]
            n = math.prod(len(cats) for _, cats in schema)
            if len(flat) != n:
                raise FormatError(f"expected {n} probabilities, got {len(flat)}")
            _check_mode(mode)
            parse = parse_rational if mode == "rational" else float
            probs = [parse(item) for item in flat]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad table payload: {exc}") from exc
        return make_table(schema, probs, mode)


def make_table(schema, probs, mode="rational"):
    """Build a validated JointTable from nested lists or an ndarray."""
    if not schema:
        raise FormatError("schema declares no variables")
    _check_mode(mode)
    shape = tuple(len(cats) for _, cats in schema)
    arr = np.asarray(probs, dtype=object if mode == "rational" else np.float64)
    if arr.size != math.prod(shape):
        raise SchemaMismatchError("probability array does not match schema shape")
    return JointTable(schema, arr.reshape(shape), mode)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_counts(source, schema=None):
    """Load a delimited cell table into a rational JointTable.

    ``source`` is CSV text or a path-like (read as UTF-8); one leading
    byte-order mark is dropped.  The header names the variables
    followed by a final ``count`` (ASCII digits) or ``prob`` column; a prob
    cell ``digits[.digits]`` is read as integers, any other (p/q, sign,
    exponent) by parse_rational, and the column must sum to 1 within 1e-6.
    Missing cells are zero; duplicate cells are rejected.  With no explicit
    schema the category order is first appearance per column.
    """
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    else:
        text = source.removeprefix("\ufeff")
    rows = [r for r in csv.reader(io.StringIO(text)) if "".join(r).strip()]
    if not rows:
        raise FormatError("empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[-1] not in ("count", "prob"):
        raise FormatError("header must list variables then a final 'count' or 'prob' column")
    counts = header[-1] == "count"
    varnames = header[:-1]
    if len(set(varnames)) != len(varnames):
        raise FormatError("duplicate variable names in header")

    if len(rows) == 1:
        raise EmptyDataError("no data rows")
    width = len(header)
    cells = {}  # key -> count, or (numerator, denominator) of a prob
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise FormatError(f"line {lineno}: expected {width} fields, got {len(row)}")
        *key, raw = map(str.strip, row)
        key = tuple(key)
        if counts:
            if not (raw.isascii() and raw.isdigit()):
                raise FormatError(f"line {lineno}: count must be a nonnegative integer, got {raw!r}")
            try:
                value = int(raw)
            except ValueError as exc:  # longer than int() converts
                raise FormatError(f"line {lineno}: count too long: {exc}") from exc
        else:
            whole, _, places = raw.partition(".")
            digits = whole + places
            if len(digits) <= SAFE_DIGITS and digits.isascii() and digits.isdigit():
                n, d = int(digits), 10 ** len(places)
                g = math.gcd(n, d)
                value = (n // g, d // g)
            else:
                value = parse_rational(raw).as_integer_ratio()
                if value[0] < 0:
                    raise FormatError(f"line {lineno}: negative probability {raw!r}")
        if key in cells:
            raise FormatError(f"line {lineno}: duplicate cell {key!r}")
        cells[key] = value
        if "" in key:
            raise FormatError(f"line {lineno}: empty category label")
    # cells keep row order, so each column's categories in first appearance
    seen_cats = [dict.fromkeys(cats) for cats in zip(*cells)]

    if schema is not None:
        schema = _validate_schema(schema)
        if tuple(v for v, _ in schema) != tuple(varnames):
            raise SchemaMismatchError(
                f"file variables {varnames} do not match schema {[v for v, _ in schema]}"
            )
        for (var, declared), seen in zip(schema, seen_cats):
            for cat in seen:
                if cat not in declared:
                    raise UnknownVariableError(f"{cat!r} is not a declared category of {var!r}")
    else:
        schema = tuple((v, tuple(seen)) for v, seen in zip(varnames, seen_cats))
        _validate_schema(schema)

    # counts are the numerators; probabilities go over their LCM
    if not counts:
        scale = math.lcm(*(d for _, d in cells.values()))
        cells = {key: n * (scale // d) for key, (n, d) in cells.items()}
    num = np.zeros(tuple(len(cats) for _, cats in schema), dtype=object)
    lookup = [{c: i for i, c in enumerate(cats)} for _, cats in schema]
    for key, n in cells.items():
        num[tuple(map(dict.__getitem__, lookup, key))] = n
    total = sum(cells.values())  # each key holds one cell of num
    if total == 0:
        raise EmptyDataError("all cells are zero")
    if not counts and abs(total - scale) * 10**6 > scale:
        raise FormatError(f"prob column sums to {total / scale!r}; expected 1")
    # the cells are >= 0 and num has the schema's shape, so num is checked
    return JointTable._checked(schema, num, total)


# ---------------------------------------------------------------------------
# Interventional quantities on fully observed tables


def _check_pair(table, x, y):
    if not isinstance(x, dict) or len(x) != 1:
        raise UnknownVariableError("the intervention must assign exactly one variable")
    (xvar, xval), = x.items()
    table._index_of(xvar, xval)
    table._axis(y)
    if y == xvar:
        raise UnknownVariableError("exposure and outcome must differ")
    return xvar, xval


def _y_table(table, y, masses):
    cats = table.categories(y)
    return JointTable(((y, cats),), [masses[c] for c in cats], table.mode)


def _adjustment(table, x, y, zvars, what):
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


def backdoor_adjust(table, x, y, zvars):
    """Adjustment formula: sum_z f(y|x,z) f(z)."""
    xvar, xval, masses, zassigns = _adjustment(table, x, y, zvars, "adjustment")
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


def frontdoor_adjust(table, x, y, zvars):
    """Mediator formula: sum_z f(z|x) sum_x' f(y|x',z) f(x')."""
    xvar, xval, masses, zassigns = _adjustment(table, x, y, zvars, "mediator")
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
