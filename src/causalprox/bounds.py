"""Partial identification of f(y1|set(x)) when only proxies of Y are seen.

Setting: binary treatment X causes a binary latent outcome Y, and two
binary proxies T and S respond to Y.  Units are parameterized by response
types: k encodes Y as a function of X, i encodes T as a function of Y, j
encodes S as a function of Y, each type one of (0,0), (0,1), (1,0), (1,1)
listing the value at argument 0 then at argument 1.  The distribution
q_ijk over the 64 joint types reproduces the observed cells
p(t, s | x) through consistency, which is a linear map; bounding the
interventional targets over all feasible q is therefore an exact LP.

Every such program is answered in closed form, with no simplex.  Without
monotonicity the answer is [0, 1], attained by two product distributions.
The monotone variant forbids the decreasing type (1,0) on all three
coordinates (27 types remain).  For each down-set L of the kept proxies'
values let gap(L) = P(L | x0) - P(L | x1): the program is feasible exactly
when every gap is >= 0, and then x0 lies in [0, 1 - g] and x1 in [g, 1],
g the largest gap, attained by the low and high witnesses of a greedy
monotone coupling of the two arms.  The lp_bounds docstring proves it.
certify_against_lp re-proves each answer against build_program's rows
with exact certificates: each witness meets every row and attains its
endpoint, a dual vector bounds each endpoint by weak duality, and a
Farkas ray proves infeasibility.  The package has no LP solver; the
tests hold these answers to a Fraction simplex and to vertex enumeration.
Every witness is a support: only the types with positive mass.

Closed-form four-term bounds for the monotone variant are evaluated
under two reading conventions of the cell symbols, because the worked
numbers they are checked against use the joint reading while the program
constraints require the conditional one.  On both readings each x0 upper
term is an arm's total less one x1 lower term (see _four_terms).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import FormatError, InfeasibleError, SpecError, ZeroMassError
from .ratio import parse_rational
from .table import JointTable, lcm_numerators

TYPE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
DECREASING = 2  # index of the (1, 0) type excluded under monotonicity
ALL_INDICES = tuple(itertools.product(range(4), range(4), range(4)))
MONOTONE_INDICES = tuple(
    idx for idx in ALL_INDICES if DECREASING not in idx
)
TARGETS = ("x0", "x1")
_LATTICE = ((0, 0), (0, 1), (1, 0), (1, 1))  # the proxies' (t, s) values
_ARMS = tuple(tuple(u + (k,) for u in _LATTICE) for k in (0, 1))  # cells by arm
ZERO, ONE = Fraction(0), Fraction(1)


def response(index: tuple, x: int) -> tuple:
    """Map one joint response type to the observed (t, s) under X = x."""
    i, j, k = index
    y = TYPE_PAIRS[k][x]
    return TYPE_PAIRS[i][y], TYPE_PAIRS[j][y]


def target_indices(target: str, indices=ALL_INDICES) -> tuple:
    """Types whose Y response is 1 under the queried arm."""
    if target not in TARGETS:
        raise FormatError(f"target must be one of {TARGETS}, got {target!r}")
    x = TARGETS.index(target)
    return tuple(idx for idx in indices if TYPE_PAIRS[idx[2]][x] == 1)


# ---------------------------------------------------------------------------
# Observed cells


@dataclass(frozen=True)
class ObservedCells:
    """The eight cells p(t_i, s_j | x_k) plus the treatment marginal.

    cond maps (i, j, k) with i the t index, j the s index, k the arm to an
    exact conditional probability; x_dist is (f(x0), f(x1)) when known
    (required only by the joint reading of the closed forms).

    cond is read-only: the instance keeps its own copy, and with it each
    cell's integer numerator over the cells' common denominator, which
    every bounds evaluator reads.  Editing the dict passed in changes
    neither.
    """

    cond: dict
    x_dist: Optional[tuple] = None
    names: tuple = ("T", "S", "X")

    def __post_init__(self):
        cond = self.cond
        ratios = {}  # cell -> (numerator, denominator)
        for cell in _ARMS[0] + _ARMS[1]:
            if cell not in cond:
                raise FormatError(f"missing cell {cell}")
            v = cond[cell]
            if not isinstance(v, Fraction):
                raise FormatError("cells must be exact rationals")
            n, _ = ratios[cell] = v.as_integer_ratio()
            if n < 0:
                raise FormatError(f"cell {cell} is negative")
        den = math.lcm(*(d for _, d in ratios.values()))
        num = {c: n * (den // d) for c, (n, d) in ratios.items()}
        for k, cells in enumerate(_ARMS):
            total = sum(num[cell] for cell in cells)
            if total != den:
                raise FormatError(
                    f"cells for arm {k} sum to {Fraction(total, den)}, "
                    "expected exactly 1"
                )
        if len(cond) != 8:
            raise FormatError("exactly eight cells expected")
        if self.x_dist is not None:  # checked on integer ratios
            arms = [
                p.as_integer_ratio() for p in self.x_dist
                if isinstance(p, (int, Fraction))
            ]
            if len(self.x_dist) != 2 or len(arms) != 2 or any(n < 0 for n, _ in arms):
                raise FormatError("x_dist must be two nonnegative rationals")
            (n0, d0), (n1, d1) = arms
            if n0 * d1 + n1 * d0 != d0 * d1:
                raise FormatError("x_dist must sum to exactly 1")
        # not dataclass fields, so ==, repr and replace see only the cells
        object.__setattr__(self, "cond", dict(cond))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", num)


def cells_from_table(
    table: JointTable, x_var: str, t_var: str, s_var: str
) -> ObservedCells:
    """Extract cells from a joint table; category order gives the 0/1 coding."""
    if len({x_var, t_var, s_var}) != 3:
        raise FormatError(
            f"exposure {x_var!r} and proxies {t_var!r}, {s_var!r} must be "
            "three distinct variables"
        )
    if table.mode != "rational":
        raise FormatError("bounds require an exact (rational-mode) table")
    for var in (x_var, t_var, s_var):
        if len(table.categories(var)) != 2:
            raise FormatError(
                f"{var!r} must be dichotomous, has "
                f"{len(table.categories(var))} categories"
            )
    axes = [table._axis(v) for v in (x_var, t_var, s_var)]
    num = table.num
    others = tuple(a for a in range(num.ndim) if a not in axes)
    if others:  # sum the other variables out; the three keep their order
        num = num.sum(axis=others)
        axes = [sorted(axes).index(a) for a in axes]
    # each arm's four integer numerators, (t, s) in _LATTICE order
    arms = num.transpose(axes).reshape(2, 4).tolist()
    totals = [sum(arm) for arm in arms]
    x_dist = tuple(Fraction(n, table.den) for n in totals)
    cond = {}
    for k, x_cat in enumerate(table.categories(x_var)):
        if totals[k] == 0:
            raise ZeroMassError(f"treatment arm {x_cat!r} has zero mass")
        for (i, j), n in zip(_LATTICE, arms[k]):
            cond[(i, j, k)] = Fraction(n, totals[k])
    return ObservedCells(cond=cond, x_dist=x_dist, names=(t_var, s_var, x_var))


def cells_from_types(q: dict, x_dist: Optional[tuple] = None) -> ObservedCells:
    """Forward map: the cells a response-type distribution q implies.

    q maps (i, j, k) indices to rational mass summing to 1; the treatment
    is randomized, so both arms consult the same q.
    """
    total = sum(q.values(), Fraction(0))
    if total != 1:
        raise FormatError(f"type distribution sums to {total}, expected 1")
    cond = {
        (i, j, k): Fraction(0)
        for i, j, k in itertools.product((0, 1), (0, 1), (0, 1))
    }
    for idx, mass in q.items():
        if mass < 0:
            raise FormatError("type distribution has a negative entry")
        for x in (0, 1):
            t, s = response(idx, x)
            cond[(t, s, x)] += mass
    return ObservedCells(cond=cond, x_dist=x_dist)


def true_target(q: dict, target: str) -> Fraction:
    """Interventional truth f(y1|set(x)) of a response-type distribution."""
    wanted = set(target_indices(target))
    return sum((m for idx, m in q.items() if idx in wanted), Fraction(0))


# ---------------------------------------------------------------------------
# Program construction


@dataclass(frozen=True)
class CounterfactualProgram:
    """LP encoding of the consistency constraints for one target."""

    variables: tuple  # (i, j, k) triples, lexicographic
    equalities: tuple  # (coefficient row, rhs)
    objective: tuple
    target: str
    monotone: bool
    dropped: Optional[str]
    cells: ObservedCells


def stratum_equation_indices(t: int, s: int, x: int, indices=ALL_INDICES):
    """Types consistent with observing (t, s) under arm x."""
    return tuple(
        idx for idx in indices if response(idx, x) == (t, s)
    )


@functools.cache
def _constraints(monotone: bool, drop_proxy: Optional[str]) -> tuple:
    """(variables, coefficient rows, right-hand-side cells) of one shape.

    Row 0 is the normalization, whose right-hand side is 1.  Row r > 0 has
    the cell a + the cell b on its right-hand side, for (a, b) = cells[r - 1];
    b is None on a two-proxy row.
    """
    variables = MONOTONE_INDICES if monotone else ALL_INDICES

    def row_for(index_set):
        chosen = set(index_set)
        return tuple(int(v in chosen) for v in variables)

    rows = [(1,) * len(variables)]
    cells = []
    for k in (1, 0):  # arm x1 first, matching the order the equations are stated
        if drop_proxy is None:
            for t, s in itertools.product((0, 1), (0, 1)):
                rows.append(row_for(stratum_equation_indices(t, s, k, variables)))
                cells.append(((t, s, k), None))
            continue
        # single proxy: one equation per value v of the kept proxy, summing
        # the two cells of the dropped one
        for v in (0, 1):
            pair = tuple(
                (v, other, k) if drop_proxy == "s" else (other, v, k)
                for other in (0, 1)
            )
            matching = []
            for t, s, _ in pair:
                matching.extend(stratum_equation_indices(t, s, k, variables))
            rows.append(row_for(matching))
            cells.append(pair)
    return variables, tuple(rows), tuple(cells)


@functools.cache
def _objective(monotone: bool, target: str) -> tuple:
    variables = MONOTONE_INDICES if monotone else ALL_INDICES
    wanted = set(target_indices(target, variables))
    return tuple(int(v in wanted) for v in variables)


def _check_drop(drop_proxy) -> None:
    if drop_proxy not in (None, "s", "t"):
        raise FormatError(f"drop_proxy must be None, 's' or 't', got {drop_proxy!r}")


def _equalities(cells: ObservedCells, monotone: bool, drop_proxy) -> tuple:
    """(variables, equality rows paired with their right-hand sides) of the
    cells' programs of one shape."""
    _check_drop(drop_proxy)
    variables, rows, rhs_cells = _constraints(bool(monotone), drop_proxy)
    cond = cells.cond
    rhs = [ONE] + [
        cond[a] if b is None else cond[a] + cond[b] for a, b in rhs_cells
    ]
    return variables, tuple(zip(rows, rhs))


def build_program(
    cells: ObservedCells,
    monotone: bool,
    target: str,
    drop_proxy: Optional[str] = None,
) -> CounterfactualProgram:
    """Assemble normalization plus the eight consistency equations.

    drop_proxy="s" (or "t") marginalizes that proxy out of the constraints:
    only the four cells of the remaining proxy are imposed, which is the
    single-proxy variant.  The variables, coefficient rows and objective
    depend only on (monotone, drop_proxy, target) and are built once, as
    0/1 int tuples, so only the right-hand sides (Fractions) are computed
    per call.
    """
    variables, equalities = _equalities(cells, monotone, drop_proxy)
    return CounterfactualProgram(
        variables=variables,
        equalities=equalities,
        objective=_objective(bool(monotone), target),
        target=target,
        monotone=monotone,
        dropped=drop_proxy,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class BoundsResult:
    """One target's interval plus how it was obtained.

    method is "lp", "closed-form" or "stratified"; witnesses (lp only)
    maps "lower"/"upper" to the support of an attaining type distribution,
    a dict from (i, j, k) to its positive mass (types without mass are
    absent);
    terms (closed forms only) lists the candidate expressions before
    min/max and clamping; applicable is False when a closed form was
    requested without its monotonicity premise.
    """

    target: str
    lower: Fraction
    upper: Fraction
    method: str
    witnesses: Optional[dict] = None
    terms: Optional[tuple] = None
    convention: Optional[str] = None
    applicable: bool = True

    def __post_init__(self):
        # 0 <= lower <= upper <= 1, on integer ratios
        (ln, ld), (un, ud) = self.lower.as_integer_ratio(), self.upper.as_integer_ratio()
        if not (0 <= ln and ln * ud <= un * ld and un <= ud):
            raise SpecError(
                f"malformed bounds [{self.lower}, {self.upper}] for "
                f"{self.target}"
            )


def lp_bounds(prog: CounterfactualProgram) -> BoundsResult:
    """Sharp bounds: exact min and max of the target objective.

    The answer is read from prog.cells, so prog must equal build_program of
    its own cells and shape (SpecError otherwise).  Each witness is the
    support of an attaining type distribution: only the types with
    positive mass.  No program needs the simplex; the proofs follow.

    Unrestricted programs.  The answer is [0, 1].  Let P = TYPE_PAIRS and
    cond[(t, s, k)] = p(t, s | x_k).  D puts all mass on Y-type (1,0)
    (k = 2) with
    q(i, j, 2) = cond[(P[i][0], P[j][0], 1)] * cond[(P[i][1], P[j][1], 0)],
    and U puts all mass on Y-type (0,1) (k = 1) with
    q(i, j, 1) = cond[(P[i][1], P[j][1], 1)] * cond[(P[i][0], P[j][0], 0)].
    Proof: under x1 a unit of D has Y = 0, so it shows (T, S) =
    (P[i][0], P[j][0]), the cell of the first factor; under x0 it has
    Y = 1 and shows the cell of the second.  Summing the product over the
    other factor's cells, which sum to 1, leaves each arm's marginal equal
    to that arm's cells, so every equality row holds; U is the mirror
    image.  The target reads the fixed Y value, so D gives x1 the value 0
    and x0 the value 1, and U the reverse: D is the x1 lower and x0 upper
    witness, U the x1 upper and x0 lower one.  The one-proxy program keeps
    only sums of the two-proxy rows, so it relaxes the two-proxy program
    and the same witnesses satisfy it.

    Monotone programs.  With no decreasing type, a unit shows (T, S) = u0
    under x0 and u1 under x1, where u0 = u1 on Y-types (0,0) and (1,1),
    and u0 <= u1 coordinatewise on (0,1) because T and S are nondecreasing
    in Y; every pair u0 <= u1 is that of some monotone type.  The
    down-sets L of the kept proxies' values are {00}, T=0, S=0 and "not
    11" with two proxies, and K=0 with one proxy K kept.  Let
    gap(L) = P(L | x0) - P(L | x1); with two proxies these are the x1
    lower terms of _four_terms under the conditional reading.  Claim: the
    program is feasible exactly when every gap is >= 0, and then, with g
    the largest gap, x1 lies in [g, 1] and x0 in [0, 1 - g].

    Optimality and infeasibility, by weak duality.  Let y_L be +1 on the
    x0 rows of L and -1 on its x1 rows (a one-proxy row is in L when its
    kept value is).  On a monotone column, (A^T y_L) = [u0 in L] -
    [u1 in L] is 0 or 1: never negative, since u1 in L and u0 <= u1 put u0
    in the down-set L, and 0 on Y-type (0,0), whose u0 = u1.  So A^T y_L <= c for
    the x1 objective c = [Y(x1) = 1], and every feasible q has x1 >= b.y_L
    = gap(L).  With the normalization row e0, A^T (e0 - y_L) >= [Y(x0) = 1],
    which is 1 only on Y-type (1,1), again with u0 = u1; so x0 <= b.(e0 -
    y_L) = 1 - gap(L).  When gap(L) < 0, -y_L is a Farkas ray:
    A^T (-y_L) <= 0 and b.(-y_L) > 0, so no q >= 0 meets the rows.  The
    trivial ends, x0 >= 0 and x1 <= 1, are the zero vector and e0.

    Feasibility and attainment, by a greedy monotone coupling: Strassen's
    theorem (1965, "The existence of probability measures with given
    marginals") on a finite poset, see also Kamae, Krengel & O'Brien
    (1977, "Stochastic inequalities on partially ordered spaces").  With
    p = (T, S) | x0 and r = (T, S) | x1 on the 2x2 lattice, put r(00) at
    (00, 00) and p(11) at (11, 11); at each middle point v put
    min(p(v), r(v)) at (v, v), the excess p(v) - r(v) at (v, 11) and the
    excess r(v) - p(v) at (00, v); the rest of p(00) goes to (00, 11).
    Each u0 carries p(u0) and each u1 carries r(u1).  The last mass is the
    gap of {00} together with the middle points where r exceeds p, so
    every mass is >= 0 when the gaps are; the off-diagonal mass is
    p(00) - r(00) + the sum of max(p(v) - r(v), 0) over v, which is g.
    With one proxy the dropped one is fixed at 0, which runs the same
    construction on the chain K=0 < K=1.  A pair u0 = u1 becomes a type
    with constant proxies and Y-type (0,0) in the low witness, (1,1) in
    the high one; a pair u0 < u1 becomes Y-type (0,1) with
    i = (u0[0], u1[0]) and j = (u0[1], u1[1]).  The low witness gives
    x1 = g and x0 = 0, the high one x1 = 1 and x0 = 1 - g, so one pair
    serves both targets.  These supports are not the simplex's vertices.

    Raises InfeasibleError, carrying the most violated down-set and its
    two masses, when the observed cells are inconsistent with the
    monotone response-type model.
    """
    # prog == build_program(prog.cells, ...), without building that program
    variables, equalities = _equalities(prog.cells, prog.monotone, prog.dropped)
    objective = _objective(bool(prog.monotone), prog.target)
    if (type(prog), prog.variables, prog.equalities, prog.objective) != (
        CounterfactualProgram, variables, equalities, objective
    ):
        raise SpecError(
            "program does not match build_program of its cells; lp_bounds "
            "answers from prog.cells"
        )
    results = sharp_bounds(prog.cells, prog.monotone, prog.dropped)
    return results[TARGETS.index(prog.target)]


def sharp_bounds(
    cells: ObservedCells, monotone: bool, drop_proxy: Optional[str] = None
) -> tuple:
    """lp_bounds of both targets' programs as (x0 result, x1 result).

    Each witness pair is built once for both targets, so the two results
    share their witness dicts.
    """
    _check_drop(drop_proxy)
    g, _, witnesses = _sharp(cells, bool(monotone), drop_proxy)
    return _lp_pair(cells, g, witnesses)


def _lp_pair(cells: ObservedCells, g: int, witnesses: dict) -> tuple:
    """(x0 in [0, 1 - g / den], x1 in [g / den, 1]), den = cells._den, of _sharp."""
    den = cells._den
    return _result_pair(
        "lp", None, _fraction(den - g, den), _fraction(g, den),
        witnesses=[{"lower": witnesses[t][0], "upper": witnesses[t][1]} for t in TARGETS],
    )


# The down-sets of the proxies' (t, s) values whose mass a monotone model
# cannot raise from x0 to x1, in the order of _x1_lower_terms: under the
# conditional reading, term n is P(L | x0) - P(L | x1) of _DOWN_SETS[n].
_DOWN_SETS = (
    ((0, 0),),
    ((0, 0), (0, 1), (1, 0)),  # not (1, 1)
    ((0, 0), (1, 0)),  # S = 0
    ((0, 0), (0, 1)),  # T = 0
)
# the down-sets of the kept proxies' values, by dropped proxy
_KEPT = {None: (0, 1, 2, 3), "s": (3,), "t": (2,)}
_TYPE_INDEX = {pair: n for n, pair in enumerate(TYPE_PAIRS)}
# (u under x1, v under x0, D's type, U's type) for each pair of cells
_PRODUCT_TYPES = tuple(
    (
        u + (1,),
        v + (0,),
        (_TYPE_INDEX[u[0], v[0]], _TYPE_INDEX[u[1], v[1]], DECREASING),
        (_TYPE_INDEX[v[0], u[0]], _TYPE_INDEX[v[1], u[1]], 1),
    )
    for u, v in itertools.product(_LATTICE, repeat=2)
)


def _sharp(cells: ObservedCells, monotone: bool, dropped) -> tuple:
    """(g, binding down-set, {target: (lower witness, upper witness)}) of
    one shape's programs, by the proofs of lp_bounds, with g the integer
    numerator of the largest gap over cells._den.

    The binding down-set is the one whose gap is g, None without
    monotonicity.  The gaps, the coupling and the product masses run on
    the cells' integer numerators over their common denominator.
    """
    num, den = cells._num, cells._den
    if not monotone:
        down, up = _product_witnesses(num, den)
        return 0, None, {"x0": (up, down), "x1": (down, up)}
    gaps = _x1_lower_terms(num)
    worst = min(_KEPT[dropped], key=gaps.__getitem__)
    if gaps[worst] < 0:
        down_set = _DOWN_SETS[worst]
        measured = sum(num[u + (1,)] for u in down_set)
        raise InfeasibleError(
            "observed cells are inconsistent with the monotone response-type model",
            down_set=down_set,
            measured=Fraction(measured, den),
            threshold=Fraction(measured + gaps[worst], den),
        )
    best = max(_KEPT[dropped], key=gaps.__getitem__)
    pair = _coupling_witnesses(num, dropped, den)
    return gaps[best], _DOWN_SETS[best], {"x0": pair, "x1": pair}


def _product_witnesses(num: dict, den: int) -> tuple:
    """The product witnesses D and U of lp_bounds of the cells num / den.

    Both hold the same 16 masses p(u | x1) * p(v | x0): D on the type
    that shows u under x1 and v under x0 through Y-type (1,0), U on the
    one that does so through Y-type (0,1).
    """
    square = den * den
    down, up = {}, {}
    for x1_cell, x0_cell, d, u in _PRODUCT_TYPES:
        mass = num[x1_cell] * num[x0_cell]
        if mass:
            down[d] = up[u] = Fraction(mass, square)
    return down, up


def _coupling_witnesses(num: dict, dropped, den: int) -> tuple:
    """The low and high witnesses of lp_bounds' greedy monotone coupling of
    the cells num / den."""
    if dropped is None:
        p, r = ({u: num[u + (k,)] for u in _LATTICE} for k in (0, 1))
    else:  # fix the dropped proxy at 0 and merge its two cells
        p, r = ({u: 0 for u in _LATTICE} for _ in (0, 1))
        for (t, s, k), mass in num.items():
            (p, r)[k][(t, 0) if dropped == "s" else (0, s)] += mass
    bottom, top = (0, 0), (1, 1)
    pairs = {(bottom, bottom): r[bottom], (top, top): p[top]}
    rest = p[bottom] - r[bottom]
    for v in ((0, 1), (1, 0)):
        stay = min(p[v], r[v])
        pairs[(v, v)] = stay
        pairs[(v, top)] = p[v] - stay
        pairs[(bottom, v)] = r[v] - stay
        rest -= r[v] - stay
    pairs[(bottom, top)] = rest
    low, high = {}, {}
    for (u0, u1), mass in pairs.items():
        if mass:
            mass = Fraction(mass, den)
            i, j = (_TYPE_INDEX[pair] for pair in zip(u0, u1))
            low[(i, j, 0 if u0 == u1 else 1)] = mass
            high[(i, j, 3 if u0 == u1 else 1)] = mass
    return low, high


def _x1_lower_terms(p: dict) -> tuple:
    """The four x1 lower candidate terms, verbatim, of the cells p[i, j, k]."""
    return (
        p[0, 0, 0] - p[0, 0, 1],
        p[1, 1, 1] - p[1, 1, 0],
        p[0, 0, 0] + p[1, 0, 0] - p[0, 0, 1] - p[1, 0, 1],
        p[0, 0, 0] + p[0, 1, 0] - p[0, 0, 1] - p[0, 1, 1],
    )


def _four_terms(cells: ObservedCells, convention: str) -> tuple:
    """The four x0 upper and the four x1 lower candidate terms.

    Both readings are evaluated on integer numerators over one
    denominator, and one Fraction is built per term.  Let A_k be the x_k
    arm's total on the reading's scale: den under the conditional reading,
    f(x_k) * den under the joint one.  With l0..l3 the x1 lower terms, the
    x0 upper terms are A0 - l0, A0 - l2, A0 - l3 and A1 - l1 on both
    readings: each is the sum of the four cells its lower term leaves out.
    """
    num, den = cells._num, cells._den
    if convention == "conditional":
        totals = (den, den)
    elif convention == "joint-compat":
        if cells.x_dist is None:
            raise FormatError("the joint-compat reading needs the treatment marginal")
        arm, arm_den = lcm_numerators(cells.x_dist)
        num = {cell: n * arm[cell[2]] for cell, n in num.items()}
        totals, den = [a * den for a in arm], den * arm_den
    else:
        raise FormatError(f"unknown convention {convention!r}")
    lower = _x1_lower_terms(num)
    upper = tuple(totals[k] - lower[n] for n, k in ((0, 0), (2, 0), (3, 0), (1, 1)))
    return (
        tuple(Fraction(n, den) for n in upper),
        tuple(Fraction(n, den) for n in lower),
    )


def _fraction(n: int, den: int) -> Fraction:
    """n / den, as the shared ZERO or ONE when it is 0 or 1."""
    return ZERO if n == 0 else ONE if n == den else Fraction(n, den)


def _clamped(v: Fraction) -> Fraction:
    """v clamped to [0, 1], compared through its integer ratio."""
    n, d = v.as_integer_ratio()
    return ZERO if n <= 0 else ONE if n >= d else v


def _result_pair(
    method, convention, upper=ONE, lower=ZERO,
    terms=(None, None), applicable=True, witnesses=(None, None),
):
    """(x0 in [0, upper], x1 in [lower, 1]) with upper and lower clamped to [0, 1]."""
    upper, lower = _clamped(upper), _clamped(lower)
    common = {"method": method, "convention": convention, "applicable": applicable}
    return (
        BoundsResult("x0", ZERO, upper, witnesses=witnesses[0], terms=terms[0], **common),
        BoundsResult("x1", lower, ONE, witnesses=witnesses[1], terms=terms[1], **common),
    )


def closed_form_bounds(
    cells: ObservedCells, convention: str = "conditional"
):
    """Four-term monotone bounds for both targets, evaluated exactly.

    Returns (x0 result, x1 result).  The x0 target gets lower 0 and the
    minimum of four sums as upper; the x1 target gets the maximum of four
    differences as lower and upper 1.  convention picks how the cell
    symbols are read: "conditional" (consistent with the LP constraints)
    or "joint-compat" (cells multiplied by the arm probability, matching
    the worked numbers these formulas are traditionally checked against).
    """
    upper_terms, lower_terms = _four_terms(cells, convention)
    return _result_pair(
        "closed-form", convention, min(upper_terms), max(lower_terms),
        (upper_terms, lower_terms),
    )


def stratified_bounds(
    strata: Sequence[ObservedCells],
    weights: Sequence[Fraction],
    monotone: bool = True,
    convention: str = "conditional",
):
    """Covariate-stratified four-term bounds, weight-averaged then clamped.

    Each stratum contributes its own four-term min (x0 upper) and max
    (x1 lower); the aggregate is sum_z term(z) * weight(z).  Without the
    monotonicity premise the closed forms do not apply and the result is
    the trivial [0, 1] pair flagged not-applicable.
    """
    if len(strata) != len(weights):
        raise FormatError("one weight per stratum required")
    if not strata:
        raise FormatError("at least one stratum required")
    weights = [parse_rational(w) for w in weights]
    if any(w < 0 for w in weights):
        raise FormatError("stratum weights must be nonnegative")
    if any(w == 0 for w in weights):
        raise ZeroMassError("stratum with zero weight")
    if sum(weights) != 1:
        raise FormatError("stratum weights must sum to exactly 1")
    if not monotone:
        return _result_pair("stratified", convention, applicable=False)
    terms = [_four_terms(cells, convention) for cells in strata]
    uppers = tuple(min(u) for u, _ in terms)
    lowers = tuple(max(l) for _, l in terms)
    return _result_pair(
        "stratified", convention,
        sum((u * w for u, w in zip(uppers, weights)), Fraction(0)),
        sum((l * w for l, w in zip(lowers, weights)), Fraction(0)),
        (uppers, lowers),
    )


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class CertificationReport:
    """LP and closed forms on the same input, with the LP authoritative.

    lp maps target -> BoundsResult, the LP optimum proved by exact
    certificates, or None when that program is infeasible; closed maps
    target -> BoundsResult (conditional reading), flagged not-applicable
    when monotone is False; deltas maps target -> (closed lower - lp
    lower, closed upper - lp upper) where both exist.
    """

    monotone: bool
    lp: dict
    closed: dict
    deltas: dict
    lp_status: str
    authoritative: str = "lp"


def certify_against_lp(cells: ObservedCells, monotone: bool) -> CertificationReport:
    """The sharp bounds and the closed forms of both targets, compared exactly.

    Each lp entry equals lp_bounds of its two-proxy program, and is proved
    against build_program's 0/1 rows before it is reported (SpecError if a
    certificate fails): every witness has positive masses, meets every
    equality row and attains its endpoint, and a dual vector bounds each
    endpoint by weak duality; an infeasible program is proved so by the
    Farkas ray of its violated down-set.  The closed forms' x1 lower terms
    are the gaps lp_bounds reads, so on feasible cells they agree.
    """
    closed = {
        res.target: res if monotone else replace(res, applicable=False)
        for res in closed_form_bounds(cells, convention="conditional")
    }
    prog = build_program(cells, monotone=monotone, target="x0")
    try:
        g, binding, witnesses = _sharp(cells, monotone, None)
    except InfeasibleError as exc:
        _check_farkas(prog, exc.down_set)
        lp_out = dict.fromkeys(TARGETS)
    else:
        lp_out = dict(zip(TARGETS, _lp_pair(cells, g, witnesses)))
        _check_certificates(prog, lp_out, binding)
    deltas = {}
    for target in TARGETS:
        if lp_out[target] is None or not closed[target].applicable:
            deltas[target] = None
        else:
            deltas[target] = (
                _difference(closed[target].lower, lp_out[target].lower),
                _difference(closed[target].upper, lp_out[target].upper),
            )
    return CertificationReport(
        monotone=monotone,
        lp=lp_out,
        closed=closed,
        deltas=deltas,
        lp_status="infeasible" if lp_out["x0"] is None else "optimal",
    )


def _difference(a: Fraction, b: Fraction) -> Fraction:
    """a - b, computed on their integer ratios."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return _fraction(an * bd - bn * ad, ad * bd)


def _check_certificates(
    prog: CounterfactualProgram, results: dict, binding
) -> None:
    """Raise SpecError unless exact certificates prove every endpoint.

    prog is a program of the cells, results maps each target to its lp
    answer, and binding is the down-set of the monotone dual vectors.  The
    rows do not depend on the target, so each witness is checked against
    all of prog's rows once, in integers over one common denominator: one
    pass over its support adds each mass to the rows its column meets.
    Each target's objective is _objective's.
    """
    rows = tuple(row for row, _ in prog.equalities)
    rhs = [b.as_integer_ratio() for _, b in prog.equalities]
    incidence = _incidence(rows)
    column = _columns(bool(prog.monotone))
    witnesses = {
        id(w): w for res in results.values() for w in res.witnesses.values()
    }
    witnesses = {  # (column, numerator, denominator) of each type
        key: [(column.get(v), *m.as_integer_ratio()) for v, m in w.items()]
        for key, w in witnesses.items()
    }
    den = math.lcm(
        *(d for _, d in rhs), *(d for x in witnesses.values() for _, _, d in x)
    )
    b = [n * (den // d) for n, d in rhs]
    scaled = {}
    for key, x in witnesses.items():
        totals = [0] * len(rows)
        support = []
        for c, n, d in x:
            if c is None or n <= 0:
                raise SpecError("a witness is not a feasible type distribution")
            m = n * (den // d)
            for r, a in incidence[c]:
                totals[r] += a * m
            support.append((c, m))
        if totals != b:
            raise SpecError("a witness is not a feasible type distribution")
        scaled[key] = support
    for target, res in results.items():
        objective = _objective(bool(prog.monotone), target)
        for side, value in (("lower", res.lower), ("upper", res.upper)):
            x = scaled[id(res.witnesses[side])]
            y = _dual_vector(prog.monotone, prog.dropped, target, side, binding)
            n, d = value.as_integer_ratio()
            for total in (
                sum(objective[c] * m for c, m in x),
                sum(yi * bi for yi, bi in zip(y, b) if yi),
            ):
                if total * d != n * den:
                    raise SpecError(
                        f"{target} {side} {value} is not proved by its "
                        "witness and dual vector"
                    )


def _check_farkas(prog: CounterfactualProgram, down_set: tuple) -> None:
    """Raise SpecError unless down_set's Farkas ray proves prog infeasible."""
    y = _dual_vector(prog.monotone, prog.dropped, None, "lower", down_set)
    if sum(yi * b for yi, (_, b) in zip(y, prog.equalities) if yi) <= 0:
        raise SpecError(f"down-set {down_set} does not prove infeasibility")


@functools.lru_cache(maxsize=8)
def _incidence(rows: tuple) -> tuple:
    """For each column of rows, its (row index, coefficient) nonzero entries."""
    return tuple(
        tuple((r, a) for r, a in enumerate(column) if a) for column in zip(*rows)
    )


@functools.cache
def _columns(monotone: bool) -> dict:
    """Each variable of a shape's programs -> its column index."""
    return {v: c for c, v in enumerate(_constraints(monotone, None)[0])}


@functools.cache
def _dual_vector(monotone, dropped, target, side, down_set) -> tuple:
    """The dual vector of lp_bounds' proof of one endpoint, checked on every
    column of the shape once (SpecError if it fails).

    side "lower" is the min, with A^T y <= c, and "upper" the max, with
    A^T y >= c; target None asks for the Farkas ray of down_set, with
    A^T y <= 0.
    """
    variables, rows, row_cells = _constraints(bool(monotone), dropped)
    norm = (1,) + (0,) * (len(rows) - 1)
    if down_set is None:
        y_l = (0,) * len(rows)
    else:  # +1 on the x0 rows of the down-set, -1 on its x1 rows
        y_l = (0,) + tuple(
            (1 if a[2] == 0 else -1)
            if all(cell[:2] in down_set for cell in (a, b) if cell) else 0
            for a, b in row_cells
        )
    if target is None:
        y, c = tuple(-v for v in y_l), (0,) * len(variables)
    else:
        c = _objective(bool(monotone), target)
        if side == "lower":
            y = y_l if monotone and target == "x1" else (0,) * len(rows)
        else:
            y = norm
            if monotone and target == "x0":
                y = tuple(n - v for n, v in zip(norm, y_l))
    sign = 1 if side == "lower" else -1
    for col, cost in enumerate(c):
        if sign * (sum(row[col] * yi for row, yi in zip(rows, y)) - cost) > 0:
            raise SpecError(f"dual vector {y} is infeasible at column {variables[col]}")
    return y
