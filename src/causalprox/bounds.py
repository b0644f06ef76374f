"""Partial identification of f(y1|set(x)) when only proxies of Y are seen.

Setting: binary treatment X causes a binary latent outcome Y, and two
binary proxies T and S respond to Y.  Units are parameterized by response
types: k encodes Y as a function of X, i encodes T as a function of Y, j
encodes S as a function of Y, each type one of (0,0), (0,1), (1,0), (1,1)
listing the value at argument 0 then at argument 1.  The distribution
q_ijk over the 64 joint types reproduces the observed cells
p(t, s | x) through consistency, which is a linear map; bounding the
interventional targets over all feasible q is therefore an exact LP.

Without monotonicity the program's answer is always [0, 1], attained by
two product distributions, so lp_bounds returns it in closed form.  The
monotone variant forbids the decreasing type (1,0) on all three
coordinates (27 types remain); its program is infeasible whenever the
cells break one of the stochastic-order conditions the model implies,
which lp_bounds tests before phase 1, and otherwise the exact simplex
solves it.  The lp_bounds docstring proves both shortcuts, and
certify_against_lp keeps the simplex for every program, so
`--method both` re-checks them independently.
Every witness is a support: only the types with positive mass.

Closed-form four-term bounds for the monotone variant are evaluated
verbatim under two reading conventions of the cell symbols, because the
worked numbers they are checked against use the joint reading while the
program constraints require the conditional one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import FormatError, InfeasibleError, SpecError, ZeroMassError
from .lp import LinearProgram, phase1, phase2
from .ratio import parse_rational
from .table import JointTable

TYPE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
DECREASING = 2  # index of the (1, 0) type excluded under monotonicity
ALL_INDICES = tuple(itertools.product(range(4), range(4), range(4)))
MONOTONE_INDICES = tuple(
    idx for idx in ALL_INDICES if DECREASING not in idx
)
TARGETS = ("x0", "x1")


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
    """

    cond: dict
    x_dist: Optional[tuple] = None
    names: tuple = ("T", "S", "X")

    def __post_init__(self):
        for k in (0, 1):
            arm = []
            for i, j in itertools.product((0, 1), (0, 1)):
                if (i, j, k) not in self.cond:
                    raise FormatError(f"missing cell ({i}, {j}, {k})")
                v = self.cond[(i, j, k)]
                if not isinstance(v, Fraction):
                    raise FormatError("cells must be exact rationals")
                if v.numerator < 0:
                    raise FormatError(f"cell ({i}, {j}, {k}) is negative")
                arm.append(v)
            den = math.lcm(*(v.denominator for v in arm))
            total = sum(v.numerator * (den // v.denominator) for v in arm)
            if total != den:
                raise FormatError(
                    f"cells for arm {k} sum to {Fraction(total, den)}, "
                    "expected exactly 1"
                )
        if len(self.cond) != 8:
            raise FormatError("exactly eight cells expected")
        if self.x_dist is not None:
            if len(self.x_dist) != 2 or any(p < 0 for p in self.x_dist):
                raise FormatError("x_dist must be two nonnegative rationals")
            if sum(self.x_dist) != 1:
                raise FormatError("x_dist must sum to exactly 1")

    def read(self, i: int, j: int, k: int, convention: str) -> Fraction:
        """One cell under the requested symbol reading."""
        if convention == "conditional":
            return self.cond[(i, j, k)]
        if convention == "joint-compat":
            if self.x_dist is None:
                raise FormatError(
                    "the joint-compat reading needs the treatment marginal"
                )
            return self.cond[(i, j, k)] * self.x_dist[k]
        raise FormatError(f"unknown convention {convention!r}")


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
    margin = table.marginal([t_var, s_var, x_var])
    axes = [margin.variables.index(v) for v in (t_var, s_var, x_var)]
    num = margin.num.transpose(axes).tolist()  # integer numerators, [t][s][x]
    arms = [sum(num[i][j][k] for i in (0, 1) for j in (0, 1)) for k in (0, 1)]
    x_dist = tuple(Fraction(n, margin.den) for n in arms)
    cond = {}
    for k, x_cat in enumerate(table.categories(x_var)):
        if arms[k] == 0:
            raise ZeroMassError(f"treatment arm {x_cat!r} has zero mass")
        for i, j in itertools.product((0, 1), (0, 1)):
            cond[(i, j, k)] = Fraction(num[i][j][k], arms[k])
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

    def lp(self, sense: str) -> LinearProgram:
        return LinearProgram(
            n=len(self.variables),
            equalities=self.equalities,
            objective=self.objective,
            sense=sense,
        )


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
    if drop_proxy not in (None, "s", "t"):
        raise FormatError(f"drop_proxy must be None, 's' or 't', got {drop_proxy!r}")
    variables, rows, rhs_cells = _constraints(bool(monotone), drop_proxy)
    cond = cells.cond
    rhs = [Fraction(1)] + [
        cond[a] if b is None else cond[a] + cond[b] for a, b in rhs_cells
    ]
    return CounterfactualProgram(
        variables=variables,
        equalities=tuple(zip(rows, rhs)),
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
        if not 0 <= self.lower <= self.upper <= 1:
            raise SpecError(
                f"malformed bounds [{self.lower}, {self.upper}] for "
                f"{self.target}"
            )


def lp_bounds(prog: CounterfactualProgram) -> BoundsResult:
    """Sharp bounds: exact min and max of the target objective.

    The answer is read from prog.cells, which build_program sets, and each
    witness is the support of an attaining type distribution: only the
    types with positive mass.

    Unrestricted programs are solved in closed form, with no simplex.  The
    answer is [0, 1].  Let P = TYPE_PAIRS and cond[(t, s, k)] = p(t, s | x_k).
    D puts all mass on Y-type (1,0) (k = 2) with
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

    Monotone programs are first tested against the stochastic-order
    conditions every monotone model implies: for each down-set L of the
    kept proxies' values, P(L | x1) <= P(L | x0).  With two proxies these
    are p(00|x1) <= p(00|x0), P(T=0|x1) <= P(T=0|x0), P(S=0|x1) <=
    P(S=0|x0) and p(11|x1) >= p(11|x0); with one proxy K kept, P(K=0|x1)
    <= P(K=0|x0).  Proof by coupling: with no decreasing type, Y(x1) >=
    Y(x0) for every unit, and T and S are nondecreasing in Y, so each
    unit's (T, S) under x1 dominates its (T, S) under x0 and the mass of
    a down-set can only shrink.  Only necessity is used: cells that pass
    go to the exact simplex, which decides feasibility and the bounds.

    Raises InfeasibleError when the observed cells are inconsistent with
    the monotone response-type model (the model forces inequalities such
    as nonincreasing cells that real data can violate).
    """
    if not prog.monotone:
        return _unrestricted_bounds(prog)
    start = None if _breaks_order(prog.cells, prog.dropped) else phase1(prog.lp("min"))
    if start is None:
        raise InfeasibleError(
            "observed cells are inconsistent with the monotone response-type model"
        )
    return _bounds_from_start(prog, start)


def _unrestricted_bounds(prog: CounterfactualProgram) -> BoundsResult:
    """[0, 1] with the product witnesses D and U of lp_bounds."""
    cond = prog.cells.cond

    def product(k, y1):
        # all mass on Y-type k, whose Y is y1 under x1 and y0 under x0
        y0 = 1 - y1
        masses = (
            ((i, j, k), cond[(a[y1], b[y1], 1)] * cond[(a[y0], b[y0], 0)])
            for (i, a), (j, b) in itertools.product(enumerate(TYPE_PAIRS), repeat=2)
        )
        return {idx: mass for idx, mass in masses if mass}

    down, up = product(DECREASING, 0), product(1, 1)
    lower, upper = (down, up) if prog.target == "x1" else (up, down)
    return BoundsResult(
        target=prog.target,
        lower=Fraction(0),
        upper=Fraction(1),
        method="lp",
        witnesses={"lower": lower, "upper": upper},
    )


# The down-sets of the kept proxies' (t, s) values whose conditional mass
# a monotone model cannot raise from x0 to x1, by dropped proxy.
_DOWN_SETS = {
    None: (
        ((0, 0),),
        ((0, 0), (0, 1)),  # T = 0
        ((0, 0), (1, 0)),  # S = 0
        ((0, 0), (0, 1), (1, 0)),  # not (1, 1)
    ),
    "s": (((0, 0), (0, 1)),),
    "t": (((0, 0), (1, 0)),),
}


def _breaks_order(cells: ObservedCells, dropped: Optional[str]) -> bool:
    """True when cells break a stochastic-order condition of lp_bounds."""
    cond = cells.cond
    return any(
        sum(cond[(t, s, 1)] for t, s in down) > sum(cond[(t, s, 0)] for t, s in down)
        for down in _DOWN_SETS[dropped]
    )


def _bounds_from_start(prog: CounterfactualProgram, start) -> BoundsResult:
    """lp_bounds from a phase1() start of prog's constraints, by the simplex."""
    results = {}
    for sense in ("min", "max"):
        res = phase2(start, prog.objective, sense)
        if res.status != "optimal":
            raise SpecError(
                f"bounded program reported {res.status}; this cannot happen "
                "on a probability polytope"
            )
        results[sense] = res
    witnesses = {
        side: {v: m for v, m in zip(prog.variables, results[sense].witness) if m}
        for side, sense in (("lower", "min"), ("upper", "max"))
    }
    return BoundsResult(
        target=prog.target,
        lower=results["min"].value,
        upper=results["max"].value,
        method="lp",
        witnesses=witnesses,
    )


def _four_terms(cells: ObservedCells, convention: str) -> tuple:
    """The four x0 upper and the four x1 lower candidate terms, verbatim."""

    def p(i, j, k):
        return cells.read(i, j, k, convention)

    upper_x0 = (
        p(0, 1, 0) + p(1, 0, 0) + p(1, 1, 0) + p(0, 0, 1),
        p(0, 1, 0) + p(1, 1, 0) + p(1, 0, 1) + p(0, 0, 1),
        p(1, 0, 0) + p(1, 1, 0) + p(0, 1, 1) + p(0, 0, 1),
        p(1, 1, 0) + p(0, 0, 1) + p(1, 0, 1) + p(0, 1, 1),
    )
    lower_x1 = (
        p(0, 0, 0) - p(0, 0, 1),
        p(1, 1, 1) - p(1, 1, 0),
        p(0, 0, 0) + p(1, 0, 0) - p(0, 0, 1) - p(1, 0, 1),
        p(0, 0, 0) + p(0, 1, 0) - p(0, 0, 1) - p(0, 1, 1),
    )
    return upper_x0, lower_x1


def _result_pair(
    method, convention, upper=Fraction(1), lower=Fraction(0),
    terms=(None, None), applicable=True,
):
    """(x0 in [0, upper], x1 in [lower, 1]) with upper and lower clamped to [0, 1]."""
    upper, lower = (min(Fraction(1), max(Fraction(0), v)) for v in (upper, lower))
    common = {"method": method, "convention": convention, "applicable": applicable}
    return (
        BoundsResult("x0", Fraction(0), upper, terms=terms[0], **common),
        BoundsResult("x1", lower, Fraction(1), terms=terms[1], **common),
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

    lp maps target -> BoundsResult, or None when that program is
    infeasible; closed maps target -> BoundsResult (conditional reading),
    flagged not-applicable when monotone is False; deltas maps target ->
    (closed lower - lp lower, closed upper - lp upper) where both exist.
    """

    monotone: bool
    lp: dict
    closed: dict
    deltas: dict
    lp_status: str
    authoritative: str = "lp"


def certify_against_lp(cells: ObservedCells, monotone: bool) -> CertificationReport:
    """Run both bound computations and compare them exactly.

    The two targets' programs differ only in the objective, so one phase 1
    serves both; each lp entry equals lp_bounds of its program.
    """
    progs = [build_program(cells, monotone=monotone, target=t) for t in TARGETS]
    start = phase1(progs[0].lp("min"))
    lp_out = {
        prog.target: None if start is None else _bounds_from_start(prog, start)
        for prog in progs
    }
    status = "optimal" if start is not None else "infeasible"
    closed = {
        res.target: res if monotone else replace(res, applicable=False)
        for res in closed_form_bounds(cells, convention="conditional")
    }
    deltas = {}
    for target in TARGETS:
        if lp_out[target] is None or not closed[target].applicable:
            deltas[target] = None
        else:
            deltas[target] = (
                closed[target].lower - lp_out[target].lower,
                closed[target].upper - lp_out[target].upper,
            )
    return CertificationReport(
        monotone=monotone,
        lp=lp_out,
        closed=closed,
        deltas=deltas,
        lp_status=status,
    )
