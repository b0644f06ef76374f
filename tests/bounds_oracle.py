"""Per-call bounds code, kept for the test suite.

causalprox.bounds now builds each program's variables, coefficient rows
and objective once per shape, reads the three variables' integer
numerators straight from the table, and evaluates the closed forms on
the cells' integer numerators.  The functions below are the code they
replaced, unchanged apart from their names: `build_program_per_call`
rebuilds every row and the objective from the response map on each call,
`cells_per_mass` reads every cell with one `mass` lookup and a division,
`cells_via_marginal` reads them through a marginal table, and
`four_terms_verbatim` sums the cells' Fractions term by term, reading
each cell under the requested convention itself.  Tests require the
package's results to equal theirs with `==`.

`random_cells` draws seeded test cells, and `assert_attaining_support`
checks a witness, which no simplex produced, against the per-call
program.
"""

import itertools
from fractions import Fraction
from typing import Optional

from causalprox.bounds import (
    ALL_INDICES,
    MONOTONE_INDICES,
    BoundsResult,
    CounterfactualProgram,
    ObservedCells,
    cells_from_types,
    stratum_equation_indices,
    target_indices,
)
from causalprox.errors import FormatError, ZeroMassError
from causalprox.table import JointTable


def cells_per_mass(
    table: JointTable, x_var: str, t_var: str, s_var: str
) -> ObservedCells:
    """Extract cells from a joint table; category order gives the 0/1 coding."""
    if table.mode != "rational":
        raise FormatError("bounds require an exact (rational-mode) table")
    for var in (x_var, t_var, s_var):
        if len(table.categories(var)) != 2:
            raise FormatError(
                f"{var!r} must be dichotomous, has "
                f"{len(table.categories(var))} categories"
            )
    margin = table.marginal([t_var, s_var, x_var])
    x_cats = table.categories(x_var)
    t_cats = table.categories(t_var)
    s_cats = table.categories(s_var)
    x_dist = tuple(margin.mass({x_var: c}) for c in x_cats)
    cond = {}
    for k, x_cat in enumerate(x_cats):
        if x_dist[k] == 0:
            raise ZeroMassError(f"treatment arm {x_cat!r} has zero mass")
        for i, t_cat in enumerate(t_cats):
            for j, s_cat in enumerate(s_cats):
                cond[(i, j, k)] = (
                    margin.mass({t_var: t_cat, s_var: s_cat, x_var: x_cat})
                    / x_dist[k]
                )
    return ObservedCells(cond=cond, x_dist=x_dist, names=(t_var, s_var, x_var))


def cells_via_marginal(
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


def four_terms_verbatim(cells: ObservedCells, convention: str) -> tuple:
    """The four x0 upper and the four x1 lower candidate terms, verbatim.

    The conditional reading takes each cell as it is, and the joint reading
    multiplies it by its arm's probability.
    """
    if convention == "joint-compat" and cells.x_dist is None:
        raise FormatError("the joint-compat reading needs the treatment marginal")
    if convention not in ("conditional", "joint-compat"):
        raise FormatError(f"unknown convention {convention!r}")

    def p(i, j, k):
        value = cells.cond[(i, j, k)]
        return value if convention == "conditional" else value * cells.x_dist[k]

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


def build_program_per_call(
    cells: ObservedCells,
    monotone: bool,
    target: str,
    drop_proxy: Optional[str] = None,
) -> CounterfactualProgram:
    """Assemble normalization plus the eight consistency equations.

    drop_proxy="s" (or "t") marginalizes that proxy out of the constraints:
    only the four cells of the remaining proxy are imposed, which is the
    single-proxy variant.
    """
    if drop_proxy not in (None, "s", "t"):
        raise FormatError(f"drop_proxy must be None, 's' or 't', got {drop_proxy!r}")
    variables = MONOTONE_INDICES if monotone else ALL_INDICES
    one = Fraction(1)
    zero = Fraction(0)

    def row_for(index_set):
        chosen = set(index_set)
        return tuple(one if v in chosen else zero for v in variables)

    equalities = [(tuple([one] * len(variables)), one)]
    for k in (1, 0):  # arm x1 first, matching the order the equations are stated
        for t, s in itertools.product((0, 1), (0, 1)):
            matching = stratum_equation_indices(t, s, k, variables)
            rhs = cells.cond[(t, s, k)]
            equalities.append((row_for(matching), rhs))
    if drop_proxy is not None:
        # replace the eight two-proxy equations with four marginal ones
        marg = []
        for k in (1, 0):
            for v in (0, 1):
                matching = []
                rhs = Fraction(0)
                for other in (0, 1):
                    t, s = (v, other) if drop_proxy == "s" else (other, v)
                    matching.extend(stratum_equation_indices(t, s, k, variables))
                    rhs += cells.cond[(t, s, k)]
                marg.append((row_for(matching), rhs))
        equalities = equalities[:1] + marg
    wanted = set(target_indices(target, variables))
    objective = tuple(one if v in wanted else zero for v in variables)
    return CounterfactualProgram(
        variables=variables,
        equalities=tuple(equalities),
        objective=objective,
        target=target,
        monotone=monotone,
        dropped=drop_proxy,
        cells=cells,
    )


def random_cells(rng):
    """Cells of a sparse monotone or unrestricted type distribution, or two
    arbitrary arms, which the monotone model often cannot produce."""
    kind = rng.randrange(3)
    if kind < 2:
        types = MONOTONE_INDICES if kind == 0 else ALL_INDICES
        weights = [rng.randint(1, 9) if rng.random() < 0.4 else 0 for _ in types]
        weights[rng.randrange(len(types))] += 1
        total = sum(weights)
        return cells_from_types(
            {t: Fraction(w, total) for t, w in zip(types, weights) if w}
        )
    cond = {}
    for k in (0, 1):
        weights = [rng.randint(0, 9) for _ in range(4)]
        weights[rng.randrange(4)] += 1
        for (i, j), w in zip(itertools.product((0, 1), (0, 1)), weights):
            cond[(i, j, k)] = Fraction(w, sum(weights))
    return ObservedCells(cond=cond)


def assert_attaining_support(prog: CounterfactualProgram, res: BoundsResult):
    """Each of res's witnesses is the support of a feasible type distribution
    of prog that attains its endpoint: positive Fraction masses on prog's
    types, summing to 1, meeting every equality row of the program rebuilt
    by build_program_per_call, with the target objective equal to the
    endpoint."""
    ref = build_program_per_call(
        prog.cells, prog.monotone, prog.target, drop_proxy=prog.dropped
    )
    for side, endpoint in (("lower", res.lower), ("upper", res.upper)):
        witness = res.witnesses[side]
        assert set(witness) <= set(ref.variables), side
        assert all(type(m) is Fraction and m > 0 for m in witness.values()), side
        assert sum(witness.values()) == 1, side
        dense = [witness.get(v, Fraction(0)) for v in ref.variables]
        for row, rhs in ref.equalities:
            assert sum(a * x for a, x in zip(row, dense)) == rhs, (side, rhs)
        assert sum(c * x for c, x in zip(ref.objective, dense)) == endpoint, side
