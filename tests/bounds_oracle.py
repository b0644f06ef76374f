"""Per-call bounds code, kept for the test suite.

causalprox.bounds now builds each program's variables, coefficient rows
and objective once per shape and reads the treatment-proxy marginal's
integer numerators in one pass.  The functions below are the code they
replaced, unchanged apart from their names: `build_program_per_call`
rebuilds every row and the objective from the response map on each call,
and `cells_per_mass` reads every cell with one `mass` lookup and a
division.  Tests require the package's results to equal theirs with `==`.
"""

import itertools
from fractions import Fraction
from typing import Optional

from causalprox.bounds import (
    ALL_INDICES,
    MONOTONE_INDICES,
    CounterfactualProgram,
    ObservedCells,
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
