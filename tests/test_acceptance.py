"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each test prints `ACCEPTANCE NN PASS/FAIL: detail` directly to the
terminal (bypassing capture) before asserting, so the full scoreboard is
visible in any pytest run.  Criterion 10 states a claimed property of
single-proxy programs that does not hold for informative proxies; the
test implements the stated check faithfully and is expected to fail.
Under the monotone model a unit whose kept proxy is 1 under x1 and 0
under x0 has Y(x0)=0 and Y(x1)=1, so the single-proxy x1 lower bound is
at least max(0, P(kept=1 | x1) - P(kept=1 | x0)), which is positive for
any informative proxy. See the README section "Tests and acceptance gate".
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from vertex_oracle import vertex_optimum

from causalprox.bounds import (
    MONOTONE_INDICES,
    build_program,
    cells_from_table,
    cells_from_types,
    closed_form_bounds,
    lp_bounds,
    true_target,
)
from causalprox.cli import _auto_design
from causalprox.eigenid import (
    cross_moment_matrices,
    identify_causal_effect,
    identify_joint,
    order_free_bounds,
    recover_factors,
    solve_pencil,
)
from causalprox.graph import build_diagram, d_separated
from causalprox.lp import make_program, solve
from causalprox.fixtures import (
    chain_diagram,
    education_design,
    education_table,
)
from causalprox.synth import generate_latent_model, random_latent_spec

from dsep_oracle import all_dags, path_d_separated, random_mixed_graph

F = Fraction


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {verdict}: {detail}", flush=True)


def random_monotone_dist(rng):
    weights = [rng.randint(0, 20) for _ in MONOTONE_INDICES]
    total = sum(weights)
    while total == 0:
        weights = [rng.randint(0, 20) for _ in MONOTONE_INDICES]
        total = sum(weights)
    return {idx: F(w, total) for idx, w in zip(MONOTONE_INDICES, weights)}


def test_criterion_01_worked_example_pencil_eigenvalues(capsys):
    sm = cross_moment_matrices(education_table(), education_design())
    system = solve_pencil(sm.p, sm.q)
    got = sorted(system.values)
    want = [0.109, 0.533]
    ok = all(abs(g - w) <= 1e-3 for g, w in zip(got, want))
    announce(capsys, 1, ok, f"anchor conditional eigenvalues {got} vs {want} +-1e-3")
    assert ok


def test_criterion_02_worked_example_prior_recovery(capsys):
    sm = cross_moment_matrices(education_table(), education_design())
    factors = recover_factors(solve_pencil(sm.p, sm.q), sm.p)
    got = sorted(factors.prior)
    want = [0.45, 0.55]
    ok = all(abs(g - w) <= 1e-3 for g, w in zip(got, want))
    announce(capsys, 2, ok, f"latent prior diagonal {got} vs {want} +-1e-3 (sorted)")
    assert ok


def test_criterion_03_worked_example_causal_effects(capsys):
    table, graph, design = education_table(), chain_diagram(), education_design()
    got = {}
    for xv in ("x1", "x0"):
        res = identify_causal_effect(table, graph, design, {"X": xv}, "Y")
        got[xv] = res.distribution.prob({"Y": "y1"})
    ok = abs(got["x1"] - 0.8) <= 1e-3 and abs(got["x0"] - 0.3) <= 1e-3
    announce(capsys, 3, ok, f"f(y1|set(x1))={got['x1']:.6f} vs 0.8, "
                    f"f(y1|set(x0))={got['x0']:.6f} vs 0.3, +-1e-3")
    assert ok


def test_criterion_04_worked_example_closed_bounds_joint_reading(capsys):
    cells = cells_from_table(education_table(), "X", "T", "S")
    x0, x1 = closed_form_bounds(cells, convention="joint-compat")
    lower_ok = x1.lower == F(169, 500)  # 0.338 exactly
    upper_ok = min(x0.terms) == F(861, 2500)  # 0.3444 exactly as printed
    ok = lower_ok and upper_ok
    announce(capsys, 4, ok, f"monotone joint-reading lower {x1.lower} == 169/500, "
                    f"printed upper min {min(x0.terms)} == 861/2500")
    assert ok


def test_criterion_05_no_monotonicity_lp_is_trivial(capsys):
    cells = cells_from_table(education_table(), "X", "T", "S")
    intervals = {}
    for target in ("x0", "x1"):
        res = lp_bounds(build_program(cells, monotone=False, target=target))
        intervals[target] = (res.lower, res.upper)
    ok = all(iv == (F(0), F(1)) for iv in intervals.values())
    announce(capsys, 5, ok, f"unrestricted LP intervals {intervals} == [0, 1] exactly")
    assert ok


def test_criterion_06_round_trip_identification_property(capsys):
    rng = random.Random(20260819)
    models = 0
    worst_tv = 0.0
    failures = 0
    for _ in range(1000):
        k = rng.choice([2, 3, 4, 5, 6, 7, 8])
        strata = rng.choice([None, None, 2, 3])
        spec = random_latent_spec(rng, k=k, n_strata=strata)
        truth, obs = generate_latent_model(spec)
        latent_vars = [spec.latent_name, spec.w_name] + (
            [spec.z_name] if spec.z_name else []
        )
        want = truth.marginal(latent_vars)
        try:
            recon = identify_joint(obs, _auto_design(spec))
        except Exception:
            failures += 1
            continue
        tv = 0.0
        axes = [want.categories(v) for v in want.variables]
        for combo in itertools.product(*axes):
            assign = dict(zip(want.variables, combo))
            tv += abs(float(want.prob(assign)) - recon.table.prob(assign))
        tv /= 2
        worst_tv = max(worst_tv, tv)
        if tv > 1e-8:
            failures += 1
        models += 1
    ok = failures == 0 and models >= 1000
    announce(capsys, 6, ok, f"{models} seeded models k in 2..8, worst total "
                    f"variation {worst_tv:.2e} <= 1e-8, {failures} failures")
    assert ok


def test_criterion_07_lp_validity_and_sharpness_property(capsys):
    rng = random.Random(31)
    models = 0
    violations = 0
    for _ in range(1000):
        q = random_monotone_dist(rng)
        cells = cells_from_types(q)
        for target in ("x0", "x1"):
            res = lp_bounds(build_program(cells, monotone=True, target=target))
            truth = true_target(q, target)
            if not res.lower <= truth <= res.upper:
                violations += 1
            for side, value in (("lower", res.lower), ("upper", res.upper)):
                wit = res.witnesses[side]
                if cells_from_types(wit).cond != cells.cond:
                    violations += 1
                if true_target(wit, target) != value:
                    violations += 1
        models += 1
    ok = violations == 0 and models >= 1000
    announce(capsys, 7, ok, f"{models} monotone models: exact containment and "
                    f"witness attainment, {violations} violations")
    assert ok


def test_criterion_08_solver_matches_vertex_enumeration(capsys):
    rng = random.Random(42)
    checked = 0
    disagreements = 0
    # unstructured random programs
    for trial in range(300):
        n = rng.randint(2, 6)
        rows = rng.randint(1, min(4, n))
        point = [F(rng.randint(0, 4)) for _ in range(n)]
        eqs = []
        for _ in range(rows):
            a = [F(rng.randint(-3, 3)) for _ in range(n)]
            b = F(rng.randint(-6, 6)) if trial % 3 == 0 else sum(
                x * y for x, y in zip(a, point)
            )
            eqs.append((tuple(a), b))
        obj = tuple(F(rng.randint(-5, 5)) for _ in range(n))
        for sense in ("min", "max"):
            res = solve(make_program(n=n, equalities=eqs, objective=obj,
                                     sense=sense))
            vo = vertex_optimum(eqs, n, obj, sense)
            if res.status == "optimal" and (vo is None or vo[0] != res.value):
                disagreements += 1
            if res.status == "infeasible" and vo is not None:
                disagreements += 1
            checked += 1
    # structured single-proxy programs from random monotone instances
    for _ in range(20):
        q = random_monotone_dist(rng)
        cells = cells_from_types(q)
        for target, drop in (("x0", "s"), ("x1", "t")):
            prog = build_program(cells, monotone=True, target=target,
                                 drop_proxy=drop)
            res = lp_bounds(prog)
            n = len(prog.variables)
            lo = vertex_optimum(prog.equalities, n, prog.objective, "min")
            hi = vertex_optimum(prog.equalities, n, prog.objective, "max")
            if lo is None or hi is None or (lo[0], hi[0]) != (res.lower, res.upper):
                disagreements += 1
            checked += 2
    ok = disagreements == 0
    announce(capsys, 8, ok, f"{checked} solver-vs-enumeration comparisons, "
                    f"{disagreements} disagreements")
    assert ok


def test_criterion_09_d_separation_against_path_oracle(capsys):
    cases = 0
    disagreements = 0
    # exhaustive: every DAG on up to 4 vertices, every query
    for n in (2, 3, 4):
        labels = [f"v{i}" for i in range(n)]
        for directed in all_dags(labels):
            g = build_diagram(labels, directed=directed)
            for a, b in itertools.permutations(labels, 2):
                if a > b:
                    continue
                rest = [v for v in labels if v not in (a, b)]
                for r in range(len(rest) + 1):
                    for cond in itertools.combinations(rest, r):
                        got = d_separated(g, a, b, cond)
                        want = path_d_separated(
                            labels, directed, (), a, b, cond
                        )
                        if got != want:
                            disagreements += 1
                        cases += 1
    # randomized: larger mixed graphs
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(5, 8)
        labels, directed, bidirected = random_mixed_graph(rng, n)
        g = build_diagram(labels, directed=directed, bidirected=bidirected)
        for _ in range(8):
            a, b = rng.sample(labels, 2)
            rest = [v for v in labels if v not in (a, b)]
            cond = tuple(
                v for v in rest if rng.random() < 0.4
            )
            got = d_separated(g, a, b, cond)
            want = path_d_separated(labels, directed, bidirected, a, b, cond)
            if got != want:
                disagreements += 1
            cases += 1
    ok = disagreements == 0 and cases >= 10000
    announce(capsys, 9, ok, f"{cases} d-separation queries (exhaustive <=4 vertices "
                    f"plus random 5-8), {disagreements} disagreements")
    assert ok


def test_criterion_10_single_proxy_programs_claimed_trivial(capsys):
    # Stated property: dropping either proxy from the monotone program
    # leaves the trivial interval [0, 1] on random instances.  A faithful
    # check refutes this: an informative remaining proxy tightens the
    # bounds (e.g. mass on the type that follows the arm forces a positive
    # lower bound), so this criterion is expected to fail.
    rng = random.Random(77)
    checked = 0
    nontrivial = 0
    example = None
    for _ in range(100):
        q = random_monotone_dist(rng)
        cells = cells_from_types(q)
        for drop in ("s", "t"):
            for target in ("x0", "x1"):
                prog = build_program(cells, monotone=True, target=target,
                                     drop_proxy=drop)
                res = lp_bounds(prog)
                checked += 1
                if (res.lower, res.upper) != (F(0), F(1)):
                    nontrivial += 1
                    if example is None:
                        example = (drop, target, res.lower, res.upper)
    ok = nontrivial == 0 and checked >= 100
    detail = (f"{checked} single-proxy monotone programs, {nontrivial} "
              f"returned an interval other than [0, 1]")
    if example:
        drop, target, lo, hi = example
        detail += (f"; e.g. drop {drop}, target {target}: "
                   f"[{lo}, {hi}]")
    announce(capsys, 10, ok, detail)
    assert ok


def test_criterion_11_order_free_bounds(capsys):
    table, design = education_table(), education_design()
    res = order_free_bounds(table, design, {"X": "x1"})
    worked_ok = abs(res.lower - 0.2) <= 1e-6 and abs(res.upper - 0.8) <= 1e-6
    rng = random.Random(505)
    contained = True
    models = 0
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        spec = random_latent_spec(rng, k=k)
        _, obs = generate_latent_model(spec)
        design_s = _auto_design(spec)
        recon = identify_joint(obs, design_s)
        w_sel = spec.w_categories[1]
        interval = order_free_bounds(obs, design_s, {spec.w_name: w_sel})
        cond = recon.table.condition({spec.w_name: w_sel})
        # the identified effect under any admissible labeling is the
        # conditional of one latent category; all must lie inside
        for u in spec.latent_categories:
            value = cond.mass({spec.latent_name: u})
            if not interval.lower - 1e-9 <= value <= interval.upper + 1e-9:
                contained = False
        models += 1
    ok = worked_ok and contained and models >= 60
    announce(capsys, 11, ok, f"worked-example interval [{res.lower:.6f}, "
                     f"{res.upper:.6f}] vs [0.2, 0.8] +-1e-6; labeling "
                     f"containment on {models} synthetic models: {contained}")
    assert ok
