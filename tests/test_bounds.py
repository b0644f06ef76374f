"""Tests for partial identification under proxy-only outcome observation.

The worked-example goldens (intervals, candidate terms, infeasibility) are
frozen from hand evaluation of the four-term expressions and from the exact
LP over response-type distributions; the consistency-equation index sets
are frozen literally and checked term for term against the code.
"""

import dataclasses
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from vertex_oracle import enumerate_vertices, vertex_optimum

from causalprox.bounds import (
    ALL_INDICES,
    DECREASING,
    MONOTONE_INDICES,
    TYPE_PAIRS,
    BoundsResult,
    ObservedCells,
    build_program,
    cells_from_table,
    cells_from_types,
    certify_against_lp,
    closed_form_bounds,
    lp_bounds,
    response,
    stratified_bounds,
    stratum_equation_indices,
    target_indices,
    true_target,
)
from causalprox.errors import (
    FormatError,
    InfeasibleError,
    SpecError,
    ZeroMassError,
)
from causalprox.fixtures import education_table


def worked_cells() -> ObservedCells:
    return cells_from_table(education_table(), "X", "T", "S")


#: frozen conditional cells of the worked example, keyed (t, s, arm)
WORKED_COND = {
    (0, 0, 0): F(1862, 7000),
    (0, 1, 0): F(2478, 7000),
    (1, 0, 0): F(1568, 7000),
    (1, 1, 0): F(1092, 7000),
    (0, 0, 1): F(528, 3000),
    (0, 1, 1): F(432, 3000),
    (1, 0, 1): F(1392, 3000),
    (1, 1, 1): F(648, 3000),
}

#: each consistency equation as two disjoint blocks of index products,
#: (i values, j values, k values) per block, frozen by hand: the first
#: block collects types whose outcome response is 0 under the arm, the
#: second those whose response is 1
EQUATION_BLOCKS = {
    (0, 0, 1): (({0, 1}, {0, 1}, {0, 2}), ({0, 2}, {0, 2}, {1, 3})),
    (0, 1, 1): (({0, 1}, {2, 3}, {0, 2}), ({0, 2}, {1, 3}, {1, 3})),
    (1, 0, 1): (({2, 3}, {0, 1}, {0, 2}), ({1, 3}, {0, 2}, {1, 3})),
    (1, 1, 1): (({2, 3}, {2, 3}, {0, 2}), ({1, 3}, {1, 3}, {1, 3})),
    (0, 0, 0): (({0, 1}, {0, 1}, {0, 1}), ({0, 2}, {0, 2}, {2, 3})),
    (0, 1, 0): (({0, 1}, {2, 3}, {0, 1}), ({0, 2}, {1, 3}, {2, 3})),
    (1, 0, 0): (({2, 3}, {0, 1}, {0, 1}), ({1, 3}, {0, 2}, {2, 3})),
    (1, 1, 0): (({2, 3}, {2, 3}, {0, 1}), ({1, 3}, {1, 3}, {2, 3})),
}


def random_type_dist(rng, indices, spread=20):
    weights = [rng.randint(0, spread) for _ in indices]
    total = sum(weights)
    while total == 0:
        weights = [rng.randint(0, spread) for _ in indices]
        total = sum(weights)
    return {idx: F(w, total) for idx, w in zip(indices, weights)}


# ---------------------------------------------------------------------------
# Response-type semantics


def test_type_space_and_monotone_restriction():
    assert TYPE_PAIRS == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert TYPE_PAIRS[DECREASING] == (1, 0)
    assert len(ALL_INDICES) == 64
    assert len(MONOTONE_INDICES) == 27
    assert all(DECREASING not in idx for idx in MONOTONE_INDICES)
    assert set(MONOTONE_INDICES) == {
        idx for idx in ALL_INDICES if DECREASING not in idx
    }


def test_response_hand_cases():
    # always-zero everywhere: observed (0, 0) under both arms
    assert response((0, 0, 0), 0) == (0, 0)
    assert response((0, 0, 0), 1) == (0, 0)
    # outcome follows the arm, both proxies follow the outcome
    assert response((1, 1, 1), 0) == (0, 0)
    assert response((1, 1, 1), 1) == (1, 1)
    # decreasing outcome with faithful proxies
    assert response((1, 1, 2), 0) == (1, 1)
    assert response((1, 1, 2), 1) == (0, 0)
    # t inverted, s always-one, outcome always-one
    assert response((2, 3, 3), 0) == (0, 1)
    assert response((2, 3, 3), 1) == (0, 1)


def test_target_indices_by_arm():
    assert set(target_indices("x1")) == {
        idx for idx in ALL_INDICES if idx[2] in (1, 3)
    }
    assert set(target_indices("x0")) == {
        idx for idx in ALL_INDICES if idx[2] in (2, 3)
    }
    restricted = target_indices("x0", MONOTONE_INDICES)
    assert set(restricted) == {
        idx for idx in MONOTONE_INDICES if idx[2] == 3
    }
    with pytest.raises(FormatError):
        target_indices("x2")


def test_consistency_equation_index_sets_frozen():
    for (t, s, x), (block_a, block_b) in EQUATION_BLOCKS.items():
        expand = lambda blk: set(itertools.product(*blk))
        a, b = expand(block_a), expand(block_b)
        assert not a & b
        assert set(stratum_equation_indices(t, s, x)) == a | b


def test_equations_partition_the_type_space():
    for variables in (ALL_INDICES, MONOTONE_INDICES):
        for x in (0, 1):
            seen = []
            for t, s in itertools.product((0, 1), (0, 1)):
                seen.extend(stratum_equation_indices(t, s, x, variables))
            assert sorted(seen) == sorted(variables)


# ---------------------------------------------------------------------------
# Program construction


def test_build_program_rows_match_frozen_sets():
    cells = worked_cells()
    for monotone in (False, True):
        variables = MONOTONE_INDICES if monotone else ALL_INDICES
        prog = build_program(cells, monotone=monotone, target="x1")
        assert prog.variables == variables
        norm_row, norm_rhs = prog.equalities[0]
        assert set(norm_row) == {F(1)} and norm_rhs == F(1)
        expected_order = [
            (t, s, k) for k in (1, 0) for t, s in itertools.product((0, 1), (0, 1))
        ]
        assert len(prog.equalities) == 9
        for (row, rhs), (t, s, k) in zip(prog.equalities[1:], expected_order):
            support = {v for v, c in zip(variables, row) if c != 0}
            assert support == set(stratum_equation_indices(t, s, k, variables))
            assert all(c in (F(0), F(1)) for c in row)
            assert rhs == WORKED_COND[(t, s, k)]
        wanted = set(target_indices("x1", variables))
        assert {
            v for v, c in zip(variables, prog.objective) if c == 1
        } == wanted


def test_build_program_single_proxy_marginalization():
    cells = worked_cells()
    prog = build_program(cells, monotone=True, target="x0", drop_proxy="s")
    assert prog.dropped == "s"
    assert len(prog.equalities) == 5  # normalization + four t-margin cells
    # each marginal row merges the two s cells of one (t, arm) pair
    merged = []
    for k in (1, 0):
        for t in (0, 1):
            support = set()
            rhs = F(0)
            for s in (0, 1):
                support |= set(
                    stratum_equation_indices(t, s, k, MONOTONE_INDICES)
                )
                rhs += WORKED_COND[(t, s, k)]
            merged.append((support, rhs))
    for (row, rhs), (support, want_rhs) in zip(prog.equalities[1:], merged):
        got = {v for v, c in zip(MONOTONE_INDICES, row) if c != 0}
        assert got == support
        assert rhs == want_rhs
    with pytest.raises(FormatError):
        build_program(cells, monotone=True, target="x0", drop_proxy="q")


# ---------------------------------------------------------------------------
# Worked-example goldens


def test_worked_example_cells_frozen():
    cells = worked_cells()
    assert cells.x_dist == (F(7, 10), F(3, 10))
    assert cells.names == ("T", "S", "X")
    assert cells.cond == WORKED_COND


def test_closed_form_conditional_golden():
    x0, x1 = closed_form_bounds(worked_cells(), convention="conditional")
    assert x0.terms == (F(91, 100), F(23, 20), F(7, 10), F(47, 50))
    assert (x0.lower, x0.upper) == (F(0), F(7, 10))
    assert x1.terms == (F(9, 100), F(3, 50), F(-3, 20), F(3, 10))
    assert (x1.lower, x1.upper) == (F(3, 10), F(1))
    for r in (x0, x1):
        assert r.method == "closed-form"
        assert r.convention == "conditional"
        assert r.applicable


def test_closed_form_joint_compat_golden():
    x0, x1 = closed_form_bounds(worked_cells(), convention="joint-compat")
    assert x0.terms == (F(2833, 5000), F(549, 1000), F(181, 500), F(861, 2500))
    assert x0.upper == F(861, 2500)
    assert x1.terms == (F(667, 5000), F(-111, 2500), F(151, 1000), F(169, 500))
    assert x1.lower == F(169, 500)
    assert float(x1.lower) == 0.338
    assert float(x0.upper) == 0.3444


def test_joint_compat_requires_treatment_marginal():
    q = {idx: F(1, 27) for idx in MONOTONE_INDICES}
    cells = cells_from_types(q)  # no x_dist given
    x0, x1 = closed_form_bounds(cells, convention="conditional")
    assert x1.terms[0] == cells.cond[(0, 0, 0)] - cells.cond[(0, 0, 1)]
    with pytest.raises(FormatError, match="needs the treatment marginal"):
        closed_form_bounds(cells, convention="joint-compat")
    with pytest.raises(FormatError, match="unknown convention"):
        closed_form_bounds(cells, convention="no-such-reading")


def test_worked_example_unrestricted_lp_is_trivial():
    cells = worked_cells()
    for target in ("x0", "x1"):
        result = lp_bounds(build_program(cells, monotone=False, target=target))
        assert (result.lower, result.upper) == (F(0), F(1))
        assert result.method == "lp"
        for side in ("lower", "upper"):
            witness = result.witnesses[side]
            assert sum(witness.values()) == 1
            assert all(v >= 0 for v in witness.values())
            assert cells_from_types(witness).cond == cells.cond
        assert true_target(result.witnesses["lower"], target) == F(0)
        assert true_target(result.witnesses["upper"], target) == F(1)


def test_worked_example_monotone_lp_infeasible():
    cells = worked_cells()
    for target in ("x0", "x1"):
        prog = build_program(cells, monotone=True, target=target)
        with pytest.raises(InfeasibleError, match="monotone"):
            lp_bounds(prog)


def test_worked_example_single_proxy_golden():
    cells = worked_cells()
    keep_t = {
        target: lp_bounds(
            build_program(cells, monotone=True, target=target, drop_proxy="s")
        )
        for target in ("x0", "x1")
    }
    assert (keep_t["x1"].lower, keep_t["x1"].upper) == (F(3, 10), F(1))
    assert (keep_t["x0"].lower, keep_t["x0"].upper) == (F(0), F(7, 10))
    for target in ("x0", "x1"):
        prog = build_program(cells, monotone=True, target=target, drop_proxy="t")
        with pytest.raises(InfeasibleError):
            lp_bounds(prog)
    # without monotonicity even one proxy stays consistent but uninformative
    for drop in ("s", "t"):
        prog = build_program(cells, monotone=False, target="x1", drop_proxy=drop)
        result = lp_bounds(prog)
        assert (result.lower, result.upper) == (F(0), F(1))


def test_single_proxy_lp_matches_vertex_enumeration():
    cells = worked_cells()
    progs = [
        build_program(cells, monotone=True, target=target, drop_proxy="s")
        for target in ("x0", "x1")
    ]
    assert progs[0].equalities == progs[1].equalities  # one polytope
    verts = enumerate_vertices(progs[0].equalities, len(progs[0].variables))
    for prog in progs:
        result = lp_bounds(prog)
        lo = vertex_optimum(verts, prog.objective, "min")
        hi = vertex_optimum(verts, prog.objective, "max")
        assert lo is not None and hi is not None
        assert (lo[0], hi[0]) == (result.lower, result.upper)


# ---------------------------------------------------------------------------
# Forward map and random-instance properties


def test_forward_map_matches_hand_accumulation():
    rng = random.Random(20260819)
    for _ in range(50):
        q = random_type_dist(rng, ALL_INDICES)
        cells = cells_from_types(q, x_dist=(F(2, 5), F(3, 5)))
        manual = {
            (t, s, k): F(0)
            for t, s, k in itertools.product((0, 1), (0, 1), (0, 1))
        }
        for idx, mass in q.items():
            for x in (0, 1):
                t, s = response(idx, x)
                manual[(t, s, x)] += mass
        assert cells.cond == manual
        assert cells.x_dist == (F(2, 5), F(3, 5))
        for target in ("x0", "x1"):
            wanted = set(target_indices(target))
            assert true_target(q, target) == sum(
                (m for idx, m in q.items() if idx in wanted), F(0)
            )
    with pytest.raises(FormatError):
        cells_from_types({(0, 0, 0): F(1, 2)})
    with pytest.raises(FormatError):
        cells_from_types({(0, 0, 0): F(3, 2), (0, 0, 1): F(-1, 2)})


def test_monotone_lp_bounds_contain_truth_and_witnesses_attain():
    rng = random.Random(7)
    for trial in range(40):
        q = random_type_dist(rng, MONOTONE_INDICES)
        cells = cells_from_types(q)
        for target in ("x0", "x1"):
            prog = build_program(cells, monotone=True, target=target)
            result = lp_bounds(prog)
            truth = true_target(q, target)
            assert result.lower <= truth <= result.upper
            for side, value in (("lower", result.lower), ("upper", result.upper)):
                witness = result.witnesses[side]
                assert cells_from_types(witness).cond == cells.cond
                assert true_target(witness, target) == value


def test_closed_form_contains_lp_on_feasible_instances():
    rng = random.Random(8)
    for trial in range(25):
        q = random_type_dist(rng, MONOTONE_INDICES)
        cells = cells_from_types(q)
        x0_closed, x1_closed = closed_form_bounds(cells, convention="conditional")
        x0_lp = lp_bounds(build_program(cells, monotone=True, target="x0"))
        x1_lp = lp_bounds(build_program(cells, monotone=True, target="x1"))
        assert x0_closed.upper >= x0_lp.upper
        assert x1_closed.lower <= x1_lp.lower
        report = certify_against_lp(cells, monotone=True)
        assert report.lp_status == "optimal"
        assert report.authoritative == "lp"
        for target in ("x0", "x1"):
            d_lower, d_upper = report.deltas[target]
            assert d_lower <= 0 <= d_upper


def test_certification_report_on_infeasible_input():
    report = certify_against_lp(worked_cells(), monotone=True)
    assert report.lp_status == "infeasible"
    assert report.lp == {"x0": None, "x1": None}
    assert report.deltas == {"x0": None, "x1": None}
    assert report.closed["x1"].lower == F(3, 10)
    assert report.closed["x0"].upper == F(7, 10)
    assert report.closed["x1"].applicable


def test_certification_report_without_monotonicity():
    report = certify_against_lp(worked_cells(), monotone=False)
    assert report.lp_status == "optimal"
    for target in ("x0", "x1"):
        assert (report.lp[target].lower, report.lp[target].upper) == (F(0), F(1))
        assert not report.closed[target].applicable
        assert report.deltas[target] is None


# ---------------------------------------------------------------------------
# Stratified aggregation


def test_stratified_single_stratum_matches_closed_form():
    rng = random.Random(9)
    q = random_type_dist(rng, MONOTONE_INDICES)
    cells = cells_from_types(q)
    x0_c, x1_c = closed_form_bounds(cells, convention="conditional")
    x0_s, x1_s = stratified_bounds([cells], [F(1)])
    assert (x0_s.lower, x0_s.upper) == (x0_c.lower, x0_c.upper)
    assert (x1_s.lower, x1_s.upper) == (x1_c.lower, x1_c.upper)
    assert x0_s.method == "stratified"
    assert x0_s.terms == (x0_c.upper,)
    assert x1_s.terms == (x1_c.lower,)


def test_stratified_weighted_average_of_per_stratum_terms():
    rng = random.Random(10)
    strata = [
        cells_from_types(random_type_dist(rng, MONOTONE_INDICES))
        for _ in range(3)
    ]
    weights = [F(1, 6), F(1, 3), F(1, 2)]
    per = [closed_form_bounds(c, convention="conditional") for c in strata]
    x0_s, x1_s = stratified_bounds(strata, weights)
    want_upper = sum(w * min(x0.terms) for (x0, _), w in zip(per, weights))
    want_lower = sum(w * max(x1.terms) for (_, x1), w in zip(per, weights))
    assert x0_s.upper == min(F(1), max(F(0), want_upper))
    assert x1_s.lower == min(F(1), max(F(0), want_lower))
    assert x0_s.terms == tuple(min(x0.terms) for x0, _ in per)
    assert x1_s.terms == tuple(max(x1.terms) for _, x1 in per)


def test_closed_form_and_stratified_clamp_to_unit_interval():
    cond = {
        (i, j, k): F(0)
        for i, j, k in itertools.product((0, 1), (0, 1), (0, 1))
    }
    cond[(1, 1, 0)] = F(1)
    cond[(0, 0, 1)] = F(1)
    extreme = ObservedCells(cond=cond)
    x0, x1 = closed_form_bounds(extreme, convention="conditional")
    assert x0.terms == (F(2), F(2), F(2), F(2))
    assert x0.upper == F(1)
    assert x1.terms == (F(-1), F(-1), F(-1), F(-1))
    assert x1.lower == F(0)
    x0_s, x1_s = stratified_bounds([extreme, extreme], [F(1, 2), F(1, 2)])
    assert x0_s.upper == F(1)
    assert x1_s.lower == F(0)


def test_stratified_without_monotonicity_is_trivial():
    cells = worked_cells()
    x0, x1 = stratified_bounds([cells], [F(1)], monotone=False)
    for r in (x0, x1):
        assert (r.lower, r.upper) == (F(0), F(1))
        assert not r.applicable
        assert r.method == "stratified"


def test_stratified_validation():
    cells = worked_cells()
    with pytest.raises(FormatError):
        stratified_bounds([cells], [F(1, 2), F(1, 2)])
    with pytest.raises(FormatError):
        stratified_bounds([], [])
    with pytest.raises(FormatError):
        stratified_bounds([cells, cells], [F(3, 2), F(-1, 2)])
    with pytest.raises(ZeroMassError):
        stratified_bounds([cells, cells], [F(1), F(0)])
    with pytest.raises(FormatError):
        stratified_bounds([cells, cells], [F(1, 2), F(1, 3)])
    with pytest.raises(FormatError, match="expected an exact rational, got 0.1"):
        stratified_bounds([cells, cells], [0.1, 0.9])


# ---------------------------------------------------------------------------
# Cell containers


def test_observed_cells_validation():
    good = dict(WORKED_COND)
    with pytest.raises(FormatError, match="missing cell"):
        ObservedCells(cond={k: v for k, v in good.items() if k != (0, 0, 0)})
    bad_type = dict(good)
    bad_type[(0, 0, 0)] = 0.266
    with pytest.raises(FormatError, match="exact rationals"):
        ObservedCells(cond=bad_type)
    negative = dict(good)
    negative[(0, 0, 0)] += F(1, 10)
    negative[(0, 1, 0)] -= F(1, 10) + negative[(0, 1, 0)] + F(1, 100)
    with pytest.raises(FormatError, match=r"^cell \(0, 1, 0\) is negative$"):
        ObservedCells(cond=negative)
    short_sum = dict(good)
    short_sum[(0, 0, 0)] -= F(1, 10)
    with pytest.raises(
        FormatError, match="^cells for arm 0 sum to 9/10, expected exactly 1$"
    ):
        ObservedCells(cond=short_sum)
    extra = dict(good)
    extra[(2, 0, 0)] = F(0)
    with pytest.raises(FormatError, match="exactly eight"):
        ObservedCells(cond=extra)
    with pytest.raises(FormatError):
        ObservedCells(cond=dict(good), x_dist=(F(1, 2),))
    with pytest.raises(FormatError):
        ObservedCells(cond=dict(good), x_dist=(F(1, 2), F(1, 3)))
    with pytest.raises(FormatError):
        ObservedCells(cond=dict(good), x_dist=(F(-1, 2), F(3, 2)))


@pytest.mark.parametrize("x_dist, message", [
    ((F(-1, 2), F(3, 2)), "x_dist must be two nonnegative rationals"),
    ((2, -1), "x_dist must be two nonnegative rationals"),
    ((0.5, 0.5), "x_dist must be two nonnegative rationals"),
    ((F(1, 2), "1/2"), "x_dist must be two nonnegative rationals"),
    ((F(1, 2),), "x_dist must be two nonnegative rationals"),
    ((F(1, 2), F(1, 4), F(1, 4)), "x_dist must be two nonnegative rationals"),
    ((F(1, 2), F(1, 3)), "x_dist must sum to exactly 1"),
    ((F(2, 3), F(2, 3)), "x_dist must sum to exactly 1"),
    ((1, 1), "x_dist must sum to exactly 1"),
    ((F(1, 3), F(2, 3)), None),
    ((0, 1), None),
    ((F(7, 10), F(3, 10)), None),
])
def test_observed_cells_x_dist_messages(x_dist, message):
    """x_dist is checked on integer ratios with the messages of the
    Fraction sum it replaced."""
    if message is None:
        assert ObservedCells(cond=dict(WORKED_COND), x_dist=x_dist).x_dist == x_dist
        return
    with pytest.raises(FormatError, match=f"^{message}$"):
        ObservedCells(cond=dict(WORKED_COND), x_dist=x_dist)


def test_cells_keep_their_own_copy_of_cond():
    """Editing the dict passed in changes neither cond nor any answer; ==,
    repr, replace and pickle see only the three fields."""
    q = {(0, 0, 1): F(1, 3), (1, 1, 3): F(1, 2), (3, 1, 0): F(1, 6)}
    cond = dict(cells_from_types(q).cond)
    kept = dict(cond)
    cells = ObservedCells(cond=cond, x_dist=(F(1, 4), F(3, 4)))

    def answers(c):
        return (
            certify_against_lp(c, True),
            certify_against_lp(c, False),
            closed_form_bounds(c, "joint-compat"),
            [build_program(c, True, t, drop_proxy=d) for t in ("x0", "x1")
             for d in (None, "s", "t")],
        )

    before = answers(cells)
    cond[(0, 0, 0)], cond[(0, 0, 1)] = cond[(0, 0, 1)], cond[(0, 0, 0)]
    del cond[(1, 1, 1)]
    assert cells.cond == kept and cells.cond is not cond
    assert answers(cells) == before
    fresh = ObservedCells(cond=kept, x_dist=(F(1, 4), F(3, 4)))
    assert fresh == cells and answers(fresh) == before
    assert repr(cells) == (
        f"ObservedCells(cond={kept!r}, x_dist={cells.x_dist!r}, names=('T', 'S', 'X'))"
    )
    assert pickle.loads(pickle.dumps(cells)) == cells
    assert answers(pickle.loads(pickle.dumps(cells))) == before
    even = dataclasses.replace(cells, x_dist=(F(1, 2), F(1, 2)))
    assert even.cond == kept
    assert closed_form_bounds(even, "joint-compat") != before[2]
    with pytest.raises(FormatError, match="x_dist must be two nonnegative rationals"):
        dataclasses.replace(cells, x_dist=(0.5, 0.5))


def test_cells_from_table_error_paths():
    with pytest.raises(FormatError, match="rational"):
        cells_from_table(education_table().to_float(), "X", "T", "S")
    from causalprox.table import load_counts

    rows = [
        ("x0", "s0", "t0", 2), ("x0", "s0", "t1", 3),
        ("x0", "s1", "t0", 4), ("x0", "s1", "t1", 1),
        ("x1", "s0", "t0", 0), ("x1", "s0", "t1", 0),
        ("x1", "s1", "t0", 0), ("x1", "s1", "t1", 0),
    ]
    csv = "X,S,T,count\n" + "".join(
        f"{x},{s},{t},{c}\n" for x, s, t, c in rows
    )
    with pytest.raises(ZeroMassError, match="zero mass"):
        cells_from_table(load_counts(csv), "X", "T", "S")
    csv3 = "X,S,T,count\n" + "".join(
        f"x{x},s{s},t{t},1\n"
        for x in (0, 1) for s in (0, 1) for t in (0, 1, 2)
    )
    with pytest.raises(FormatError, match="dichotomous"):
        cells_from_table(load_counts(csv3), "X", "T", "S")


def test_bounds_result_rejects_malformed_interval():
    with pytest.raises(SpecError, match="malformed"):
        BoundsResult(target="x1", lower=F(1), upper=F(0), method="lp")
    with pytest.raises(SpecError):
        BoundsResult(target="x0", lower=F(-1, 10), upper=F(1, 2), method="lp")
    with pytest.raises(SpecError):
        BoundsResult(target="x0", lower=F(1, 2), upper=F(11, 10), method="lp")
