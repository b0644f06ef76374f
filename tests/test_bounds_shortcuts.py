"""lp_bounds without a simplex, on every program shape.

Unrestricted programs are answered with [0, 1] and two product witnesses,
monotone cells that break a stochastic-order condition are rejected, and
every other monotone program is answered in closed form with greedy
coupling witnesses.  These tests hold each answer to the Fraction simplex
(tests/simplex_oracle.py) and to the per-call program
(tests/bounds_oracle.py), and check that every witness is a support.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from bounds_oracle import assert_attaining_support, random_cells
from simplex_oracle import oracle_solve, program_lp

from causalprox import (
    InfeasibleError,
    ObservedCells,
    build_program,
    certify_against_lp,
    lp_bounds,
)

DROPS = (None, "s", "t")
TARGETS = ("x0", "x1")
MESSAGE = "observed cells are inconsistent with the monotone response-type model"


def arms(x0, x1):
    """Cells from two arms of integer weights over (t, s) = 00, 01, 10, 11."""
    weights = (x0, x1)
    return ObservedCells(cond={
        (t, s, k): F(weights[k][2 * t + s], sum(weights[k]))
        for t, s, k in itertools.product((0, 1), (0, 1), (0, 1))
    })


def order_conditions(cells):
    """The four two-proxy conditions as booleans, written out one by one:
    p(00|x1) <= p(00|x0), P(T=0|x1) <= P(T=0|x0), P(S=0|x1) <= P(S=0|x0)
    and p(11|x1) >= p(11|x0)."""
    p = cells.cond
    return (
        p[(0, 0, 1)] <= p[(0, 0, 0)],
        p[(0, 0, 1)] + p[(0, 1, 1)] <= p[(0, 0, 0)] + p[(0, 1, 0)],
        p[(0, 0, 1)] + p[(1, 0, 1)] <= p[(0, 0, 0)] + p[(1, 0, 0)],
        p[(1, 1, 1)] >= p[(1, 1, 0)],
    )


def breaks_order(cells, drop):
    """True when cells break a condition of the kept proxies: any of the
    four with two proxies, P(T=0|x1) <= P(T=0|x0) keeping T (drop s) and
    P(S=0|x1) <= P(S=0|x0) keeping S (drop t)."""
    kept = {None: (0, 1, 2, 3), "s": (1,), "t": (2,)}[drop]
    holds = order_conditions(cells)
    return not all(holds[n] for n in kept)


def test_unrestricted_shapes_need_no_simplex():
    """Seeded random cells plus two arbitrary pairs of arms, one with zero
    cells in both arms."""
    rng = random.Random(2001)
    extra = [arms((2, 3, 3, 2), (3, 1, 1, 5)), arms((0, 5, 0, 5), (7, 0, 3, 0))]
    for cells in [random_cells(rng) for _ in range(12)] + extra:
        for drop, target in itertools.product(DROPS, TARGETS):
            prog = build_program(cells, False, target, drop_proxy=drop)
            res = lp_bounds(prog)
            want = [oracle_solve(program_lp(prog, sense)) for sense in ("min", "max")]
            assert (res.lower, res.upper) == tuple(w.value for w in want)
            assert (res.lower, res.upper) == (0, 1)
            assert_attaining_support(prog, res)


def test_pretest_is_sound_on_every_monotone_shape():
    """The order test is exact: a rejection means the Fraction simplex finds
    the program infeasible, and a pass means it is feasible, with the
    simplex's optimal values and attaining witnesses."""
    rng = random.Random(2002)
    outcomes = {"rejected": 0, "passed": 0}
    for _ in range(30):
        cells = random_cells(rng)
        for drop, target in itertools.product(DROPS, TARGETS):
            prog = build_program(cells, True, target, drop_proxy=drop)
            lower, upper = (oracle_solve(program_lp(prog, s)) for s in ("min", "max"))
            if breaks_order(cells, drop):
                assert lower.status == upper.status == "infeasible"
                with pytest.raises(InfeasibleError, match=f"^{MESSAGE}$"):
                    lp_bounds(prog)
                outcomes["rejected"] += 1
                continue
            outcomes["passed"] += 1
            assert lower.status == upper.status == "optimal"
            res = lp_bounds(prog)
            assert (res.lower, res.upper) == (lower.value, upper.value)
            assert_attaining_support(prog, res)
    assert min(outcomes.values()) > 20


# Two arms over (00, 01, 10, 11), each pair breaking exactly one of the
# four two-proxy conditions, in order_conditions' order.
X0 = (2, 3, 3, 2)
ONE_BROKEN = {
    "p00": (X0, (3, 1, 1, 5)),
    "T=0": (X0, (2, 4, 1, 3)),
    "S=0": (X0, (2, 1, 4, 3)),
    "p11": (X0, (1, 4, 4, 1)),
}
# the down-set of (t, s) values each condition is about, and the masses
# P(L|x1) > P(L|x0) that break it
BROKEN_DOWN_SETS = {
    "p00": (((0, 0),), F(3, 10), F(2, 10)),
    "T=0": (((0, 0), (0, 1)), F(6, 10), F(5, 10)),
    "S=0": (((0, 0), (1, 0)), F(6, 10), F(5, 10)),
    "p11": (((0, 0), (0, 1), (1, 0)), F(9, 10), F(8, 10)),
}


@pytest.mark.parametrize("broken", range(4), ids=list(ONE_BROKEN))
def test_each_two_proxy_condition_rejects_alone(broken):
    """The error carries the broken condition's down-set and its masses."""
    cells = arms(*list(ONE_BROKEN.values())[broken])
    assert order_conditions(cells) == tuple(i != broken for i in range(4))
    down_set, measured, threshold = list(BROKEN_DOWN_SETS.values())[broken]
    for target in TARGETS:
        prog = build_program(cells, True, target)
        assert oracle_solve(program_lp(prog, "min")).status == "infeasible"
        with pytest.raises(InfeasibleError, match=f"^{MESSAGE}$") as exc:
            lp_bounds(prog)
        got = exc.value
        assert set(got.down_set) == set(down_set)
        assert (got.measured, got.threshold) == (measured, threshold)


@pytest.mark.parametrize("drop, broken", [("s", "T=0"), ("t", "S=0")])
def test_one_proxy_condition_rejects(drop, broken):
    """Keeping T (drop s), P(T=0|x1) > P(T=0|x0) is infeasible; keeping S,
    P(S=0|x1) > P(S=0|x0) is.  The other proxy's program is then feasible."""
    cells = arms(*ONE_BROKEN[broken])
    for target in TARGETS:
        prog = build_program(cells, True, target, drop_proxy=drop)
        assert oracle_solve(program_lp(prog, "min")).status == "infeasible"
        with pytest.raises(InfeasibleError, match=f"^{MESSAGE}$"):
            lp_bounds(prog)
        other = build_program(cells, True, target, drop_proxy="t" if drop == "s" else "s")
        assert oracle_solve(program_lp(other, "min")).status == "optimal"
        assert_attaining_support(other, lp_bounds(other))


def test_no_witness_holds_a_zero_mass():
    rng = random.Random(2003)
    seen = 0
    for _ in range(30):
        cells = random_cells(rng)
        results = []
        for monotone, drop, target in itertools.product((True, False), DROPS, TARGETS):
            try:
                results.append(lp_bounds(build_program(cells, monotone, target, drop)))
            except InfeasibleError:
                pass
        for monotone in (True, False):
            results += [r for r in certify_against_lp(cells, monotone).lp.values() if r]
        for res in results:
            for witness in res.witnesses.values():
                assert witness and all(m > 0 for m in witness.values())
                seen += 1
    assert seen > 500


@pytest.mark.slow
def test_shortcuts_wide_sweep():
    """3000 cell sets on all twelve shapes against the Fraction simplex."""
    rng = random.Random(2004)
    rejected = 0
    for _ in range(3000):
        cells = random_cells(rng)
        for monotone, drop, target in itertools.product((True, False), DROPS, TARGETS):
            prog = build_program(cells, monotone, target, drop_proxy=drop)
            lower, upper = (oracle_solve(program_lp(prog, s)) for s in ("min", "max"))
            if lower.status == "infeasible":
                assert monotone
                with pytest.raises(InfeasibleError, match=f"^{MESSAGE}$"):
                    lp_bounds(prog)
                rejected += 1
                continue
            res = lp_bounds(prog)
            assert (res.lower, res.upper) == (lower.value, upper.value)
            assert_attaining_support(prog, res)
    assert rejected > 1000
