import random
from collections import Counter
from fractions import Fraction

import pytest
from simplex_oracle import oracle_solve
from vertex_oracle import (
    enumerate_vertices,
    program_from_json,
    program_to_json,
    vertex_optimum,
)

from causalprox import (
    FormatError,
    InfeasibleError,
    LinearProgram,
    ObservedCells,
    SizeError,
    make_program,
    solve,
)
from causalprox.bounds import (
    ALL_INDICES,
    MONOTONE_INDICES,
    build_program,
    cells_from_types,
    lp_bounds,
)

F = Fraction


def test_two_variable_interval():
    lp_min = make_program(
        n=2, equalities=[((1, 1), 1)], objective=(1, 0), sense="min"
    )
    res = solve(lp_min)
    assert res.status == "optimal"
    assert res.value == 0
    assert res.witness == (F(0), F(1))
    lp_max = make_program(
        n=2, equalities=[((1, 1), 1)], objective=(1, 0), sense="max"
    )
    res = solve(lp_max)
    assert res.value == 1
    assert res.witness == (F(1), F(0))


def test_exact_rational_objective():
    lp = make_program(
        n=3,
        equalities=[((1, 1, 1), 1), ((1, -1, 0), F(1, 3))],
        objective=(F(1, 2), F(1, 5), F(1, 7)),
        sense="min",
    )
    res = solve(lp)
    assert res.status == "optimal"
    val = sum(c * w for c, w in zip(lp.objective, res.witness))
    assert val == res.value
    assert sum(res.witness) == 1
    assert res.witness[0] - res.witness[1] == F(1, 3)


def test_infeasible_and_unbounded_statuses():
    bad = make_program(n=2, equalities=[((1, 1), -1)], objective=(1, 0), sense="min")
    res = solve(bad)
    assert res.status == "infeasible"
    assert res.value is None and res.witness is None

    free = make_program(n=2, equalities=[((1, -1), 0)], objective=(-1, 0), sense="min")
    res = solve(free)
    assert res.status == "unbounded"


def test_zero_rows_and_redundant_rows():
    lp = make_program(
        n=2,
        equalities=[((1, 1), 1), ((2, 2), 2), ((0, 0), 0)],
        objective=(0, 1),
        sense="max",
    )
    res = solve(lp)
    assert res.status == "optimal" and res.value == 1
    contradictory = make_program(
        n=2, equalities=[((0, 0), 1)], objective=(0, 1), sense="max"
    )
    assert solve(contradictory).status == "infeasible"


def test_solve_is_deterministic():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 7)
        rows = rng.randint(1, min(5, n))
        point = [F(rng.randint(0, 3)) for _ in range(n)]
        eqs = []
        for _ in range(rows):
            a = [F(rng.randint(-3, 3)) for _ in range(n)]
            eqs.append((tuple(a), sum(x * y for x, y in zip(a, point))))
        obj = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        lp = make_program(n=n, equalities=eqs, objective=obj, sense="min")
        first = solve(lp)
        for _ in range(3):
            again = solve(lp)
            assert again.status == first.status
            assert again.value == first.value
            assert again.witness == first.witness


def test_solve_agrees_with_vertex_enumeration_randomized():
    rng = random.Random(20250301)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(250):
        n = rng.randint(2, 6)
        rows = rng.randint(1, min(4, n))
        point = [F(rng.randint(0, 4)) for _ in range(n)]
        eqs = []
        for _ in range(rows):
            a = [F(rng.randint(-3, 3)) for _ in range(n)]
            if trial % 3 == 0:
                b = F(rng.randint(-6, 6))  # may be infeasible
            else:
                b = sum(x * y for x, y in zip(a, point))
            eqs.append((tuple(a), b))
        obj = tuple(F(rng.randint(-5, 5)) for _ in range(n))
        for sense in ("min", "max"):
            lp = make_program(n=n, equalities=eqs, objective=obj, sense=sense)
            res = solve(lp)
            vo = vertex_optimum(eqs, n, obj, sense)
            statuses[res.status] += 1
            if res.status == "optimal":
                assert vo is not None and vo[0] == res.value
            elif res.status == "infeasible":
                assert vo is None
            else:
                assert vo is not None  # finite vertex optimum, unbounded ray
    assert statuses["optimal"] > 100
    assert statuses["infeasible"] > 20


def test_witness_is_an_enumerated_vertex():
    eqs = [((1, 1, 1, 0), 2), ((0, 1, -1, 1), 0)]
    lp = make_program(n=4, equalities=eqs, objective=(3, 1, 4, 1), sense="min")
    res = solve(lp)
    verts = enumerate_vertices(eqs, 4)
    assert res.witness in verts


def test_enumerate_vertices_guards():
    with pytest.raises(SizeError):
        enumerate_vertices([((1,) * 65, 1)], 65)
    eqs = [((1,) * 12, i) for i in range(13)]
    with pytest.raises(SizeError):
        enumerate_vertices(eqs, 12)
    # combinatorial cap: rank 6 over 40 variables gives C(40,6) > 2e6 bases
    wide = [(tuple(1 if i == j else 0 for i in range(40)), 1) for j in range(6)]
    with pytest.raises(SizeError):
        enumerate_vertices(wide, 40)


def test_enumerate_vertices_simplex_face():
    verts = enumerate_vertices([((1, 1, 1), 1)], 3)
    assert sorted(verts) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]
    assert enumerate_vertices([((1, 1), -2)], 2) == []


def test_program_validation():
    with pytest.raises(FormatError):
        make_program(n=0, equalities=[], objective=(), sense="min")
    with pytest.raises(FormatError):
        make_program(n=2, equalities=[((1,), 1)], objective=(1, 0), sense="min")
    with pytest.raises(FormatError):
        make_program(n=2, equalities=[((1, 1), 1)], objective=(1, 0), sense="best")
    with pytest.raises(FormatError):
        make_program(n=2, equalities=[((1, 1), 1)], objective=(1,), sense="min")


def test_program_json_round_trip():
    lp = make_program(
        n=3,
        equalities=[((F(1, 3), 1, 0), F(5, 6))],
        objective=(1, F(-2, 7), 0),
        sense="max",
    )
    payload = program_to_json(lp)
    assert payload["sense"] == "max"
    back = program_from_json(payload)
    assert back == lp
    assert solve(back).value == solve(lp).value
    with pytest.raises(FormatError):
        program_from_json({"n": 2, "eq": [], "sense": "min"})
    with pytest.raises(FormatError):
        program_from_json({"n": 2, "eq": [{"a": [1], "b": "1"}], "obj": [1, 0], "sense": "min"})


def test_immutable_program():
    lp = make_program(n=2, equalities=[((1, 1), 1)], objective=(1, 0), sense="min")
    with pytest.raises(Exception):
        lp.sense = "max"
    assert isinstance(lp, LinearProgram)


@pytest.mark.slow
def test_full_monotone_program_vertex_cross_check():
    from causalprox.bounds import MONOTONE_INDICES, build_program, cells_from_types

    rng = random.Random(3)
    cuts = sorted(rng.sample(range(1, 1000), len(MONOTONE_INDICES) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
    q = {idx: F(p, 1000) for idx, p in zip(MONOTONE_INDICES, parts)}
    cells = cells_from_types(q)
    prog = build_program(cells, monotone=True, target="x1")
    lp_min = prog.lp("min")
    verts = enumerate_vertices(lp_min.equalities, lp_min.n)
    assert verts
    for sense in ("min", "max"):
        lp = prog.lp(sense)
        res = solve(lp)
        vals = [sum(c * v for c, v in zip(lp.objective, vert)) for vert in verts]
        want = min(vals) if sense == "min" else max(vals)
        assert res.status == "optimal"
        assert res.value == want


# ---------------------------------------------------------------------------
# The integer simplex against the Fraction simplex it replaced
# (tests/simplex_oracle.py): same Bland pivots, so the whole LPResult,
# witness included, must be equal.

DENOMINATORS = (1, 1, 2, 3, 5, 12, 97)


def _random_program(rng):
    """A small rational program: often infeasible, unbounded or with many
    optimal vertices, with negative right-hand sides, zero rows and
    duplicated or scaled rows."""

    def rat():
        return F(rng.randint(-6, 6), rng.choice(DENOMINATORS))

    n = rng.randint(1, 8)
    point = [F(rng.randint(0, 4), rng.choice(DENOMINATORS)) for _ in range(n)]
    eqs = []
    if rng.random() < 0.5:  # a positive row bounds the polytope
        a = [F(rng.randint(1, 4), rng.choice(DENOMINATORS)) for _ in range(n)]
        eqs.append((a, sum(x * y for x, y in zip(a, point))))
    for _ in range(rng.randint(0, 5)):
        a = [rat() if rng.random() < 0.7 else F(0) for _ in range(n)]
        if rng.random() < 0.7:
            b = sum(x * y for x, y in zip(a, point))
        else:
            b = rat()  # usually makes the program infeasible
        eqs.append((a, b))
        copy = rng.random()
        if copy < 0.1:
            eqs.append((a, b))
        elif copy < 0.2:
            eqs.append(([F(0)] * n, F(0)))
        elif copy < 0.3:
            eqs.append(([-2 * v for v in a], -2 * b))
    rng.shuffle(eqs)
    # zero costs leave ties among optimal vertices, so the witness
    # depends on the pivot path
    obj = [rat() if rng.random() < 0.6 else F(0) for _ in range(n)]
    return make_program(n, eqs, obj, rng.choice(("min", "max")))


def _random_cells(rng):
    """Cells from sparse type distributions (monotone or not), or two
    arbitrary arms, which the monotone model often cannot produce."""
    kind = rng.randrange(3)
    if kind < 2:
        types = MONOTONE_INDICES if kind == 0 else ALL_INDICES
        weights = [rng.randint(1, 9) if rng.random() < 0.4 else 0 for _ in types]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        return cells_from_types(
            {t: F(w, total) for t, w in zip(types, weights) if w}
        )
    cond = {}
    for k in (0, 1):
        weights = [rng.randint(0, 9) for _ in range(4)]
        weights[rng.randrange(4)] += 1
        for (i, j), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), weights):
            cond[(i, j, k)] = F(w, sum(weights))
    return ObservedCells(cond=cond)


BUILD_VARIANTS = [
    (monotone, target, drop)
    for monotone in (True, False)
    for target in ("x0", "x1")
    for drop in (None, "s", "t")
]


def _bounds_programs(rng, cell_sets):
    for _ in range(cell_sets):
        cells = _random_cells(rng)
        for monotone, target, drop in BUILD_VARIANTS:
            yield build_program(cells, monotone, target, drop_proxy=drop)


def _check_bounds_programs(rng, cell_sets):
    """solve == oracle on both senses of every variant; returns the statuses."""
    statuses = Counter()
    for prog in _bounds_programs(rng, cell_sets):
        for sense in ("min", "max"):
            lp = prog.lp(sense)
            res = solve(lp)
            assert res == oracle_solve(lp), (prog.monotone, prog.target, prog.dropped)
            statuses[res.status] += 1
    return statuses


def test_solve_matches_fraction_oracle_on_random_programs():
    rng = random.Random(4001)
    statuses = Counter()
    for _ in range(2000):
        lp = _random_program(rng)
        res = solve(lp)
        assert res == oracle_solve(lp), program_to_json(lp)
        statuses[res.status] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 300


def test_solve_matches_fraction_oracle_on_every_build_program_variant():
    statuses = _check_bounds_programs(random.Random(11), 3)
    assert statuses["optimal"] and statuses["infeasible"]


def test_lp_bounds_matches_two_separate_solves():
    rng = random.Random(12)
    outcomes = Counter()
    for prog in _bounds_programs(rng, 6):
        lower, upper = solve(prog.lp("min")), solve(prog.lp("max"))
        if lower.status == "infeasible":
            assert upper.status == "infeasible"
            with pytest.raises(InfeasibleError):
                lp_bounds(prog)
            outcomes["infeasible"] += 1
            continue
        res = lp_bounds(prog)
        assert (res.lower, res.upper) == (lower.value, upper.value)
        assert res.witnesses == {
            "lower": dict(zip(prog.variables, lower.witness)),
            "upper": dict(zip(prog.variables, upper.witness)),
        }
        outcomes["optimal"] += 1
    assert outcomes["optimal"] and outcomes["infeasible"]


@pytest.mark.slow
def test_solve_matches_fraction_oracle_wide_sweep():
    rng = random.Random(4002)
    for _ in range(18000):
        lp = _random_program(rng)
        assert solve(lp) == oracle_solve(lp), program_to_json(lp)
    _check_bounds_programs(rng, 84)  # 84 cell sets x 12 variants x 2 senses
