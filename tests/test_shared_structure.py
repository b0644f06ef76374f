"""Shared, data-independent structure in the bounds and LP layers.

build_program builds each shape's variables, coefficient rows and
objective once, lp.phase1 reuses the integer skeleton of a coefficient
matrix it has seen, certify_against_lp runs one phase 1 for both targets
and cells_from_table reads the marginal's numerators in one pass.  These
tests hold each of them to the per-call code it replaced
(tests/bounds_oracle.py, tests/simplex_oracle.py) with ``==``, and check
that no cell data survives from one call to the next.
"""

import itertools
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from bounds_oracle import build_program_per_call, cells_per_mass
from simplex_oracle import oracle_solve

import causalprox.bounds as bounds_mod
from causalprox import (
    InfeasibleError,
    JointTable,
    LinearProgram,
    ObservedCells,
    ZeroMassError,
    build_program,
    cells_from_table,
    certify_against_lp,
    lp_bounds,
    make_program,
    solve,
)
from causalprox.bounds import ALL_INDICES, MONOTONE_INDICES, cells_from_types

SHAPES = list(itertools.product((True, False), (None, "s", "t"), ("x0", "x1")))


def random_cells(rng):
    """Cells of a sparse monotone or unrestricted type distribution, or two
    arbitrary arms, which the monotone model often cannot produce."""
    kind = rng.randrange(3)
    if kind < 2:
        types = MONOTONE_INDICES if kind == 0 else ALL_INDICES
        weights = [rng.randint(1, 9) if rng.random() < 0.4 else 0 for _ in types]
        weights[rng.randrange(len(types))] += 1
        total = sum(weights)
        return cells_from_types({t: F(w, total) for t, w in zip(types, weights) if w})
    cond = {}
    for k in (0, 1):
        weights = [rng.randint(0, 9) for _ in range(4)]
        weights[rng.randrange(4)] += 1
        for (i, j), w in zip(itertools.product((0, 1), (0, 1)), weights):
            cond[(i, j, k)] = F(w, sum(weights))
    return ObservedCells(cond=cond)


def oracle_bounds(cells, monotone, target, drop):
    """(lower, upper, witnesses) from the per-call program and the Fraction
    simplex, or None when infeasible."""
    prog = build_program_per_call(cells, monotone, target, drop_proxy=drop)
    lower, upper = (oracle_solve(prog.lp(sense)) for sense in ("min", "max"))
    if lower.status == "infeasible":
        assert upper.status == "infeasible"
        return None
    witnesses = {
        "lower": dict(zip(prog.variables, lower.witness)),
        "upper": dict(zip(prog.variables, upper.witness)),
    }
    return lower.value, upper.value, witnesses


def package_bounds(cells, monotone, target, drop):
    prog = build_program(cells, monotone, target, drop_proxy=drop)
    try:
        res = lp_bounds(prog)
    except InfeasibleError:
        return None
    return res.lower, res.upper, res.witnesses


def test_build_program_equals_per_call_oracle():
    rng = random.Random(801)
    for _ in range(40):
        cells = random_cells(rng)
        for monotone, drop, target in SHAPES:
            prog = build_program(cells, monotone, target, drop_proxy=drop)
            assert prog == build_program_per_call(cells, monotone, target, drop_proxy=drop)
            entries = [a for row, _ in prog.equalities for a in row]
            entries += [b for _, b in prog.equalities] + list(prog.objective)
            assert all(type(v) is F for v in entries)
            for sense in ("min", "max"):
                assert prog.lp(sense) == make_program(
                    len(prog.variables), prog.equalities, prog.objective, sense
                )


def test_programs_of_one_shape_share_rows_and_objective():
    rng = random.Random(802)
    a, b = random_cells(rng), random_cells(rng)
    for monotone, drop, target in SHAPES:
        pa = build_program(a, monotone, target, drop_proxy=drop)
        pb = build_program(b, monotone, target, drop_proxy=drop)
        assert all(ra is rb for (ra, _), (rb, _) in zip(pa.equalities, pb.equalities))
        assert pa.objective is pb.objective


def test_interleaved_cell_sets_leave_no_data_behind():
    """A, B, A on every shape: each call answers for its own cells."""
    a = cells_from_types({(0, 0, 1): F(1, 3), (1, 1, 3): F(1, 2), (3, 1, 0): F(1, 6)})
    # p(00|x1) > p(00|x0): the two-proxy monotone program is infeasible
    arms = ((1, 2, 3, 4), (5, 1, 3, 1))
    b = ObservedCells(cond={
        (i, j, k): F(arms[k][2 * i + j], 10)
        for i, j, k in itertools.product((0, 1), (0, 1), (0, 1))
    })
    infeasible = 0
    for monotone, drop, target in SHAPES:
        for cells in (a, b, a):
            want = oracle_bounds(cells, monotone, target, drop)
            assert package_bounds(cells, monotone, target, drop) == want
            infeasible += want is None
    for monotone in (True, False):
        for cells in (a, b, a):
            report = certify_against_lp(cells, monotone)
            for target in ("x0", "x1"):
                got = report.lp[target]
                want = oracle_bounds(cells, monotone, target, None)
                assert want == (None if got is None else (got.lower, got.upper, got.witnesses))
    assert 0 < infeasible < 3 * len(SHAPES)


def test_phase1_reuses_skeleton_for_new_right_hand_sides():
    """The same row tuples with fresh right-hand sides, negative ones
    included, solve as the Fraction simplex does; list rows, which can
    change between calls, are never served from the cache."""
    rng = random.Random(804)
    for _ in range(30):
        n, m = rng.randint(2, 7), rng.randint(1, 4)
        rows = [
            tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(n))
            for _ in range(m)
        ]
        obj = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n))
        for _ in range(6):
            point = [F(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(n)]
            rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
            if rng.random() < 0.3:
                rhs[rng.randrange(m)] = F(rng.randint(-5, 5), rng.choice((1, 4)))
            for sense in ("min", "max"):
                lp = LinearProgram(n, tuple(zip(rows, rhs)), obj, sense)
                assert solve(lp) == oracle_solve(lp)
        lists = [list(row) for row in rows]
        lp = LinearProgram(n, tuple((row, F(1)) for row in lists), obj)
        first = solve(lp)
        assert first == oracle_solve(lp)
        lists[0][:] = [F(1)] * n
        assert solve(lp) == oracle_solve(lp)


def test_certify_runs_one_phase1(monkeypatch):
    calls = []
    real = bounds_mod.phase1

    def counting(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(bounds_mod, "phase1", counting)
    rng = random.Random(805)
    statuses = set()
    for _ in range(12):
        cells = random_cells(rng)
        for monotone in (True, False):
            calls.clear()
            report = certify_against_lp(cells, monotone)
            assert len(calls) == 1
            statuses.add(report.lp_status)
            for target in ("x0", "x1"):
                prog = build_program(cells, monotone, target)
                if report.lp[target] is None:
                    with pytest.raises(InfeasibleError):
                        lp_bounds(prog)
                else:
                    assert report.lp[target] == lp_bounds(prog)
    assert statuses == {"optimal", "infeasible"}


def random_table(rng, order, extra):
    """Random integer-numerator table over T, S, X in the given order, with
    a three-category Z somewhere among them when extra; category labels are
    shuffled so the 0/1 coding follows the schema, not the names."""
    names = list(order)
    if extra:
        names.insert(rng.randrange(4), "Z")
    schema = []
    for name in names:
        cats = [f"{name.lower()}{c}" for c in range(3 if name == "Z" else 2)]
        rng.shuffle(cats)
        schema.append((name, tuple(cats)))
    shape = tuple(len(cats) for _, cats in schema)
    num = np.array(
        [rng.randint(0, 9) if rng.random() < 0.8 else 0 for _ in range(np.prod(shape))],
        dtype=object,
    ).reshape(shape)
    num[(0,) * len(shape)] += 1
    return JointTable(tuple(schema), num, "rational", int(num.sum()))


def test_cells_from_table_equals_per_mass_oracle():
    rng = random.Random(806)
    orders = list(itertools.permutations(("T", "S", "X")))
    for trial in range(120):
        table = random_table(rng, orders[trial % 6], extra=trial // 6 % 2 == 1)
        try:
            want = cells_per_mass(table, "X", "T", "S")
        except ZeroMassError as exc:
            with pytest.raises(ZeroMassError, match=re.escape(str(exc))):
                cells_from_table(table, "X", "T", "S")
            continue
        got = cells_from_table(table, "X", "T", "S")
        assert got == want


def test_cells_from_table_zero_mass_arm():
    schema = (("S", ("s0", "s1")), ("X", ("x0", "x1")), ("T", ("t0", "t1")))
    num = np.array([0, 0, 2, 1, 0, 0, 3, 4], dtype=object).reshape(2, 2, 2)
    table = JointTable(schema, num, "rational", 10)  # no mass on x0
    for read in (cells_from_table, cells_per_mass):
        with pytest.raises(ZeroMassError, match="'x0'"):
            read(table, "X", "T", "S")
