"""Monotone bounds in closed form, proved by exact certificates.

lp_bounds answers every monotone program from the cells' down-set gaps
and a greedy monotone coupling, and certify_against_lp proves each answer
against build_program's rows: the witnesses are primal certificates, the
down-set vectors dual ones, and a violated down-set gives a Farkas ray.
These tests hold the closed form to the Fraction simplex
(tests/simplex_oracle.py), check every dual vector and Farkas ray the
certification uses on every column with the per-call rows
(tests/bounds_oracle.py), show that a tampered certificate is caught, and
run every bounds entry point and every cmd_bounds method.
"""

import dataclasses
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from bounds_oracle import assert_attaining_support, build_program_per_call, random_cells
from simplex_oracle import oracle_solve, program_lp

import causalprox.bounds as bounds_mod
from causalprox import (
    InfeasibleError,
    ObservedCells,
    SpecError,
    build_program,
    certify_against_lp,
    closed_form_bounds,
    lp_bounds,
    sharp_bounds,
    stratified_bounds,
)
from causalprox.bounds import MONOTONE_INDICES, cells_from_types
from causalprox.cli import main
from causalprox.fixtures import education_table_csv

DROPS = (None, "s", "t")
TARGETS = ("x0", "x1")
SIDES = (("lower", "min"), ("upper", "max"))
# the down-sets of the kept proxies' (t, s) values, written out
DOWN_SETS = {
    None: (
        ((0, 0),),
        ((0, 0), (0, 1)),  # T = 0
        ((0, 0), (1, 0)),  # S = 0
        ((0, 0), (0, 1), (1, 0)),  # not (1, 1)
    ),
    "s": (((0, 0), (0, 1)),),
    "t": (((0, 0), (1, 0)),),
}


def gap(cells, down_set):
    """P(L | x0) - P(L | x1)."""
    return sum(cells.cond[u + (0,)] - cells.cond[u + (1,)] for u in down_set)


def monotone_cells(rng):
    weights = [rng.randint(0, 9) if rng.random() < 0.5 else 0 for _ in MONOTONE_INDICES]
    weights[rng.randrange(len(weights))] += 1
    total = sum(weights)
    return cells_from_types(
        {t: F(w, total) for t, w in zip(MONOTONE_INDICES, weights) if w}
    )


def test_closed_form_equals_simplex_on_every_monotone_shape():
    """[g, 1] for x1 and [0, 1 - g] for x0, with g the largest gap, equal
    the Fraction simplex's min and max; every down-set gap >= 0 exactly
    when the simplex finds the program feasible."""
    rng = random.Random(2101)
    outcomes = {"feasible": 0, "infeasible": 0}
    for n in range(60):
        cells = random_cells(rng) if n % 2 else monotone_cells(rng)
        for drop, target in itertools.product(DROPS, TARGETS):
            prog = build_program(cells, True, target, drop_proxy=drop)
            lower, upper = (oracle_solve(program_lp(prog, s)) for s in ("min", "max"))
            gaps = [gap(cells, down_set) for down_set in DOWN_SETS[drop]]
            if min(gaps) < 0:
                assert lower.status == upper.status == "infeasible"
                with pytest.raises(InfeasibleError) as exc:
                    lp_bounds(prog)
                got = exc.value
                assert got.down_set in DOWN_SETS[drop]
                assert got.threshold - got.measured == min(gaps)
                outcomes["infeasible"] += 1
                continue
            g = max(gaps)
            want = (F(0), 1 - g) if target == "x0" else (g, F(1))
            res = lp_bounds(prog)
            assert (res.lower, res.upper) == want == (lower.value, upper.value)
            assert_attaining_support(prog, res)
            outcomes["feasible"] += 1
    assert min(outcomes.values()) > 50


def test_two_proxy_sharp_bounds_equal_conditional_closed_forms():
    rng = random.Random(2102)
    for _ in range(40):
        cells = monotone_cells(rng)
        sharp = sharp_bounds(cells, monotone=True)
        closed = closed_form_bounds(cells, convention="conditional")
        for s, c in zip(sharp, closed):
            assert (s.lower, s.upper) == (c.lower, c.upper)
            assert s == lp_bounds(build_program(cells, True, s.target))
        # one low and one high witness serve both targets
        assert sharp[0].witnesses == sharp[1].witnesses


def column_sums(rows, y):
    """A^T y for Fraction rows."""
    return [sum(row[c] * yi for row, yi in zip(rows, y)) for c in range(len(rows[0]))]


def test_every_dual_vector_and_farkas_ray_is_feasible_on_every_column():
    """The vectors certify_against_lp uses, checked column by column on the
    per-call rows: A^T y <= c for a min, A^T y >= c for a max, and
    A^T y <= 0 for a ray, on every monotone column and every shape; the
    unrestricted zero vector and normalization row on all 64 columns."""
    cells = monotone_cells(random.Random(2103))
    checked = 0
    for monotone, drop in itertools.product((True, False), DROPS):
        down_sets = DOWN_SETS[drop] if monotone else (None,)
        for down_set in down_sets:
            for target in TARGETS:
                ref = build_program_per_call(cells, monotone, target, drop_proxy=drop)
                rows = [row for row, _ in ref.equalities]
                assert len(ref.variables) == (27 if monotone else 64)
                for side, sense in SIDES:
                    y = bounds_mod._dual_vector(monotone, drop, target, side, down_set)
                    assert len(y) == len(rows)
                    for s, c in zip(column_sums(rows, y), ref.objective):
                        assert s <= c if sense == "min" else s >= c
                    checked += 1
            if monotone:
                ray = bounds_mod._dual_vector(True, drop, None, "lower", down_set)
                assert all(s <= 0 for s in column_sums(rows, ray))
                assert any(ray)
                checked += 1
    assert checked == (4 + 1 + 1) * 5 + 3 * 4
    # the ray of a set that is not a down-set fails the check
    for not_down in (((1, 1),), ((0, 1),), ((0, 1), (1, 0))):
        with pytest.raises(SpecError, match="infeasible at column"):
            bounds_mod._dual_vector(True, None, None, "lower", not_down)


def test_farkas_ray_of_every_violated_down_set_proves_infeasibility():
    """b.y > 0 for the ray of each violated down-set, on the per-call rows."""
    rng = random.Random(2104)
    rays = 0
    for _ in range(40):
        cells = random_cells(rng)
        for drop in DROPS:
            ref = build_program_per_call(cells, True, "x0", drop_proxy=drop)
            for down_set in DOWN_SETS[drop]:
                if gap(cells, down_set) >= 0:
                    continue
                ray = bounds_mod._dual_vector(True, drop, None, "lower", down_set)
                assert sum(yi * b for yi, (_, b) in zip(ray, ref.equalities)) > 0
                rays += 1
    assert rays > 20


@pytest.mark.parametrize("monotone", [True, False])
@pytest.mark.parametrize("tamper", ["double", "zero"])
def test_tampered_witness_fails_certification(monkeypatch, monotone, tamper):
    """One witness with a mass doubled, or with a zero mass added."""
    cells = monotone_cells(random.Random(2105))
    real = bounds_mod._sharp

    def bad_witness(*args):
        g, binding, witnesses = real(*args)
        first = witnesses["x1"][0]
        bad = dict(first)
        if tamper == "double":
            idx = min(bad)
            bad[idx] *= 2
        else:
            bad[next(v for v in MONOTONE_INDICES if v not in bad)] = F(0)
        return g, binding, {
            target: tuple(bad if w is first else w for w in pair)
            for target, pair in witnesses.items()
        }

    certify_against_lp(cells, monotone)
    monkeypatch.setattr(bounds_mod, "_sharp", bad_witness)
    with pytest.raises(SpecError, match="witness"):
        certify_against_lp(cells, monotone)


def replace_a_witness(monkeypatch, tamper):
    """Make _sharp hand certify_against_lp tamper(x1 low witness) in place
    of that witness."""
    real = bounds_mod._sharp

    def tampered(*args):
        g, binding, witnesses = real(*args)
        first = witnesses["x1"][0]
        bad = tamper(first)
        return g, binding, {
            target: tuple(bad if w is first else w for w in pair)
            for target, pair in witnesses.items()
        }

    monkeypatch.setattr(bounds_mod, "_sharp", tampered)


def rows_met(cells, witness):
    """For each row of the monotone two-proxy program, whether witness
    meets it; types outside the program count as if they were in it."""
    prog = build_program(cells, True, "x1")
    shown = {
        x: {v: bounds_mod.response(v, x) for v in itertools.product(range(4), repeat=3)}
        for x in (0, 1)
    }
    rows = [sum(witness.values()) == 1]
    for (t, s, x), _ in bounds_mod._constraints(True, None)[2]:
        mass = sum(m for v, m in witness.items() if shown[x][v] == (t, s))
        rows.append(mass == prog.equalities[len(rows)][1])
    return rows


def test_witness_off_on_x1_rows_only_fails_certification(monkeypatch):
    """Mass moved between two monotone types of one Y-type that show the
    same (T, S) under x0 but not under x1: the normalization, the x0 rows
    and both objectives still hold, and only the one-pass check of the x1
    rows can catch it."""
    cells = monotone_cells(random.Random(2109))

    def moved(witness):
        for a, m in witness.items():
            for b in MONOTONE_INDICES:
                if (b[2] == a[2]
                        and bounds_mod.response(b, 0) == bounds_mod.response(a, 0)
                        and bounds_mod.response(b, 1) != bounds_mod.response(a, 1)):
                    bad = dict(witness)
                    bad[a] -= m / 2
                    bad[b] = bad.get(b, F(0)) + m / 2
                    met = rows_met(cells, bad)
                    # rows 1-4 are x1's, 5-8 x0's
                    assert met[0] and all(met[5:]) and met[1:5].count(False) == 2
                    return bad
        raise AssertionError("no type to move mass to")

    certify_against_lp(cells, True)
    replace_a_witness(monkeypatch, moved)
    with pytest.raises(SpecError, match="^a witness is not a feasible type distribution$"):
        certify_against_lp(cells, True)


def test_witness_on_a_type_outside_the_program_fails_certification(monkeypatch):
    """Mass moved to a decreasing type with the same responses under both
    arms: every row still holds, but the type is not a column of the
    monotone program."""
    cells = monotone_cells(random.Random(2110))

    def moved(witness):
        for a, m in witness.items():
            for b in itertools.product(range(4), repeat=3):
                if b not in MONOTONE_INDICES and all(
                    bounds_mod.response(b, x) == bounds_mod.response(a, x) for x in (0, 1)
                ):
                    bad = dict(witness)
                    del bad[a]
                    bad[b] = m
                    assert all(rows_met(cells, bad))
                    return bad
        raise AssertionError("no decreasing type to move mass to")

    certify_against_lp(cells, True)
    replace_a_witness(monkeypatch, moved)
    with pytest.raises(SpecError, match="^a witness is not a feasible type distribution$"):
        certify_against_lp(cells, True)


def test_wrong_dual_vector_fails_certification(monkeypatch):
    """A binding down-set whose gap is not g leaves b.y short of the value."""
    rng = random.Random(2106)
    real = bounds_mod._sharp
    while True:
        cells = monotone_cells(rng)
        gaps = [gap(cells, d) for d in DOWN_SETS[None]]
        if len(set(gaps)) > 1:
            break
    loose = DOWN_SETS[None][gaps.index(min(gaps))]

    def bad_binding(*args):
        g, _, witnesses = real(*args)
        return g, loose, witnesses

    monkeypatch.setattr(bounds_mod, "_sharp", bad_binding)
    with pytest.raises(SpecError):
        certify_against_lp(cells, True)


@pytest.mark.parametrize("monotone", [True, False])
def test_tampered_right_hand_side_fails_certification(monkeypatch, monotone):
    """Programs whose x0 rows are those of other cells: the witnesses no
    longer meet them.  On infeasible cells, programs whose two arms are
    equal: the Farkas ray no longer proves anything."""
    rng = random.Random(2107)
    cells, other = monotone_cells(rng), monotone_cells(rng)
    assert max(gap(cells, d) for d in DOWN_SETS[None]) > 0
    # the arms swapped: every positive gap turns negative
    infeasible = ObservedCells(cond={
        (t, s, k): cells.cond[(t, s, 1 - k)] for t, s, k in cells.cond
    })
    assert certify_against_lp(cells, monotone).lp_status == "optimal"
    assert certify_against_lp(infeasible, True).lp_status == "infeasible"
    real = bounds_mod.build_program

    def x0_rows_of(source):
        def build(cells, **kwargs):
            prog = real(cells, **kwargs)
            rhs = real(source, **kwargs).equalities
            mixed = tuple(
                (row, b if n < 5 else rhs[n][1])  # rows 5-8 are the x0 rows
                for n, (row, b) in enumerate(prog.equalities)
            )
            return dataclasses.replace(prog, equalities=mixed)
        return build

    monkeypatch.setattr(bounds_mod, "build_program", x0_rows_of(other))
    with pytest.raises(SpecError, match="witness"):
        certify_against_lp(cells, monotone)
    # x1 rows of the infeasible cells are the x0 cells of cells
    monkeypatch.setattr(bounds_mod, "build_program", x0_rows_of(cells))
    with pytest.raises(SpecError, match="does not prove infeasibility"):
        certify_against_lp(infeasible, True)


def test_lp_bounds_rejects_a_program_that_does_not_match_its_cells():
    rng = random.Random(2108)
    a, b = monotone_cells(rng), monotone_cells(rng)
    for monotone, drop, target in itertools.product((True, False), DROPS, TARGETS):
        prog = build_program(a, monotone, target, drop_proxy=drop)
        # equal to build_program's program, but made of fresh tuples
        fresh = dataclasses.replace(
            prog,
            variables=tuple(list(prog.variables)),
            equalities=tuple(
                (tuple(list(row)), F(b.numerator, b.denominator))
                for row, b in prog.equalities
            ),
            objective=tuple(list(prog.objective)),
        )
        assert fresh.equalities[1][0] is not prog.equalities[1][0]
        assert lp_bounds(fresh) == lp_bounds(prog)
        with pytest.raises(SpecError, match="does not match build_program"):
            lp_bounds(dataclasses.replace(prog, cells=b))
        with pytest.raises(SpecError, match="does not match build_program"):
            lp_bounds(dataclasses.replace(
                prog, equalities=prog.equalities[:-1] + ((prog.equalities[-1][0], prog.equalities[-1][1] + 1),)
            ))
        other = "x1" if target == "x0" else "x0"
        with pytest.raises(SpecError):
            lp_bounds(dataclasses.replace(prog, target=other))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--json"])
    return code, json.loads(buf.getvalue())


def write_csvs(path):
    """data.csv (the worked example, monotone-infeasible), feasible.csv and
    strata.csv (the two as strata of Z)."""
    feasible = cells_from_types(
        {(0, 0, 1): F(1, 3), (1, 1, 3): F(1, 2), (3, 1, 0): F(1, 6)}
    )
    rows = {  # six units per arm
        (f"t{t}", f"s{s}", f"x{k}"): mass * 6 for (t, s, k), mass in feasible.cond.items()
    }
    (path / "data.csv").write_text(education_table_csv())
    (path / "feasible.csv").write_text(
        "T,S,X,count\n" + "".join(f"{t},{s},{x},{n}\n" for (t, s, x), n in rows.items())
    )
    worked = [line.split(",") for line in education_table_csv().splitlines()[1:]]
    strata = "X,S,T,Z,count\n" + "".join(f"{x},{s},{t},z0,{n}\n" for x, s, t, n in worked)
    strata += "".join(f"{x},{s},{t},z1,{n}\n" for (t, s, x), n in rows.items())
    (path / "strata.csv").write_text(strata)


def test_no_bounds_path_runs_the_simplex(monkeypatch, tmp_path):
    """Every bounds entry point and every cmd_bounds method answers with no
    LP solver: the package has none."""
    rng = random.Random(2109)
    for cells in [random_cells(rng) for _ in range(10)]:
        for monotone, drop in itertools.product((True, False), DROPS):
            try:
                sharp_bounds(cells, monotone, drop_proxy=drop)
            except InfeasibleError:
                pass
            for target in TARGETS:
                try:
                    lp_bounds(build_program(cells, monotone, target, drop_proxy=drop))
                except InfeasibleError:
                    pass
        for monotone in (True, False):
            certify_against_lp(cells, monotone)
        closed_form_bounds(cells)
        stratified_bounds([cells, cells], [F(1, 2), F(1, 2)])

    monkeypatch.chdir(tmp_path)
    write_csvs(tmp_path)
    base = ["--exposure", "X", "--proxies", "T,S"]
    for data, monotone, method in itertools.product(
        ("data.csv", "feasible.csv"), (True, False), ("lp", "closed", "both")
    ):
        argv = ["bounds", data, *base, "--method", method] + ["--monotone"] * monotone
        code, report = run_cli(argv)
        infeasible = data == "data.csv" and monotone and method != "closed"
        assert code == (3 if infeasible else 0), argv
        if infeasible and method == "lp":
            error = report["outputs"]["error"]
            assert error["down_set"] == [[0, 0], [1, 0]]  # S = 0
            assert (error["measured"]["exact"], error["threshold"]["exact"]) == (
                "16/25", "49/100",
            )
    code, _ = run_cli(
        ["bounds", "strata.csv", *base, "--stratify", "Z", "--method", "closed", "--monotone"]
    )
    assert code == 0
