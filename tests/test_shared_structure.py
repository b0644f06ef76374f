"""Shared, data-independent structure in the bounds layer.

build_program builds each shape's variables, coefficient rows and
objective once, certify_against_lp proves both targets' answers with one
check of each witness and runs no simplex, and cells_from_table reads the
table's numerators in one pass.  These tests hold each of them to the
per-call code it replaced (tests/bounds_oracle.py,
tests/simplex_oracle.py) with ``==``, and check that no cell data survives
from one call to the next.  lp_bounds answers every program in closed
form, so its values are compared with ``==`` and its witnesses, which
need not be the simplex's vertices, are checked to be valid and attaining.
load_counts and cells_from_table, which check their inputs once as they
build them, are held field for field to the public constructors, and one
certified op is held to a fixed count of Fractions built.
"""

import itertools
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from bounds_oracle import (
    assert_attaining_support,
    build_program_per_call,
    cells_per_mass,
    cells_via_marginal,
    four_terms_verbatim,
    random_cells,
)
from simplex_oracle import make_program, oracle_solve, program_lp

import causalprox.bounds as bounds_mod
from causalprox import (
    FormatError,
    InfeasibleError,
    JointTable,
    ObservedCells,
    ZeroMassError,
    build_program,
    cells_from_table,
    certify_against_lp,
    load_counts,
    lp_bounds,
    sharp_bounds,
)
from causalprox.bounds import cells_from_types

SHAPES = list(itertools.product((True, False), (None, "s", "t"), ("x0", "x1")))


def oracle_bounds(cells, monotone, target, drop):
    """(lower, upper) from the per-call program and the Fraction simplex, or
    None when infeasible."""
    prog = build_program_per_call(cells, monotone, target, drop_proxy=drop)
    lower, upper = (oracle_solve(program_lp(prog, sense)) for sense in ("min", "max"))
    if lower.status == "infeasible":
        assert upper.status == "infeasible"
        return None
    return lower.value, upper.value


def assert_lp_bounds_match_oracle(cells, monotone, target, drop):
    """lp_bounds against oracle_bounds: the values exactly, and valid
    attaining supports.  Returns the oracle's answer."""
    want = oracle_bounds(cells, monotone, target, drop)
    prog = build_program(cells, monotone, target, drop_proxy=drop)
    try:
        res = lp_bounds(prog)
    except InfeasibleError:
        assert want is None
        return want
    assert (res.lower, res.upper) == want
    assert_attaining_support(prog, res)
    return want


def test_build_program_equals_per_call_oracle():
    rng = random.Random(801)
    for _ in range(40):
        cells = random_cells(rng)
        for monotone, drop, target in SHAPES:
            prog = build_program(cells, monotone, target, drop_proxy=drop)
            assert prog == build_program_per_call(cells, monotone, target, drop_proxy=drop)
            entries = [a for row, _ in prog.equalities for a in row]
            assert all(type(v) is int for v in entries + list(prog.objective))
            assert all(type(b) is F for _, b in prog.equalities)
            for sense in ("min", "max"):
                assert program_lp(prog, sense) == make_program(
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
            infeasible += assert_lp_bounds_match_oracle(cells, monotone, target, drop) is None
    for monotone in (True, False):
        for cells in (a, b, a):
            report = certify_against_lp(cells, monotone)
            for target in ("x0", "x1"):
                got = report.lp[target]
                want = oracle_bounds(cells, monotone, target, None)
                assert want == (None if got is None else (got.lower, got.upper))
                if got is not None:
                    assert_attaining_support(build_program(cells, monotone, target), got)
    assert 0 < infeasible < 3 * len(SHAPES)


def test_certify_runs_no_simplex():
    """certify_against_lp proves its answers with certificates, not a
    solver: its lp entries are those of lp_bounds, and sharp_bounds gives
    the same pair."""
    rng = random.Random(805)
    statuses = set()
    for _ in range(12):
        cells = random_cells(rng)
        for monotone in (True, False):
            report = certify_against_lp(cells, monotone)
            statuses.add(report.lp_status)
            try:
                pair = sharp_bounds(cells, monotone)
            except InfeasibleError:
                pair = (None, None)
            for target, both in zip(("x0", "x1"), pair):
                prog = build_program(cells, monotone, target)
                got = report.lp[target]
                assert got == both
                if got is None:
                    with pytest.raises(InfeasibleError):
                        lp_bounds(prog)
                else:
                    assert got == lp_bounds(prog)
                    assert_attaining_support(prog, got)
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


def test_four_terms_equal_the_verbatim_fraction_formulas():
    """The integer evaluation equals the Fraction sums of cells.read term
    by term, under both readings, with random treatment marginals (0 and 1
    included) and cells with zeros."""
    rng = random.Random(2201)
    zero_cells = 0
    for trial in range(300):
        if trial % 2:
            base = random_cells(rng)
        else:  # about half of each arm's cells zero
            cond = {}
            for k in (0, 1):
                weights = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(4)]
                weights[rng.randrange(4)] += 1
                for (i, j), w in zip(itertools.product((0, 1), (0, 1)), weights):
                    cond[(i, j, k)] = F(w, sum(weights))
            base = ObservedCells(cond=cond)
        zero_cells += sum(v == 0 for v in base.cond.values())
        den = rng.randint(1, 12)
        share = F(rng.randint(0, den), den)
        cells = ObservedCells(cond=base.cond, x_dist=(share, 1 - share))
        for convention in ("conditional", "joint-compat"):
            got = bounds_mod._four_terms(cells, convention)
            assert got == four_terms_verbatim(cells, convention)
            assert all(type(v) is F for terms in got for v in terms)
    assert zero_cells > 500
    for cells, convention in ((base, "joint-compat"), (cells, "no-such-reading")):
        with pytest.raises(FormatError) as want:
            four_terms_verbatim(cells, convention)
        with pytest.raises(FormatError, match=f"^{re.escape(str(want.value))}$"):
            bounds_mod._four_terms(cells, convention)


def random_wide_table(rng):
    """Random table over T, S, X and two more variables, Z with three
    categories and W with two, in a random order."""
    names = ["T", "S", "X", "Z", "W"]
    rng.shuffle(names)
    schema = tuple(
        (name, tuple(f"{name.lower()}{c}" for c in range(3 if name == "Z" else 2)))
        for name in names
    )
    shape = tuple(len(cats) for _, cats in schema)
    num = np.array(
        [rng.randint(0, 4) if rng.random() < 0.7 else 0 for _ in range(np.prod(shape))],
        dtype=object,
    ).reshape(shape)
    num[(0,) * len(shape)] += 1
    return JointTable(schema, num, "rational", int(num.sum()))


def test_cells_from_table_equals_the_marginal_route():
    """Tables with extra variables, and the tables that conditioning on
    some of them leaves (the --stratify route), give the cells that a
    marginal table over T, S and X gives, errors included."""
    rng = random.Random(2202)
    checked = zero_arms = 0
    for _ in range(60):
        table = random_wide_table(rng)
        tables = [table]
        for event in ({"Z": "z1"}, {"W": "w0"}, {"Z": "z2", "W": "w1"}):
            try:
                tables.append(table.condition(event))
            except ZeroMassError:
                pass
        for t in tables:
            try:
                want = cells_via_marginal(t, "X", "T", "S")
            except ZeroMassError as exc:
                with pytest.raises(ZeroMassError, match=f"^{re.escape(str(exc))}$"):
                    cells_from_table(t, "X", "T", "S")
                zero_arms += 1
                continue
            assert cells_from_table(t, "X", "T", "S") == want
            checked += 1
    assert checked > 150 and zero_arms > 0


def random_csv(rng, kind):
    """(CSV text, schema, numerator array, den) of a seeded random table.

    kind "bench" is an eight-cell X, T, S count table, "wide" adds Z (three
    categories) and W to sum out, and "prob" is an identify-shaped prob
    table over Z, W, U, S and T whose cells, decimals or p/q, sum to
    exactly 1 or, with seven decimal places, to 1 - 1e-7.  Rows come in a random order and some zero cells are left
    out; the schema lists each variable's categories in order of first
    appearance, and the numerators are over the cells' common denominator.
    """
    names = {
        "bench": ["X", "T", "S"],
        "wide": ["X", "T", "S", "Z", "W"],
        "prob": ["Z", "W", "U", "S", "T"],
    }[kind]
    rng.shuffle(names)
    domains = [
        [f"{n.lower()}{c}" for c in range(3 if n in "ZU" and kind != "bench" else 2)]
        for n in names
    ]
    while True:
        keys = list(itertools.product(*domains))
        rng.shuffle(keys)
        if kind == "prob":
            total = rng.choice((1000, 240, 10**7))
            mass = total - (total == 10**7)  # load_counts allows 1e-6 off
            cuts = sorted(rng.randint(0, mass) for _ in range(len(keys) - 1))
            weights = [b - a for a, b in zip([0] + cuts, cuts + [mass])]
            values = [F(w, total) for w in weights]
            places = len(str(total)) - 1
            texts = [
                str(v) if total == 240 else f"{w // total}.{w % total:0{places}d}"
                for w, v in zip(weights, values)
            ]
        else:
            values = [rng.choice((0, rng.randint(1, 9))) for _ in keys]
            texts = [str(v) for v in values]
        rows = [
            (key, text, value) for key, text, value in zip(keys, texts, values)
            if value or rng.random() < 0.5
        ]
        seen = [dict.fromkeys(key[a] for key, _, _ in rows) for a in range(len(names))]
        if sum(value for _, _, value in rows) and all(len(s) >= 2 for s in seen):
            break
    schema = tuple((n, tuple(s)) for n, s in zip(names, seen))
    den = math.lcm(*(F(v).denominator for _, _, v in rows))
    num = np.zeros(tuple(len(s) for s in seen), dtype=object)
    for key, _, value in rows:
        v = F(value)
        num[tuple(list(s).index(c) for s, c in zip(seen, key))] = v.numerator * (den // v.denominator)
    den = int(num.sum())  # the table is normalized by the sum
    lines = [",".join(names + ["prob" if kind == "prob" else "count"])]
    lines += [",".join(key + (text,)) for key, text, _ in rows]
    return "\n".join(lines) + "\n", schema, num, den


def test_load_counts_and_the_public_constructors_build_the_same_objects():
    """load_counts hands its checked array to the table uncopied and
    unchecked again, and cells_from_table builds its cells through
    ObservedCells: both give field for field what the public constructors
    give on the same numbers, JointTable's read-only array and
    ObservedCells' integer numerators included."""
    rng = random.Random(2401)
    zero_arms = 0
    for trial in range(90):
        kind = ("bench", "wide", "prob")[trial % 3]
        text, schema, num, den = random_csv(rng, kind)
        table = load_counts(text)
        want = JointTable(schema, num.copy(), "rational", den)
        for t in (table, want):
            assert t.schema == schema and t.mode == "rational" and t.den == den
            assert t.num.dtype == object and t.num.shape == num.shape
            assert t.num.tolist() == num.tolist()
            assert all(type(n) is int for n in t.num.flat)
            assert not t.num.flags.writeable
        if kind == "prob":
            continue
        names = [n for n, _ in schema]
        others = tuple(a for a, n in enumerate(names) if n not in "XTS")
        tsx = num.sum(axis=others) if others else num
        tsx = tsx.transpose([[n for n in names if n in "XTS"].index(v) for v in "TSX"])
        arms = [int(tsx[:, :, k].sum()) for k in (0, 1)]
        if 0 in arms:
            with pytest.raises(ZeroMassError):
                cells_from_table(table, "X", "T", "S")
            zero_arms += 1
            continue
        cond = {
            (i, j, k): F(int(tsx[i, j, k]), arms[k])
            for k in (0, 1) for i, j in itertools.product((0, 1), (0, 1))
        }
        want = ObservedCells(cond, tuple(F(a, den) for a in arms), ("T", "S", "X"))
        got = cells_from_table(table, "X", "T", "S")
        assert got == want and list(got.cond.items()) == list(want.cond.items())
        assert (got._den, got._num) == (want._den, want._num)
    assert zero_arms < 10


def assert_same_table(got, want):
    assert (got.schema, got.mode, got.den) == (want.schema, want.mode, want.den)
    assert got.num.dtype == want.num.dtype == object
    assert got.num.shape == want.num.shape
    assert got.num.tolist() == want.num.tolist()
    assert all(type(n) is int for n in got.num.flat)
    assert not got.num.flags.writeable and not want.num.flags.writeable


def test_marginal_and_condition_equal_the_public_constructor_route():
    """Rational marginal and condition tables, built from arrays of an
    already checked table without a second check, equal the tables the
    public constructor builds from the same sums and blocks: on tables with
    extra axes and zero cells, on every marginal size from none to all
    variables, and on marginals of conditioned tables."""
    rng = random.Random(2501)
    conditioned = zero_events = 0
    for _ in range(40):
        tables = [random_wide_table(rng)]
        for _ in range(3):
            names = tables[0].variables
            event = {
                n: rng.choice(tables[0].categories(n))
                for n in rng.sample(names, rng.randint(1, len(names)))
            }
            idx = tuple(
                tables[0].categories(n).index(event[n]) if n in event else slice(None)
                for n in names
            )
            block = tables[0].num[idx]
            total = int(np.sum(block))
            if total == 0:
                with pytest.raises(ZeroMassError):
                    tables[0].condition(event)
                zero_events += 1
                continue
            schema = tuple(e for e in tables[0].schema if e[0] not in event)
            got = tables[0].condition(event)
            assert_same_table(got, JointTable(schema, block, "rational", total))
            tables.append(got)
            conditioned += 1
        for table in tables:
            names = table.variables
            for size in range(len(names) + 1):
                keep = rng.sample(names, size)
                drop = tuple(a for a, n in enumerate(names) if n not in keep)
                schema = tuple(e for e in table.schema if e[0] in keep)
                want = JointTable(schema, table.num.sum(axis=drop), "rational", table.den)
                assert_same_table(table.marginal(keep), want)
    assert conditioned > 50 and zero_events > 0


# (T, S, X) counts of cells on which the monotone program is feasible
FIXED_CSV = "X,T,S,count\n" + "".join(
    f"x{k},t{i},s{j},{c}\n"
    for k, arm in enumerate(((50, 20, 20, 10), (12, 18, 12, 18)))
    for (i, j), c in zip(itertools.product((0, 1), (0, 1)), arm)
)


def test_fraction_count_of_one_certified_bounds_op(monkeypatch):
    """A deterministic guard on the work of one `bounds --method both
    --monotone` op: the Fractions built by cells_from_table and
    certify_against_lp on fixed cells, counted at Fraction.__new__
    (arithmetic between Fractions builds its result there too)."""
    table = load_counts(FIXED_CSV)
    built = []
    real = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    cells = cells_from_table(table, "X", "T", "S")
    report = certify_against_lp(cells, monotone=True)
    monkeypatch.undo()
    assert report.lp_status == "optimal"
    assert report.lp["x1"].lower == F(3, 10)
    # 8 cells, 2 x_dist entries, 8 closed-form terms, 6 witness masses and
    # 2 lp endpoints: only values the caller receives.  A higher count is a
    # regression; the code before this guard built 32 (two more in the
    # x_dist check, four more for the deltas).
    assert len(built) == 26
