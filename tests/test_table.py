import random
from fractions import Fraction
from pathlib import Path

import pytest

from causalprox import (
    EmptyDataError,
    FormatError,
    JointTable,
    PositivityError,
    SchemaMismatchError,
    UnknownVariableError,
    ZeroMassError,
    backdoor_adjust,
    build_diagram,
    frontdoor_adjust,
    load_counts,
    make_table,
)
from causalprox.fixtures import education_table, education_table_csv
from table_oracle import intervene_truncated

F = Fraction


def table_from_cells(schema, cells):
    """Build a rational JointTable from {category-tuple: mass} cells."""
    import numpy as np

    shape = tuple(len(cats) for _, cats in schema)
    arr = np.empty(shape, dtype=object)
    arr[...] = F(0)
    lookup = [{c: i for i, c in enumerate(cats)} for _, cats in schema]
    for key, mass in cells.items():
        idx = tuple(lk[c] for lk, c in zip(lookup, key))
        arr[idx] = F(mass)
    return make_table(schema, arr)


def test_education_table_margins_exact():
    t = education_table()
    assert t.mode == "rational"
    assert sum(t.prob({"X": x, "S": s, "T": v})
               for x in t.categories("X")
               for s in t.categories("S")
               for v in t.categories("T")) == 1
    assert t.mass({"X": "x1"}) == F(3, 10)
    assert t.mass({"T": "t1"}) == F(47, 100)
    assert t.mass({"S": "s1"}) == F(93, 200)
    assert t.mass({"S": "s1", "T": "t1"}) == F(87, 500)


def test_education_table_conditional_cells_frozen():
    t = education_table()
    # conditional cell masses f(t, s | x), indexed t, s, arm
    got = {}
    for k, x in enumerate(("x0", "x1")):
        cond = t.condition({"X": x})
        for i, tv in enumerate(("t0", "t1")):
            for j, sv in enumerate(("s0", "s1")):
                got[(i, j, k)] = cond.mass({"T": tv, "S": sv})
    want = {
        (0, 0, 1): F(176, 1000), (0, 1, 1): F(144, 1000),
        (1, 0, 1): F(464, 1000), (1, 1, 1): F(216, 1000),
        (0, 0, 0): F(266, 1000), (0, 1, 0): F(354, 1000),
        (1, 0, 0): F(224, 1000), (1, 1, 0): F(156, 1000),
    }
    assert got == want


def test_load_counts_round_trips_education_csv():
    t = load_counts(education_table_csv())
    assert t.variables == ("X", "S", "T")
    assert t.mass({"X": "x1", "S": "s1", "T": "t1"}) == F(648, 10000)


def test_load_counts_drops_a_byte_order_mark(tmp_path):
    """A file saved with a byte-order mark, as spreadsheet exports often
    are, keeps its first variable name; so does text that starts with one.
    Only one leading mark is dropped."""
    text = education_table_csv()
    plain = load_counts(text)
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    for table in (load_counts(path), load_counts("\ufeff" + text)):
        assert table.schema == plain.schema and table.variables[0] == "X"
        assert table.den == plain.den and (table.num == plain.num).all()
    assert load_counts("\ufeff\ufeff" + text).variables[0] == "\ufeffX"


def test_load_counts_prob_column_accepts_rationals_and_decimals():
    t = load_counts("A,prob\na0,1/4\na1,0.75\n")
    assert t.prob({"A": "a0"}) == F(1, 4)
    assert t.prob({"A": "a1"}) == F(3, 4)


def test_load_counts_rejects_bad_headers_and_cells():
    with pytest.raises(FormatError):
        load_counts("A,B\n1,2\n")  # no count/prob column
    with pytest.raises(FormatError):
        load_counts("A,count\na0,2\na0,3\n")  # duplicate cell
    with pytest.raises(FormatError):
        load_counts("A,count\na0,-1\n")
    with pytest.raises(FormatError, match="line 2: count too long"):
        load_counts("A,count\na0," + "1" * 5000 + "\na1,1\n")  # int() limit
    with pytest.raises(EmptyDataError):
        load_counts("A,count\n")
    with pytest.raises(FormatError):
        load_counts("")


@pytest.mark.parametrize("text, message", [
    ("A,B,count\na0,b0,1\n,b1,2\n", "line 3: empty category label"),
    ("A,B,count\na0, ,1\n", "line 2: empty category label"),
    ("A,B,prob\na0,b0,0.5\na1,,0.5\n", "line 3: empty category label"),
    ("A,count\na0,2\n a0 ,3\n", "line 3: duplicate cell ('a0',)"),
    ("A,B,count\n,b0,1\n,b0,2\n", "line 2: empty category label"),
    ("A,B,count\na0,b0,1\na0 , b0,x\n",
     "line 3: count must be a nonnegative integer, got 'x'"),
    ("A,B,count\na0,b0,1\na1,b1\n", "line 3: expected 3 fields, got 2"),
    ("A,B,count\na0,b0,1,4\n", "line 2: expected 3 fields, got 4"),
    # blank and whitespace-only rows are dropped before lines are numbered
    ("A,count\n\n  ,  \na0,1\na1\n", "line 3: expected 2 fields, got 1"),
    ("A,count\na0,1\n\na1," + "1" * 5000 + "\n", "line 3: count too long: "),
])
def test_load_counts_error_messages_and_line_numbers(text, message):
    with pytest.raises(FormatError) as err:
        load_counts(text)
    assert str(err.value).startswith(message)
    if "too long" not in message:
        assert str(err.value) == message


def test_make_table_validates_mass():
    schema = [("A", ("a0", "a1"))]
    with pytest.raises(FormatError):
        make_table(schema, [F(1, 2), F(1, 3)])
    # exact inputs follow the CSV prob column's rule: ASCII text, no digit
    # separators, no floats
    for probs, message in (
        (["\u0661/\u0662", "\u0661/\u0662"], "not a rational number"),
        (["0.5_0", "0.5"], "not a rational number"),
        ([0.25, 0.75], "expected an exact rational, got 0.25"),
        ([0.1, 0.9], "expected an exact rational, got 0.1"),
    ):
        with pytest.raises(FormatError, match=message):
            make_table(schema, probs)
    t = make_table(schema, [F(1, 2), F(1, 2)])
    assert t.prob({"A": "a1"}) == F(1, 2)


def test_constructor_validates_schema():
    # each table is well formed but for its schema
    for schema, num, den, message in (
        ((("A", ("a0", "a0")),), [1, 1], 2, "duplicate categories for 'A'"),
        ((("A", ("a0",)),), [1], 1, "variable 'A' needs at least two categories"),
        ((("A", ("a0", "a1")), ("A", ("a0", "a1"))), [[1, 1], [0, 0]], 2,
         "duplicate variable names in schema"),
    ):
        with pytest.raises(FormatError, match=f"^{message}$"):
            JointTable(schema, num, "rational", den)


_AB = (("A", ("a0", "a1")),)


@pytest.mark.parametrize("build, error, message", [
    (lambda: JointTable(_AB, [F(1, 3)] * 3), SchemaMismatchError,
     "probs shape (3,) does not match schema shape (2,)"),
    (lambda: JointTable(_AB, [F(-1, 2), F(3, 2)]), FormatError, "negative probability entry"),
    (lambda: JointTable(_AB, [-0.5, 1.5], "float"), FormatError, "negative probability entry"),
    (lambda: JointTable(_AB, [0.25, 0.5], "float"), FormatError,
     "probabilities sum to 0.75, not 1"),
    (lambda: JointTable(_AB, [F(1, 2)] * 2, "bogus"), FormatError, "unknown table mode 'bogus'"),
    (lambda: make_table([], [1]), FormatError, "schema declares no variables"),
    (lambda: make_table(_AB, [F(1, 3)] * 3), SchemaMismatchError,
     "probability array does not match schema shape"),
    (lambda: make_table(_AB, ["1/2", "1/2"], "bogus"), FormatError,
     "unknown table mode 'bogus'"),
    (lambda: JointTable.from_json({"schema": [["A", ["a0", "a1"]]], "probs": ["1/2"] * 2}),
     FormatError, "bad table payload: 'mode'"),
    (lambda: JointTable.from_json(
        {"schema": [["A", ["a0", "a1"]]], "mode": "rational", "probs": ["1"]}),
     FormatError, "expected 2 probabilities, got 1"),
])
def test_table_construction_guards(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("schema, message", [
    ([("A,B", ("a0", "a1"))], "bad variable name 'A,B'"),
    ([("", ("a0", "a1"))], "bad variable name ''"),
    ([("A", ("a0", "a,1"))], "bad category label 'a,1' for 'A'"),
    ([("A", ("", "a1"))], "bad category label '' for 'A'"),
])
@pytest.mark.parametrize("build", ["constructor", "make_table", "from_json"])
def test_bad_names_and_labels_are_rejected_by_every_builder(schema, message, build):
    with pytest.raises(FormatError) as err:
        if build == "constructor":
            JointTable(schema, [F(1, 2)] * 2)
        elif build == "make_table":
            make_table(schema, [F(1, 2)] * 2)
        else:
            JointTable.from_json({"schema": [[name, list(cats)] for name, cats in schema],
                                  "mode": "rational", "probs": ["1/2"] * 2})
    assert type(err.value) is FormatError and str(err.value) == message


@pytest.mark.parametrize("mode, probs, message", [
    ("bogus", ["1/2", "1/2"], "unknown table mode 'bogus'"),
    ("float", ["x", "1/2"], "bad table payload: could not convert string to float: 'x'"),
    ("float", [None, 0.5], "bad table payload: float() argument must be"),
    ("rational", [None, "1/2"], "expected an exact rational, got None"),
    ("rational", 5, "bad table payload: object of type 'int' has no len()"),
])
def test_from_json_raises_only_format_errors(mode, probs, message):
    payload = {"schema": [["A", ["a0", "a1"]]], "mode": mode, "probs": probs}
    with pytest.raises(FormatError) as err:
        JointTable.from_json(payload)
    assert type(err.value) is FormatError and str(err.value).startswith(message)


@pytest.mark.parametrize("probs, message", [
    ([float("nan"), 1.0], "probabilities sum to nan, not 1"),
    ([float("inf"), 1.0], "probabilities sum to inf, not 1"),
    (["nan", "0.5"], "probabilities sum to nan, not 1"),
    (["inf", "0.5"], "probabilities sum to inf, not 1"),
])
def test_float_tables_reject_non_finite_cells(probs, message):
    with pytest.raises(FormatError) as err:
        if isinstance(probs[0], str):
            JointTable.from_json({"schema": [["A", ["a0", "a1"]]], "mode": "float",
                                  "probs": probs})
        else:
            JointTable(_AB, probs, "float")
    assert type(err.value) is FormatError and str(err.value) == message


def _two_strata_table():
    """Z, X, Y with all mass on (z0, x0, y0) and (z1, x1, y1)."""
    schema = [("Z", ("z0", "z1")), ("X", ("x0", "x1")), ("Y", ("y0", "y1"))]
    return table_from_cells(schema, {("z0", "x0", "y0"): F(1, 2), ("z1", "x1", "y1"): F(1, 2)})


@pytest.mark.parametrize("adjust", [backdoor_adjust, frontdoor_adjust])
@pytest.mark.parametrize("x, y, zvars, error, message", [
    ({"X": "x0", "Z": "z0"}, "Y", [], UnknownVariableError,
     "the intervention must assign exactly one variable"),
    ("X", "Y", [], UnknownVariableError, "the intervention must assign exactly one variable"),
    ({"X": "x0"}, "X", [], UnknownVariableError, "exposure and outcome must differ"),
    ({"X": "x0"}, "Y", ["X"], UnknownVariableError, "{set} set overlaps the effect pair"),
    ({"X": "x0"}, "Y", ["Z", "Y"], UnknownVariableError, "{set} set overlaps the effect pair"),
])
def test_adjustment_guards(adjust, x, y, zvars, error, message):
    what = "adjustment" if adjust is backdoor_adjust else "mediator"
    with pytest.raises(error) as err:
        adjust(_two_strata_table(), x, y, zvars)
    assert type(err.value) is error and str(err.value) == message.format(set=what)


@pytest.mark.parametrize("adjust, cells, error, message", [
    (backdoor_adjust, None, PositivityError,
     "f(X=x0, {'Z': 'z1'}) = 0 on a stratum with positive probability"),
    (frontdoor_adjust, None, PositivityError,
     "f(X=x1, {'Z': 'z0'}) = 0 but the formula needs f(y|...) there"),
    (frontdoor_adjust, {("z0", "x1", "y0"): F(1, 2), ("z1", "x1", "y1"): F(1, 2)},
     ZeroMassError, "f(X=x0) = 0"),
])
def test_adjustment_mass_guards(adjust, cells, error, message):
    schema = [("Z", ("z0", "z1")), ("X", ("x0", "x1")), ("Y", ("y0", "y1"))]
    table = _two_strata_table() if cells is None else table_from_cells(schema, cells)
    with pytest.raises(error) as err:
        adjust(table, {"X": "x0"}, "Y", ["Z"])
    assert type(err.value) is error and str(err.value) == message


def test_marginal_condition_and_float_mode():
    t = education_table()
    m = t.marginal(["X"])
    assert m.variables == ("X",)
    assert m.prob({"X": "x0"}) == F(7, 10)
    c = t.condition({"X": "x1"})
    assert c.mass({"S": "s1", "T": "t1"}) == F(648, 3000)
    ft = t.to_float()
    assert ft.mode == "float"
    assert ft.mass({"X": "x1"}) == pytest.approx(0.3, abs=1e-12)


def test_unknown_variable_and_category_errors():
    t = education_table()
    with pytest.raises(UnknownVariableError):
        t.marginal(["Q"])
    with pytest.raises(UnknownVariableError):
        t.mass({"X": "nope"})


def test_json_round_trip_preserves_exact_values():
    t = education_table()
    back = JointTable.from_json(t.to_json())
    assert back.variables == t.variables
    for x in t.categories("X"):
        for s in t.categories("S"):
            for v in t.categories("T"):
                a = {"X": x, "S": s, "T": v}
                assert back.prob(a) == t.prob(a)


def _random_confounded_scm(rng):
    """Z -> X, Z -> Y, X -> Y with random rational CPTs over denominator 60."""
    def dist(n, lo=1):
        cuts = sorted(rng.sample(range(lo, 60 - lo * (n - 1) + 1), n - 1)) if n > 1 else []
        parts = []
        prev = 0
        for c in cuts + [60]:
            parts.append(c - prev)
            prev = c
        rng.shuffle(parts)
        return [F(p, 60) for p in parts]

    pz = dist(2)
    px_z = {z: dist(2) for z in range(2)}
    py_xz = {(x, z): dist(2) for x in range(2) for z in range(2)}
    schema = [("Z", ("z0", "z1")), ("X", ("x0", "x1")), ("Y", ("y0", "y1"))]
    probs = {}
    for z in range(2):
        for x in range(2):
            for y in range(2):
                probs[(f"z{z}", f"x{x}", f"y{y}")] = (
                    pz[z] * px_z[z][x] * py_xz[(x, z)][y]
                )
    table = table_from_cells(schema, probs)
    return table, pz, py_xz


def test_backdoor_adjust_matches_truncated_factorization():
    rng = random.Random(5150)
    g = build_diagram("ZXY", [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    for _ in range(120):
        table, pz, py_xz = _random_confounded_scm(rng)
        for xv in ("x0", "x1"):
            want = intervene_truncated(table, g, {"X": xv}, "Y")
            got = backdoor_adjust(table, {"X": xv}, "Y", ["Z"])
            x = int(xv[1])
            structural = sum(pz[z] * py_xz[(x, z)][1] for z in range(2))
            assert got.prob({"Y": "y1"}) == structural
            assert want.prob({"Y": "y1"}) == structural


def test_backdoor_positivity_violation_raises():
    schema = [("Z", ("z0", "z1")), ("X", ("x0", "x1")), ("Y", ("y0", "y1"))]
    probs = {
        ("z0", "x0", "y0"): F(1, 2),
        ("z1", "x1", "y1"): F(1, 2),
    }
    t = table_from_cells(schema, probs)
    with pytest.raises(PositivityError):
        backdoor_adjust(t, {"X": "x0"}, "Y", ["Z"])


def test_frontdoor_adjust_matches_structural_truth():
    rng = random.Random(77)

    def dist(n):
        cuts = sorted(rng.sample(range(1, 60), n - 1)) if n > 1 else []
        parts = []
        prev = 0
        for c in cuts + [60]:
            parts.append(c - prev)
            prev = c
        return [F(p, 60) for p in parts]

    for _ in range(80):
        pu = dist(2)
        px_u = {u: dist(2) for u in range(2)}
        pm_x = {x: dist(2) for x in range(2)}
        py_mu = {(m, u): dist(2) for m in range(2) for u in range(2)}
        schema = [
            ("U", ("u0", "u1")), ("X", ("x0", "x1")),
            ("M", ("m0", "m1")), ("Y", ("y0", "y1")),
        ]
        probs = {}
        for u in range(2):
            for x in range(2):
                for m in range(2):
                    for y in range(2):
                        probs[(f"u{u}", f"x{x}", f"m{m}", f"y{y}")] = (
                            pu[u] * px_u[u][x] * pm_x[x][m] * py_mu[(m, u)][y]
                        )
        full = table_from_cells(schema, probs)
        observable = full.marginal(["X", "M", "Y"])
        for xv in (0, 1):
            structural = sum(
                pm_x[xv][m] * pu[u] * py_mu[(m, u)][1]
                for m in range(2)
                for u in range(2)
            )
            got = frontdoor_adjust(observable, {"X": f"x{xv}"}, "Y", ["M"])
            assert got.prob({"Y": "y1"}) == structural


def test_intervene_truncated_rejects_bidirected_and_schema_mismatch():
    t = education_table()
    g_bad = build_diagram("XSTQ", [("X", "S"), ("S", "T"), ("T", "Q")])
    with pytest.raises(SchemaMismatchError):
        intervene_truncated(t, g_bad, {"X": "x1"}, "T")
    g_bi = build_diagram("XST", [("X", "S"), ("S", "T")], bidirected=[("X", "T")])
    with pytest.raises(SchemaMismatchError):
        intervene_truncated(t, g_bi, {"X": "x1"}, "T")
