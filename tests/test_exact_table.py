"""The integer-numerator table against Fraction-per-cell reference code.

JointTable keeps integer numerators over one denominator and
cross_moment_matrices reads every matrix off one summed stratum slice.
tests/table_oracle.py does both jobs one Fraction per cell; these tests
compare the two with ``==`` on seeded random inputs, including
denominators past 2**63, and check that the float pencil inputs are bit
for bit the floats of the exact moments.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from causalprox import (
    FormatError,
    JointTable,
    ProxyDesign,
    ZeroMassError,
    cross_moment_matrices,
    generate_latent_model,
    load_counts,
    make_program,
    make_table,
    random_latent_spec,
)
from causalprox.cli import _auto_design, _observable_csv, main
from causalprox.eigenid import stratum_assignments
from causalprox.ratio import decimal_string, parse_rational
from table_oracle import FractionTable, cross_moments_per_entry

BIG_PRIMES = (2**61 - 1, 2**64 + 13, 2**67 - 25, 2**89 - 1)


def random_probs(rng, size):
    """Exact probabilities with mixed denominators and some zero cells."""
    weights = []
    for _ in range(size):
        if rng.random() < 0.25:
            weights.append(Fraction(0))
        else:
            den = rng.choice((1, 3, 7, 10, 10**4) + BIG_PRIMES)
            weights.append(Fraction(rng.randint(1, 10**6), den))
    if not any(weights):
        weights[rng.randrange(size)] = Fraction(1)
    total = sum(weights)
    return [w / total for w in weights]


def random_schema(rng, n_vars):
    return [
        (f"V{i}", tuple(f"c{j}" for j in range(rng.randint(2, 3))))
        for i in range(n_vars)
    ]


def random_assignment(rng, schema):
    chosen = [entry for entry in schema if rng.random() < 0.5]
    return {name: rng.choice(cats) for name, cats in chosen}


def assert_same_table(got, want):
    assert got.variables == want.variables
    assert got.probs.shape == want.probs.shape
    assert all(isinstance(p, Fraction) for p in got.probs.flat)
    assert (got.probs == want.probs).all()
    assert sum(got.num.flat) == got.den
    assert all(type(n) is int and n >= 0 for n in got.num.flat)


def test_integer_table_matches_fraction_reference():
    rng = random.Random(20260)
    widest = 0
    for _ in range(150):
        schema = random_schema(rng, rng.randint(1, 4))
        size = int(np.prod([len(cats) for _, cats in schema]))
        probs = random_probs(rng, size)
        table = make_table(schema, probs)
        ref = FractionTable(schema, probs)
        widest = max(widest, table.den.bit_length())
        assert_same_table(table, ref)
        assert table.to_json() == ref.to_json()
        assert_same_table(JointTable.from_json(ref.to_json()), ref)

        for _ in range(6):
            assignment = random_assignment(rng, schema)
            assert table.mass(assignment) == ref.mass(assignment)
            keep = [name for name, _ in schema if rng.random() < 0.6] or [schema[0][0]]
            assert_same_table(table.marginal(keep), ref.marginal(keep))
            if ref.mass(assignment) == 0:
                with pytest.raises(ZeroMassError):
                    table.condition(assignment)
            else:
                assert_same_table(table.condition(assignment), ref.condition(assignment))

        # the scalar branch: conditioning on a full assignment of a live cell
        live = [i for i, p in enumerate(probs) if p]
        cats = [c for _, c in schema]
        cell = list(itertools.product(*cats))[rng.choice(live)]
        full = dict(zip(table.variables, cell))
        assert table.prob(full) == ref.mass(full)
        scalar = table.condition(full)
        assert_same_table(scalar, ref.condition(full))
        assert scalar.probs[()] == 1
    assert widest > 63


def test_load_counts_matches_per_cell_division():
    rng = random.Random(404)
    for kind in ("count", "prob"):
        for _ in range(40):
            schema = random_schema(rng, rng.randint(1, 3))
            cells = list(itertools.product(*(cats for _, cats in schema)))
            if kind == "count":
                values = [rng.choice((0, 1, 7, 10**20 + rng.randint(0, 99))) for _ in cells]
                values[0] += 1
                text = [str(v) for v in values]
                want = [Fraction(v, sum(values)) for v in values]
            else:
                want = random_probs(rng, len(cells))
                # a prob column may carry p/q strings with unlike denominators
                text = [f"{p.numerator}/{p.denominator}" for p in want]
            lines = [",".join([name for name, _ in schema] + [kind])]
            lines += [",".join(list(c) + [t]) for c, t in zip(cells, text)]
            table = load_counts("\n".join(lines) + "\n", schema=schema)
            assert_same_table(table, FractionTable(schema, want))


@pytest.mark.parametrize("k", range(2, 9))
def test_cross_moments_match_per_entry_oracle(k):
    rng = random.Random(9000 + k)
    for strata in (None, 2, 3):
        spec = random_latent_spec(rng, k=k, n_strata=strata)
        _, observable = generate_latent_model(spec)
        design = _auto_design(spec)
        # the CSV route puts the decimal probabilities over their LCM
        for table in (observable, load_counts(_observable_csv(observable))):
            for stratum in stratum_assignments(design, table):
                assert_moments_match(table, design, stratum)


def assert_moments_match(table, design, stratum):
    sm = cross_moment_matrices(table, design, stratum)
    p, q, by_anchor = cross_moments_per_entry(table, design, stratum)
    assert (sm.p == p).all() and (sm.q == q).all()
    assert list(sm.by_anchor) == list(by_anchor)
    for a, (w_value, matrix) in enumerate(by_anchor.items()):
        assert (sm.by_anchor[w_value] == matrix).all()
        want = np.array([[float(x) for x in row] for row in matrix])
        assert sm.floats[:, :, a].tobytes() == want.tobytes()
    want_p = np.array([[float(x) for x in row] for row in p])
    assert sm.p_float.tobytes() == want_p.tobytes()


def test_cross_moments_with_multi_variable_roles_and_extra_axes():
    """S and W span two variables each, in shuffled table order, with a
    stratum variable and a variable outside every role summed out."""
    rng = random.Random(31)
    schema = [
        ("W2", ("a", "b")), ("S1", ("p", "q")), ("N", ("n0", "n1", "n2")),
        ("T", ("t0", "t1", "t2", "t3")), ("Z", ("z0", "z1")),
        ("S2", ("r", "s", "u")), ("W1", ("w0", "w1")),
    ]
    design = ProxyDesign(
        latent_name="U", latent_categories=("u0", "u1", "u2"),
        s_vars=("S2", "S1"), t_vars=("T",), w_vars=("W1", "W2"), z_vars=("Z",),
        s_select=(("s", "q"), ("r", "p")), t_select=(("t3",), ("t1",)),
        w_value=("w1", "a"),
    )
    for _ in range(5):
        size = int(np.prod([len(cats) for _, cats in schema]))
        table = make_table(schema, random_probs(rng, size))
        for stratum in stratum_assignments(design, table):
            if table.mass(stratum) == 0:
                continue
            assert_moments_match(table, design, stratum)


def test_float_table_cross_moments_close_to_oracle():
    spec = random_latent_spec(random.Random(12), k=4, n_strata=2)
    _, observable = generate_latent_model(spec, mode="float")
    design = _auto_design(spec)
    for stratum in stratum_assignments(design, observable):
        sm = cross_moment_matrices(observable, design, stratum)
        p, q, _ = cross_moments_per_entry(observable, design, stratum)
        assert np.allclose(sm.p, p.astype(float), rtol=0, atol=1e-15)
        assert np.allclose(sm.q, q.astype(float), rtol=0, atol=1e-15)


def test_table_arrays_are_read_only_copies():
    schema = [("A", ("a0", "a1")), ("B", ("b0", "b1"))]
    exact = np.array([[Fraction(1, 4)] * 2] * 2, dtype=object)
    floats = np.full((2, 2), 0.25)
    for mode, source in (("rational", exact), ("float", floats)):
        table = JointTable(schema, source, mode)
        source[0, 0] = source[0, 1]  # the caller's array stays writeable
        assert table.mass({"A": "a0", "B": "b0"}) == Fraction(1, 4)
        for derived in (table, table.marginal(["A"]), table.condition({"A": "a1"})):
            for array in (derived.num, derived.probs):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1
        with pytest.raises(AttributeError):
            table.num = floats


def test_unicode_digit_count_is_a_format_error():
    with pytest.raises(FormatError, match="line 2"):
        load_counts("X,T,S,count\nx0,t0,s0,²\nx1,t0,s0,3\n")


def test_unicode_digit_count_exits_as_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.csv").write_text("X,T,S,count\nx0,t0,s0,²\nx1,t0,s0,3\n")
    code = main(["bounds", "u.csv", "--exposure", "X", "--proxies", "T,S"])
    assert code == 4
    assert "count must be a nonnegative integer" in capsys.readouterr().err


def test_unicode_digit_rational_is_a_format_error():
    with pytest.raises(FormatError, match="not a rational number"):
        load_counts("A,prob\na0,\u0660.\u0665\na1,0.5\n")
    with pytest.raises(FormatError, match="not a rational number"):
        make_program(1, [(("\u0661",), "\u0661")], ("\u0661",))
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


def test_unicode_digit_prob_exits_as_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.csv").write_text(
        "X,T,S,prob\nx0,t0,s0,\u0660.\u0665\nx1,t0,s0,0.5\n", encoding="utf-8"
    )
    code = main(["bounds", "u.csv", "--exposure", "X", "--proxies", "T,S"])
    assert code == 4
    assert "not a rational number" in capsys.readouterr().err


def test_public_surfaces_the_benchmark_reads():
    """The benchmark turns .probs into decimal CSV cells and rebuilds
    float tables with a positional constructor; both must keep working."""
    spec = random_latent_spec(random.Random(3), k=3, n_strata=2)
    _, observable = generate_latent_model(spec)
    table = load_counts(_observable_csv(observable))
    flat = table.probs.reshape(-1)
    assert all(isinstance(p, Fraction) for p in flat)
    assert [Fraction(decimal_string(p)) for p in flat] == list(flat)
    floats = np.asarray(table.probs, dtype=float)
    rebuilt = JointTable(table.schema, floats, "float")
    assert rebuilt.mode == "float"
    assert (rebuilt.probs == floats).all()
