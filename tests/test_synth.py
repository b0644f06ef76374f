import random
from dataclasses import replace
from fractions import Fraction

import pytest

from causalprox import (
    ProxyDesign,
    SpecError,
    generate_latent_model,
    random_latent_spec,
    spec_design,
    spec_margins,
)
from causalprox.fixtures import (
    education_design,
    education_model,
    education_table,
    uninformative_anchor_table,
)
from synth_oracle import generate_latent_model_per_cell

F = Fraction


def test_education_model_reproduces_table_exactly():
    truth, observable = generate_latent_model(education_model())
    want = education_table()
    for x in ("x0", "x1"):
        for s in ("s0", "s1"):
            for t in ("t0", "t1"):
                assign = {"X": x, "S": s, "T": t}
                assert observable.prob(assign) == want.prob(assign)


def test_generate_latent_model_factorizes_exactly():
    rng = random.Random(31)
    spec = random_latent_spec(rng, k=3, n_strata=2)
    truth, observable = generate_latent_model(spec)
    assert truth.mode == "rational"
    total = F(0)
    for u in spec.latent_categories:
        for s in spec.s_categories:
            for t in spec.t_categories:
                for w in spec.w_categories:
                    for zi, z in enumerate(spec.z_categories):
                        iu = spec.latent_categories.index(u)
                        cell = truth.prob({
                            spec.latent_name: u, spec.s_name: s,
                            spec.t_name: t, spec.w_name: w, spec.z_name: z,
                        })
                        want = (
                            spec.z_dist[zi]
                            * spec.prior[zi][iu]
                            * spec.s_emission[zi][iu][spec.s_categories.index(s)]
                            * spec.t_emission[zi][iu][spec.t_categories.index(t)]
                            * spec.w_emission[zi][iu][spec.w_categories.index(w)]
                        )
                        assert cell == want
                        total += cell
    assert total == 1
    # observable is exactly the latent marginal
    obs_vars = list(observable.variables)
    assert spec.latent_name not in obs_vars
    remarg = truth.marginal(obs_vars)
    for s in spec.s_categories:
        a = {spec.s_name: s}
        assert observable.mass(a) == remarg.mass(a)


def assert_same_numerators(got, want):
    assert got.schema == want.schema and got.mode == want.mode
    assert got.den == want.den and type(got.den) is int
    assert got.num.shape == want.num.shape
    assert got.num.tolist() == want.num.tolist()
    assert all(type(n) is int for n in got.num.flat)


@pytest.mark.parametrize("k", range(2, 9))
def test_generator_matches_per_cell_oracle(k):
    rng = random.Random(7100 + k)
    for strata in (None, 2, 3, 4):
        for _ in range(3):
            spec = random_latent_spec(rng, k=k, n_strata=strata)
            for got, want in zip(
                generate_latent_model(spec), generate_latent_model_per_cell(spec)
            ):
                assert_same_numerators(got, want)


def test_generator_matches_oracle_on_fixture_specs():
    """Denominators 20, 10, 5, 15 and 55: the families' LCMs differ and
    the product over them needs the gcd step."""
    for got, want in zip(
        generate_latent_model(education_model()),
        generate_latent_model_per_cell(education_model()),
    ):
        assert_same_numerators(got, want)


def test_random_spec_margins_hold_across_k():
    rng = random.Random(2026)
    for k in range(2, 9):
        for _ in range(10):
            spec = random_latent_spec(rng, k=k)
            m = spec_margins(spec)
            assert m["prior_gap"] >= 0.02 - 1e-12
            assert m["anchor_gap"] >= 0.05 - 1e-12
            assert m["pencil_sigma"] >= 1e-3 - 1e-12
            for row in spec.prior:
                assert all(b > a for a, b in zip(row, row[1:]))
                assert sum(row) == 1


def test_random_spec_is_seed_deterministic():
    a = random_latent_spec(random.Random(99), k=4, n_strata=3)
    b = random_latent_spec(random.Random(99), k=4, n_strata=3)
    assert a == b
    c = random_latent_spec(random.Random(100), k=4, n_strata=3)
    assert c != a


def test_random_spec_infeasible_gap_raises():
    with pytest.raises(SpecError):
        random_latent_spec(random.Random(1), k=8, prior_gap=F(3, 100))
    with pytest.raises(SpecError):
        random_latent_spec(random.Random(1), k=1)


def test_spec_validation_rejects_bad_rows():
    base = education_model()
    with pytest.raises(SpecError, match="ints or Fractions"):
        replace(base, prior=((0.45, 0.55),))  # floats cannot sum to exactly 1
    with pytest.raises(SpecError):
        replace(base, prior=((F(11, 20), F(9, 20)),))  # decreasing prior, order known
    with pytest.raises(SpecError):
        replace(base, s_emission=(((F(1, 2), F(1, 3)), (F(2, 5), F(3, 5))),))  # bad row sum
    with pytest.raises(SpecError):
        replace(base, latent_name="S")  # clashes with proxy name


def test_education_design_is_the_models_spec_design():
    assert spec_design(education_model()) == education_design() == ProxyDesign(
        latent_name="Y",
        latent_categories=("y1", "y2"),
        s_vars=("S",),
        t_vars=("T",),
        w_vars=("X",),
        z_vars=(),
        s_select=(("s1",),),
        t_select=(("t1",),),
        w_value=("x1",),
        order_known=True,
    )


def test_uninformative_anchor_table_cells():
    table = uninformative_anchor_table()
    assert table.schema == (("S", ("s0", "s1")), ("T", ("t0", "t1")), ("X", ("x0", "x1")))
    assert table.mode == "rational" and table.den == 10**4
    assert table.num.tolist() == [[[1673, 717], [2072, 888]], [[2037, 873], [1218, 522]]]


def test_education_model_margins():
    m = spec_margins(education_model())
    assert m["prior_gap"] == pytest.approx(0.1, abs=1e-12)
    assert m["anchor_gap"] == pytest.approx(float(F(8, 15) - F(6, 55)), abs=1e-12)

