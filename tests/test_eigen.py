import gc
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from causalprox import (
    DEFAULT_TOLERANCES,
    DegenerateSpectrumError,
    DesignError,
    OrderAmbiguityError,
    PatternError,
    ProxyDesign,
    RangeError,
    SchemaMismatchError,
    SingularMatrixError,
    Tolerances,
    UnknownVariableError,
    ZeroMassError,
    check_design,
    cross_moment_matrices,
    generate_latent_model,
    identify_causal_effect,
    identify_joint,
    load_counts,
    make_table,
    order_free_bounds,
    random_latent_spec,
    recover_factors,
    solve_pencil,
    spec_design,
)
from causalprox import eigenid
from causalprox.fixtures import (
    chain_diagram,
    education_design,
    education_table_csv,
    education_model,
    education_table,
    uninformative_anchor_table,
)

F = Fraction


def test_cross_moment_matrices_match_derived_values():
    sm = cross_moment_matrices(education_table(), education_design())
    p_want = [[F(1), F(47, 100)], [F(93, 200), F(87, 500)]]
    q_want = [[F(3, 10), F(51, 250)], [F(27, 250), F(81, 1250)]]
    assert [[sm.p[i][j] for j in range(2)] for i in range(2)] == p_want
    assert [[sm.q[i][j] for j in range(2)] for i in range(2)] == q_want


def test_pencil_eigenvalues_are_the_anchor_conditionals():
    sm = cross_moment_matrices(education_table(), education_design())
    system = solve_pencil(sm.p, sm.q)
    assert system.values == pytest.approx(
        sorted([float(F(6, 55)), float(F(8, 15))]), abs=1e-12
    )
    assert system.residual <= DEFAULT_TOLERANCES.residual


def test_recover_factors_yields_prior_and_emission_rows():
    sm = cross_moment_matrices(education_table(), education_design())
    system = solve_pencil(sm.p, sm.q)
    factors = recover_factors(system, sm.p)
    assert sorted(factors.prior) == pytest.approx([0.45, 0.55], abs=1e-12)
    # one latent category emits t1 with 0.8, the other with 0.2
    t_cols = sorted(row[1] for row in factors.t_rows)
    s_cols = sorted(row[1] for row in factors.s_rows)
    assert t_cols == pytest.approx([0.2, 0.8], abs=1e-12)
    assert s_cols == pytest.approx([0.3, 0.6], abs=1e-12)
    assert factors.diag_residual <= 1e-10


def test_identify_joint_reconstructs_latent_joint():
    recon = identify_joint(education_table(), education_design())
    want = {
        ("y1", "x0"): 0.21, ("y1", "x1"): 0.24,
        ("y2", "x0"): 0.49, ("y2", "x1"): 0.06,
    }
    for (y, x), value in want.items():
        assert recon.table.prob({"Y": y, "X": x}) == pytest.approx(value, abs=1e-12)
    assert recon.replay["cross_moment"] <= 1e-12
    # prior labeling is ascending
    priors = [f.prior for f in recon.factors]
    for row in priors:
        assert list(row) == sorted(row)


def test_identified_effects_match_derived_truth():
    table = education_table()
    graph = chain_diagram()
    design = education_design()
    for xv, want in (("x1", 0.8), ("x0", 0.3)):
        res = identify_causal_effect(table, graph, design, {"X": xv}, "Y")
        assert res.criterion == "backdoor"
        assert res.adjustment == ()
        assert res.distribution.prob({"Y": "y1"}) == pytest.approx(want, abs=1e-12)


def test_effect_pattern_errors():
    table = education_table()
    graph = chain_diagram()
    design = education_design()
    with pytest.raises(PatternError):
        identify_causal_effect(table, graph, design, {"X": "x1"}, "X")
    with pytest.raises(PatternError):
        identify_causal_effect(table, graph, design, {"Y": "y1"}, "Y")
    with pytest.raises(PatternError):
        identify_causal_effect(table, graph, design, {"X": "x1", "Y": "y1"}, "Y")
    with pytest.raises(PatternError):
        # S is a proxy, not recovered alongside the latent joint
        identify_causal_effect(table, graph, design, {"S": "s1"}, "Y")


def test_order_free_bounds_on_education_data():
    table = education_table()
    design = education_design()
    res1 = order_free_bounds(table, design, {"X": "x1"})
    assert res1.lower == pytest.approx(0.2, abs=1e-9)
    assert res1.upper == pytest.approx(0.8, abs=1e-9)
    res0 = order_free_bounds(table, design, {"X": "x0"})
    assert res0.lower == pytest.approx(0.3, abs=1e-9)
    assert res0.upper == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(PatternError):
        order_free_bounds(table, design, {"S": "s1"})


def test_order_free_bounds_contain_every_labeling_on_synthetic_models():
    rng = random.Random(606)
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        spec = random_latent_spec(rng, k=k)
        truth, obs = generate_latent_model(spec)
        design = spec_design(spec)
        recon = identify_joint(obs, design)
        w_sel = spec.w_categories[1]
        res = order_free_bounds(obs, design, {spec.w_name: w_sel})
        cond = recon.table.condition({spec.w_name: w_sel})
        values = [
            cond.mass({spec.latent_name: u}) for u in spec.latent_categories
        ]
        for v in values:
            assert res.lower - 1e-9 <= v <= res.upper + 1e-9
        assert res.lower == pytest.approx(min(values), abs=1e-9)
        assert res.upper == pytest.approx(max(values), abs=1e-9)


def test_round_trip_identification_fast_subset():
    rng = random.Random(11)
    for _ in range(150):
        k = rng.choice([2, 3, 4])
        strata = rng.choice([None, 2, 3])
        spec = random_latent_spec(rng, k=k, n_strata=strata)
        truth, obs = generate_latent_model(spec)
        latent_vars = [spec.latent_name, spec.w_name] + (
            [spec.z_name] if spec.z_name else []
        )
        want = truth.marginal(latent_vars)
        recon = identify_joint(obs, spec_design(spec))
        tv = 0.0
        axes = [want.categories(v) for v in want.variables]
        for combo in itertools.product(*axes):
            assign = dict(zip(want.variables, combo))
            tv += abs(float(want.prob(assign)) - recon.table.prob(assign))
        assert tv / 2 <= 1e-8


def test_uninformative_anchor_fails_eigen_separation():
    table = uninformative_anchor_table()
    with pytest.raises(DegenerateSpectrumError):
        identify_joint(table, education_design())


def test_duplicate_emission_rows_fail_invertibility():
    row = (F(3, 10), F(7, 10))
    spec = replace(education_model(), s_emission=((row, row),))
    truth, obs = generate_latent_model(spec)
    with pytest.raises(SingularMatrixError):
        identify_joint(obs, education_design())


def test_order_unknown_design_is_rejected_for_point_identification():
    table = education_table()
    design = replace(education_design(), order_known=False)
    with pytest.raises(OrderAmbiguityError):
        identify_joint(table, design)
    # order-free bounds still work without the labeling device
    res = order_free_bounds(table, design, {"X": "x1"})
    assert res.lower == pytest.approx(0.2, abs=1e-9)


def test_design_validation():
    base = education_design()
    with pytest.raises(DesignError):
        ProxyDesign(
            latent_name="Y", latent_categories=("y1", "y2"),
            s_vars=("S",), t_vars=("S",),  # role overlap
            w_vars=("X",), z_vars=(),
            s_select=(("s1",),), t_select=(("t1",),),
            w_value=("x1",), order_known=True,
        )
    with pytest.raises(DesignError):
        ProxyDesign(
            latent_name="Y", latent_categories=("y1",),  # one category
            s_vars=("S",), t_vars=("T",), w_vars=("X",), z_vars=(),
            s_select=(), t_select=(),
            w_value=("x1",), order_known=True,
        )
    with pytest.raises(DesignError):
        ProxyDesign(
            latent_name="Y", latent_categories=("y1", "y2"),
            s_vars=("S",), t_vars=("T",), w_vars=("X",), z_vars=(),
            s_select=(("s1",), ("s1",)),  # wrong select arity for k=2
            t_select=(("t1",),),
            w_value=("x1",), order_known=True,
        )
    back = ProxyDesign.from_json(base.to_json())
    assert back == base


@pytest.mark.parametrize("field, value, message", [
    ("s_select", [5], "s_select must be a list of value lists of hashable values, got [5]"),
    ("latent_categories", 5, "latent_categories must be a list of hashable values, got 5"),
    ("w_value", 3, "w_value must be a list of hashable values, got 3"),
    ("latent_categories", [["a"], ["b"]],
     "latent_categories must be a list of hashable values, got [['a'], ['b']]"),
])
def test_design_fields_of_the_wrong_type_raise_design_error(field, value, message):
    base = education_design()
    with pytest.raises(DesignError) as err:
        replace(base, **{field: value})
    assert type(err.value) is DesignError and str(err.value) == message
    payload = base.to_json()
    section, key = {"s_select": ("select", "s"), "w_value": ("select", "w"),
                    "latent_categories": ("latent", "categories")}[field]
    payload[section][key] = value
    with pytest.raises(DesignError) as err:
        ProxyDesign.from_json(payload)
    assert type(err.value) is DesignError
    assert str(err.value) == f"malformed design payload: {message}"


def test_check_design_schema_mismatch():
    table = education_table()
    base = education_design()
    check_design(table, base)
    design = replace(base, s_vars=("Q",), s_select=(("q1",),))
    with pytest.raises(DesignError):
        check_design(table, design)
    rng = random.Random(12)
    spec = random_latent_spec(rng, k=2, n_strata=2)
    truth, obs = generate_latent_model(spec)
    latent_leak = replace(
        spec_design(spec),
        latent_name=spec.z_name,  # collides with an observed column
        latent_categories=("a", "b"),
        z_vars=(),
    )
    with pytest.raises((SchemaMismatchError, DesignError)):
        check_design(obs, latent_leak)


def _with_empty_stratum(table):
    """table beside a second stratum z1 of zero mass, as a table over (..., Z)."""
    schema = list(table.schema) + [("Z", ("z0", "z1"))]
    probs = np.zeros(table.num.shape + (2,), dtype=object)
    probs[..., 0] = table.probs
    return make_table(schema, probs)


def test_zero_mass_stratum_raises():
    table = _with_empty_stratum(education_table())
    design = replace(education_design(), z_vars=("Z",))
    with pytest.raises(ZeroMassError):
        identify_joint(table, design)


def test_cross_moment_matrices_errors_on_bad_stratum_or_anchor():
    """A design that does not fit the table fails check_design, as it does
    for identify_joint."""
    table, design = education_table(), education_design()
    with pytest.raises(UnknownVariableError, match="^variable 'Q' not in table$"):
        cross_moment_matrices(table, design, {"Q": "q0"})
    with pytest.raises(DesignError, match="^w selection value 'x9' is not a category of 'X'$"):
        cross_moment_matrices(table, replace(design, w_value=("x9",)))
    with pytest.raises(DesignError, match="^role S variable 'Q' not in the table$"):
        cross_moment_matrices(table, replace(design, s_vars=("Q",), s_select=(("q1",),)))
    with pytest.raises(ZeroMassError, match=r"^stratum \{'Z': 'z1'\} has zero mass$"):
        cross_moment_matrices(_with_empty_stratum(table), replace(design, z_vars=("Z",)),
                              {"Z": "z1"})


def test_tolerance_clamping_bounds():
    tol = Tolerances(prob=1e-6)
    table = education_table()
    design = education_design()
    # within clamp: fine; a visibly negative prior must raise instead
    recon = identify_joint(table, design, tol)
    assert recon.table.prob({"Y": "y1", "X": "x1"}) >= 0
    strict = Tolerances(prob=1e-16, diag=1e-6)
    # float noise slightly outside 1e-16 leads to a range rejection
    with pytest.raises(RangeError):
        identify_joint(table, design, strict)


def test_proxy_label_permutation_equivariance():
    # permuting proxy category labels (with the matching design update)
    # leaves the recovered latent joint unchanged
    spec = education_model()
    truth, obs = generate_latent_model(spec)
    base = identify_joint(obs, education_design())

    relabel = {"s0": "sB", "s1": "sA"}
    schema = [
        (name, tuple(relabel.get(c, c) for c in obs.categories(name)))
        for name in obs.variables
    ]
    import numpy as np_mod
    from causalprox import make_table

    shape = tuple(len(cats) for _, cats in schema)
    arr = np_mod.empty(shape, dtype=object)
    axes = [obs.categories(v) for v in obs.variables]
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        assign = {v: axes[d][i] for d, (v, i) in enumerate(zip(obs.variables, idx))}
        arr[idx] = obs.prob(assign)
    relabeled = make_table(schema, arr)

    design = ProxyDesign(
        latent_name="Y", latent_categories=("y1", "y2"),
        s_vars=("S",), t_vars=("T",), w_vars=("X",), z_vars=(),
        s_select=(("sA",),), t_select=(("t1",),),
        w_value=("x1",), order_known=True,
    )
    again = identify_joint(relabeled, design)
    for y in ("y1", "y2"):
        for x in ("x0", "x1"):
            assert again.table.prob({"Y": y, "X": x}) == pytest.approx(
                base.table.prob({"Y": y, "X": x}), abs=1e-12
            )


def test_latent_category_cap():
    with pytest.raises(DesignError):
        ProxyDesign(
            latent_name="U",
            latent_categories=tuple(f"u{i}" for i in range(17)),
            s_vars=("S",), t_vars=("T",), w_vars=("X",), z_vars=(),
            s_select=tuple((f"s{i}",) for i in range(1, 17)),
            t_select=tuple((f"t{i}",) for i in range(1, 17)),
            w_value=("x1",), order_known=True,
        )


def test_design_built_from_lists_equals_the_tuple_design():
    listed = ProxyDesign(
        latent_name="Y", latent_categories=["y1", "y2"],
        s_vars=["S"], t_vars=["T"], w_vars=["X"], z_vars=[],
        s_select=[["s1"]], t_select=[["t1"]], w_value=["x1"],
    )
    assert listed == education_design()
    assert hash(listed) == hash(education_design())
    recon = identify_joint(education_table(), listed)
    assert recon.table.prob({"Y": "y1", "X": "x1"}) == pytest.approx(0.24, abs=1e-12)


@pytest.fixture
def recoveries(monkeypatch):
    """The number of stacked recoveries identify_joint runs from here on."""
    calls = []
    real = eigenid._recover_strata

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(eigenid, "_recover_strata", counting)
    return calls


def test_effects_of_one_table_share_one_reconstruction(recoveries):
    table, graph, design = education_table(), chain_diagram(), education_design()
    recon = identify_joint(table, design)
    for category in table.categories("X"):
        effect = identify_causal_effect(table, graph, design, {"X": category}, "Y")
        assert effect.reconstruction is recon
    assert identify_joint(table, design, Tolerances()) is recon
    assert len(recoveries) == 1


def test_reconstruction_is_kept_per_table_object_and_tolerances(recoveries):
    table, design = education_table(), education_design()
    recon = identify_joint(table, design)
    assert identify_joint(table, design, Tolerances(gap=1e-7)) is not recon
    again = identify_joint(load_counts(education_table_csv()), design)
    assert again is not recon
    assert again.table.num.tobytes() == recon.table.num.tobytes()
    assert len(recoveries) == 3


def test_failed_recovery_is_not_kept(recoveries):
    table = uninformative_anchor_table()
    messages = []
    for _ in range(2):
        with pytest.raises(DegenerateSpectrumError) as err:
            identify_joint(table, education_design())
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert len(recoveries) == 2
    assert table not in eigenid._JOINTS


def test_kept_reconstruction_goes_with_its_table():
    gc.collect()
    before = len(eigenid._JOINTS)
    table = education_table()
    identify_joint(table, education_design())
    assert len(eigenid._JOINTS) == before + 1
    del table
    gc.collect()
    assert len(eigenid._JOINTS) == before


def test_shared_reconstruction_is_read_only():
    recon = identify_joint(education_table(), education_design())
    factors = recon.factors[0]
    for rows in (factors.t_rows, factors.s_rows):
        with pytest.raises(ValueError):
            rows[0, 0] = 0.5
    with pytest.raises(TypeError):
        recon.replay["cross_moment"] = 1.0
    assert recon.replay == dict(recon.replay)
