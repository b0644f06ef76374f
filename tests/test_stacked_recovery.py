"""The stacked recovery in causalprox.eigenid against the sequential oracle.

identify_joint recovers every stratum in one stacked pass; the one-stratum
loop it replaced lives on in eigen_oracle.py.  The sweep requires the two
to agree bit for bit on every field, and on the type, code and message of
every error.  The kernel tests put one failing slot beside a good one and
require the good slot to equal its batch-of-one result.  Failed slots
divide by vanishing pivots and priors, so the module turns RuntimeWarning
into an error: none may reach library users.
"""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import eigen_oracle
from causalprox import (
    DEFAULT_TOLERANCES,
    CausalProxError,
    ComplexEigenvalueError,
    NonPositiveEigenvalueError,
    OrderAmbiguityError,
    PivotError,
    RangeError,
    Tolerances,
    ZeroMassError,
    cross_moment_matrices,
    eigenid,
    generate_latent_model,
    identify_joint,
    make_table,
    random_latent_spec,
    recover_factors,
    solve_pencil,
    spec_design,
)
from causalprox.fixtures import education_design, education_table

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOLERANCE_SETS = (
    DEFAULT_TOLERANCES,
    Tolerances(singular=1e-3, gap=1e-2, residual=1e-12, prob=1e-9, diag=1e-12, order=1e-2),
    Tolerances(gap=5e-2, order=5e-2, prob=1e-12),
    Tolerances(residual=1e-15, diag=1e-15),
)
FACTOR_FIELDS = (
    "stratum", "anchor", "prior", "t_normalizer", "s_normalizer",
    "diag_residual", "eigen_residual",
)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except CausalProxError as exc:
        return None, exc


def _assert_same_factors(got, want):
    assert got.t_rows.tobytes() == want.t_rows.tobytes()
    assert got.s_rows.tobytes() == want.s_rows.tobytes()
    for field in FACTOR_FIELDS:
        assert getattr(got, field) == getattr(want, field), field


def _assert_same_outcome(got, want):
    (recon, error), (want_recon, want_error) = got, want
    assert type(error) is type(want_error)
    if want_error is not None:
        assert (error.code, str(error)) == (want_error.code, str(want_error))
        return
    assert recon.table.num.tobytes() == want_recon.table.num.tobytes()
    assert recon.replay == want_recon.replay
    assert len(recon.factors) == len(want_recon.factors)
    for factors, want_factors in zip(recon.factors, want_recon.factors):
        _assert_same_factors(factors, want_factors)


def _sweep(seeds):
    """Codes raised over seeded models, k 2..8, strata none/2/3/4, each
    recovered under every tolerance set by both pipelines."""
    codes = []
    for seed in seeds:
        for k in range(2, 9):
            for strata in (None, 2, 3, 4):
                rng = random.Random(seed * 1000 + k * 10 + (strata or 0))
                spec = random_latent_spec(rng, k=k, n_strata=strata)
                _, observable = generate_latent_model(spec)
                design = spec_design(spec)
                for tol in TOLERANCE_SETS:
                    want = _outcome(eigen_oracle.identify_joint, observable, design, tol)
                    _assert_same_outcome(_outcome(identify_joint, observable, design, tol), want)
                    codes.append(want[1] and want[1].code)
    return codes


def test_stacked_recovery_matches_sequential_oracle():
    codes = _sweep(range(2))
    assert None in codes  # some runs recover ...
    assert {"E_SINGULAR", "E_NONDIAGONAL", "E_ORDER_AMBIGUOUS"} <= set(codes)  # ... some fail


@pytest.mark.slow
def test_stacked_recovery_matches_sequential_oracle_full_sweep():
    codes = _sweep(range(30))
    assert len(codes) == 3360
    assert {"E_SINGULAR", "E_EIG_GAP", "E_NONDIAGONAL", "E_ORDER_AMBIGUOUS"} <= set(codes)


def test_stacked_recovery_matches_oracle_on_float_tables():
    for seed in range(6):
        rng = random.Random(seed)
        spec = random_latent_spec(rng, k=rng.choice([2, 3, 5]), n_strata=rng.choice([None, 2, 3]))
        _, observable = generate_latent_model(spec)
        table, design = observable.to_float(), spec_design(spec)
        _assert_same_outcome(
            _outcome(identify_joint, table, design, DEFAULT_TOLERANCES),
            _outcome(eigen_oracle.identify_joint, table, design, DEFAULT_TOLERANCES),
        )


def test_first_failing_stratum_wins_over_earlier_stage_failures():
    # stratum z0 fails late (its prior entries nearly tie: order check);
    # stratum z1 fails early (duplicate s rows: P is singular)
    base = random_latent_spec(random.Random(3), k=3, n_strata=2)
    third, eps = Fraction(1, 3), Fraction(1, 10**8)
    spec = replace(
        base,
        prior=((third - eps, third, third + eps), base.prior[1]),
        s_emission=(base.s_emission[0], (base.s_emission[1][0],) * 3),
    )
    _, observable = generate_latent_model(spec)
    design = spec_design(spec)
    with pytest.raises(OrderAmbiguityError, match=r"stratum \{'Z': 'z0'\}"):
        identify_joint(observable, design)
    _assert_same_outcome(
        _outcome(identify_joint, observable, design, DEFAULT_TOLERANCES),
        _outcome(eigen_oracle.identify_joint, observable, design, DEFAULT_TOLERANCES),
    )
    # alone, z0's pencil solves and z1's fails its first check
    pencils = [cross_moment_matrices(observable, design, {"Z": z}) for z in ("z0", "z1")]
    assert _outcome(solve_pencil, pencils[0].p, pencils[0].q)[1] is None
    assert _outcome(solve_pencil, pencils[1].p, pencils[1].q)[1].code == "E_SINGULAR"


# ---------------------------------------------------------------------------
# Kernels: one bad slot beside a good one


def _good_pencil():
    sm = cross_moment_matrices(education_table(), education_design())
    return np.asarray(sm.p, dtype=float), np.asarray(sm.q, dtype=float)


def _solve_two(p_bad, q_bad):
    p, q = _good_pencil()
    fail = eigenid._Failures([None, None])
    system = eigenid._solve_pencils(np.stack([p, p_bad]), np.stack([q, q_bad]),
                                    DEFAULT_TOLERANCES, fail)
    want = solve_pencil(p, q)
    assert fail[0] is None
    assert tuple(system.values[0].tolist()) == want.values
    assert system.right[0].tobytes() == want.right.tobytes()
    assert system.left[0].tobytes() == want.left.tobytes()
    assert float(system.residual[0]) == want.residual
    return system, fail


def _factor_two(system, p_bad):
    """The factor stage over system's two slots, slot 0 checked."""
    p, _ = _good_pencil()
    fail = eigenid._Failures([None, None])
    factors = eigenid._recover_factor_stack(system, np.stack([p, p_bad]), DEFAULT_TOLERANCES, fail)
    assert fail[0] is None
    _assert_same_factors(factors.slot(0, ()), recover_factors(solve_pencil(*_good_pencil()), p))
    return fail


def test_stacked_pencil_records_complex_and_negative_spectra():
    rotation = np.array([[0.5, -0.4], [0.4, 0.5]])
    _, fail = _solve_two(np.eye(2), rotation)
    assert isinstance(fail[1], ComplexEigenvalueError) and fail[1].code == "E_COMPLEX_EIGS"
    assert str(fail[1]) == "pencil spectrum is not real (max |imag| = 4.000e-01)"
    _, fail = _solve_two(np.eye(2), np.diag([0.5, -0.2]))
    assert isinstance(fail[1], NonPositiveEigenvalueError) and fail[1].code == "E_EIG_SIGN"
    assert str(fail[1]) == "pencil eigenvalue -2.000e-01 is not strictly positive"


def test_stacked_factors_record_pivot_failures():
    # a diagonal pencil has the unit vectors as eigenvectors, so row 1 of
    # the inverted basis has no leading entry
    system, _ = _solve_two(np.eye(2), np.diag([0.3, 0.6]))
    fail = _factor_two(system, np.eye(2))
    assert isinstance(fail[1], PivotError) and fail[1].code == "E_PIVOT"
    assert str(fail[1]) == (
        "right basis row 1 has a vanishing leading entry; the unit-row "
        "normalization is undefined"
    )
    # an exactly singular basis fails that slot, not the stacked inverse
    singular = replace(system, right=np.stack([system.right[0], np.ones((2, 2))]))
    fail = _factor_two(singular, np.eye(2))
    assert str(fail[1]) == "right eigenvector basis is singular"
    with pytest.raises(PivotError, match="right eigenvector basis is singular"):
        recover_factors(replace(solve_pencil(*_good_pencil()), right=np.ones((2, 2))), np.eye(2))


def test_stacked_factors_record_out_of_range_conditionals():
    # doubling Q doubles the anchor conditionals: 0.533 becomes 1.067
    p, q = _good_pencil()
    system, _ = _solve_two(p, 2 * q)
    fail = _factor_two(system, p)
    assert isinstance(fail[1], RangeError) and fail[1].code == "E_RANGE"
    assert str(fail[1]) == "recovered anchor conditional entry 1.06667 is outside [0, 1]"


def test_stacked_range_check_rejects_nan_and_clips_negative_zero():
    fail = eigenid._Failures([None, None])
    prior = np.array([[0.45, -0.0], [np.nan, 0.55]])
    clipped, outside = eigenid._check_probability(prior, DEFAULT_TOLERANCES)
    eigenid._range_error(fail, "prior", prior, outside)
    assert fail[0] is None
    assert isinstance(fail[1], RangeError) and fail[1].code == "E_RANGE"
    assert str(fail[1]) == "recovered prior entry nan is outside [0, 1]"
    assert clipped[0].tolist() == [0.45, 0.0] and not np.signbit(clipped[0, 1])
    assert clipped[1].tolist() == [0.0, 0.55]
    # conditional rows of two slots: NaN in slot 1's second row
    fail = eigenid._Failures([None, None])
    conditionals = np.array([[[0.2], [0.8]], [[0.3], [np.nan]]])
    clipped, outside = eigenid._check_probability(conditionals, DEFAULT_TOLERANCES)
    eigenid._range_error(fail, "s conditional", conditionals, outside)
    assert fail[0] is None
    assert str(fail[1]) == "recovered s conditional entry nan is outside [0, 1]"
    assert clipped.tolist() == [[[0.2], [0.8]], [[0.3], [0.0]]]


def test_zero_mass_stratum_beside_a_good_one():
    edu = education_table()
    schema = [(v, edu.categories(v)) for v in edu.variables] + [("Z", ("z0", "z1"))]
    probs = np.zeros(edu.num.shape + (2,), dtype=object)
    probs[..., 0] = edu.probs  # all mass in z0
    table = make_table(schema, probs)
    design = replace(education_design(), z_vars=("Z",))
    strata = eigenid.stratum_assignments(design, table)
    fail = eigenid._Failures([None, None])
    factors = eigenid._recover_strata(table, design, strata, DEFAULT_TOLERANCES, fail)[-1]
    assert fail[0] is None
    assert isinstance(fail[1], ZeroMassError)
    assert str(fail[1]) == "stratum {'Z': 'z1'} has zero mass"
    sm = cross_moment_matrices(table, design, {"Z": "z0"})
    p, q = np.asarray(sm.p, dtype=float), np.asarray(sm.q, dtype=float)
    want = recover_factors(solve_pencil(p, q), p)
    _assert_same_factors(factors.slot(0, ()), want)
    with pytest.raises(ZeroMassError, match="z1"):
        identify_joint(table, design)
