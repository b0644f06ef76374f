"""Per-stratum recovery code, kept for the test suite.

causalprox.eigenid recovers every stratum in one stacked pass: each stage
(SVD tests, pencil spectra, residuals, normalized inverses, prior
conjugation, prior ordering, anchor profiles) is one call over an
(m, k, k) stack.  The functions below are the sequential pipeline it
replaced, unchanged apart from taking its dataclasses and errors from the
package: `solve_pencil`, `recover_factors` and `_anchor_profile` handle
one stratum, and `identify_joint` loops over the strata in category order
and raises the first error it meets.  Tests require the package's results
and errors to equal theirs bit for bit.
"""

from dataclasses import replace

import numpy as np

from causalprox.eigenid import (
    DEFAULT_TOLERANCES,
    LatentFactors,
    PencilEigensystem,
    ReconstructedJoint,
    StratumMatrices,
    Tolerances,
    check_design,
    cross_moment_matrices,
    stratum_assignments,
)
from causalprox.errors import (
    ComplexEigenvalueError,
    DegenerateSpectrumError,
    DesignError,
    NonDiagonalError,
    NonPositiveEigenvalueError,
    OrderAmbiguityError,
    PivotError,
    RangeError,
    SingularMatrixError,
)
from causalprox.table import make_table


def _check_invertible(matrix: np.ndarray, name: str, tol: Tolerances) -> None:
    sigma = np.linalg.svd(matrix, compute_uv=False)
    ratio = float(sigma[-1] / sigma[0]) if sigma[0] > 0 else 0.0
    if ratio <= tol.singular:
        raise SingularMatrixError(
            f"cross-moment matrix {name} is numerically singular "
            f"(sigma_min/sigma_max = {ratio:.3e} <= {tol.singular:.3e})"
        )


def solve_pencil(
    p: np.ndarray, q: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> PencilEigensystem:
    """Solve (q - lambda p) x = 0 for a square pencil with real simple spectrum.

    Checks, in order: both matrices invertible; spectrum real; strictly
    positive; pairwise separated; right and left eigenvector residuals
    within tolerance.  Eigenvalues are returned ascending with matching
    right (columns) and left (columns, for the transposed pencil) vectors.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DesignError("pencil matrices must be square and equal-shaped")
    k = p.shape[0]
    _check_invertible(p, "P", tol)
    _check_invertible(q, "Q", tol)

    def real_spectrum(a, b):
        """Eigen-decompose solve(a, b); returns ascending (values, vectors)."""
        values, vectors = np.linalg.eig(np.linalg.solve(a, b))
        worst = float(np.abs(values.imag).max()) if k else 0.0
        if worst > tol.gap:
            raise ComplexEigenvalueError(
                f"pencil spectrum is not real (max |imag| = {worst:.3e})"
            )
        values = values.real
        order = np.argsort(values, kind="stable")
        return values[order], vectors[:, order].real

    values, right = real_spectrum(p, q)
    if values[0] <= tol.gap:
        raise NonPositiveEigenvalueError(
            f"pencil eigenvalue {values[0]:.3e} is not strictly positive"
        )
    gaps = np.diff(values)
    if k > 1 and float(gaps.min()) <= tol.gap:
        raise DegenerateSpectrumError(
            f"pencil eigenvalues are not separated (min gap = "
            f"{float(gaps.min()):.3e})"
        )
    left_values, left = real_spectrum(p.T, q.T)
    if float(np.abs(left_values - values).max()) > tol.gap:
        raise DegenerateSpectrumError(
            "left and right pencil spectra disagree beyond tolerance"
        )

    worst = 0.0
    for i, lam in enumerate(values):
        denom = max(1.0, float(np.abs(q).max()) + abs(lam) * float(np.abs(p).max()))
        r_res = float(np.abs((q - lam * p) @ right[:, i]).max())
        l_res = float(np.abs((q.T - lam * p.T) @ left[:, i]).max())
        worst = max(worst, r_res / denom, l_res / denom)
    if worst > tol.residual:
        raise DegenerateSpectrumError(
            f"pencil eigenvector residual {worst:.3e} exceeds tolerance"
        )
    return PencilEigensystem(
        values=tuple(float(v) for v in values),
        right=right,
        left=left,
        residual=worst,
    )


def _normalized_inverse(vectors: np.ndarray, what: str, tol: Tolerances):
    """Invert an eigenvector basis and rescale rows to leading entry 1.

    Returns (rows, normalizer): rows is the rescaled inverse, normalizer
    the diagonal of scale factors applied (one per row).
    """
    try:
        inv = np.linalg.inv(vectors)
    except np.linalg.LinAlgError as exc:
        raise PivotError(f"{what} eigenvector basis is singular") from exc
    pivots = inv[:, 0]
    vanishing = np.abs(pivots) <= tol.pivot * max(1.0, float(np.abs(inv).max()))
    if vanishing.any():
        raise PivotError(
            f"{what} basis row {int(np.argmax(vanishing))} has a vanishing "
            "leading entry; the unit-row normalization is undefined"
        )
    return inv / pivots[:, None], tuple((1.0 / pivots).tolist())


def _check_probability(values, what, tol: Tolerances) -> np.ndarray:
    """values clipped to [0, 1]; raises on the first entry, in C order,
    more than tol.prob outside.  -0.0 and NaN clip to 0.0."""
    values = np.asarray(values, dtype=float)
    outside = (values < -tol.prob) | (values > 1 + tol.prob)
    if outside.any():
        v = float(values.flat[np.argmax(outside)])
        raise RangeError(f"recovered {what} entry {v:.6g} is outside [0, 1]")
    return np.where(values > 0.0, np.minimum(values, 1.0), 0.0)


def recover_factors(
    system: PencilEigensystem,
    p: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
    stratum: tuple = (),
) -> LatentFactors:
    """Turn a solved pencil plus its P matrix into latent factors.

    The inverted right basis, rows scaled to leading entry 1, gives the
    t-conditional rows; the left basis gives the s rows; conjugating P by
    those inverses must leave a diagonal matrix whose entries are the
    latent prior.
    """
    p = np.asarray(p, dtype=float)
    t_rows, t_normalizer = _normalized_inverse(system.right, "right", tol)
    s_rows, s_normalizer = _normalized_inverse(system.left, "left", tol)
    # p factors as s_rows.T @ diag(prior) @ t_rows, so conjugating by the
    # inverses must leave a diagonal matrix
    mixed = np.linalg.inv(s_rows).T @ p @ np.linalg.inv(t_rows)
    diag = np.diag(mixed).copy()
    off = mixed - np.diag(diag)
    scale = max(1.0, float(np.abs(diag).max()))
    diag_residual = float(np.abs(off).max()) / scale
    if diag_residual > tol.diag:
        raise NonDiagonalError(
            f"prior recovery is not diagonal (off-diagonal residual "
            f"{diag_residual:.3e}); left/right eigenvector pairing failed"
        )
    prior = _check_probability(diag, "prior", tol)
    if (prior <= 0.0).any():
        raise RangeError(
            f"recovered prior entry {int(np.argmax(prior <= 0.0))} vanishes"
        )
    anchor = _check_probability(system.values, "anchor conditional", tol)
    # the normalized rows start with 1.0; clip the conditionals after it
    t_rows[:, 1:] = _check_probability(t_rows[:, 1:], "t conditional", tol)
    s_rows[:, 1:] = _check_probability(s_rows[:, 1:], "s conditional", tol)
    return LatentFactors(
        stratum=tuple(stratum),
        anchor=tuple(anchor.tolist()),
        prior=tuple(prior.tolist()),
        t_rows=t_rows,
        s_rows=s_rows,
        t_normalizer=t_normalizer,
        s_normalizer=s_normalizer,
        diag_residual=diag_residual,
        eigen_residual=system.residual,
    )


def _anchor_profile(sm: StratumMatrices, factors: LatentFactors, tol: Tolerances):
    """Recover f(w'|u, z) for every anchor value, given fixed factors.

    Returns (w_values, delta matrix indexed [anchor value][latent i],
    max off-diagonal residual, max replay residual over Q matrices).
    """
    w_values = list(sm.w_values)
    s_inv_t = np.linalg.inv(factors.s_rows).T
    t_inv = np.linalg.inv(factors.t_rows)
    prior = np.array(factors.prior)
    deltas = np.empty((len(w_values), len(prior)))
    worst_off = 0.0
    worst_replay = 0.0
    for a, w_value in enumerate(w_values):
        q = sm.floats[:, :, a]
        mixed = s_inv_t @ q @ t_inv
        diag = np.diag(mixed)
        scale = max(1.0, float(np.abs(prior).max()))
        off = float(np.abs(mixed - np.diag(diag)).max()) / scale
        if off > tol.diag:
            raise NonDiagonalError(
                f"anchor recovery for w={w_value!r} is not diagonal "
                f"(off-diagonal residual {off:.3e})"
            )
        worst_off = max(worst_off, off)
        delta = diag / prior
        deltas[a] = _check_probability(delta, f"anchor conditional {w_value!r}", tol)
        replay = factors.s_rows.T @ np.diag(prior * deltas[a]) @ factors.t_rows
        worst_replay = max(worst_replay, float(np.abs(replay - q).max()))
    return w_values, deltas, worst_off, worst_replay


def _recover_stratum(table, design, stratum, tol):
    """Cross moments, pencil and factors for one stratum, in pencil order."""
    sm = cross_moment_matrices(table, design, stratum)
    system = solve_pencil(sm.p_float, sm.floats[:, :, sm.anchor], tol)
    return sm, recover_factors(system, sm.p_float, tol, stratum=sm.stratum)


def identify_joint(table, design, tol=DEFAULT_TOLERANCES) -> ReconstructedJoint:
    """Recover the joint of (latent, anchor, strata) one stratum at a time."""
    check_design(table, design)
    if not design.order_known:
        raise OrderAmbiguityError(
            "latent category order is declared unknown; the labeled joint is "
            "not identified (order-free bounds remain available)"
        )
    k = design.k
    w_axes = [table.categories(v) for v in design.w_vars]
    z_axes = [table.categories(v) for v in design.z_vars]
    latent_cats = design.latent_categories
    schema = [(design.latent_name, latent_cats)]
    schema += [(v, table.categories(v)) for v in design.w_vars]
    schema += [(v, table.categories(v)) for v in design.z_vars]
    shape = tuple(len(cats) for _, cats in schema)
    probs = np.zeros(shape, dtype=float)

    factors_out = []
    replay = {
        "cross_moment": 0.0,
        "anchor_diag": 0.0,
        "anchor_total": 0.0,
    }
    for stratum in stratum_assignments(design, table):
        sm, raw = _recover_stratum(table, design, stratum, tol)

        order = np.argsort(raw.prior, kind="stable")
        sorted_prior = [raw.prior[i] for i in order]
        gaps = [b - a for a, b in zip(sorted_prior, sorted_prior[1:])]
        if gaps and min(gaps) <= tol.order:
            raise OrderAmbiguityError(
                f"latent prior entries are not separated in stratum "
                f"{dict(sm.stratum) or '{}'} (min gap {min(gaps):.3e}); the "
                "increasing-prior labeling is ambiguous"
            )
        factors = replace(
            raw,
            anchor=tuple(raw.anchor[i] for i in order),
            prior=tuple(sorted_prior),
            t_rows=raw.t_rows[order],
            s_rows=raw.s_rows[order],
            t_normalizer=tuple(raw.t_normalizer[i] for i in order),
            s_normalizer=tuple(raw.s_normalizer[i] for i in order),
        )
        factors_out.append(factors)

        p_replay = factors.s_rows.T @ np.diag(factors.prior) @ factors.t_rows
        p_gap = float(np.abs(p_replay - sm.p_float).max())
        w_values, deltas, off, q_gap = _anchor_profile(sm, factors, tol)
        totals = deltas.sum(axis=0)
        total_gap = float(np.abs(totals - 1.0).max())
        replay["cross_moment"] = max(replay["cross_moment"], p_gap, q_gap)
        replay["anchor_diag"] = max(replay["anchor_diag"], off)
        replay["anchor_total"] = max(replay["anchor_total"], total_gap)

        zmass = sm.total / table.den
        z_index = tuple(
            z_axes[n].index(dict(sm.stratum)[v])
            for n, v in enumerate(design.z_vars)
        )
        for a, w_value in enumerate(w_values):
            w_index = tuple(w_axes[n].index(val) for n, val in enumerate(w_value))
            for i in range(k):
                probs[(i,) + w_index + z_index] = deltas[a][i] * factors.prior[i] * zmass

    total = float(probs.sum())
    if abs(total - 1.0) > tol.prob:
        raise RangeError(
            f"reconstructed joint has total mass {total:.8f}; recovery is "
            "inconsistent with a probability table"
        )
    probs /= total
    return ReconstructedJoint(
        table=make_table(schema, probs, "float"),
        design=design,
        factors=tuple(factors_out),
        replay=replay,
    )
