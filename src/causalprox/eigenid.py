"""Latent-joint identification from two proxies and an anchor.

Given an observable table over proxies S and T, an anchor W, and optional
strata Z, the latent joint f(u, w, z) is recovered per stratum from two
cross-moment matrices built over selected proxy events.  Their generalized
eigenproblem has the anchor conditionals f(w|u, z) as eigenvalues; the
eigenvector bases, fixed by a known-row normalization, yield the proxy
emission rows and the latent prior.  Every algebraic step is checked
against an explicit tolerance and fails with a coded error instead of
returning a silently bad reconstruction.

Eigenvalue order carries no category labels by itself.  When the latent
prior is known to be strictly increasing, sorting the recovered prior
entries pins the labeling (identify_joint).  Without that, only quantities
invariant to relabeling are available (order_free_bounds).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    ComplexEigenvalueError,
    DegenerateSpectrumError,
    DesignError,
    NoCriterionError,
    NonDiagonalError,
    NonPositiveEigenvalueError,
    OrderAmbiguityError,
    PatternError,
    PivotError,
    PositivityError,
    RangeError,
    SingularMatrixError,
    ZeroMassError,
)
from .graph import CausalDiagram, find_adjustment_set
from .table import JointTable, backdoor_adjust, frontdoor_adjust, make_table

MAX_LATENT_CATEGORIES = 16


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for the identification pipeline.

    singular is relative: a cross-moment matrix counts as singular when its
    smallest singular value is at most singular times its largest, so the
    test does not depend on the matrix size k or on the table's scale.
    """

    singular: float = 1e-10
    gap: float = 1e-6
    residual: float = 1e-8
    pivot: float = 1e-10
    prob: float = 1e-6
    diag: float = 1e-6
    order: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class ProxyDesign:
    """Role assignment and event selection for one identification run.

    s_select and t_select each list k-1 value vectors (over s_vars and
    t_vars respectively); together with the constant row/column they make
    the cross-moment matrices square.  w_value is the anchor assignment
    that defines the pencil's second matrix.
    """

    latent_name: str
    latent_categories: tuple
    s_vars: tuple
    t_vars: tuple
    w_vars: tuple
    z_vars: tuple
    s_select: tuple
    t_select: tuple
    w_value: tuple
    order_known: bool = True

    @property
    def k(self):
        return len(self.latent_categories)

    def __post_init__(self):
        k = self.k
        if k < 2:
            raise DesignError("latent variable needs at least two categories")
        if k > MAX_LATENT_CATEGORIES:
            raise DesignError(
                f"latent variable has {k} categories; the supported maximum "
                f"is {MAX_LATENT_CATEGORIES}"
            )
        if len(set(self.latent_categories)) != k:
            raise DesignError("latent categories must be distinct")
        roles = {
            "S": self.s_vars,
            "T": self.t_vars,
            "W": self.w_vars,
            "Z": self.z_vars,
        }
        seen = {}
        for role, vars_ in roles.items():
            if role != "Z" and not vars_:
                raise DesignError(f"role {role} needs at least one variable")
            if len(set(vars_)) != len(vars_):
                raise DesignError(f"role {role} lists a variable twice")
            for v in vars_:
                if v == self.latent_name:
                    raise DesignError(
                        f"latent variable {v!r} cannot also play role {role}"
                    )
                if v in seen:
                    raise DesignError(
                        f"variable {v!r} assigned to both {seen[v]} and {role}"
                    )
                seen[v] = role
        for label, select, vars_ in (
            ("s", self.s_select, self.s_vars),
            ("t", self.t_select, self.t_vars),
        ):
            if len(select) != k - 1:
                raise DesignError(
                    f"{label}_select needs exactly {k - 1} value vectors, "
                    f"got {len(select)}"
                )
            for vec in select:
                if len(vec) != len(vars_):
                    raise DesignError(
                        f"{label}_select vector {vec!r} does not match "
                        f"variables {vars_!r}"
                    )
            if len(set(select)) != len(select):
                raise DesignError(f"{label}_select lists a vector twice")
        if len(self.w_value) != len(self.w_vars):
            raise DesignError("w_value does not match the anchor variables")

    def to_json(self) -> dict:
        return {
            "latent": {
                "name": self.latent_name,
                "categories": list(self.latent_categories),
                "order_known": self.order_known,
            },
            "roles": {
                "S": list(self.s_vars),
                "T": list(self.t_vars),
                "W": list(self.w_vars),
                "Z": list(self.z_vars),
            },
            "select": {
                "s": [list(v) for v in self.s_select],
                "t": [list(v) for v in self.t_select],
                "w": list(self.w_value),
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ProxyDesign":
        try:
            latent = payload["latent"]
            roles = payload["roles"]
            select = payload["select"]
            return cls(
                latent_name=latent["name"],
                latent_categories=tuple(latent["categories"]),
                order_known=bool(latent.get("order_known", True)),
                s_vars=tuple(roles["S"]),
                t_vars=tuple(roles["T"]),
                w_vars=tuple(roles["W"]),
                z_vars=tuple(roles.get("Z", ())),
                s_select=tuple(tuple(v) for v in select["s"]),
                t_select=tuple(tuple(v) for v in select["t"]),
                w_value=tuple(select["w"]),
            )
        except (KeyError, TypeError) as exc:
            raise DesignError(f"malformed design payload: {exc}") from exc


def check_design(table: JointTable, design: ProxyDesign) -> None:
    """Validate a design against the observable table it will be run on."""
    if design.latent_name in table.variables:
        raise DesignError(
            f"latent variable {design.latent_name!r} appears in the "
            "observable table; identification expects it hidden"
        )
    for role, vars_ in (
        ("S", design.s_vars),
        ("T", design.t_vars),
        ("W", design.w_vars),
        ("Z", design.z_vars),
    ):
        for v in vars_:
            if v not in table.variables:
                raise DesignError(f"role {role} variable {v!r} not in the table")
    for label, select, vars_ in (
        ("s", design.s_select, design.s_vars),
        ("t", design.t_select, design.t_vars),
        ("w", (design.w_value,), design.w_vars),
    ):
        for vec in select:
            for var, val in zip(vars_, vec):
                if val not in table.categories(var):
                    raise DesignError(
                        f"{label} selection value {val!r} is not a category "
                        f"of {var!r}"
                    )


# ---------------------------------------------------------------------------
# Cross moments


@dataclass(frozen=True)
class StratumMatrices:
    """Square cross-moment matrices for one stratum, as numerators.

    counts[i, j, a] is the table numerator of (s event i AND t event j
    AND anchor value w_values[a]) inside the stratum, index 0 meaning "no
    constraint", and total is the stratum's own numerator, so every
    moment is exactly counts / total.  In rational mode both hold Python
    ints.  The pencil reads p_float and floats (indexed like counts), made
    by int / int true division, which rounds correctly: each entry equals
    float(Fraction) of the exact moment.
    by_anchor maps every anchor value to its exact matrix, p is their sum
    (the anchor summed out) and q the matrix at the design's anchor
    value; their entries keep the table's arithmetic mode.
    """

    stratum: tuple
    counts: np.ndarray
    total: object
    w_values: tuple
    anchor: int

    @property
    def k(self):
        return self.counts.shape[0]

    def _exact(self, counts):
        if counts.dtype == object:  # Python ints: one Fraction per entry
            return counts * Fraction(1, self.total)
        return counts / self.total

    @property
    def by_anchor(self):
        return {w: self._exact(self.counts[:, :, a]) for a, w in enumerate(self.w_values)}

    @property
    def p(self):
        return self._exact(self.counts.sum(axis=2))

    @property
    def q(self):
        return self._exact(self.counts[:, :, self.anchor])

    @cached_property
    def p_float(self):
        return np.asarray(self.counts.sum(axis=2) / self.total, dtype=float)

    @cached_property
    def floats(self):
        return np.asarray(self.counts / self.total, dtype=float)


def stratum_assignments(design: ProxyDesign, table: JointTable):
    """All strata as dicts, in category order; a single empty dict without Z."""
    if not design.z_vars:
        return [{}]
    axes = [table.categories(v) for v in design.z_vars]
    return [dict(zip(design.z_vars, combo)) for combo in itertools.product(*axes)]


def _event_rows(table, vars_, select):
    """Row of each selected value vector once the margin is row 0."""
    shape = [len(table.categories(v)) for v in vars_]
    return [0] + [
        1 + int(np.ravel_multi_index(
            [table._index_of(v, val) for v, val in zip(vars_, vec)], shape
        ))
        for vec in select
    ]


def cross_moment_matrices(
    table: JointTable,
    design: ProxyDesign,
    stratum: Optional[dict] = None,
) -> StratumMatrices:
    """Build the pencil matrices for one stratum, one per anchor value.

    Rows follow the s events, columns the t events, both prefixed by the
    unconstrained event.  The stratum's numerators are summed over every
    variable outside S, T and W once, then each matrix is read off by
    fancy indexing.  Raises ZeroMassError when the stratum itself has no
    mass.
    """
    stratum = dict(stratum or {})
    block = table._block(stratum)
    total = block.sum()
    if total == 0:
        raise ZeroMassError(f"stratum {stratum!r} has zero mass")
    # an anchor value outside the table raises the table's own error here
    table._block(dict(zip(design.w_vars, design.w_value)))

    roles = design.s_vars + design.t_vars + design.w_vars
    rest = [v for v in table.variables if v not in stratum]
    drop = tuple(i for i, v in enumerate(rest) if v not in roles)
    kept = [v for v in rest if v in roles]
    moments = block.sum(axis=drop) if drop else block
    moments = moments.transpose([kept.index(v) for v in roles])
    n_s = math.prod(len(table.categories(v)) for v in design.s_vars)
    n_t = math.prod(len(table.categories(v)) for v in design.t_vars)
    moments = moments.reshape(n_s, n_t, -1)
    # prepend the margins as row 0 and column 0
    moments = np.concatenate([moments.sum(axis=0, keepdims=True), moments], axis=0)
    moments = np.concatenate([moments.sum(axis=1, keepdims=True), moments], axis=1)
    rows = _event_rows(table, design.s_vars, design.s_select)
    cols = _event_rows(table, design.t_vars, design.t_select)
    w_values = tuple(itertools.product(*(table.categories(v) for v in design.w_vars)))
    return StratumMatrices(
        stratum=tuple(sorted(stratum.items())),
        counts=moments[np.ix_(rows, cols)],
        total=total,
        w_values=w_values,
        anchor=w_values.index(tuple(design.w_value)),
    )


# ---------------------------------------------------------------------------
# Pencil solve


@dataclass(frozen=True)
class PencilEigensystem:
    """Sorted real spectrum of the pencil plus right/left eigenvector bases."""

    values: tuple
    right: np.ndarray
    left: np.ndarray
    residual: float


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


# ---------------------------------------------------------------------------
# Factor recovery


@dataclass(frozen=True)
class LatentFactors:
    """Per-stratum latent factorization, aligned by pencil index.

    Row/entry i of every field refers to the same latent category; the
    labeling of i is meaningful only after prior-based reordering.
    anchor holds f(w|u) for the design's anchor value, prior holds f(u),
    t_rows[i] the selected-t conditionals [1, f(t_1|u_i), ...], s_rows[i]
    likewise for s.
    """

    stratum: tuple
    anchor: tuple
    prior: tuple
    t_rows: np.ndarray
    s_rows: np.ndarray
    t_normalizer: tuple
    s_normalizer: tuple
    diag_residual: float
    eigen_residual: float


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


# ---------------------------------------------------------------------------
# Full reconstruction


@dataclass(frozen=True)
class ReconstructedJoint:
    """Recovered latent joint plus the evidence backing it.

    table is a float-mode joint over (latent, W vars, Z vars) with latent
    categories in design order.  factors holds the per-stratum recovery
    (already reordered to match); replay records, per stratum, the worst
    gap between observed cross moments and the ones the factorization
    implies, plus how far the anchor conditionals are from summing to 1.
    """

    table: JointTable
    design: ProxyDesign
    factors: tuple
    replay: dict


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


def identify_joint(
    table: JointTable,
    design: ProxyDesign,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ReconstructedJoint:
    """Recover the joint of (latent, anchor, strata) from the observable table.

    Requires design.order_known: the recovered latent prior must be
    strictly increasing (margin tol.order) in every stratum, which pins
    the category labels.  Raises OrderAmbiguityError otherwise.
    """
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


# ---------------------------------------------------------------------------
# Causal queries on the reconstruction


@dataclass(frozen=True)
class EffectResult:
    """Interventional distribution plus the criterion that licensed it."""

    distribution: JointTable
    criterion: str
    adjustment: tuple
    reconstruction: ReconstructedJoint


def _check_effect_query(design: ProxyDesign, x: dict, y: str) -> None:
    if len(x) != 1:
        raise PatternError("exposure must be a single variable assignment")
    (xvar, _), = x.items()
    latent = design.latent_name
    if (xvar == latent) == (y == latent):
        raise PatternError(
            "exactly one of exposure and outcome must be the latent variable"
        )
    other = y if xvar == latent else xvar
    if other not in set(design.w_vars) | set(design.z_vars):
        raise PatternError(
            f"{other!r} is not recovered by this design (not an anchor or "
            "stratum variable)"
        )


def effect_from_joint(
    recon: ReconstructedJoint,
    graph: CausalDiagram,
    x: dict,
    y: str,
) -> EffectResult:
    """Read f(y | set(x)) off an already recovered latent joint.

    The adjustment set is searched over the recovered variables (anchor
    and strata), back-door first, then front-door.
    """
    _check_effect_query(recon.design, x, y)
    (xvar, value), = x.items()
    return _effects_from_joint(recon, graph, xvar, (value,), y)[value]


def _effects_from_joint(recon, graph, xvar, values, y) -> dict:
    """value -> effect_from_joint(recon, graph, {xvar: value}, y).

    The adjustment search depends only on the graph and the variable
    names, so it runs once for all values.
    """
    design = recon.design
    _check_effect_query(design, {xvar: None}, y)
    candidates = sorted((set(design.w_vars) | set(design.z_vars)) - {xvar, y})
    adjustment = find_adjustment_set(graph, xvar, y, candidates, "backdoor")
    criterion = "backdoor"
    if adjustment is None:
        adjustment = find_adjustment_set(graph, xvar, y, candidates, "frontdoor")
        criterion = "frontdoor"
    if adjustment is None:
        raise NoCriterionError(
            f"no subset of {candidates!r} satisfies the back-door or "
            f"front-door criterion for {xvar!r} -> {y!r}"
        )
    adjust = backdoor_adjust if criterion == "backdoor" else frontdoor_adjust
    return {
        value: EffectResult(
            distribution=adjust(recon.table, {xvar: value}, y, adjustment),
            criterion=criterion,
            adjustment=tuple(adjustment),
            reconstruction=recon,
        )
        for value in values
    }


def identify_causal_effect(
    table: JointTable,
    graph: CausalDiagram,
    design: ProxyDesign,
    x: dict,
    y: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EffectResult:
    """Estimate f(y | set(x)) through the recovered latent joint.

    Exactly one of the exposure and the outcome must be the latent
    variable; the other, and any adjustment variables, must be recovered
    alongside it (anchor or strata).  A malformed query raises
    PatternError before any recovery runs.
    """
    _check_effect_query(design, x, y)
    return effect_from_joint(identify_joint(table, design, tol), graph, x, y)


# ---------------------------------------------------------------------------
# Order-free bounds


@dataclass(frozen=True)
class OrderFreeBounds:
    """Bounds on the latent posterior that need no category labeling.

    For the queried anchor value x, lower <= f(u | x-stratum ...) summed
    the extremal way <= upper; concretely the bounds sandwich every mixture
    component's posterior weight min/max over latent categories, averaged
    over strata.  per_stratum holds (stratum, anchor-given-latent,
    prior) triples in pencil order.
    """

    lower: float
    upper: float
    per_stratum: tuple


def order_free_bounds(
    table: JointTable,
    design: ProxyDesign,
    x: dict,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> OrderFreeBounds:
    """Bound min/max over u of f(u | x, z), averaged over strata.

    Works without knowing which eigenvalue belongs to which latent
    category: the set of (anchor conditional, prior) pairs is label-free.
    The queried x must assign exactly the anchor variables.
    """
    check_design(table, design)
    if set(x) != set(design.w_vars):
        raise PatternError(
            "order-free bounds require the query to assign exactly the "
            f"anchor variables {design.w_vars!r}"
        )
    x_value = tuple(x[v] for v in design.w_vars)
    for var, val in zip(design.w_vars, x_value):
        if val not in table.categories(var):
            raise PatternError(f"{val!r} is not a category of {var!r}")
    lower = 0.0
    upper = 0.0
    per_stratum = []
    for stratum in stratum_assignments(design, table):
        zmass = float(table.mass(stratum))
        if zmass == 0.0:
            raise ZeroMassError(f"stratum {stratum!r} has zero mass")
        merged = dict(stratum)
        merged.update(x)
        x_cond = float(table.mass(merged)) / zmass
        if x_cond <= 0.0:
            raise PositivityError(
                f"anchor value {x!r} has zero mass in stratum {stratum!r}"
            )
        sm, factors = _recover_stratum(table, design, stratum, tol)
        if x_value == tuple(design.w_value):
            deltas = np.array(factors.anchor)
        else:
            w_values, profile, _, _ = _anchor_profile(sm, factors, tol)
            deltas = profile[w_values.index(x_value)]
        posterior = deltas * np.array(factors.prior) / x_cond
        lower += zmass * float(posterior.min())
        upper += zmass * float(posterior.max())
        per_stratum.append((sm.stratum, tuple(float(d) for d in deltas), factors.prior))
    return OrderFreeBounds(
        lower=min(1.0, max(0.0, lower)),
        upper=min(1.0, max(0.0, upper)),
        per_stratum=tuple(per_stratum),
    )
