"""Latent-joint identification from two proxies and an anchor.

Given an observable table over proxies S and T, an anchor W, and optional
strata Z, the latent joint f(u, w, z) is recovered per stratum from two
cross-moment matrices built over selected proxy events, all strata in one
stacked pass.  Their generalized eigenproblem has the anchor conditionals
f(w|u, z) as eigenvalues; the eigenvector bases, fixed by a known-row
normalization, yield the proxy emission rows and the latent prior.  Every
algebraic step is checked against an explicit tolerance; a failure raises
the coded error of the first failing stratum's first failed check instead
of returning a silently bad reconstruction.

Eigenvalue order carries no category labels by itself.  When the latent
prior is known to be strictly increasing, sorting the recovered prior
entries pins the labeling (identify_joint).  Without that, only quantities
invariant to relabeling are available (order_free_bounds).
"""

from __future__ import annotations

import itertools
import math
import types
import weakref
from dataclasses import dataclass
from fractions import Fraction
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


_TUPLE_FIELDS = ("latent_categories", "s_vars", "t_vars", "w_vars", "z_vars", "w_value",
                 "s_select", "t_select")


def _tuple_fields(fields):
    """The _TUPLE_FIELDS of a name -> value mapping as hashable tuples (the
    *_select ones as tuples of tuples); DesignError naming the first field
    that is not a list of hashable values."""
    out = {}
    for name in _TUPLE_FIELDS:
        nested = name.endswith("_select")
        try:
            out[name] = tuple(map(tuple, fields[name])) if nested else tuple(fields[name])
            hash(out[name])
        except TypeError as exc:
            what = "a list of value lists" if nested else "a list"
            raise DesignError(
                f"{name} must be {what} of hashable values, got {fields[name]!r}"
            ) from exc
    return out


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
        # tuples throughout, so a design built from lists hashes like any other
        fields = _tuple_fields({name: getattr(self, name) for name in _TUPLE_FIELDS})
        for name, value in fields.items():
            object.__setattr__(self, name, value)
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
            fields = dict(
                latent_name=latent["name"],
                latent_categories=latent["categories"],
                order_known=bool(latent.get("order_known", True)),
                s_vars=roles["S"],
                t_vars=roles["T"],
                w_vars=roles["W"],
                z_vars=roles.get("Z", ()),
                s_select=select["s"],
                t_select=select["t"],
                w_value=select["w"],
            )
            fields.update(_tuple_fields(fields))
        except (KeyError, TypeError, DesignError) as exc:  # DesignError: a field's type
            raise DesignError(f"malformed design payload: {exc}") from exc
        return cls(**fields)


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
    """One stratum's pencil: p, the cross-moment matrix with the anchor summed
    out, and q, the matrix at the design's anchor value.  Entries keep the
    table's arithmetic mode: Fractions in rational mode, floats in float mode.
    """

    stratum: tuple
    p: np.ndarray
    q: np.ndarray


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


def _moment_stack(table, design, stratum, z_vars):
    """(counts, totals, w_values, anchor) of a stratum split by every combination
    of z_vars, read off numerators summed over the rest once.  counts[j, i, l, a]
    is the numerator of (s event i AND t event l AND anchor value w_values[a]) in
    the j-th combination in category order, index 0 meaning "no constraint", so
    the moments are counts[j] / totals[j]; w_values[anchor] is design.w_value."""
    free = [v for v in table.variables if v not in stratum]
    rest = [v for v in free if v not in z_vars]
    block = table._block(stratum).transpose([free.index(v) for v in (*z_vars, *rest)])
    nz = len(z_vars)
    # one sum per stratum block, so float tables add in the per-stratum order
    totals = [block[z].sum() for z in itertools.product(*map(range, block.shape[:nz]))]
    totals = np.array(totals, block.dtype)
    roles = design.s_vars + design.t_vars + design.w_vars
    drop = tuple(nz + i for i, v in enumerate(rest) if v not in roles)
    moments = block.sum(axis=drop) if drop else block
    kept = [v for v in rest if v in roles]
    moments = moments.transpose([*range(nz), *(nz + kept.index(v) for v in roles)])
    sizes = [math.prod(len(table.categories(v)) for v in vars_)
             for vars_ in (design.s_vars, design.t_vars)]
    moments = moments.reshape(totals.size, *sizes, -1)
    for axis in (1, 2):  # prepend the margins as row 0 and column 0
        moments = np.concatenate([moments.sum(axis=axis, keepdims=True), moments], axis=axis)
    rows = _event_rows(table, design.s_vars, design.s_select)
    cols = _event_rows(table, design.t_vars, design.t_select)
    w_values = tuple(itertools.product(*(table.categories(v) for v in design.w_vars)))
    counts = moments[(slice(None), *np.ix_(rows, cols))]
    return counts, totals, w_values, w_values.index(tuple(design.w_value))


def cross_moment_matrices(
    table: JointTable,
    design: ProxyDesign,
    stratum: Optional[dict] = None,
) -> StratumMatrices:
    """Build the pencil matrices p and q for one stratum.

    Rows follow the s events, columns the t events, both prefixed by the
    unconstrained event.  Raises DesignError (check_design) when the design
    does not fit the table and ZeroMassError when the stratum has no mass.
    """
    stratum = dict(stratum or {})
    check_design(table, design)
    counts, totals, _, anchor = _moment_stack(table, design, stratum, ())
    if totals[0] == 0:
        raise ZeroMassError(f"stratum {stratum!r} has zero mass")
    # int / Fraction is exact; float tables divide as floats
    total = Fraction(totals[0]) if counts.dtype == object else totals[0]
    return StratumMatrices(tuple(sorted(stratum.items())),
                           counts[0].sum(axis=2) / total, counts[0, :, :, anchor] / total)


# ---------------------------------------------------------------------------
# Stacked stages: slot j of every (m, ...) array, PencilEigensystem and
# LatentFactors fields included, is stratum j.  A failed check records the
# slot's error (the first per slot wins), and LAPACK calls see the identity
# in failed slots, so that no slot can fail a call for the others.


class _Failures(list):
    """The first error recorded for each slot of a stack, None while it passes;
    raise_first raises the error of the first failed slot, in stratum order."""

    def record(self, bad, make):
        """Store make(j) for each slot j not failed yet with a true entry in bad[j]."""
        if bad.ndim > 1:
            if not bad.any():
                return
            bad = bad.reshape(len(bad), -1).any(axis=1)
        for j, flagged in enumerate(bad.tolist()):
            if flagged and self[j] is None:
                self[j] = make(j)

    def raise_first(self):
        for error in filter(None, self):
            raise error


def _identity_where(stack, fail):
    """stack, blocks of one slot per stratum, with failed strata's slots set to the identity."""
    bad = [j + b for j, e in enumerate(fail) if e for b in range(0, len(stack), len(fail))]
    if bad:
        stack = stack.copy()
        stack[bad] = np.eye(stack.shape[-1])
    return stack


def _inv(stack, fail):
    """np.linalg.inv after _identity_where, and a mask of exactly singular slots (made I)."""
    stack = _identity_where(stack, fail)
    singular = np.zeros(len(stack), dtype=bool)
    try:
        return np.linalg.inv(stack), singular
    except np.linalg.LinAlgError:
        for i, matrix in enumerate(stack):
            try:
                np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                singular[i] = True
        stack = np.where(singular[:, None, None], np.eye(stack.shape[-1]), stack)
        return np.linalg.inv(stack), singular


def _factor_inverses(s_rows, t_rows, fail):
    """inv(s_rows) and inv(t_rows) of every slot, in one call."""
    inv, singular = _inv(np.concatenate([s_rows, t_rows]), fail)
    fail.record(singular.reshape(2, -1).any(axis=0),
                lambda j: PivotError("recovered factor rows are singular"))
    return inv[:len(s_rows)], inv[len(s_rows):]


def _off_diagonal(mixed):
    """|mixed - np.diag(np.diag(mixed))| per matrix, bit for bit for finite entries."""
    off = np.abs(mixed)
    off.reshape(off.shape[:-2] + (-1,))[..., ::off.shape[-1] + 1] = 0.0
    return off


def _scaled_columns(rows, scale):
    """rows.T @ np.diag(scale) per slot, exactly (one nonzero term per entry), in C order."""
    return np.multiply(rows.swapaxes(-1, -2), scale[..., None, :], order="C")


# ---------------------------------------------------------------------------
# Pencil solve


@dataclass(frozen=True)
class PencilEigensystem:
    """Sorted real spectrum of the pencil plus right/left eigenvector bases."""

    values: tuple
    right: np.ndarray
    left: np.ndarray
    residual: float


def _solve_pencils(p, q, tol, fail) -> PencilEigensystem:
    """solve_pencil's checks, in its order, over (m, k, k) stacks, in one SVD
    call (P and Q), one solve and one eig call (the right and left pencils).
    LAPACK decomposes each matrix of a stack alone, so every slot gets the
    bits a call of its own would give."""
    m = len(p)
    pq = np.concatenate([p, q])
    sigma = np.linalg.svd(pq, compute_uv=False)
    ratio = np.divide(sigma[:, -1], sigma[:, 0], out=np.zeros(2 * m), where=sigma[:, 0] > 0)
    for b, name in ((0, "P"), (m, "Q")):
        fail.record(ratio[b:b + m] <= tol.singular, lambda j: SingularMatrixError(
            f"cross-moment matrix {name} is numerically singular "
            f"(sigma_min/sigma_max = {ratio[b + j]:.3e} <= {tol.singular:.3e})"))
    pq = _identity_where(pq, fail)
    p, q = pq[:m], pq[m:]
    pencils = np.linalg.solve(np.concatenate([p, p.swapaxes(1, 2)]),
                              np.concatenate([q, q.swapaxes(1, 2)]))
    # right pencils in slots :m, left ones in m:, each spectrum ascending
    values, vectors = np.linalg.eig(pencils)
    imag = np.abs(values.imag)
    order = np.argsort(values.real, axis=1, kind="stable")
    slots, cols = np.arange(2 * m)[:, None], np.arange(p.shape[-1])[:, None]
    values = values.real[slots, order]
    vectors = vectors.real[slots[:, None], cols, order[:, None]]
    values, left_values, right, left = values[:m], values[m:], vectors[:m], vectors[m:]

    def record_complex(b):
        fail.record(imag[b:b + m] > tol.gap, lambda j: ComplexEigenvalueError(
            f"pencil spectrum is not real (max |imag| = {imag[b + j].max():.3e})"))

    record_complex(0)
    fail.record(values[:, 0] <= tol.gap, lambda j: NonPositiveEigenvalueError(
        f"pencil eigenvalue {values[j, 0]:.3e} is not strictly positive"))
    gaps = values[:, 1:] - values[:, :-1]
    fail.record(gaps <= tol.gap, lambda j: DegenerateSpectrumError(
        f"pencil eigenvalues are not separated (min gap = {gaps[j].min():.3e})"))
    record_complex(m)
    fail.record(np.abs(left_values - values) > tol.gap, lambda j: DegenerateSpectrumError(
        "left and right pencil spectra disagree beyond tolerance"))
    # q - lambda_i p per slot and eigenvalue; its transposed view is the left
    # pencil's.  The products see the layouts one (k, k) solve gives (right
    # vectors strided, left ones contiguous), so BLAS rounds them alike.
    shifted = q[:, None] - values[:, :, None, None] * p[:, None]
    scale = np.abs(pq).max(axis=(1, 2))[:, None]
    denom = np.maximum(1.0, scale[m:] + np.abs(values) * scale[:m])
    r_res, l_res = (
        np.abs(matrices @ vectors[..., None]).max(axis=(2, 3))
        for matrices, vectors in ((shifted, right.swapaxes(1, 2)),
                                  (shifted.swapaxes(2, 3), left.swapaxes(1, 2).copy()))
    )
    worst = (np.maximum(r_res, l_res) / denom).max(axis=1)
    fail.record(worst > tol.residual, lambda j: DegenerateSpectrumError(
        f"pencil eigenvector residual {worst[j]:.3e} exceeds tolerance"))
    return PencilEigensystem(values, right, left, worst)


def solve_pencil(
    p: np.ndarray, q: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> PencilEigensystem:
    """Solve (q - lambda p) x = 0 for a square pencil with real simple spectrum.

    Checks, in order: both matrices invertible; spectrum real; strictly
    positive; pairwise separated; right and left eigenvector residuals
    within tolerance.  Eigenvalues are returned ascending with matching
    right (columns) and left (columns, for the transposed pencil) vectors.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DesignError("pencil matrices must be square and equal-shaped")
    fail = _Failures([None])
    system = _solve_pencils(p[None], q[None], tol, fail)
    fail.raise_first()
    return PencilEigensystem(tuple(system.values[0].tolist()), system.right[0],
                             system.left[0], float(system.residual[0]))


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

    def slot(self, j, stratum):
        """Slot j of stacked factors, in recover_factors' types."""
        row = lambda values: tuple(values[j].tolist())  # noqa: E731
        return LatentFactors(
            stratum, row(self.anchor), row(self.prior), self.t_rows[j], self.s_rows[j],
            row(self.t_normalizer), row(self.s_normalizer),
            float(self.diag_residual[j]), float(self.eigen_residual[j]),
        )


def _check_probability(values, tol: Tolerances):
    """(clipped to [0, 1], -0.0 and NaN to 0.0; mask of NaN or > tol.prob outside [0, 1])."""
    outside = ~((-tol.prob <= values) & (values <= 1 + tol.prob))
    return np.where(values > 0.0, np.minimum(values, 1.0), 0.0), outside


def _range_error(fail, what, values, outside):
    """Record a RangeError for each slot j with an outside entry, naming its first in C order."""
    fail.record(outside, lambda j: RangeError(
        f"recovered {what} entry {values[j].flat[np.argmax(outside[j])]:.6g} is outside [0, 1]"))


def _recover_factor_stack(system, p, tol, fail) -> LatentFactors:
    """recover_factors' checks, in its order, over stacked pencils; the t rows
    and then the s rows come from one inverse of the right and left bases."""
    m = len(p)
    inv, singular = _inv(np.concatenate([system.right, system.left]), fail)
    pivots = inv[:, :, 0]
    bound = tol.pivot * np.maximum(1.0, np.abs(inv).max(axis=(1, 2)))
    vanishing = np.abs(pivots) <= bound[:, None]
    for b, what in ((0, "right"), (m, "left")):
        fail.record(singular[b:b + m], lambda j: PivotError(
            f"{what} eigenvector basis is singular"))
        fail.record(vanishing[b:b + m], lambda j: PivotError(
            f"{what} basis row {int(np.argmax(vanishing[b + j]))} has a vanishing "
            "leading entry; the unit-row normalization is undefined"))
    with np.errstate(divide="ignore", invalid="ignore"):  # failed slots
        rows, normalizer = inv / pivots[:, :, None], 1.0 / pivots
    # p factors as s_rows.T @ diag(prior) @ t_rows, so conjugating by the
    # inverses must leave a diagonal matrix
    s_inv, t_inv = _factor_inverses(rows[m:], rows[:m], fail)
    mixed = s_inv.swapaxes(1, 2) @ p @ t_inv
    diag = np.diagonal(mixed, axis1=1, axis2=2)
    diag_residual = _off_diagonal(mixed).max(axis=(1, 2)) / np.maximum(
        1.0, np.abs(diag).max(axis=1))
    fail.record(diag_residual > tol.diag, lambda j: NonDiagonalError(
        f"prior recovery is not diagonal (off-diagonal residual "
        f"{diag_residual[j]:.3e}); left/right eigenvector pairing failed"))
    (prior, anchor), outside = _check_probability(
        np.concatenate([diag, system.values]).reshape(2, m, -1), tol)
    _range_error(fail, "prior", diag, outside[0])
    vanish = prior <= 0.0
    fail.record(vanish, lambda j: RangeError(
        f"recovered prior entry {int(np.argmax(vanish[j]))} vanishes"))
    _range_error(fail, "anchor conditional", system.values, outside[1])
    # the normalized rows start with 1.0; clip the conditionals after it
    clipped, outside = _check_probability(rows[..., 1:], tol)
    for b, what in ((0, "t conditional"), (m, "s conditional")):
        _range_error(fail, what, rows[b:b + m, :, 1:], outside[b:b + m])
    rows[..., 1:] = clipped
    rows = _identity_where(rows, fail)
    return LatentFactors((), anchor, prior, rows[:m], rows[m:], normalizer[:m],
                         normalizer[m:], diag_residual, system.residual)


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
    stack = PencilEigensystem(*(np.asarray(field, dtype=float)[None] for field in (
        system.values, system.right, system.left, system.residual)))
    fail = _Failures([None])
    factors = _recover_factor_stack(stack, np.asarray(p, dtype=float)[None], tol, fail)
    fail.raise_first()
    return factors.slot(0, tuple(stratum))


def _anchor_profiles(floats, factors, w_values, tol, fail):
    """f(w'|u, z) for every anchor value and slot, given fixed factors and the
    cross moments floats[j] = counts[j] / totals[j] of _moment_stack: deltas and
    off-diagonal residuals by [slot][anchor value], and the max replay residual."""
    s_inv, t_inv = _factor_inverses(factors.s_rows, factors.t_rows, fail)
    q = floats.transpose(0, 3, 1, 2)
    mixed = s_inv.swapaxes(1, 2)[:, None] @ q @ t_inv[:, None]
    diag = np.diagonal(mixed, axis1=2, axis2=3)
    scale = np.maximum(1.0, np.abs(factors.prior).max(axis=1))
    off = _off_diagonal(mixed).max(axis=(2, 3)) / scale[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # failed slots
        raw = diag / factors.prior[:, None]
    deltas, outside = _check_probability(raw, tol)
    for a, w in enumerate(w_values):
        fail.record(off[:, a] > tol.diag, lambda j: NonDiagonalError(
            f"anchor recovery for w={w!r} is not diagonal "
            f"(off-diagonal residual {off[j, a]:.3e})"))
        _range_error(fail, f"anchor conditional {w!r}", raw[:, a], outside[:, a])
    replay = (_scaled_columns(factors.s_rows[:, None], factors.prior[:, None] * deltas)
              @ factors.t_rows[:, None])
    return deltas, off, np.abs(replay - q).max()


def _recover_strata(table, design, strata, tol, fail):
    """Cross moments, pencils and factors of the strata (dicts, in category
    order), stacked in pencil order: (totals, floats, p, w_values, factors)."""
    counts, totals, w_values, anchor = _moment_stack(table, design, {}, design.z_vars)
    empty = totals == 0
    if empty.any():
        fail.record(empty, lambda j: ZeroMassError(f"stratum {strata[j]!r} has zero mass"))
        totals = np.where(empty, 1, totals)
    floats = np.asarray(counts / totals[:, None, None, None], dtype=float)
    p = np.asarray(counts.sum(axis=3) / totals[:, None, None], dtype=float)
    system = _solve_pencils(p, floats[..., anchor], tol, fail)
    return totals, floats, p, w_values, _recover_factor_stack(system, p, tol, fail)


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
    identify_joint shares it among its callers, so replay and factor rows are read-only.
    """

    table: JointTable
    design: ProxyDesign
    factors: tuple
    replay: types.MappingProxyType


# input table -> {(design, tol): its ReconstructedJoint}, alive as long as the table
_JOINTS = weakref.WeakKeyDictionary()


def identify_joint(
    table: JointTable,
    design: ProxyDesign,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ReconstructedJoint:
    """Recover the joint of (latent, anchor, strata) from the observable table.

    Requires design.order_known: the recovered latent prior must be
    strictly increasing (margin tol.order) in every stratum, which pins
    the category labels.  Raises OrderAmbiguityError otherwise.  Tables
    are immutable, so a table object is recovered once per (design, tol)
    and later calls share that read-only ReconstructedJoint; a failure is
    not kept and raises again.
    """
    recon = _JOINTS.get(table, {}).get((design, tol))
    if recon is not None:
        return recon
    check_design(table, design)
    if not design.order_known:
        raise OrderAmbiguityError(
            "latent category order is declared unknown; the labeled joint is "
            "not identified (order-free bounds remain available)"
        )
    strata = stratum_assignments(design, table)
    fail = _Failures([None] * len(strata))
    totals, floats, p, w_values, raw = _recover_strata(table, design, strata, tol, fail)

    pick = (np.arange(len(strata))[:, None], np.argsort(raw.prior, axis=1, kind="stable"))
    factors = LatentFactors((), *(getattr(raw, name)[pick] for name in (
        "anchor", "prior", "t_rows", "s_rows", "t_normalizer", "s_normalizer")),
        raw.diag_residual, raw.eigen_residual)
    gaps = factors.prior[:, 1:] - factors.prior[:, :-1]
    fail.record(gaps <= tol.order, lambda j: OrderAmbiguityError(
        f"latent prior entries are not separated in stratum "
        f"{dict(sorted(strata[j].items())) or '{}'} (min gap {gaps[j].min():.3e}); the "
        "increasing-prior labeling is ambiguous"))
    p_gap = np.abs(_scaled_columns(factors.s_rows, factors.prior) @ factors.t_rows - p).max()
    deltas, off, q_gap = _anchor_profiles(floats, factors, w_values, tol, fail)
    fail.raise_first()
    replay = types.MappingProxyType({
        "cross_moment": float(max(0.0, p_gap, q_gap)),
        "anchor_diag": float(max(0.0, off.max())),
        "anchor_total": float(max(0.0, np.abs(deltas.sum(axis=1) - 1.0).max()))})

    schema = [(design.latent_name, design.latent_categories)]
    schema += [(v, table.categories(v)) for v in design.w_vars + design.z_vars]
    zmass = np.asarray(totals / table.den, dtype=float)
    # weights[latent i][anchor value][slot], C-ordered so probs.sum() adds in table order
    weights = (deltas * factors.prior[:, None, :]).T
    probs = np.multiply(weights, zmass, order="C").reshape([len(c) for _, c in schema])
    total = float(probs.sum())
    if abs(total - 1.0) > tol.prob:
        raise RangeError(
            f"reconstructed joint has total mass {total:.8f}; recovery is "
            "inconsistent with a probability table"
        )
    probs /= total
    factors.t_rows.flags.writeable = factors.s_rows.flags.writeable = False
    factors = tuple(factors.slot(j, tuple(sorted(s.items()))) for j, s in enumerate(strata))
    recon = ReconstructedJoint(make_table(schema, probs, "float"), design, factors, replay)
    _JOINTS.setdefault(table, {})[design, tol] = recon  # successes only
    return recon


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
    PatternError before any recovery runs.  The recovery is identify_joint's,
    so every exposure value of one table reuses one reconstruction.
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
    strata = stratum_assignments(design, table)
    fail = _Failures([None] * len(strata))
    zmass = np.array([float(table.mass(s)) for s in strata])
    fail.record(zmass == 0.0, lambda j: ZeroMassError(f"stratum {strata[j]!r} has zero mass"))
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-mass strata
        x_cond = np.array([float(table.mass({**s, **x})) for s in strata]) / zmass
    fail.record(x_cond <= 0.0, lambda j: PositivityError(
        f"anchor value {x!r} has zero mass in stratum {strata[j]!r}"))
    _, floats, _, w_values, factors = _recover_strata(table, design, strata, tol, fail)
    deltas = factors.anchor if x_value == tuple(design.w_value) else _anchor_profiles(
        floats, factors, w_values, tol, fail)[0][:, w_values.index(x_value)]
    fail.raise_first()
    posterior = deltas * factors.prior / x_cond[:, None]
    lower = upper = 0.0
    for z, low, high in zip(zmass.tolist(), posterior.min(axis=1).tolist(),
                            posterior.max(axis=1).tolist()):
        lower, upper = lower + z * low, upper + z * high
    per_stratum = tuple((tuple(sorted(s.items())), tuple(d), tuple(u))
                        for s, d, u in zip(strata, deltas.tolist(), factors.prior.tolist()))
    clamp = lambda v: min(1.0, max(0.0, v))  # noqa: E731
    return OrderFreeBounds(clamp(lower), clamp(upper), per_stratum)
