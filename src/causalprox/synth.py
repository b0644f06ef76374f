"""Synthetic latent-variable models with known ground truth.

A LatentModelSpec fixes a latent variable U, two proxy variables S and T,
an anchor variable W, and optionally a stratum variable Z, together with
exact conditional tables.  generate_latent_model turns a spec into the
implied ground-truth joint and its observable margin, which is what the
identification pipeline sees, and spec_design the design that recovers
its latent variable.  random_latent_spec rejection-samples specs that keep
a documented margin on every identifiability requirement so recovery
tests have numerical headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .eigenid import ProxyDesign
from .errors import SpecError
from .table import JointTable, lcm_numerators, over_lcm

DENOM = 10**4
#: margins and names every random_latent_spec draw uses
ANCHOR_GAP = Fraction(5, 100)
MIN_PENCIL_SIGMA = 1e-3
SPEC_NAMES = ("U", "S", "T", "X", "Z")
MAX_TRIES = 500


@dataclass(frozen=True)
class LatentModelSpec:
    """Exact structural parameters of a proxy model.

    prior, s_emission, t_emission, w_emission hold one entry per stratum
    (a single entry when z_name is None).  Emission matrices have one row
    per latent category.  Every probability entry is an int or a Fraction,
    so each row sums to exactly 1 and the tables built from it are exact.
    """

    latent_name: str
    latent_categories: tuple
    s_name: str
    s_categories: tuple
    t_name: str
    t_categories: tuple
    w_name: str
    w_categories: tuple
    prior: tuple
    s_emission: tuple
    t_emission: tuple
    w_emission: tuple
    z_name: Optional[str] = None
    z_categories: Optional[tuple] = None
    z_dist: Optional[tuple] = None
    order_identifiable: bool = True

    @property
    def k(self):
        return len(self.latent_categories)

    @property
    def n_strata(self):
        return len(self.z_categories) if self.z_name else 1

    def __post_init__(self):
        names = [self.latent_name, self.s_name, self.t_name, self.w_name]
        if self.z_name:
            names.append(self.z_name)
        if len(set(names)) != len(names):
            raise SpecError("variable names must be distinct")
        if self.k < 2:
            raise SpecError("latent variable needs at least two categories")
        for label, cats in (
            ("s", self.s_categories),
            ("t", self.t_categories),
            ("w", self.w_categories),
        ):
            if len(cats) < 2:
                raise SpecError(f"{label} variable needs at least two categories")
        if (self.z_name is None) != (self.z_categories is None) or (
            self.z_name is None
        ) != (self.z_dist is None):
            raise SpecError("z_name, z_categories and z_dist must be given together")

        def check_dist(row, what, length):
            if len(row) != length:
                raise SpecError(f"{what} has length {len(row)}, expected {length}")
            if not all(isinstance(p, (int, Fraction)) for p in row):
                raise SpecError(f"{what} entries must be ints or Fractions")
            num, den = lcm_numerators(row)  # exact integers: cheaper than Fractions
            if any(n < 0 for n in num):
                raise SpecError(f"{what} has a negative entry")
            if sum(num) != den:
                raise SpecError(f"{what} does not sum to 1")

        if len(self.prior) != self.n_strata:
            raise SpecError("one prior per stratum required")
        for emission, what, width in (
            (self.s_emission, "s_emission", len(self.s_categories)),
            (self.t_emission, "t_emission", len(self.t_categories)),
            (self.w_emission, "w_emission", len(self.w_categories)),
        ):
            if len(emission) != self.n_strata:
                raise SpecError(f"one {what} block per stratum required")
            for block in emission:
                if len(block) != self.k:
                    raise SpecError(f"{what} needs one row per latent category")
                for row in block:
                    check_dist(row, what, width)
        for row in self.prior:
            check_dist(row, "prior", self.k)
            if self.order_identifiable:
                if any(a >= b for a, b in zip(row, row[1:])):
                    raise SpecError(
                        "order-identifiable spec needs a strictly increasing prior"
                    )
        if self.z_dist is not None:
            check_dist(self.z_dist, "z_dist", len(self.z_categories))


def generate_latent_model(spec: LatentModelSpec):
    """Materialize exact (ground_truth, observable) tables for a spec.

    The ground truth covers (U, S, T, W[, Z]); the observable table is its
    margin with U summed out.
    """
    schema = [
        (spec.latent_name, spec.latent_categories),
        (spec.s_name, spec.s_categories),
        (spec.t_name, spec.t_categories),
        (spec.w_name, spec.w_categories),
    ]
    if spec.z_name:
        schema.append((spec.z_name, spec.z_categories))

    families = (
        spec.z_dist or (Fraction(1),), spec.prior,
        spec.s_emission, spec.t_emission, spec.w_emission,
    )
    (z, prior, s, t, w), dens = zip(*map(over_lcm, families))
    # cells indexed (z, u, s, t, w); one broadcast product of numerators
    num = (
        z[:, None, None, None, None] * prior[:, :, None, None, None]
        * s[:, :, :, None, None] * t[:, :, None, :, None] * w[:, :, None, None, :]
    )
    den = math.prod(dens)
    # over the gcd-reduced denominator every numerator equals the one the
    # LCM of the cells' reduced denominators gives
    g = math.gcd(den, *num.flat)
    num = np.moveaxis(num // g, 0, -1) if spec.z_name else (num // g)[0]
    truth = JointTable(schema, num, "rational", den // g)
    observable = truth.marginal([name for name, _ in schema[1:]])
    return truth, observable


# ---------------------------------------------------------------------------
# Random specs with margins


def _composition(rng, parts, total=DENOM, floor=1):
    """Random integer composition of `total` into `parts` parts, each >= floor."""
    spare = total - floor * parts
    if spare < 0:
        raise SpecError("floor too large")
    cuts = sorted(rng.sample(range(spare + parts - 1), parts - 1)) if parts > 1 else []
    out = []
    prev = -1
    for c in cuts + [spare + parts - 1]:
        out.append(c - prev - 1 + floor)
        prev = c
    return out


def _selected_square(block, k):
    """k x k float matrix [1 | rows over categories 1..k-1] used for margins."""
    m = np.ones((k, k))
    for i in range(k):
        for j in range(1, k):
            m[i, j] = float(block[i][j])
    return m


def _increasing_composition(rng, parts, gap_units):
    """Composition of DENOM into strictly increasing parts with gaps >= gap_units.

    Parametrized by the gap vector: part_i = gap_units * i + extra, where the
    extras are carved from the slack with weights matching how many parts each
    gap increment feeds into.  Sampling is not uniform over the polytope, but
    every draw is valid and the slack placement varies freely.
    """
    base = gap_units * parts * (parts + 1) // 2
    slack = DENOM - base
    if slack < 0:
        raise SpecError(
            f"prior gap {gap_units}/{DENOM} infeasible for {parts} categories"
        )
    raw = _composition(rng, parts, total=slack, floor=0) if parts > 1 else [slack]
    gaps = []
    for i, r in enumerate(raw):
        # Each unit added to gap i raises every later part too, so it costs
        # (parts - i) units of slack.
        gaps.append(gap_units + r // (parts - i))
    out = []
    acc = 0
    for g in gaps:
        acc += g
        out.append(acc)
    # Whatever slack the floor divisions left over goes to the largest part;
    # its gap to the neighbour below only grows.
    out[-1] = DENOM - sum(out[:-1])
    return out


def _spread_values(rng, count, lo, hi, gap_units):
    """`count` values in [lo, hi], pairwise >= gap_units apart, shuffled."""
    span = hi - lo - gap_units * (count - 1)
    if span < 0:
        raise SpecError(
            f"anchor gap {gap_units}/{DENOM} infeasible for {count} categories"
        )
    picks = sorted(rng.randint(0, span) for _ in range(count))
    vals = [lo + p + gap_units * i for i, p in enumerate(picks)]
    rng.shuffle(vals)
    return vals


def _dominant_block(rng, k, floor=200):
    """Row-stochastic block where category u favours proxy category u.

    The dominant entry keeps the selected square well separated from
    singularity, which the pencil construction needs.
    """
    rows = []
    for u in range(k):
        d = rng.randint(5000, 8000)
        rest = _composition(rng, k - 1, total=DENOM - d, floor=floor) if k > 1 else []
        row = list(rest[:u]) + [d] + list(rest[u:])
        rows.append(tuple(Fraction(n, DENOM) for n in row))
    return tuple(rows)


def _pencil_sigmas(prior, s_block, t_block, anchors, k):
    """Smallest singular values of the implied cross-moment matrices."""
    s_sq = _selected_square(s_block, k)
    t_sq = _selected_square(t_block, k)
    d = np.array([float(p) for p in prior])
    w = np.array([a / DENOM for a in anchors])
    p_mat = s_sq.T @ np.diag(d) @ t_sq
    q_mat = s_sq.T @ np.diag(d * w) @ t_sq
    return (
        float(np.linalg.svd(p_mat, compute_uv=False)[-1]),
        float(np.linalg.svd(q_mat, compute_uv=False)[-1]),
    )


def random_latent_spec(
    rng,
    k: int,
    n_strata: Optional[int] = None,
    prior_gap: Fraction = Fraction(2, 100),
) -> LatentModelSpec:
    """Sample a spec whose identifiability margins are explicit.

    Margins enforced per stratum: latent prior strictly increasing with
    consecutive gaps >= prior_gap; anchor conditionals f(w1|u) pairwise
    separated by >= ANCHOR_GAP (these are the pencil eigenvalues); both
    implied cross-moment matrices keep their smallest singular value at or
    above MIN_PENCIL_SIGMA (the selected-anchor one gets a tenth of that,
    since it carries an extra eigenvalue factor).  A stratum gets MAX_TRIES
    draws before SpecError; the variables are named SPEC_NAMES (latent,
    S, T, anchor, stratum).  All parameters are rationals over denominator
    10^4 so the implied tables serialize as exact decimals.
    """
    if k < 2:
        raise SpecError("k must be at least 2")
    uname, sname, tname, wname, zname = SPEC_NAMES
    ucats = tuple(f"u{i}" for i in range(k))
    scats = tuple(f"s{i}" for i in range(k))
    tcats = tuple(f"t{i}" for i in range(k))
    wcats = ("w0", "w1")

    gap_units = int(prior_gap * DENOM)
    anchor_units = int(ANCHOR_GAP * DENOM)

    def draw_stratum():
        for _ in range(MAX_TRIES):
            prior_units = _increasing_composition(rng, k, gap_units)
            anchors = _spread_values(rng, k, 500, 9500, anchor_units)
            prior = tuple(Fraction(n, DENOM) for n in prior_units)
            s_block = _dominant_block(rng, k)
            t_block = _dominant_block(rng, k)
            p_sigma, q_sigma = _pencil_sigmas(prior, s_block, t_block, anchors, k)
            if p_sigma < MIN_PENCIL_SIGMA or q_sigma < MIN_PENCIL_SIGMA / 10:
                continue
            w_block = tuple(
                (Fraction(DENOM - a, DENOM), Fraction(a, DENOM)) for a in anchors
            )
            return (prior, s_block, t_block, w_block)
        raise SpecError("rejection sampling failed to find a spec within margins")

    strata = [draw_stratum() for _ in range(n_strata or 1)]
    kwargs = {}
    if n_strata:
        zcats = tuple(f"z{i}" for i in range(n_strata))
        zdist = tuple(
            Fraction(n, DENOM) for n in _composition(rng, n_strata, floor=DENOM // 10)
        )
        kwargs = {"z_name": zname, "z_categories": zcats, "z_dist": zdist}
    return LatentModelSpec(
        latent_name=uname,
        latent_categories=ucats,
        s_name=sname,
        s_categories=scats,
        t_name=tname,
        t_categories=tcats,
        w_name=wname,
        w_categories=wcats,
        prior=tuple(s[0] for s in strata),
        s_emission=tuple(s[1] for s in strata),
        t_emission=tuple(s[2] for s in strata),
        w_emission=tuple(s[3] for s in strata),
        order_identifiable=True,
        **kwargs,
    )


def spec_margins(spec: LatentModelSpec) -> dict:
    """Report the identifiability margins a spec actually achieves."""
    prior_gap = min(
        float(b - a) for row in spec.prior for a, b in zip(row, row[1:])
    )
    anchor_gap = min(
        abs(float(block[i][1] - block[j][1]))
        for block in spec.w_emission
        for i in range(spec.k)
        for j in range(i + 1, spec.k)
    )
    sigma = min(
        _pencil_sigmas(
            spec.prior[z],
            spec.s_emission[z],
            spec.t_emission[z],
            [int(block[1] * DENOM) for block in spec.w_emission[z]],
            spec.k,
        )[0]
        for z in range(spec.n_strata)
    )
    return {
        "prior_gap": prior_gap,
        "anchor_gap": anchor_gap,
        "pencil_sigma": sigma,
    }


def spec_design(spec: LatentModelSpec) -> ProxyDesign:
    """The design that recovers a spec's latent variable: proxy categories
    1..k-1 as the s and t events, the anchor's second category as w_value."""
    k = spec.k
    return ProxyDesign(
        latent_name=spec.latent_name,
        latent_categories=spec.latent_categories,
        s_vars=(spec.s_name,),
        t_vars=(spec.t_name,),
        w_vars=(spec.w_name,),
        z_vars=(spec.z_name,) if spec.z_name else (),
        s_select=tuple((c,) for c in spec.s_categories[1:k]),
        t_select=tuple((c,) for c in spec.t_categories[1:k]),
        w_value=(spec.w_categories[1],),
        order_known=spec.order_identifiable,
    )
