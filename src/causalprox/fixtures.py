"""Shared worked-example fixtures: the three diagram patterns, the
education/involvement data table, and its exact generating model.

The data table is hypothetical data for the chain X -> Y -> {S, T} with Y
latent: X is education, Y political involvement, S ideological level, T
repression potential.  Cell masses are exact multiples of 1/10000 and the
table is the precise observable margin of education_model(), which is what
makes it usable as a recovery oracle.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .eigenid import ProxyDesign
from .graph import CausalDiagram, build_diagram
from .synth import LatentModelSpec, generate_latent_model, spec_design
from .table import JointTable, load_counts

#: joint masses * 10^4, keyed (x, s, t) with category index 0/1
EDUCATION_COUNTS = {
    ("x0", "s0", "t0"): 1862,
    ("x0", "s0", "t1"): 1568,
    ("x0", "s1", "t0"): 2478,
    ("x0", "s1", "t1"): 1092,
    ("x1", "s0", "t0"): 528,
    ("x1", "s0", "t1"): 1392,
    ("x1", "s1", "t0"): 432,
    ("x1", "s1", "t1"): 648,
}


def confounder_chain_diagram() -> CausalDiagram:
    """Z causes both X and Y; X causes Y; S, T are proxies of Y.

    The observed-confounder pattern: {Z} is a back-door adjustment set.
    """
    return build_diagram(
        ["X", "Y", "Z", "S", "T"],
        directed=[("Z", "X"), ("Z", "Y"), ("X", "Y"), ("Y", "S"), ("Y", "T")],
    )


def mediator_diagram() -> CausalDiagram:
    """X affects Y only through Z, with latent X-Y confounding.

    The front-door pattern: no back-door set exists, {Z} works front-door.
    """
    return build_diagram(
        ["X", "Z", "Y", "S", "T"],
        directed=[("X", "Z"), ("Z", "Y"), ("Y", "S"), ("Y", "T")],
        bidirected=[("X", "Y")],
    )


def chain_diagram(confounded: bool = False) -> CausalDiagram:
    """X -> Y with proxies S, T of Y; optionally proxy-outcome confounding.

    The clean variant admits exact latent recovery; the confounded variant
    (bidirected Y-S and Y-T) breaks the proxy conditional independences
    and is the setting where only bounds are available.
    """
    bidirected = [("Y", "S"), ("Y", "T")] if confounded else []
    return build_diagram(
        ["X", "Y", "S", "T"],
        directed=[("X", "Y"), ("Y", "S"), ("Y", "T")],
        bidirected=bidirected,
    )


def education_table_csv() -> str:
    """The data table as count CSV text (counts are mass * 10^4)."""
    lines = ["X,S,T,count"]
    for (x, s, t), count in sorted(EDUCATION_COUNTS.items()):
        lines.append(f"{x},{s},{t},{count}")
    return "\n".join(lines) + "\n"


def education_table() -> JointTable:
    """The observable joint over (X, S, T), exact."""
    return load_counts(education_table_csv())


def education_model() -> LatentModelSpec:
    """Exact latent model whose observable margin is the data table.

    Y has prior (9/20, 11/20); conditional on Y the proxies and the
    treatment are independent with f(t1|y) = (4/5, 1/5), f(s1|y) =
    (3/10, 3/5), f(x1|y) = (8/15, 6/55).
    """
    return LatentModelSpec(
        latent_name="Y",
        latent_categories=("y1", "y2"),
        s_name="S",
        s_categories=("s0", "s1"),
        t_name="T",
        t_categories=("t0", "t1"),
        w_name="X",
        w_categories=("x0", "x1"),
        prior=((Fraction(9, 20), Fraction(11, 20)),),
        s_emission=((
            (Fraction(7, 10), Fraction(3, 10)),
            (Fraction(2, 5), Fraction(3, 5)),
        ),),
        t_emission=((
            (Fraction(1, 5), Fraction(4, 5)),
            (Fraction(4, 5), Fraction(1, 5)),
        ),),
        w_emission=((
            (Fraction(7, 15), Fraction(8, 15)),
            (Fraction(49, 55), Fraction(6, 55)),
        ),),
        order_identifiable=True,
    )


def education_design() -> ProxyDesign:
    """Role assignment for recovering Y from the data table."""
    return spec_design(education_model())


def uninformative_anchor_table() -> JointTable:
    """Observable table whose anchor is independent of the latent variable.

    Both latent categories emit x1 with probability 3/10, so the anchored
    cross-moment matrix is exactly 0.3 times the plain one and the pencil
    spectrum collapses to a repeated eigenvalue: recovery must refuse.
    """
    flat = (Fraction(7, 10), Fraction(3, 10))
    return generate_latent_model(replace(education_model(), w_emission=((flat, flat),)))[1]
