"""Fraction-per-cell reference for the synthetic model generator.

causalprox.synth builds each joint cell from integer numerators: every
factor family over its own LCM, one broadcast product, one gcd. The
code here multiplies the five conditional-table entries of every cell as
Fractions and hands the cells to make_table, so agreement on schema,
numerators and denominator is evidence that the integer form loses
nothing.
"""

import itertools
from fractions import Fraction

import numpy as np

from causalprox.table import make_table


def generate_latent_model_per_cell(spec):
    """(ground_truth, observable) with one Fraction product per cell."""
    schema = [
        (spec.latent_name, spec.latent_categories),
        (spec.s_name, spec.s_categories),
        (spec.t_name, spec.t_categories),
        (spec.w_name, spec.w_categories),
    ]
    if spec.z_name:
        schema.append((spec.z_name, spec.z_categories))

    shape = tuple(len(cats) for _, cats in schema)
    probs = np.empty(shape, dtype=object)
    one = Fraction(1)
    for idx in itertools.product(*(range(n) for n in shape)):
        u, s, t, w = idx[:4]
        z = idx[4] if spec.z_name else 0
        mass = (
            (spec.z_dist[z] if spec.z_name else one)
            * spec.prior[z][u]
            * spec.s_emission[z][u][s]
            * spec.t_emission[z][u][t]
            * spec.w_emission[z][u][w]
        )
        probs[idx] = Fraction(mass)
    truth = make_table(schema, probs, "rational")
    observable = truth.marginal([name for name, _ in schema[1:]])
    return truth, observable
