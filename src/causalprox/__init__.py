"""Causal identification with proxy variables for a latent exposure/outcome.

Three layers:

- graphs and exact probability tables (`graph`, `table`): causal diagrams
  with latent confounding, d-separation, back-door/front-door criteria,
  adjustment-set search, adjustment formulas, CSV loading;
- spectral identification (`eigenid`, `synth`): recovery of the joint law
  of a k-category latent variable from two conditionally independent
  proxies plus an anchor, per stratum, via a matrix-pencil eigenproblem,
  with synthetic ground-truth models for validation;
- partial identification (`bounds`): sharp LP bounds on interventional
  probabilities from proxy response types when the point-identification
  assumptions fail, in closed form and proved by exact LP certificates,
  with cross-checked closed forms; the package runs no LP solver.

The `causalprox` command line fronts all of it; `fixtures` carries the
shared worked example.
"""

from .bounds import (
    BoundsResult,
    CertificationReport,
    CounterfactualProgram,
    ObservedCells,
    build_program,
    cells_from_table,
    cells_from_types,
    certify_against_lp,
    closed_form_bounds,
    lp_bounds,
    sharp_bounds,
    stratified_bounds,
    true_target,
)
from .eigenid import (
    DEFAULT_TOLERANCES,
    EffectResult,
    LatentFactors,
    OrderFreeBounds,
    PencilEigensystem,
    ProxyDesign,
    ReconstructedJoint,
    StratumMatrices,
    Tolerances,
    check_design,
    cross_moment_matrices,
    effect_from_joint,
    identify_causal_effect,
    identify_joint,
    order_free_bounds,
    recover_factors,
    solve_pencil,
)
from .errors import (
    CausalProxError,
    ComplexEigenvalueError,
    CycleError,
    DegenerateSpectrumError,
    DesignError,
    EmptyDataError,
    FormatError,
    IdentificationError,
    InfeasibleError,
    NoCriterionError,
    NonDiagonalError,
    NonPositiveEigenvalueError,
    OrderAmbiguityError,
    PatternError,
    PivotError,
    PositivityError,
    PreconditionError,
    RangeError,
    SchemaMismatchError,
    SingularMatrixError,
    SizeError,
    SpecError,
    UnknownVariableError,
    UnknownVertexError,
    ZeroConditionalError,
    ZeroMassError,
)
from .graph import (
    CausalDiagram,
    CriterionReport,
    build_diagram,
    d_separated,
    diagram_from_json,
    diagram_to_json,
    expand_bidirected,
    find_adjustment_set,
    find_open_path,
    satisfies_backdoor,
    satisfies_frontdoor,
)
from .synth import (
    LatentModelSpec,
    generate_latent_model,
    random_latent_spec,
    spec_design,
    spec_margins,
)
from .table import (
    JointTable,
    backdoor_adjust,
    frontdoor_adjust,
    load_counts,
    make_table,
)

__version__ = "0.1.0"
