"""Exception types raised across the package.

Every error is a subclass of CausalProxError so callers can catch the
package's failures with a single except clause.  Identification failures
additionally carry a short machine-readable ``code`` naming the condition
that was violated; the CLI surfaces that code on exit status 3.
"""


class CausalProxError(Exception):
    """Base class for all errors raised by causalprox."""


class CycleError(CausalProxError):
    """The directed part of a diagram contains a cycle."""


class UnknownVertexError(CausalProxError):
    """An edge or query references a vertex the diagram does not declare."""


class PreconditionError(CausalProxError):
    """A documented precondition of an operation was violated."""


class FormatError(CausalProxError):
    """An input file or payload does not match the documented format."""


class EmptyDataError(CausalProxError):
    """A data file parsed fine but carries no probability mass."""


class UnknownVariableError(CausalProxError):
    """A query references a variable or category outside the table schema."""


class ZeroMassError(CausalProxError):
    """Conditioning event has probability zero."""


class ZeroConditionalError(CausalProxError):
    """A conditional needed by the truncated factorization is 0/0."""


class SchemaMismatchError(CausalProxError):
    """Table variables and diagram vertices (or two tables) disagree."""


class PositivityError(CausalProxError):
    """An adjustment formula divides by a zero-probability stratum."""


class SpecError(CausalProxError):
    """A synthetic latent-model spec is internally inconsistent."""


class DesignError(CausalProxError):
    """A proxy design is malformed or does not fit the data schema."""


class IdentificationError(CausalProxError):
    """Base for failures of the eigen-identification pipeline.

    ``code`` is a stable machine-readable token naming the violated
    requirement (for example ``E_EIG_GAP``); the human message explains it.
    """

    code = "E_IDENT"


class SingularMatrixError(IdentificationError):
    code = "E_SINGULAR"


class ComplexEigenvalueError(IdentificationError):
    code = "E_COMPLEX_EIGS"


class DegenerateSpectrumError(IdentificationError):
    code = "E_EIG_GAP"


class NonPositiveEigenvalueError(IdentificationError):
    code = "E_EIG_SIGN"


class PivotError(IdentificationError):
    code = "E_PIVOT"


class RangeError(IdentificationError):
    code = "E_RANGE"


class NonDiagonalError(IdentificationError):
    code = "E_NONDIAGONAL"


class OrderAmbiguityError(IdentificationError):
    code = "E_ORDER_AMBIGUOUS"


class PatternError(CausalProxError):
    """The query does not match the structural pattern an op supports."""


class NoCriterionError(CausalProxError):
    """No adjustment criterion holds for the requested effect."""


class InfeasibleError(CausalProxError):
    """The observed table is inconsistent with the response-type model.

    ``down_set`` is the (t, s) values of a down-set L of the proxies whose
    mass rises from x0 to x1, which no monotone model allows: ``measured``
    is P(L | x1) and ``threshold`` is P(L | x0).
    """

    def __init__(self, message, down_set=None, measured=None, threshold=None):
        super().__init__(message)
        self.down_set = down_set
        self.measured = measured
        self.threshold = threshold


class SizeError(CausalProxError):
    """Input exceeds a documented size limit."""
