"""Exception types shared across the package.

``ValidationError`` subclasses signal bad user input (a model that violates a
documented invariant); the command line maps them to exit code 2.  The
sector and domination gate, :func:`~regpart.model.derive_fields`, raises
``SectorViolation`` (also for an ``A`` with a negative eigenvalue) and
``DominationViolation``; ``NotPSD`` comes from ``psd_sqrt``/``pinv_sqrt``.
``ParseError`` signals unreadable input files (exit code 3).  ``SolveFailure``
indicates an internal dense solve went wrong on data that passed validation,
which should never happen for well-formed inputs.
"""


class ValidationError(Exception):
    """A model, field or argument violates a documented invariant."""


class ParseError(Exception):
    """A model or report file could not be parsed."""


class NotHermitian(ValidationError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(ValidationError):
    """Input matrix has a genuinely negative eigenvalue; ``cell`` is the
    flat index of the offending matrix of a stack, where known."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class SectorViolation(ValidationError):
    """Principal coefficients escape the declared sector, or the derived
    factorization cannot reproduce them."""

    def __init__(self, message, cell=None, witness=None):
        super().__init__(message)
        self.cell = cell
        self.witness = witness


class DominationViolation(ValidationError):
    """First-order coefficients are not dominated by the principal part."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class GridMismatch(ValidationError):
    """Two objects built over different grids were combined."""


class ProjectionInvalid(ValidationError):
    """A per-cell matrix fails to be an orthogonal projection."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NotCommuting(ValidationError):
    """The commuting-case formula was requested on a non-commuting model."""


class DegenerateBasis(ValidationError):
    """A function family is too ill-conditioned to use as a basis."""


class KernelMismatch(ValidationError):
    """A combination of lifted basis functions has zero value part but a
    nonzero gradient part; the function family must be re-picked."""


class ResolutionTooCoarse(ValidationError):
    """The grid cannot resolve the requested construction."""


class SolveFailure(RuntimeError):
    """An internal dense solve failed; indicates corrupted inputs."""
