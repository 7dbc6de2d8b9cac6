"""Exception taxonomy shared across the package.

Every contract violation raises a subclass of MorphismAlgebraError so that
callers (and the command line driver) can map failures to stable categories.
"""


class MorphismAlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(MorphismAlgebraError):
    """Matrix or tensor dimensions do not match the declared objects."""


class RotaBaxterViolation(MorphismAlgebraError):
    """The weighted Rota-Baxter identity fails on some basis pair."""


class NotAHomomorphism(MorphismAlgebraError):
    """A linear map fails the Lie algebra homomorphism equation."""


class NotASubalgebra(MorphismAlgebraError):
    """A subspace is not closed under the bracket."""


class NotPreserved(MorphismAlgebraError):
    """A morphism does not map the given subalgebra into the target one."""


class NotACocycle(MorphismAlgebraError):
    """A cochain expected to be closed has a nonzero differential."""


class NotASection(MorphismAlgebraError):
    """A claimed section s fails p . s = id."""


class NotSimplyCohomologous(MorphismAlgebraError):
    """Two 2-cocycles do not differ by the given simple coboundary."""


class ValidationError(MorphismAlgebraError):
    """An object in a problem document fails its construction checks."""


class ParseError(MorphismAlgebraError):
    """A problem document is syntactically malformed."""


class OutputError(MorphismAlgebraError):
    """A command cannot write the file it was asked to write."""


class UsageError(MorphismAlgebraError):
    """A command combines options that do not go together."""


class UnknownObject(MorphismAlgebraError):
    """A command references a name the document does not define."""


class SizeCeilingExceeded(MorphismAlgebraError):
    """A requested computation exceeds the configured coordinate ceiling."""
