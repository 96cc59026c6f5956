"""Exception hierarchy shared by all discforge modules.

Every error carries an ``exit_code`` used by the command line front end:
2 for malformed input, 3 for violated mathematical preconditions, 4 for
inputs the engine recognizes but does not handle.
"""

from __future__ import annotations


class DiscforgeError(Exception):
    """Base class for all discforge errors."""

    exit_code = 3


class ParseError(DiscforgeError):
    """Malformed matrix, polynomial or point input."""

    exit_code = 2


class Unsupported(DiscforgeError):
    """Structurally valid input outside the implemented scope."""

    exit_code = 4


class PreconditionError(DiscforgeError):
    """An operation's mathematical precondition does not hold."""


class DegenerateDual(PreconditionError):
    """Rank-deficient input where full column rank is required."""


class NotInSpan(PreconditionError):
    """Target vector is not in the rational row span."""


class NonPrimitive(PreconditionError):
    """Vector or configuration must be primitive (content 1) and is not."""


class NotHomogeneous(PreconditionError):
    """Configuration is not homogeneous."""


class PyramidInput(PreconditionError):
    """Configuration is a pyramid (a dual vector is zero) where forbidden."""


class NotIrreducible(PreconditionError):
    """Configuration has collinear dual vectors where forbidden."""


class DuplicatePoint(PreconditionError):
    """Point configuration contains a repeated column."""


class OnExceptionalLocus(PreconditionError):
    """Evaluation point lies on the exceptional locus of the Horn map."""


class KernelDimensionNotOne(PreconditionError):
    """Interpolation kernel is not one dimensional; degenerate input."""


class NoVariable(PreconditionError):
    """Resultant input is constant in the eliminated variable."""


class InconsistentSplit(PreconditionError):
    """Gluing split does not satisfy its rank or weight constraints."""


class ZeroVector(PreconditionError):
    """A nonzero vector is required."""


class ZeroCoordinate(PreconditionError):
    """Evaluation point must have all coordinates nonzero."""


class ZeroSubstitution(PreconditionError):
    """Substituting zero into a variable with negative exponents."""


class NotPositiveMultiple(PreconditionError):
    """Two dual vectors must be positive rational multiples of each other."""


class SplittingLine(PreconditionError):
    """The selected line is splitting where a non-splitting one is required."""


class SizeBound(DiscforgeError):
    """Configuration exceeds the enumeration size bound."""
