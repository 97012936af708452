"""Exception types raised across the package."""


class SignumError(Exception):
    """Base class for all errors raised by this package."""


class RaggedRows(SignumError):
    """Pattern text rows have differing token counts."""


class UnknownToken(SignumError):
    """Pattern text contains a token outside {+, -, 0}."""


class NonSquare(SignumError):
    """Pattern text does not describe a square grid."""


class DimensionMismatch(SignumError):
    """An equivalence transform does not fit the pattern order."""


class NotCombinatoriallySymmetric(SignumError):
    """An operation needing p_ij != 0 iff p_ji != 0 got an asymmetric pattern."""


class NotTreePattern(SignumError):
    """The edge-sign flip transform only applies to tree and path patterns."""


class Disconnected(SignumError):
    """A graph operation requires a connected graph."""


class CycleBudgetExceeded(SignumError):
    """Cycle enumeration exceeded its safety budget."""


class OrderCapExceeded(SignumError):
    """An exhaustive operation was asked for beyond its order cap."""


class NonFinite(SignumError):
    """A numeric matrix has NaN or infinite entries, or a norm that overflows."""


class ZeroLeading(SignumError):
    """Sign-variation counting needs a nonzero leading coefficient."""


class CycleNotInPattern(SignumError):
    """A witness specification names arcs absent from the pattern."""


class SignMismatch(SignumError):
    """A witness specification disagrees with the pattern's entry signs."""


class EigenFailure(SignumError):
    """The dense eigensolver failed to converge."""


class NoStabilization(SignumError):
    """No perturbation size in the schedule produced a stable inertia."""


class DegenerateBase(SignumError):
    """The unperturbed witness matrix has repeated eigenvalues."""


class RunNotOdd(SignumError):
    """The matching construction needs a run with an odd number of edges."""


class CycleNotEven(SignumError):
    """The matching construction needs a cycle of even length."""
