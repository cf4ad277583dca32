"""Exception types shared across the package."""


class SigtorusError(Exception):
    """Base class for all errors raised by this package."""


# Laurent polynomial layer

class ZeroCoordinate(SigtorusError):
    """A Laurent polynomial was evaluated at a point with a zero coordinate."""


class DenominatorVanishes(SigtorusError):
    """A rational function was evaluated where its denominator vanishes."""


class NotDivisible(SigtorusError):
    """Exact polynomial division is impossible (nonzero remainder)."""


# Link data layer

class SchemaError(SigtorusError):
    """A link document does not conform to the expected schema."""


class SymmetryViolation(SchemaError):
    """A Seifert system violates the transpose pairing of its matrices."""


class DimensionMismatch(SchemaError):
    """Matrices in a Seifert system have inconsistent dimensions."""


class BoundaryPoint(SigtorusError):
    """A torus point has a coordinate equal to 1 where that is not allowed."""


# Correction-function layer

class InexactAngles(SigtorusError):
    """An exact predicate was asked of angles that are not stored exactly."""


class DomainError(SigtorusError):
    """An argument lies outside the domain of the requested function."""


# Slope layer

class PoleEncountered(SigtorusError):
    """A rational function was evaluated at a pole of its stored form."""


class Indeterminate(SigtorusError):
    """The slope formula reads 0/0 and does not apply."""


class RealnessError(SigtorusError):
    """A quantity that must be real came out with a large imaginary part."""


class MissingConwayData(SigtorusError):
    """An operation needs Conway function data that the link does not carry."""


# Verification layer

class MissingSublink(SigtorusError):
    """An operation needs sublink data that the link does not carry."""


class MissingUnderlying(SigtorusError):
    """An operation needs the underlying oriented link, which is absent."""


class WrongColorCount(SigtorusError):
    """An operation requires a specific number of colors."""


class UnsupportedCase(SigtorusError):
    """The link matches none of the cases covered by a prediction formula."""


class ZeroParameter(SigtorusError):
    """A family parameter is zero where the formula needs it nonzero."""
