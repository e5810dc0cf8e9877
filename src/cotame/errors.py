"""Exception types shared across the package."""


class CotameError(Exception):
    """Base class for all package errors."""


class NotAUnit(CotameError):
    """Inversion was requested for a ring element that is not a unit."""


class Unsupported(CotameError):
    """The operation is not defined for this ring or input shape."""


class NoSuchUnit(CotameError):
    """No unit with the requested property exists (e.g. u and u+1 both units)."""


class CompositeCharacteristic(CotameError):
    """Good-monomial machinery requires characteristic zero or prime."""


class DegreeConditionError(CotameError):
    """A separable degree exceeds the base-field bound, or too few scalars exist."""


class PolynomialSyntaxError(CotameError):
    """Raised by the polynomial parser; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NoRouteFound(CotameError):
    """No constructive route to the requested certificate was found."""


class ResourceLimit(CotameError):
    """A computation exceeded its configured size guard."""
