"""Slope of a knot inside a colored link, computed from Conway functions.

The slope at a point of the open torus over the remaining colors is minus
the first partial derivative of the link's Conway function, evaluated at
(1, sqrt(omega')), divided by twice the Conway function of the rest of the
link at sqrt(omega'); square roots use the branch exp(pi*i*theta) with
theta the stored angle in [0, 1).  The value is real or infinite, and the
realness is verified rather than assumed.
"""

import math

from .angles import TorusPoint
from .corrections import wall_indicator
from .errors import (BoundaryPoint, DenominatorVanishes, DomainError, Indeterminate,
                     MissingConwayData, MissingSublink, NotDivisible, PoleEncountered,
                     RealnessError)
from .laurent import LaurentPoly, as_rational, divide_exact

_REAL_SLACK = 1e-8


class SlopeValue:
    """A real number or the single point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    @classmethod
    def infinity(cls):
        return cls(math.inf)

    @property
    def is_infinite(self):
        return math.isinf(self.value)

    def __eq__(self, other):
        if isinstance(other, SlopeValue):
            other = other.value
        return self.value == other

    def __repr__(self):
        return "SlopeValue(inf)" if self.is_infinite else "SlopeValue(%r)" % self.value


def _require_open(point):
    """Raise BoundaryPoint when a coordinate of the TorusPoint is 1 (angle 0)."""
    if not point.in_open_torus:
        raise BoundaryPoint("the fixed coordinates must avoid 1")


def _eval_part(rational, point, what, error):
    """RationalFunction.eval_with_zero; ``error`` at a pole, DomainError past float range."""
    try:
        return rational.eval_with_zero(point)
    except DenominatorVanishes:
        raise error("%s has a pole at the evaluation point" % what) from None
    except OverflowError:
        raise DomainError("%s has a coefficient or exponent beyond float range" % what) from None


def slope(nabla_link, nabla_rest, point, partial=None):
    """The slope value at a point over the remaining colors.

    Raises BoundaryPoint when a coordinate of the point is 1 (angle 0),
    Indeterminate when numerator and denominator both vanish (the formula
    does not apply there) and PoleEncountered when a stored denominator
    vanishes at the evaluation point and does not divide its numerator.
    ``partial`` is the first partial derivative of ``nabla_link``, for
    callers that take the slope of one link at many points; by default it
    is taken here.
    """
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    nabla_link = as_rational(nabla_link)
    nabla_rest = as_rational(nabla_rest)
    if nabla_link.nvars != point.mu + 1:
        raise ValueError("link Conway data has %d variables, expected %d"
                         % (nabla_link.nvars, point.mu + 1))
    if nabla_rest.nvars != point.mu:
        raise ValueError("sublink Conway data has %d variables, expected %d"
                         % (nabla_rest.nvars, point.mu))
    _require_open(point)
    roots = point.sqrt_omega()
    if partial is None:
        partial = nabla_link.derivative(0)
    numerator, num_zero = _eval_part(partial, (1.0 + 0.0j,) + roots,
                                     "derivative of the Conway function", PoleEncountered)
    denominator, den_zero = _eval_part(nabla_rest, roots,
                                       "Conway function of the sublink", PoleEncountered)
    if num_zero and den_zero:
        raise Indeterminate("slope formula reads 0/0 at this point")
    if den_zero:
        return SlopeValue.infinity()
    if num_zero:
        return SlopeValue(0.0)
    quotient = -numerator / (2.0 * denominator)
    if abs(quotient.imag) > _REAL_SLACK * max(1.0, abs(quotient)):
        raise RealnessError(
            "slope quotient %r has a large imaginary part; check the Conway data"
            % quotient)
    return SlopeValue(quotient.real)


def classify_slope(value):
    """The pair (s, eps) attached to a slope value.

    s is +1/-1 for finite nonzero values and 0 at 0 and infinity; eps is +1
    at 0, -1 at infinity, and 0 otherwise.
    """
    if not isinstance(value, SlopeValue):
        value = SlopeValue(value)
    if value.is_infinite:
        return 0, -1
    if value.value == 0.0:
        return 0, 1
    return (1 if value.value > 0 else -1), 0


# Kept for bench/tracer.py, which wraps it; verify decides genericity without it.
def torres_generic(link, point):
    """True when the full Alexander polynomial is nonzero at (1, omega').

    Equivalent, through the Torres factorization, to the wall indicator
    vanishing and the sublink's Conway function being nonzero at the square
    roots; raises Indeterminate where its stored denominator vanishes
    without dividing its numerator.  This is the Conway-side test;
    ``verify`` decides the same question from the sublink's nullity at
    omega' instead, and this function is kept as the independent oracle
    for it.  Raises BoundaryPoint when a coordinate of the point is 1.
    """
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    _require_open(point)
    if wall_indicator(link.linking_vector(), point) == 1:
        return False
    sub = link.rest_sublink()
    if sub is None:
        raise MissingSublink("genericity test needs sublink data for colors 2..mu")
    if sub.conway is None:
        raise MissingConwayData("genericity test needs Conway data for the sublink")
    _, zero = _eval_part(sub.conway, point.sqrt_omega(),
                         "Conway function of the sublink", Indeterminate)
    return not zero


def conway_factor_split(nabla):
    """Extract f from a 2-variable Conway function of a split pair.

    When the linking number vanishes, the Conway function is a Laurent
    polynomial divisible by (t1 - 1/t1)(t2 - 1/t2); the exact quotient is
    returned, and NotDivisible signals nonzero linking or invalid input.
    """
    rational = as_rational(nabla)
    if rational.nvars != 2:
        raise ValueError("expected a 2-variable Conway function")
    den = rational.den
    unit = 1
    if den == LaurentPoly.constant(2, -1):
        unit = -1
    elif den != LaurentPoly.constant(2, 1):
        raise NotDivisible("Conway function is not a Laurent polynomial")
    num = rational.num * unit
    if num.is_zero:
        return LaurentPoly.zero(2)
    divisor = ((LaurentPoly.variable(2, 0) - LaurentPoly.variable(2, 0, -1))
               * (LaurentPoly.variable(2, 1) - LaurentPoly.variable(2, 1, -1)))
    return divide_exact(num, divisor)
