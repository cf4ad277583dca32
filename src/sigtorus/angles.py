"""Angles on the unit circle, rational when possible, and torus points.

Angles are measured in turns: the value ``a`` stands for ``exp(2*pi*i*a)``.
Rational angles (stored as :class:`fractions.Fraction`) admit exact
predicates; float angles are accepted everywhere, but the exact wall test
:func:`sigtorus.corrections.wall_indicator` refuses to guess on them.
"""

import cmath
import math
from fractions import Fraction

from .errors import DomainError

_TWO_PI = 2.0 * math.pi


def normalize_angle(a):
    """Reduce an angle to the fundamental interval [0, 1); NaN and +-inf raise
    DomainError.  A Fraction already in [0, 1) is returned as it is."""
    if isinstance(a, bool):
        raise TypeError("bool is not an angle")
    if isinstance(a, Fraction):
        return a if 0 <= a.numerator < a.denominator else a % 1
    if isinstance(a, int):
        return Fraction(a) % 1
    if isinstance(a, float):
        if not math.isfinite(a):
            raise DomainError("not a finite angle: %r" % (a,))
        a %= 1.0
        return 0.0 if a == 1.0 else a  # -1e-20 % 1.0 rounds up to 1.0
    raise TypeError("not an angle: %r" % (a,))


def as_angle(value):
    """Coerce an angle or a unit complex number to an angle in [0, 1).

    Complex input is projected to the circle and loses exactness.
    """
    if isinstance(value, complex):
        return (cmath.phase(value) / _TWO_PI) % 1.0
    return normalize_angle(value)


def scale_angle(a, k):
    """The angle of the k-th power of the circle point."""
    return normalize_angle(a * k)


def conj_angle(a):
    return normalize_angle(-a)


def angle_to_complex(a):
    return cmath.exp(complex(0.0, _TWO_PI * float(a)))


def half_angle_complex(a):
    """The square root exp(pi*i*a) of the circle point, for a in [0, 1)."""
    a = normalize_angle(a)
    return cmath.exp(complex(0.0, math.pi * float(a)))


def parse_angle(text):
    """Parse "p/q" (exact), an integer, or a decimal (inexact)."""
    text = text.strip()
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if den == 0:
            raise ZeroDivisionError("Fraction(%s, 0)" % num)
        if den < 0:
            num, den = -num, -den
        # p/q mod 1 as one Fraction, already in [0, 1)
        return Fraction(num % den, den)
    if "." in text or "e" in text or "E" in text:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("angle %r is not finite" % text)
        return normalize_angle(value)
    return normalize_angle(Fraction(int(text)))


def format_angle(a):
    return str(a) if isinstance(a, Fraction) else repr(float(a))


class TorusPoint:
    """A point of the mu-torus, stored as a tuple of angles in [0, 1)."""

    __slots__ = ("angles",)

    def __init__(self, angles):
        self.angles = tuple(map(normalize_angle, angles))

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if not text:
            return cls(())
        return cls(parse_angle(part) for part in text.split(","))

    @property
    def mu(self):
        return len(self.angles)

    def __len__(self):
        return len(self.angles)

    def __iter__(self):
        return iter(self.angles)

    def __getitem__(self, j):
        return self.angles[j]

    def __eq__(self, other):
        return isinstance(other, TorusPoint) and self.angles == other.angles

    def __hash__(self):
        return hash(self.angles)

    @property
    def is_exact(self):
        return all(isinstance(a, Fraction) for a in self.angles)

    @property
    def in_open_torus(self):
        """True when no coordinate equals 1 (angle 0)."""
        return all(a != 0 for a in self.angles)

    def boundary_indices(self):
        return [j for j, a in enumerate(self.angles) if a == 0]

    def omega(self):
        return tuple(angle_to_complex(a) for a in self.angles)

    def sqrt_omega(self):
        return tuple(half_angle_complex(a) for a in self.angles)

    def conjugate(self):
        return TorusPoint(conj_angle(a) for a in self.angles)

    def angle_text(self):
        return ",".join(format_angle(a) for a in self.angles)

    def __repr__(self):
        return "TorusPoint(%s)" % self.angle_text()
