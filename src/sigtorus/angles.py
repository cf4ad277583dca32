"""Angles on the unit circle, and torus points.

Angles are measured in turns: the value ``a`` stands for ``exp(2*pi*i*a)``.
Every angle is stored as a :class:`fractions.Fraction` in [0, 1), so every
predicate on angles is exact.  A float angle is read as the fraction it
prints as (0.3 as 3/10), which converts back to the same float, so the
circle point it stands for is the float's own.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * math.pi


def exact_angle(a):
    """The angle as an exact Fraction, not reduced mod 1; the one reading of
    an angle that is not text.

    A Fraction is returned as it is, an int or numpy integer as its value,
    and a float, or a numpy float as its float64 value, as the shortest
    decimal that it prints as (0.1 as 1/10).  NaN and +-inf raise
    DomainError; a bool, a string or any other type raises TypeError.
    """
    if isinstance(a, Fraction):
        return a
    if isinstance(a, (int, np.integer)) and not isinstance(a, bool):
        return Fraction(int(a))
    if isinstance(a, (float, np.floating)):
        a = float(a)
        if not math.isfinite(a):
            raise DomainError("not a finite angle: %r" % (a,))
        return Fraction(repr(a))
    raise TypeError("not an angle: %r" % (a,))


def normalize_angle(a):
    """The angle as a Fraction in [0, 1), read by :func:`exact_angle`.

    A Fraction already in [0, 1) is returned as it is.  A finite float is
    reduced mod 1 as a float before it is read, so -1e-20 is angle 0.
    """
    if isinstance(a, Fraction):
        return a if 0 <= a.numerator < a.denominator else a % 1
    if isinstance(a, (float, np.floating)) and math.isfinite(a):
        a = float(a) % 1.0  # -1e-20 % 1.0 rounds up to 1.0, which is angle 0
        return Fraction(0) if a == 1.0 else exact_angle(a)
    return exact_angle(a) % 1


def conj_angle(a):
    return normalize_angle(-a)


def angle_to_complex(a):
    return cmath.exp(complex(0.0, _TWO_PI * float(a)))


def parse_angle(text):
    """Parse "p/q", an integer, or a decimal, which reads as the fraction
    that its float prints as."""
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


class TorusPoint:
    """A point of the mu-torus, stored as a tuple of Fraction angles in [0, 1)."""

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
    def in_open_torus(self):
        """True when no coordinate equals 1 (angle 0)."""
        return all(a != 0 for a in self.angles)

    def boundary_indices(self):
        return [j for j, a in enumerate(self.angles) if a == 0]

    def omega(self):
        return tuple(angle_to_complex(a) for a in self.angles)

    def sqrt_omega(self):
        return tuple(angle_to_complex(a / 2) for a in self.angles)

    def conjugate(self):
        return TorusPoint(conj_angle(a) for a in self.angles)

    def angle_text(self):
        return ",".join(map(str, self.angles))

    def __repr__(self):
        return "TorusPoint(%s)" % self.angle_text()
