import math
import random
from fractions import Fraction

import pytest

from sigtorus.angles import TorusPoint
from sigtorus.errors import Indeterminate, NotDivisible, PoleEncountered
from sigtorus.families import make_torus, make_twist
from sigtorus.laurent import LaurentPoly, RationalFunction
from sigtorus.slope import (SlopeValue, classify_slope, conway_factor_split,
                            slope, torres_generic)


def t_minus_inv(nvars, j):
    return LaurentPoly.variable(nvars, j) - LaurentPoly.variable(nvars, j, -1)


def test_twist_slope_closed_form():
    rnd = random.Random(0)
    for k in (-2, -1, 1, 2):
        link = make_twist(k)
        sub = link.rest_sublink()
        for _ in range(25):
            q = rnd.randint(2, 60)
            theta = Fraction(rnd.randint(1, q - 1), q)
            value = slope(link.conway, sub.conway, TorusPoint([theta]))
            expected = 4 * k * math.sin(math.pi * float(theta)) ** 2
            assert not value.is_infinite
            assert value.value == pytest.approx(expected, abs=1e-9)


def test_zero_numerator_gives_zero_slope():
    link = make_twist(0)
    value = slope(link.conway, link.rest_sublink().conway, TorusPoint([Fraction(1, 3)]))
    assert value == 0.0 and not value.is_infinite


def test_vanishing_sublink_value_gives_infinity():
    nabla = RationalFunction(t_minus_inv(2, 0) * t_minus_inv(2, 1))
    # t + 1/t vanishes at the square root of the angle 1/2
    rest = RationalFunction(LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1))
    value = slope(nabla, rest, TorusPoint([Fraction(1, 2)]))
    assert value.is_infinite


def test_indeterminate_raises():
    nabla = RationalFunction(LaurentPoly.zero(2))
    rest = RationalFunction(LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1))
    with pytest.raises(Indeterminate):
        slope(nabla, rest, TorusPoint([Fraction(1, 2)]))


def test_pole_in_stored_form_reported():
    nabla = RationalFunction(t_minus_inv(2, 0) * t_minus_inv(2, 1))
    rest = RationalFunction(LaurentPoly.constant(1, 1),
                            LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1))
    with pytest.raises(PoleEncountered):
        slope(nabla, rest, TorusPoint([Fraction(1, 2)]))


def test_classification_table():
    assert classify_slope(SlopeValue(4 * 2 * math.sin(math.pi / 3) ** 2)) == (1, 0)
    assert classify_slope(SlopeValue(-0.5)) == (-1, 0)
    assert classify_slope(SlopeValue(0.0)) == (0, 1)
    assert classify_slope(SlopeValue.infinity()) == (0, -1)


def test_classification_invariant_under_positive_scaling():
    link = make_twist(2)
    sub = link.rest_sublink()
    pt = TorusPoint([Fraction(2, 7)])
    base = classify_slope(slope(link.conway, sub.conway, pt))
    scaled = RationalFunction(link.conway.num * 3, link.conway.den * 3)
    assert classify_slope(slope(scaled, sub.conway, pt)) == base


def test_torres_generic_predicate():
    torus = make_torus(3)
    assert torres_generic(torus, TorusPoint([Fraction(1, 10)]))
    assert not torres_generic(torus, TorusPoint([Fraction(1, 3)]))
    # vanishing linking forces the wall indicator to 1
    assert not torres_generic(make_twist(2), TorusPoint([Fraction(1, 5)]))


def test_removable_zero_by_zero_is_cancelled():
    # torus(3)'s sublink Conway function (t^3 - t^-3)/(t - t^-1), t = t1 t2,
    # reads 0/0 where t = -1; its value there is t^2 + 1 + t^-2 = 3
    rest = make_torus(3).conway
    nabla = RationalFunction(LaurentPoly.variable(3, 0))  # d/dt1 = 1
    for angles in ((Fraction(1, 5), Fraction(4, 5)), (Fraction(2, 7), Fraction(5, 7))):
        value = slope(nabla, rest, TorusPoint(angles))
        assert value.value == pytest.approx(-1 / 6, abs=1e-12)


def test_factor_split_examples():
    for k in (-3, 2, 5):
        assert conway_factor_split(make_twist(k).conway) == LaurentPoly.constant(2, k)
    assert conway_factor_split(RationalFunction(LaurentPoly.zero(2))).is_zero
    with pytest.raises(NotDivisible):
        conway_factor_split(RationalFunction(t_minus_inv(2, 0)))
    with pytest.raises(NotDivisible):
        conway_factor_split(RationalFunction(t_minus_inv(2, 0), t_minus_inv(2, 1)))


def test_slope_realness_on_builtin_data():
    rnd = random.Random(1)
    for k in (-2, 1, 3):
        link = make_twist(k)
        sub = link.rest_sublink()
        for _ in range(60):
            q = rnd.randint(2, 97)
            pt = TorusPoint([Fraction(rnd.randint(1, q - 1), q)])
            slope(link.conway, sub.conway, pt)  # raises RealnessError on failure
