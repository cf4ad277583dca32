import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sigtorus.angles import TorusPoint
from sigtorus.errors import BoundaryPoint, Indeterminate, NotDivisible, PoleEncountered
from sigtorus.families import make_torus, make_twist, make_unlink
from sigtorus.laurent import LaurentPoly, RationalFunction
from sigtorus.slope import classify_slope, conway_factor_split, slope, torres_generic


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
            assert type(value) is float
            assert value == pytest.approx(expected, abs=1e-9)


def test_zero_numerator_gives_zero_slope():
    link = make_twist(0)
    value = slope(link.conway, link.rest_sublink().conway, TorusPoint([Fraction(1, 3)]))
    assert value == 0.0 and type(value) is float


def test_vanishing_sublink_value_gives_infinity():
    nabla = RationalFunction(t_minus_inv(2, 0) * t_minus_inv(2, 1))
    # t + 1/t vanishes at the square root of the angle 1/2
    rest = RationalFunction(LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1))
    assert slope(nabla, rest, TorusPoint([Fraction(1, 2)])) == math.inf


def test_quotient_past_float_range_is_the_point_at_infinity():
    """A finite numerator over a sublink value just above its zero cut
    overflows the quotient; on either side of the zero the slope is
    +inf, the one point at infinity, and classifies as infinite."""
    nabla = RationalFunction(LaurentPoly.constant(2, 5 * 10 ** 307)
                             * LaurentPoly.variable(2, 0, 2))
    rest = RationalFunction(LaurentPoly.variable(1, 0) + LaurentPoly.variable(1, 0, -1))
    for theta in (Fraction(1, 2) - Fraction(1, 10 ** 10), Fraction(1, 2) + Fraction(1, 10 ** 10)):
        value = slope(nabla, rest, TorusPoint([theta]))
        assert value == math.inf and classify_slope(value) == (0, -1)


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
    assert classify_slope(4 * 2 * math.sin(math.pi / 3) ** 2) == (1, 0)
    assert classify_slope(-0.5) == (-1, 0)
    assert classify_slope(0.0) == (0, 1)
    assert classify_slope(math.inf) == (0, -1)
    # any real number classifies as the float it stands for
    assert classify_slope(3) == classify_slope(np.float64(2.5)) == (1, 0)
    assert classify_slope(Fraction(-1, 3)) == (-1, 0)
    assert classify_slope(0) == (0, 1)
    assert classify_slope(np.float64(np.inf)) == (0, -1)


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


def test_boundary_points_are_refused():
    """Both formulas live on the open torus: a coordinate at 1 raises
    BoundaryPoint, also where the Conway data has no pole there."""
    link = make_twist(2)
    no_pole = RationalFunction(LaurentPoly.constant(1, 1))
    for rest in (link.rest_sublink().conway, no_pole):
        with pytest.raises(BoundaryPoint, match="must avoid 1"):
            slope(link.conway, rest, TorusPoint([0]))
    with pytest.raises(BoundaryPoint, match="must avoid 1"):
        torres_generic(link, TorusPoint([0]))
    with pytest.raises(BoundaryPoint, match="must avoid 1"):
        torres_generic(make_unlink(3), TorusPoint([Fraction(1, 3), 0]))


def test_removable_zero_by_zero_is_cancelled():
    # torus(3)'s sublink Conway function (t^3 - t^-3)/(t - t^-1), t = t1 t2,
    # reads 0/0 where t = -1; its value there is t^2 + 1 + t^-2 = 3
    rest = make_torus(3).conway
    nabla = RationalFunction(LaurentPoly.variable(3, 0))  # d/dt1 = 1
    for angles in ((Fraction(1, 5), Fraction(4, 5)), (Fraction(2, 7), Fraction(5, 7))):
        value = slope(nabla, rest, TorusPoint(angles))
        assert value == pytest.approx(-1 / 6, abs=1e-12)


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
