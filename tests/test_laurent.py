import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sigtorus.errors import DenominatorVanishes, NotDivisible, SchemaError, ZeroCoordinate
from sigtorus.families import make_torus
from sigtorus.laurent import LaurentPoly, RationalFunction, divide_exact


def t_minus_inv(nvars, j):
    return LaurentPoly.variable(nvars, j) - LaurentPoly.variable(nvars, j, -1)


def twist_conway(k):
    return t_minus_inv(2, 0) * t_minus_inv(2, 1) * k


def test_constant_eval():
    five = LaurentPoly.constant(3, 5)
    assert five.eval((2.0 + 1j, -1.0, 0.5j)) == 5


def test_twist_conway_at_quarter_turns():
    # 2*(i - 1/i)*(i - 1/i) = 2*(2i)*(2i) = -8
    assert twist_conway(2).eval((1j, 1j)) == pytest.approx(-8)


def test_zero_poly_eval():
    assert LaurentPoly.zero(2).eval((1j, -1.0)) == 0


def test_zero_coordinate_rejected():
    with pytest.raises(ZeroCoordinate):
        LaurentPoly.variable(2, 0).eval((0.0, 1.0))


def test_derivative_of_twist_conway():
    got = twist_conway(3).derivative(0)
    expected = ((LaurentPoly.constant(2, 1) + LaurentPoly.monomial(2, (-2, 0)))
                * t_minus_inv(2, 1) * 3)
    assert got == expected


def test_derivative_trivial_cases():
    assert LaurentPoly.constant(1, 7).derivative(0).is_zero
    assert LaurentPoly.variable(2, 1).derivative(1) == LaurentPoly.constant(2, 1)


def test_divide_twist_conway_by_normalizer():
    divisor = t_minus_inv(2, 0) * t_minus_inv(2, 1)
    for k in (-3, 1, 5):
        assert divide_exact(twist_conway(k), divisor) == LaurentPoly.constant(2, k)


def test_divide_by_one():
    p = twist_conway(2) + LaurentPoly.monomial(2, (3, -1), 4)
    assert divide_exact(p, LaurentPoly.constant(2, 1)) == p


def test_not_divisible_across_variables():
    with pytest.raises(NotDivisible):
        divide_exact(t_minus_inv(2, 0), t_minus_inv(2, 1))


def test_not_divisible_coefficient():
    with pytest.raises(NotDivisible):
        divide_exact(LaurentPoly.variable(1, 0), LaurentPoly.constant(1, 2))


_coeffs = hst.integers(min_value=-5, max_value=5)
_exps = hst.tuples(hst.integers(min_value=-3, max_value=3),
                   hst.integers(min_value=-3, max_value=3))
_polys = hst.dictionaries(_exps, _coeffs, min_size=0, max_size=4).map(
    lambda terms: LaurentPoly(2, terms))


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_divide_round_trip(p, q):
    if q.is_zero:
        return
    assert divide_exact(p * q, q) == p


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, hst.randoms(use_true_random=False))
def test_eval_is_multiplicative(p, q, rnd):
    point = tuple(complex(rnd.uniform(0.5, 2.0) * (-1) ** rnd.randint(0, 1),
                          rnd.uniform(0.3, 1.5)) for _ in range(2))
    lhs = (p * q).eval(point)
    rhs = p.eval(point) * q.eval(point)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_derivative_matches_finite_differences():
    rnd = random.Random(7)
    h = 1e-5
    for _ in range(25):
        terms = {(rnd.randint(-3, 3), rnd.randint(-3, 3)): rnd.randint(-4, 4)
                 for _ in range(rnd.randint(1, 4))}
        num = LaurentPoly(2, terms)
        den = LaurentPoly.constant(2, 1) + LaurentPoly.monomial(2, (1, 1), 3)
        f = RationalFunction(num, den)
        point = [complex(rnd.uniform(0.6, 1.4), rnd.uniform(0.2, 0.8))
                 for _ in range(2)]
        for var in (0, 1):
            exact = f.derivative(var).eval(tuple(point))
            up = list(point)
            down = list(point)
            up[var] += h
            down[var] -= h
            approx = (f.eval(tuple(up)) - f.eval(tuple(down))) / (2 * h)
            assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_rational_pole_detection():
    unknot = RationalFunction(LaurentPoly.constant(1, 1), t_minus_inv(1, 0))
    with pytest.raises(DenominatorVanishes):
        unknot.eval((1.0,))
    assert unknot.eval((1j,)) == pytest.approx(1 / 2j)
    # torus(3): (t^3 - t^-3) / (t - t^-1) in t = t1 t2 is a removable 0/0 at
    # t = -1; the exact quotient is read there
    conway = make_torus(3).conway
    assert conway.eval((1j, 1j)) == 3
    assert conway.eval_with_zero((1j, 1j)) == (3, False)


def test_rational_cross_multiplication_equality():
    num = twist_conway(2)
    den = t_minus_inv(2, 0)
    assert RationalFunction(num * 3, den * 3) == RationalFunction(num, den)
    assert RationalFunction(num, den) != RationalFunction(num + 1, den)


def test_records_round_trip():
    p = twist_conway(-2) + LaurentPoly.monomial(2, (0, 2), 7)
    assert LaurentPoly.from_records(2, p.to_records()) == p
    f = RationalFunction(p, t_minus_inv(2, 1))
    assert RationalFunction.from_document(2, f.to_document()) == f


def _integral(low, high):
    ints = hst.integers(min_value=low, max_value=high)
    return hst.one_of(ints, ints.map(float), ints.map(np.int64))


def _pair_lists(nvars):
    # exponents in a small box, so that pairs often fall on one vector
    return hst.lists(hst.tuples(hst.tuples(*[_integral(-2, 2)] * nvars), _integral(-4, 4)),
                     max_size=8)


def _ordered(sums):
    """A term map as the constructor must store it: zeros dropped, sorted."""
    return [(exp, coeff) for exp, coeff in sorted(sums.items()) if coeff]


def _accumulated(pairs):
    sums = {}
    for exp, coeff in pairs:
        key = tuple(int(x) for x in exp)
        sums[key] = sums.get(key, 0) + int(coeff)
    return _ordered(sums)


# The accumulation loops the operations ran before the constructor summed
# their terms, kept as the references for them.
def _loop_sum(p, q):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + c
    return _ordered(out)


def _loop_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return _ordered(out)


def _loop_derivative(p, var):
    out = {}
    for exps, coeff in p.terms.items():
        e = exps[var]
        if e == 0:
            continue
        key = exps[:var] + (e - 1,) + exps[var + 1:]
        out[key] = out.get(key, 0) + coeff * e
    return _ordered(out)


_cases = hst.integers(min_value=1, max_value=3).flatmap(
    lambda n: hst.tuples(hst.just(n), _pair_lists(n), _pair_lists(n),
                         hst.integers(min_value=0, max_value=n - 1)))


@settings(max_examples=100, deadline=None)
@given(_cases)
def test_constructor_sums_and_orders_every_term(case):
    nvars, pairs, other, var = case
    p, q = LaurentPoly(nvars, pairs), LaurentPoly(nvars, other)
    assert list(p.terms.items()) == _accumulated(pairs)
    assert all(type(x) is int for exp, coeff in p.terms.items() for x in exp + (coeff,))
    assert LaurentPoly(nvars, dict(pairs)).terms == dict(_accumulated(dict(pairs).items()))
    assert list((p + q).terms.items()) == _loop_sum(p, q)
    assert list((p * q).terms.items()) == _loop_product(p, q)
    assert list(p.derivative(var).terms.items()) == _loop_derivative(p, var)


@pytest.mark.parametrize("nvars, terms, message", [
    (1, {(2,): 2.7}, "coefficient 2.7"),
    (2, {(1.5, 0): 1, (1, 0): 2}, "exponent 1.5"),
    (1, [((1,), True)], "coefficient True"),
], ids=["coefficient", "exponent", "bool"])
def test_constructor_refuses_a_non_integral_value(nvars, terms, message):
    with pytest.raises(SchemaError, match=message):
        LaurentPoly(nvars, terms)
