import random
from fractions import Fraction

import numpy as np
import pytest

from sigtorus.angles import TorusPoint
from sigtorus.errors import (MissingConwayData, MissingSublink,
                             MissingUnderlying, UnsupportedCase,
                             WrongColorCount)
from sigtorus.families import make_torus, make_twist, make_unlink, unknot
from sigtorus.laurent import LaurentPoly, RationalFunction
from sigtorus.links import ColoredLink, SeifertSystem, parse_link
from sigtorus.verify import (PLUS_MINUS_ONE, LimitSchedule, directional_limit,
                             predict_lt_limit_2comp, predict_torres,
                             run_suite, verify_3d, verify_4d,
                             verify_corner_limits, verify_lt, verify_multi_lt)


def t_minus_inv(nvars, j):
    return LaurentPoly.variable(nvars, j) - LaurentPoly.variable(nvars, j, -1)


def assert_all_pass(reports):
    failing = [r for r in reports if not r.passed]
    assert not failing, "failing checks: %r" % [(r.check, r.inputs, r.lhs, r.rhs, r.notes)
                                               for r in failing]


def generic_angles(rnd, count, avoid=None):
    out = []
    while len(out) < count:
        q = rnd.randint(2, 64)
        theta = Fraction(rnd.randint(1, q - 1), q)
        if avoid and avoid(theta):
            continue
        out.append(theta)
    return out


# -- directional limits -------------------------------------------------------

def test_torus_directional_limits():
    link = make_torus(3)
    plus = directional_limit(link, TorusPoint([Fraction(1, 10)]), "plus")
    minus = directional_limit(link, TorusPoint([Fraction(1, 10)]), "minus")
    assert plus.stable and plus.value == 2
    assert minus.stable and minus.value == -2


def test_twist_directional_limits():
    for k in (-2, 0, 1):
        link = make_twist(k)
        sign = (k > 0) - (k < 0)
        for side in ("plus", "minus"):
            res = directional_limit(link, TorusPoint([Fraction(2, 7)]), side)
            assert res.stable and res.value == sign


def test_unlink_directional_limit():
    res = directional_limit(make_unlink(2), TorusPoint([Fraction(1, 3)]), "plus")
    assert res.stable and res.value == 0


def test_limit_at_degenerate_point_stays_within_bound():
    # at a wall point the one-sided limit with fixed rest coordinate is 0,
    # one unit away from the jump value, saturating the bound
    link = make_torus(3)
    res = directional_limit(link, TorusPoint([Fraction(1, 3)]), "plus")
    assert (not res.stable) or abs(res.value - 1) <= 1


def test_schedule_robustness():
    link = make_torus(3)
    pt = TorusPoint([Fraction(1, 10)])
    base = directional_limit(link, pt, "plus").value
    halved = directional_limit(link, pt, "plus",
                               LimitSchedule(initial=Fraction(1, 32))).value
    widened = directional_limit(link, pt, "plus",
                                LimitSchedule(window=8)).value
    assert base == halved == widened == 2
    for initial in (Fraction(1), Fraction(0), Fraction(3, 2)):
        with pytest.raises(ValueError):
            LimitSchedule(initial=initial)


def test_side_symmetry_for_single_color():
    for link in (unknot(), make_torus(3).underlying_oriented,
                 make_torus(1).underlying_oriented):
        plus = directional_limit(link, TorusPoint(()), "plus")
        minus = directional_limit(link, TorusPoint(()), "minus")
        assert plus.stable and minus.stable and plus.value == minus.value


# -- the jump-bound verifier --------------------------------------------------

def test_verify_3d_on_families():
    rnd = random.Random(0)
    for link in (make_torus(3), make_torus(1), make_twist(2), make_twist(0)):
        for theta in generic_angles(rnd, 8):
            assert_all_pass(verify_3d(link, TorusPoint([theta])))


def test_verify_3d_sharp_at_wall_points():
    link = make_torus(3)
    reports = verify_3d(link, TorusPoint([Fraction(1, 3)]))
    assert_all_pass(reports)
    bounds = [r for r in reports if r.check.startswith("3d/bound")]
    assert bounds and all("bound sharp" in r.notes for r in bounds)


def test_verify_3d_equality_fires_for_hopf():
    reports = verify_3d(make_torus(1), TorusPoint([Fraction(2, 7)]))
    eq = [r for r in reports if r.check.startswith("3d/equality/")]
    assert len(eq) == 2
    assert all(r.passed and r.rhs == 0 for r in eq)


def test_verify_3d_skips_multicomponent_colors():
    zero = np.zeros((1, 1), dtype=int)
    link = ColoredLink(mu=2, components_per_color=[2, 1], linking={},
                       seifert=SeifertSystem(2, {"++": zero, "+-": zero,
                                                 "-+": zero, "--": zero}))
    reports = verify_3d(link, TorusPoint([Fraction(1, 3)]))
    assert len(reports) == 1 and reports[0].check == "3d/skipped"


def test_verify_3d_needs_sublink():
    doc = make_twist(2).to_document()
    del doc["sublinks"]
    with pytest.raises(MissingSublink):
        verify_3d(parse_link(doc), TorusPoint([Fraction(1, 3)]))


# -- the slope/linking-bound verifier ------------------------------------------

def test_verify_4d_twist_equality_value():
    reports = verify_4d(make_twist(2), TorusPoint([Fraction(1, 4)]))
    assert_all_pass(reports)
    eq = [r for r in reports if r.check.startswith("4d/split/equality")]
    assert len(eq) == 2 and all(r.rhs == 1 for r in eq)


def test_verify_4d_on_families():
    rnd = random.Random(1)
    for link in (make_torus(3), make_torus(-2), make_twist(-1), make_twist(0)):
        for theta in generic_angles(rnd, 8):
            assert_all_pass(verify_4d(link, TorusPoint([theta])))


def test_verify_4d_unit_linking_equality():
    reports = verify_4d(make_torus(1), TorusPoint([Fraction(2, 7)]))
    assert_all_pass(reports)
    eq = [r for r in reports if r.check.startswith("4d/linked/equality/")]
    assert len(eq) == 2 and all(r.rhs == 0 for r in eq)


def test_verify_4d_split_needs_conway():
    doc = make_twist(2).to_document()
    del doc["conway"]
    with pytest.raises(MissingConwayData):
        verify_4d(parse_link(doc), TorusPoint([Fraction(1, 3)]))


# -- the one-variable verifier ---------------------------------------------------

def test_verify_lt_forced_value_for_torus_data():
    link = make_torus(3).underlying_oriented
    reports = verify_lt(link)
    assert_all_pass(reports)
    eq = [r for r in reports if r.check == "lt/limit-equality"]
    assert eq and eq[0].rhs == -1


def test_verify_lt_for_knots_and_unlinks():
    trefoil_a = [[-1, 1], [0, -1]]
    trefoil = ColoredLink(mu=1, components_per_color=[1], linking={},
                          seifert=SeifertSystem(1, {"-": trefoil_a,
                                                    "+": np.array(trefoil_a).T}))
    assert_all_pass(verify_lt(trefoil))
    assert_all_pass(verify_lt(unknot()))
    assert_all_pass(verify_lt(make_unlink(3).underlying_oriented))


def test_verify_lt_boundary_link_rank_forces_zero():
    doc = make_unlink(2).underlying_oriented.to_document()
    doc["rank_alexander"] = 1
    reports = verify_lt(parse_link(doc))
    assert_all_pass(reports)
    assert any(r.check == "lt/limit-equality" and r.rhs == 0 for r in reports)


def test_verify_lt_rejects_colored_links():
    with pytest.raises(WrongColorCount):
        verify_lt(make_twist(1))


def test_predict_lt_limit_two_components():
    assert predict_lt_limit_2comp(3) == -1
    assert predict_lt_limit_2comp(-2) == 1
    assert predict_lt_limit_2comp(0, make_twist(2).conway) == 1
    assert predict_lt_limit_2comp(0, make_twist(-1).conway) == -1
    assert predict_lt_limit_2comp(0, RationalFunction(LaurentPoly.zero(2))) == 0
    balanced = (t_minus_inv(2, 0) * t_minus_inv(2, 1)
                * (LaurentPoly.variable(2, 0) - LaurentPoly.constant(2, 1)))
    assert predict_lt_limit_2comp(0, balanced) is PLUS_MINUS_ONE


# -- corner limits -----------------------------------------------------------------

def test_corner_limits_on_torus_links():
    for ell in (1, 2, 3):
        link = make_torus(ell)
        reports = verify_corner_limits(link)
        assert_all_pass(reports)
        closed = {r.check: r.rhs for r in reports
                  if r.check.startswith("corners/two-color/")}
        assert closed["corners/two-color/++"] == ell - 1
        assert closed["corners/two-color/+-"] == -(ell - 1)


def test_corner_limits_on_twist_links():
    for k in (-2, 2):
        reports = verify_corner_limits(make_twist(k))
        assert_all_pass(reports)


# -- Torres predictions ----------------------------------------------------------

def test_predict_torres_torus():
    pred = predict_torres(make_torus(3), TorusPoint([Fraction(1, 10)]))
    assert pred.sigma == 0
    assert pred.eta == 2
    assert pred.midpoint == "pass"
    assert pred.midpoint_value == 0


def test_predict_torres_torus_at_wall_is_skipped():
    pred = predict_torres(make_torus(3), TorusPoint([Fraction(1, 3)]))
    assert pred.midpoint == "skipped"
    assert pred.eta == 2


def test_predict_torres_twist():
    for k in (-2, 1, 2):
        pred = predict_torres(make_twist(k), TorusPoint([Fraction(2, 7)]))
        assert pred.sigma == (k > 0) - (k < 0)
        assert pred.eta == 0
        assert pred.midpoint == "skipped"
    pred = predict_torres(make_twist(0), TorusPoint([Fraction(2, 7)]))
    assert (pred.sigma, pred.eta) == (0, 1)


def test_predict_torres_single_color():
    pred = predict_torres(make_torus(3).underlying_oriented)
    assert (pred.sigma, pred.eta) == (-1, 0)
    pred = predict_torres(make_unlink(3).underlying_oriented)
    assert (pred.sigma, pred.eta) == (0, 2)


def _two_component_first_color(lk_values):
    zero = np.zeros((1, 1), dtype=int)
    linking = {("1.1", "2.1"): lk_values[0], ("1.2", "2.1"): lk_values[1]}
    return ColoredLink(mu=2, components_per_color=[2, 1], linking=linking,
                       seifert=SeifertSystem(2, {"++": zero, "+-": zero,
                                                 "-+": zero, "--": zero}),
                       sublinks={"2": unknot()})


def test_predict_torres_unsupported_cases():
    with pytest.raises(UnsupportedCase):
        predict_torres(_two_component_first_color((1, 0)), TorusPoint([Fraction(1, 3)]))
    with pytest.raises(UnsupportedCase):
        predict_torres(_two_component_first_color((0, 0)), TorusPoint([Fraction(1, 3)]))


# -- the diagonal identity ----------------------------------------------------------

def test_multi_lt_hopf():
    link = make_torus(1)
    for k in range(1, 20):
        assert_all_pass(verify_multi_lt(link, Fraction(k, 20)))


def test_multi_lt_unlink():
    assert_all_pass(verify_multi_lt(make_unlink(2), Fraction(1, 3)))


def test_multi_lt_torus_grid():
    # cross-check of the independently constructed oriented Seifert matrix
    link = make_torus(3)
    for k in range(1, 51):
        assert_all_pass(verify_multi_lt(link, Fraction(k, 51)))


def test_multi_lt_needs_underlying():
    with pytest.raises(MissingUnderlying):
        verify_multi_lt(make_twist(2), Fraction(1, 3))


# -- suites ---------------------------------------------------------------------------

def test_run_suite_all_passes_on_families():
    for link in (make_torus(2), make_twist(-2), make_torus(-3), make_twist(0),
                 make_torus(1), make_unlink(3)):
        assert_all_pass(run_suite(link, "all", samples=6, seed=9))


def test_run_suite_wide_sampling_finds_no_counterexample():
    # the statements are proved, so any failure here is an implementation bug
    for link in (make_torus(3), make_twist(2)):
        assert_all_pass(run_suite(link, "all", samples=200, seed=12))


def test_run_suite_deterministic():
    link = make_torus(3)
    first = [r.to_json_dict() for r in run_suite(link, "3d", samples=5, seed=4)]
    second = [r.to_json_dict() for r in run_suite(link, "3d", samples=5, seed=4)]
    assert first == second


def test_run_suite_missing_data_raises():
    doc = make_twist(2).to_document()
    del doc["conway"]
    with pytest.raises(MissingConwayData):
        run_suite(parse_link(doc), "4d", samples=2, seed=0)
    with pytest.raises(MissingUnderlying):
        run_suite(make_twist(2), "multi-lt", samples=2, seed=0)


def test_run_suite_wrong_rank_fails_checks():
    doc = make_twist(2).to_document()
    doc["rank_alexander"] = 5
    reports = run_suite(parse_link(doc), "3d", samples=3, seed=0)
    assert any(not r.passed for r in reports)
