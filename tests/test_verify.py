import collections
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from sampler import forms, path_rows, sampled_limit

from sigtorus import links, verify
from sigtorus.angles import TorusPoint
from sigtorus.errors import (BoundaryPoint, DomainError, MissingConwayData,
                             MissingSublink, MissingUnderlying, SigtorusError,
                             UnsupportedCase, WrongColorCount)
from sigtorus.families import (make_torus, make_twist, make_unlink, oracle_torus,
                               unknot)
from sigtorus.laurent import LaurentPoly, RationalFunction
from sigtorus.links import (ColoredLink, parse_link, sign_key,
                            sign_vectors, signature_nullity)
from sigtorus.slope import slope, torres_generic
from sigtorus.verify import (PLUS_MINUS_ONE, SUITES, LimitResult, VerificationReport,
                             directional_limit, predict_lt_limit_2comp,
                             predict_torres, random_rational_point,
                             report_text, run_suite, verify_3d, verify_4d,
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
    assert (plus.value, plus.eta) == (2, 0)
    assert (minus.value, minus.eta) == (-2, 0)


def test_twist_directional_limits():
    for k in (-2, 0, 1):
        link = make_twist(k)
        sign = (k > 0) - (k < 0)
        for side in ("plus", "minus"):
            res = directional_limit(link, TorusPoint([Fraction(2, 7)]), side)
            assert res.value == sign


def test_unlink_directional_limit():
    res = directional_limit(make_unlink(2), TorusPoint([Fraction(1, 3)]), "plus")
    assert (res.value, res.eta) == (0, 1)


def test_limit_at_degenerate_point_stays_within_bound():
    # at a wall point the one-sided limit with fixed rest coordinate is 0,
    # one unit away from the jump value, saturating the bound
    link = make_torus(3)
    res = directional_limit(link, TorusPoint([Fraction(1, 3)]), "plus")
    assert res.value == 0


@pytest.mark.parametrize("ell", [2, 3, 4, 5, -3])
def test_torus_limits_on_walls(ell):
    # at theta' = k/|l| the limits are the closed-form profile's values next
    # to the boundary: sgn(l)(|l| - 2k - 1) from 0+ and sgn(l)(2k - |l| - 1) from 1-
    link, m, sign = make_torus(ell), abs(ell), (ell > 0) - (ell < 0)
    tiny = Fraction(1, 2 ** 40)
    for k in range(1, m):
        pt = TorusPoint([Fraction(k, m)])
        plus = directional_limit(link, pt, "plus")
        minus = directional_limit(link, pt, "minus")
        assert plus.value == sign * (m - 2 * k - 1) == oracle_torus(ell, tiny, pt[0])[0]
        assert minus.value == sign * (2 * k - m - 1) == oracle_torus(ell, 1 - tiny, pt[0])[0]
        # the limit form has a one-dimensional kernel on the wall, which the
        # next order closes
        assert plus.eta == minus.eta == 0


def test_side_symmetry_for_single_color():
    for link in (unknot(), make_torus(3).underlying_oriented,
                 make_torus(1).underlying_oriented):
        plus = directional_limit(link, TorusPoint(()), "plus")
        minus = directional_limit(link, TorusPoint(()), "minus")
        assert plus.value == minus.value


@pytest.mark.parametrize("call, error, text", [
    (lambda link: predict_torres(link), DomainError, "needs 1 coordinate"),
    (lambda link: verify_3d(link, None), DomainError, "needs 1 coordinate"),
    (lambda link: verify_4d(link, [Fraction(1, 3), Fraction(1, 5)]), DomainError,
     "needs 1 coordinate"),
    (lambda link: directional_limit(link, ()), DomainError, "needs 1 coordinate"),
    (lambda link: verify_3d(link, TorusPoint([0])), BoundaryPoint, "avoid 1"),
    (lambda link: directional_limit(link, [Fraction(1)], "minus"), BoundaryPoint,
     "avoid 1"),
    (lambda link: directional_limit(link, [Fraction(1, 3)], side="up"), ValueError,
     "side must be 'plus' or 'minus'"),
    (lambda link: run_suite(link, "bogus"), ValueError, "unknown suite 'bogus'"),
    (lambda link: verify_multi_lt(link, 0), BoundaryPoint, "omega different from 1"),
], ids=["torres-none", "3d-none", "4d-two", "limit-empty",
        "3d-boundary", "limit-boundary", "limit-side", "suite-unknown", "multi-lt-boundary"])
def test_bad_rest_point_rejected(call, error, text):
    with pytest.raises(error, match=text):
        call(make_torus(3))


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
                       seifert={"++": zero, "+-": zero, "-+": zero, "--": zero})
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


@pytest.mark.parametrize("k", [2, 0])
def test_verify_4d_split_records_carry_the_slope_text(k):
    """Every split 4d record names its slope as SlopeValue(<repr of the
    float>), the text that the verify report's digests pin; twist(0)'s
    slope is 0.0."""
    link = make_twist(k)
    for theta in (Fraction(1, 4), Fraction(2, 7), Fraction(1, 3)):
        point = TorusPoint([theta])
        text = "SlopeValue(%r)" % slope(link.conway, link.rest_sublink().conway, point)
        assert {r.inputs["slope"] for r in verify_4d(link, point)} == {text}
        assert k or text == "SlopeValue(0.0)"


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


def test_verify_4d_linked_equality_skips_where_the_sublink_nullity_is_positive():
    """Total linking 1, but eta(L', omega') = 1 for L' = torus(2) at (1/4, 1/4):
    the bounds run and the forced equality is one skip record."""
    zero = {sign_key(eps): [[0]] for eps in sign_vectors(3)}
    link = ColoredLink(mu=3, components_per_color=[1, 1, 1], linking={("1.1", "2.1"): 1},
                       seifert=zero, sublinks={"2,3": make_torus(2)})
    reports = verify_4d(link, TorusPoint([Fraction(1, 4), Fraction(1, 4)]))
    assert_all_pass(reports)
    assert [r.check for r in reports] == ["4d/linked/bound/plus", "4d/linked/bound/minus",
                                          "4d/linked/difference", "4d/linked/equality"]
    assert reports[-1].to_json_dict() == {
        "check": "4d/linked/equality", "inputs": {"omega_rest": "1/4,1/4"}, "lhs": None,
        "rhs": None, "relation": "==", "pass": True,
        "notes": ["sublink Alexander value vanishes here"]}


def test_equalities_run_without_sublink_conway_data():
    # genericity comes from eta(L', omega') and the wall indicator, so the
    # Hopf link's equalities need no Conway data on its sublink
    doc = make_torus(1).to_document()
    del doc["sublinks"]["2"]["conway"]
    link = parse_link(doc)
    point = TorusPoint([Fraction(2, 7)])
    for reports, prefix in ((verify_3d(link, point), "3d/equality/"),
                            (verify_4d(link, point), "4d/linked/equality/")):
        assert_all_pass(reports)
        eq = [r for r in reports if r.check.startswith(prefix)]
        assert [r.check for r in eq] == [prefix + "plus", prefix + "minus"]
        assert all(r.rhs == 0 for r in eq)
    assert predict_torres(link, point).midpoint == "pass"


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
                          seifert={"-": trefoil_a, "+": np.array(trefoil_a).T})
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


def _corner_reports_per_sign_vector(link):
    """verify_corner_limits with one linking inertia and one cross term per
    sign vector, each linking number read afresh."""
    m, rank = link.total_components, link.rank_alexander
    values = links.corner_limit_counts(link)[:, 0].tolist()
    reports = []
    for signs, value in zip(sign_vectors(link.mu), values):
        key = sign_key(signs)
        inputs, notes = {"signs": key}, [verify._rank_note(link)]
        ine = links.linking_inertia(link, signs)
        cross = sum(signs[i] * signs[j] * link.lk_colors(i + 1, j + 1)
                    for i in range(link.mu) for j in range(i + 1, link.mu))
        center = ine.signature + cross
        reports.append(verify._leq("corners/bound/" + key, inputs, abs(value - center),
                                   ine.nullity - 1 - rank, notes))
        if ine.nullity == 1:
            reports.append(verify._eq("corners/equality/" + key, inputs, value, center, notes))
        if link.mu == 2 and link.lk_colors(1, 2) != 0:
            ell = link.lk_colors(1, 2)
            reports.append(verify._eq("corners/two-color/" + key, inputs, value,
                                      signs[0] * signs[1] * (ell - (1 if ell > 0 else -1)),
                                      notes))
        reports.append(verify._leq("corners/magnitude/" + key, inputs, abs(value),
                                   m - 1 + abs(cross) - rank, notes))
    return [r.to_json_dict() for r in reports]


def _random_linked(seed):
    """A random mu = 2 or 3 link with one or two components per color, random
    linking numbers between any two components and a random rank."""
    rnd = random.Random(seed)
    mu = rnd.randint(2, 3)
    counts = [rnd.randint(1, 2) for _ in range(mu)]
    comps = ["%d.%d" % (c, k) for c, count in enumerate(counts, 1)
             for k in range(1, count + 1)]
    linking = {(a, b): rnd.randint(-2, 2) for i, a in enumerate(comps) for b in comps[i + 1:]
               if rnd.random() < 0.7}
    return ColoredLink(mu, counts, linking, _random_seifert(rnd, mu, rnd.randint(1, 3)),
                       rank_alexander=rnd.randint(0, 1))


def test_corner_reports_take_one_linking_inertia_per_pair_of_signs(monkeypatch):
    calls = []
    integer_inertia = links.integer_inertia

    def counted(matrix):
        calls.append(matrix)
        return integer_inertia(matrix)

    monkeypatch.setattr(links, "integer_inertia", counted)
    built_ins = [make_torus(k) for k in (-3, -1, 1, 2, 4)] + \
        [make_twist(k) for k in (-2, 0, 3)] + [make_unlink(k) for k in (2, 3, 4)] + \
        [make_torus(3).underlying_oriented, _random_three_colors(5)]
    for link in built_ins + [_random_linked(seed) for seed in range(40)]:
        expected = _corner_reports_per_sign_vector(link)
        del calls[:]
        assert [r.to_json_dict() for r in verify_corner_limits(link)] == expected
        assert len(calls) == 2 ** (link.mu - 1)


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


def test_predict_torres_reads_decimal_angles_as_their_fractions():
    link = make_torus(3)
    point = TorusPoint([0.3])
    assert point == TorusPoint([Fraction(3, 10)]) and point.angle_text() == "3/10"
    pred = predict_torres(link, [0.3])
    assert pred == predict_torres(link, TorusPoint([Fraction(3, 10)]))
    assert (pred.midpoint, pred.midpoint_value) == ("pass", pred.sigma_rest)


def test_predict_torres_single_color():
    pred = predict_torres(make_torus(3).underlying_oriented)
    assert (pred.sigma, pred.eta) == (-1, 0)
    pred = predict_torres(make_unlink(3).underlying_oriented)
    assert (pred.sigma, pred.eta) == (0, 2)


def _chain(lk12, lk13):
    """The three-component chain: the first knot clasps the two others,
    which form a split unlink (twist(0)).  Its C-complex is three disks and
    two clasps, so the Seifert matrices are empty."""
    empty = {sign_key(eps): [] for eps in sign_vectors(3)}
    return ColoredLink(mu=3, components_per_color=[1, 1, 1],
                       linking={("1.1", "2.1"): lk12, ("1.1", "3.1"): lk13,
                                ("2.1", "3.1"): 0},
                       seifert=empty, sublinks={"2,3": make_twist(0)})


def _clasping_torus3():
    """A first knot with linking numbers 1 and 2 with the two colors of
    torus(3), whose Conway function (t^3 - t^-3)/(t - t^-1), t = t2 t3,
    reads 0/0 where t = -1 (value 3 there)."""
    empty = {sign_key(eps): [] for eps in sign_vectors(3)}
    return ColoredLink(mu=3, components_per_color=[1, 1, 1],
                       linking={("1.1", "2.1"): 1, ("1.1", "3.1"): 2},
                       seifert=empty, sublinks={"2,3": make_torus(3)})


_FAREY_12 = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})


@pytest.mark.parametrize(
    "link", [pytest.param(make_torus(ell), id="torus%d" % ell) for ell in range(-7, 8) if ell]
    + [pytest.param(make_twist(k), id="twist%d" % k) for k in range(-2, 4)]
    + [pytest.param(make_unlink(mu), id="unlink%d" % mu) for mu in (2, 3, 4)]
    + [pytest.param(_chain(1, 1), id="chain++"), pytest.param(_chain(1, -1), id="chain+-")]
    + [pytest.param(_clasping_torus3(), id="clasp-torus3")])
def test_rest_point_genericity_matches_conway_oracle(link):
    """eta(L', omega') and the wall indicator decide genericity as the
    Conway-side zero test does, at every rest point p/q with q <= 12 (on
    unlink(4), every rest point p/q with q <= 4), walls included.  On
    clasp-torus3 these include (1/5, 4/5) and (2/7, 5/7), where the
    sublink's Conway function reads a removable 0/0."""
    angles = _FAREY_12 if link.mu <= 3 else [a for a in _FAREY_12 if a.denominator <= 4]
    points = [TorusPoint(pt) for pt in itertools.product(angles, repeat=link.mu - 1)]
    rests = verify._Rests(link, points)
    assert rests.generic == [torres_generic(link, pt) for pt in points]


def _two_component_first_color(lk_values):
    zero = np.zeros((1, 1), dtype=int)
    linking = {("1.1", "2.1"): lk_values[0], ("1.2", "2.1"): lk_values[1]}
    return ColoredLink(mu=2, components_per_color=[2, 1], linking=linking,
                       seifert={"++": zero, "+-": zero, "-+": zero, "--": zero},
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
    with pytest.raises(MissingConwayData, match="conway"):
        predict_torres(parse_link(doc), TorusPoint([Fraction(1, 4)]))
    with pytest.raises(MissingUnderlying):
        run_suite(make_twist(2), "multi-lt", samples=2, seed=0)


def test_run_suite_wrong_rank_fails_checks():
    doc = make_twist(2).to_document()
    doc["rank_alexander"] = 5
    reports = run_suite(parse_link(doc), "3d", samples=3, seed=0)
    assert any(not r.passed for r in reports)


def _torres_reports(link, point):
    """The Torres record of run_suite, rebuilt from :func:`predict_torres`."""
    pred = predict_torres(link, point)
    inputs = {"omega_rest": TorusPoint(point or ()).angle_text(),
              "sigma_pred": pred.sigma, "eta_pred": pred.eta}
    if pred.midpoint == "skipped":
        return [VerificationReport("torres/midpoint", inputs, None, None, "==", True,
                                   ["midpoint check not applicable here"])]
    return [VerificationReport("torres/midpoint", inputs, pred.midpoint_value,
                               pred.sigma_rest, "==", pred.midpoint == "pass", pred.notes)]


def _reference_suite_all(link, samples, seed):
    """run_suite(link, "all") rebuilt from the public one-point checkers."""
    rnd = random.Random(seed)
    points = [random_rational_point(rnd, max(link.mu - 1, 0)) for _ in range(samples)]
    reports = []
    if link.mu >= 2:
        for check in (verify_3d, verify_4d):
            for point in points:
                reports += check(link, point)
    one_colored = link if link.mu == 1 else link.underlying_oriented
    if one_colored is None:
        reports.append(VerificationReport("lt/skipped", {}, None, None, "==", True,
                                          ["no 1-colored data available"]))
    else:
        reports += verify_lt(one_colored)
    reports += verify_corner_limits(link)
    for point in points if link.mu >= 2 else [None]:
        reports += _torres_reports(link, point)
    if link.underlying_oriented is None:
        reports.append(VerificationReport("multi-lt/skipped", {}, None, None, "==",
                                          True, ["no underlying_oriented data"]))
    else:
        for point in points:
            reports += verify_multi_lt(link, point[0] if point.mu else Fraction(1, 2))
    return [r.to_json_dict() for r in reports]


@pytest.mark.parametrize("link", [make_torus(3), make_torus(-2), make_twist(2),
                                  make_twist(-2), make_twist(0), make_unlink(3),
                                  make_torus(3).underlying_oriented],
                         ids=["torus3", "torus-2", "twist2", "twist-2", "twist0",
                              "unlink3", "torus3-oriented"])
def test_run_suite_all_matches_per_checker_loop(link):
    for seed in (0, 5):
        suite = [r.to_json_dict() for r in run_suite(link, "all", samples=6, seed=seed)]
        assert suite == _reference_suite_all(link, 6, seed)


def test_run_suite_shares_one_plan_per_point(monkeypatch):
    rest_calls, corner_calls, batch_calls, slopes, walls, scans = [], [], [], [], [], []
    rest_limit_counts = verify.rest_limit_counts
    corner_limit_counts = verify.corner_limit_counts
    batch = verify.signature_nullity_batch
    slope = verify.slope
    wall_indicator = verify.wall_indicator
    linking_vector = ColoredLink.linking_vector

    def counted_rest(link, rows, *args):
        rest_calls.append((id(link), [tuple(row) for row in rows]))
        return rest_limit_counts(link, rows, *args)

    def counted_corners(link, *args):
        corner_calls.append(id(link))
        return corner_limit_counts(link, *args)

    def counted_batch(link, omegas, *args):
        batch_calls.append((id(link), [tuple(row) for row in omegas]))
        return batch(link, omegas, *args)

    def counted_slope(nabla_link, nabla_rest, point, *args):
        slopes.append(point)
        return slope(nabla_link, nabla_rest, point, *args)

    def counted_wall(ell, point):
        walls.append(point)
        return wall_indicator(ell, point)

    def counted_scan(link):
        scans.append(id(link))
        return linking_vector(link)

    monkeypatch.setattr(verify, "rest_limit_counts", counted_rest)
    monkeypatch.setattr(verify, "corner_limit_counts", counted_corners)
    monkeypatch.setattr(verify, "signature_nullity_batch", counted_batch)
    monkeypatch.setattr(verify, "slope", counted_slope)
    monkeypatch.setattr(verify, "wall_indicator", counted_wall)
    monkeypatch.setattr(ColoredLink, "linking_vector", counted_scan)
    seed = 3
    for link in (make_torus(3), make_twist(2), make_twist(0), make_unlink(3)):
        sub = link.rest_sublink()
        for samples in (1, 8, 18):
            rnd = random.Random(seed)
            points = [random_rational_point(rnd, link.mu - 1) for _ in range(samples)]
            assert len(set(points)) == samples
            del rest_calls[:], corner_calls[:], batch_calls[:], slopes[:], walls[:], scans[:]
            assert_all_pass(run_suite(link, "all", samples=samples, seed=seed))
            # the 3d bound and the genericity share one wall read per point,
            # and all checks share at most one linking-vector scan
            assert walls == points
            assert len(scans) <= 1
            # both sides at every rest point in one stacked call, all corners
            # in one more; the link's own forms are evaluated only on the
            # diagonal of the multi-lt identity
            assert [rows for i, rows in rest_calls if i == id(link)] == \
                [[p.omega() for p in points]]
            assert corner_calls.count(id(link)) == 1
            assert all(len(set(row)) == 1 for i, rows in batch_calls if i == id(link)
                       for row in rows)
            # the sublink inertia of every point, once, in one stacked call
            assert [rows for i, rows in batch_calls if i == id(sub)] == \
                [[p.omega() for p in points]]
            # the 4d bound and the Torres prediction share one slope per point
            split = not any(link.linking_vector())
            assert sorted(p.angles for p in slopes) == \
                (sorted(p.angles for p in points) if split else [])


def _first_color_of_two_components():
    """A link whose first color has two components, with no sublink data."""
    link = _two_component_first_color((1, 1))
    return ColoredLink(link.mu, link.components_per_color, link.linking,
                       link.to_document()["seifert"])


@pytest.mark.parametrize("make_link, suite, expected", [
    (_first_color_of_two_components, "3d", {}),
    (_first_color_of_two_components, "4d", {}),
    # the first knot splits off, so there is no midpoint check to read limits
    (lambda: make_twist(2), "torres", {"signature_nullity_batch": 1, "slope": 5}),
    (lambda: make_torus(3), "corners", {"corner_limit_counts": 1})],
    ids=["3d-skipped", "4d-skipped", "torres-twist2", "corners-torus3"])
def test_each_suite_computes_only_what_it_reads(make_link, suite, expected, monkeypatch):
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("rest_limit_counts", "corner_limit_counts", "signature_nullity_batch",
                 "slope"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    assert_all_pass(run_suite(make_link(), suite, samples=5, seed=1))
    assert collections.Counter(calls) == expected


def _random_seifert(rnd, mu, n):
    mats = {}
    for eps in sign_vectors(mu):
        if eps[0] > 0:
            mat = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            mats[sign_key(eps)] = mat
            mats[sign_key(tuple(-e for e in eps))] = [list(r) for r in zip(*mat)]
    return mats


def _random_three_colors(seed, n=3):
    """A random mu = 3 system whose first color links the rest, with a
    random 2-colored sublink; the checks need no Conway data on it."""
    rnd = random.Random(seed)
    linking = {("1.1", "2.1"): rnd.choice((-2, -1, 1, 2)),
               ("1.1", "3.1"): rnd.randint(-2, 2), ("2.1", "3.1"): rnd.randint(-2, 2)}
    sub = ColoredLink(2, [1, 1], {("1.1", "2.1"): linking[("2.1", "3.1")]},
                      _random_seifert(rnd, 2, n - 1))
    return ColoredLink(3, [1, 1, 1], linking, _random_seifert(rnd, 3, n),
                       sublinks={"2,3": sub})


def _keeping(fn, results):
    """``fn``, appending what each call returns to ``results``."""
    def kept(*args):
        results.append(fn(*args))
        return results[-1]
    return kept


@pytest.mark.parametrize("link", [make_torus(3), make_twist(2), make_twist(-1),
                                  make_twist(0), make_unlink(3)],
                         ids=["torus3", "twist2", "twist-1", "twist0", "unlink3"])
def test_run_suite_differentiates_the_conway_function_once(link, monkeypatch):
    calls = []
    derivative = RationalFunction.derivative

    def counted(self, var):
        calls.append(var)
        return derivative(self, var)

    reference = _reference_suite_all(link, 10, 4)
    monkeypatch.setattr(RationalFunction, "derivative", counted)
    assert [r.to_json_dict() for r in run_suite(link, "all", 10, 4)] == reference
    # only the slope of a split first knot differentiates
    assert calls == ([] if any(link.linking_vector()) else [0])


@pytest.mark.parametrize("link", [make_torus(3), make_torus(-4), make_twist(2),
                                  make_twist(-1), make_unlink(3),
                                  _random_three_colors(5)],
                         ids=["torus3", "torus-4", "twist2", "twist-1", "unlink3",
                              "random3"])
def test_batched_limits_match_per_point_loop(link, monkeypatch):
    groups, corners = [], []
    monkeypatch.setattr(verify, "_Rests", _keeping(verify._Rests, groups))
    monkeypatch.setattr(verify, "corner_limit_counts",
                        _keeping(verify.corner_limit_counts, corners))
    samples, seed = 7, 2
    reports = [r.to_json_dict() for r in run_suite(link, "all", samples, seed)]
    rnd = random.Random(seed)
    (rests,) = [rests for rests in groups if rests.link is link]  # not lt's one-colored link
    assert rests.points == [random_rational_point(rnd, link.mu - 1) for _ in range(samples)]
    for point, limits, sub_inertia in zip(rests.points, rests.limits, rests.sub_inertia):
        for side, value in zip(("plus", "minus"), limits):
            assert directional_limit(link, point, side) == LimitResult(side, value, limits[2])
        assert sub_inertia == signature_nullity(link.rest_sublink(), point)
    # every corner the sampler reads cleanly agrees with the descent
    (counts,) = corners
    for signs, limit in zip(sign_vectors(link.mu), counts.tolist()):
        assert sampled_limit(link, signs) in (None, tuple(limit))
    # blocks of three forms split every stacked call into single points and
    # single corners; the report must not move
    monkeypatch.setattr(links, "_STACK_BYTES", 3 * 16 * link.seifert.shape[1] ** 2)
    assert [r.to_json_dict() for r in run_suite(link, "all", samples, seed)] == reports


def test_corner_limits_with_a_fourth_order_eigenvalue():
    # along each corner path one eigenvalue of H vanishes like delta^4 while
    # ||H|| ~ delta^2: a cut at 1e-9 ||H|| reads it as zero from delta ~ 2e-5
    # on, which covers the last offsets of a sampled limit
    mats = {"++": [[2, 0, 2], [2, 1, 2], [-1, 0, -2]],
            "+-": [[0, 2, -1], [0, 2, 2], [2, -2, -1]],
            "-+": [[0, 0, 2], [2, 2, -2], [-1, 2, -1]],
            "--": [[2, 2, -1], [0, 1, 0], [2, 2, -2]]}
    link = ColoredLink(2, [1, 1], {}, mats)
    counts = links.corner_limit_counts(link).tolist()
    expected = {"++": -1, "+-": 1, "-+": 1, "--": -1}
    assert {sign_key(signs): value for signs, (value, _) in zip(sign_vectors(2), counts)} \
        == expected
    assert all(eta == 0 for _, eta in counts)
    for signs in sign_vectors(2):
        for form in forms(link, path_rows(signs, (), [1e-3, 1e-2])):
            eigs = np.linalg.eigvalsh(form)
            assert np.min(np.abs(eigs)) > 1e-6 * np.max(np.abs(eigs))
            assert np.sum(eigs > 0) - np.sum(eigs < 0) == expected[sign_key(signs)]


@pytest.mark.parametrize("samples", [0, -1])
def test_run_suite_rejects_non_positive_samples(samples):
    with pytest.raises(DomainError, match="samples"):
        run_suite(make_torus(3), "all", samples=samples)


def test_run_suite_refuses_samples_beyond_the_bound_before_drawing_any(monkeypatch):
    def drawn(*args):
        raise AssertionError("a point was drawn")
    monkeypatch.setattr(verify, "random_rational_point", drawn)
    with pytest.raises(DomainError, match="samples must be in 1..65536, got 1000000000"):
        run_suite(make_torus(3), "all", samples=10 ** 9)


@pytest.mark.parametrize("suite", ["corners", "lt"])
def test_suites_that_read_no_point_draw_none(monkeypatch, suite):
    want = run_suite(make_torus(3), suite, samples=1)
    def drawn(*args):
        raise AssertionError("a point was drawn")
    monkeypatch.setattr(verify, "random_rational_point", drawn)
    got = run_suite(make_torus(3), suite, samples=65536)
    assert got and [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


# -- the report writer against json.dump -----------------------------------------

def _json_dump_text(reports):
    return json.dumps([rep.to_json_dict() for rep in reports], indent=2, sort_keys=True) + "\n"


def _every_report(link, samples, seed):
    """The reports of every suite the link has data for, and of the 3d, 4d
    and Torres checks at a decimal rest point."""
    reports = []
    for suite in SUITES:
        try:
            reports += run_suite(link, suite, samples, seed)
        except SigtorusError:  # a suite asked for explicitly lacks its data
            pass
    if link.mu >= 2:
        for check in (verify_3d, verify_4d, _torres_reports):
            try:
                reports += check(link, [0.3] * (link.mu - 1))
            except SigtorusError:
                pass
    return reports


def _without_data(link):
    """``link`` with no sublink or underlying_oriented data."""
    return ColoredLink(link.mu, link.components_per_color, link.linking,
                       link.to_document()["seifert"], link.conway, link.rank_alexander)


def test_report_text_is_json_dump_on_builtins():
    links_ = ([make_torus(ell) for ell in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)]
              + [make_twist(k) for k in range(-2, 4)]
              + [make_unlink(mu) for mu in (2, 3, 4)]
              + [make_torus(3).underlying_oriented, _without_data(make_torus(3)),
                 _without_data(make_unlink(3))])
    seen = set()
    for link in links_:
        reports = _every_report(link, 5, 3)
        assert report_text(reports) == _json_dump_text(reports)
        for rep in reports:
            seen.add(("fraction-lhs", type(rep.lhs) is Fraction))
            seen.add(("slope-input", "slope" in rep.inputs))
            seen.add(("decimal", rep.inputs.get("omega_rest") == "3/10"))
            seen.add(("empty-inputs", not rep.inputs))
            seen.add(("empty-notes", not rep.notes))
    # every case the writer formats differently from a one-line value came up
    assert {(case, True) for case, _ in seen} <= seen
    assert report_text([]) == _json_dump_text([]) == "[]\n"


def _random_link(seed, mu, n):
    """A random mu-colored system with a random (mu - 1)-colored sublink."""
    rnd = random.Random(seed)
    ids = ["%d.1" % color for color in range(1, mu + 1)]
    linking = {pair: rnd.randint(-2, 2) for pair in itertools.combinations(ids, 2)}
    sub_linking = {("%d.1" % (int(a[0]) - 1), "%d.1" % (int(b[0]) - 1)): value
                   for (a, b), value in linking.items() if a != "1.1"}
    sub = ColoredLink(mu - 1, [1] * (mu - 1), sub_linking, _random_seifert(rnd, mu - 1, n - 1))
    rest_key = ",".join(str(color) for color in range(2, mu + 1))
    return ColoredLink(mu, [1] * mu, linking, _random_seifert(rnd, mu, n),
                       sublinks={rest_key: sub})


@settings(max_examples=25, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), mu=hst.integers(2, 3), n=hst.integers(1, 3),
       samples=hst.integers(1, 6), suite_seed=hst.integers(0, 63))
def test_report_text_is_json_dump_on_random_systems(seed, mu, n, samples, suite_seed):
    reports = _every_report(_random_link(seed, mu, n), samples, suite_seed)
    assert report_text(reports) == _json_dump_text(reports)


def test_report_text_raises_on_a_float_lhs():
    reports = run_suite(make_twist(2), "all", 2, 0)
    reports.insert(1, VerificationReport("hand/built", {}, 0.25, 0, "<=", False))
    with pytest.raises(KeyError):
        report_text(reports)
