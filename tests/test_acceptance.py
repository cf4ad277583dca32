"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole module is budgeted to finish in under a minute.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from oracles import (chain_matrix, clasp_matrix, conjugate_inertia_check,
                     signature_jump_by_walls)

from sigtorus.angles import TorusPoint
from sigtorus.corrections import signature_jump
from sigtorus.families import (make_torus, make_twist, make_unlink,
                               oracle_torus, oracle_twist, unknot)
from sigtorus.hermitian import HermitianMatrix, inertia
from sigtorus.links import (ColoredLink, corner_limit_counts,
                            sign_vectors, signature_nullity)
from sigtorus.slope import slope
from sigtorus.verify import (directional_limit, predict_lt_limit_2comp,
                             predict_torres, verify_lt, verify_multi_lt)

_MODULE_START = time.monotonic()


def _verdict(number, description, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, description))
    assert ok, "criterion %d failed: %s" % (number, description)


def _rational(rnd, max_den=64, avoid=None):
    while True:
        q = rnd.randint(2, max_den)
        theta = Fraction(rnd.randint(1, q - 1), q)
        if avoid is None or not avoid(theta):
            return theta


def test_criterion_1_torus_golden_grid():
    start = time.monotonic()
    mismatches = 0
    for ell in (1, 2, 3, -3):
        link = make_torus(ell)
        for i in range(1, 60):
            for j in range(1, 60):
                t1, t2 = Fraction(i, 60), Fraction(j, 60)
                got = signature_nullity(link, TorusPoint([t1, t2]))
                if got != oracle_torus(ell, t1, t2):
                    mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(1, "torus 60x60 grids match the closed-form oracle exactly "
                "(%d mismatches, %.1fs)" % (mismatches, elapsed),
             mismatches == 0 and elapsed < 10.0)


def test_criterion_2_twist_constants():
    bad = 0
    for k in (-2, -1, 0, 1, 2):
        link = make_twist(k)
        expected = oracle_twist(k)
        for i in range(1, 20):
            for j in range(1, 20):
                pt = TorusPoint([Fraction(i, 20), Fraction(j, 20)])
                if signature_nullity(link, pt) != expected:
                    bad += 1
    _verdict(2, "twist 20x20 grids are constant (sgn k, [k=0])", bad == 0)


def test_criterion_3_chain_matrix_brute_force():
    rnd = random.Random(33)
    bad = 0
    for n in range(1, 7):
        for _ in range(1000):
            angles = [_rational(rnd, 48) for _ in range(n)]
            ine = inertia(chain_matrix(angles))
            want_nullity = 1 if (sum(angles) % 1) == 0 else 0
            if ine.signature != signature_jump((1,) * n, angles) or ine.nullity != want_nullity:
                bad += 1
    _verdict(3, "chain matrices realize the chain sign and product rule "
                "for n <= 6 on 1000 random tuples each", bad == 0)


def test_criterion_4_jump_dual_oracle():
    bad = 0
    for ell in ((5,), (-5,)):
        for i in range(1, 10001):
            pt = TorusPoint([Fraction(i, 10001)])
            if signature_jump(ell, pt) != signature_jump_by_walls(ell, pt):
                bad += 1
    for ell in ((2, 2), (2, 3)):
        for i in range(1, 101):
            for j in range(1, 101):
                pt = TorusPoint([Fraction(i, 101), Fraction(j, 101)])
                if signature_jump(ell, pt) != signature_jump_by_walls(ell, pt):
                    bad += 1

    # band and node values for a single linking number of 5
    for k in range(5):
        if signature_jump((5,), [Fraction(2 * k + 1, 10)]) != 4 - 2 * k:
            bad += 1
    for k in range(1, 5):
        if signature_jump((5,), [Fraction(k, 5)]) != 5 - 2 * k:
            bad += 1
    # corner values +/- (|l| - 1)
    eps = Fraction(1, 997)
    for ell in ((2, 2), (2, 3)):
        top = sum(abs(v) for v in ell) - 1
        if signature_jump(ell, [eps, eps]) != top:
            bad += 1
        if signature_jump(ell, [1 - eps, 1 - eps]) != -top:
            bad += 1
    _verdict(4, "jump function agrees with the wall-crossing oracle on 4x10^4 "
                "points and takes the tabulated band/node/corner values", bad == 0)


def test_criterion_5_limits_match_jump():
    rnd = random.Random(55)
    bad = 0
    for ell in (1, 2, 3):
        link = make_torus(ell)
        for _ in range(50):
            theta = _rational(rnd, avoid=lambda t: (ell * t).denominator == 1)
            pt = TorusPoint([theta])
            jump = signature_jump((ell,), pt)
            plus = directional_limit(link, pt, "plus")
            minus = directional_limit(link, pt, "minus")
            if plus.value != jump:
                bad += 1
            if minus.value != -jump:
                bad += 1
        # on the walls theta' = k/l the limits are the closed-form profile's
        # values next to the boundary, within one unit of +/- jump
        tiny = Fraction(1, 2 ** 40)
        for k in range(1, ell):
            pt = TorusPoint([Fraction(k, ell)])
            jump = signature_jump((ell,), pt)
            for side, orient, first in (("plus", 1, tiny), ("minus", -1, 1 - tiny)):
                res = directional_limit(link, pt, side)
                if res.value != oracle_torus(ell, first, pt[0])[0]:
                    bad += 1
                if abs(res.value - orient * jump) > 1:
                    bad += 1
    _verdict(5, "directional limits equal sigma(rest) +/- jump at 50 generic "
                "points per torus link and the closed form on walls, within "
                "the unit bound", bad == 0)


def test_criterion_6_corner_limits():
    bad = 0
    for ell in (1, 2, 3):
        limits = dict(zip(sign_vectors(2), corner_limit_counts(make_torus(ell)).tolist()))
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            value, _ = limits[signs]
            expected = signs[0] * signs[1] * (ell - 1)
            if value != expected:
                bad += 1
    _verdict(6, "corner limits equal sign * (l - sgn l) for all four sign pairs",
             bad == 0)


def test_criterion_7_split_equality_and_slope():
    rnd = random.Random(77)
    bad = 0
    for k in (-2, -1, 1, 2):
        link = make_twist(k)
        sub = link.rest_sublink()
        sign = (k > 0) - (k < 0)
        for _ in range(50):
            theta = _rational(rnd)
            pt = TorusPoint([theta])
            for side in ("plus", "minus"):
                res = directional_limit(link, pt, side)
                if res.value != sign:
                    bad += 1
            value = slope(link.conway, sub.conway, pt)
            expected = 4 * k * math.sin(math.pi * float(theta)) ** 2
            if math.isinf(value) or abs(value - expected) > 1e-9:
                bad += 1
    _verdict(7, "twist limits equal sgn(k) on both sides and the slope matches "
                "4k sin^2(pi theta) within 1e-9", bad == 0)


def test_criterion_8_levine_tristram_suite():
    trefoil_a = [[-1, 1], [0, -1]]
    trefoil = ColoredLink(mu=1, components_per_color=[1], linking={},
                          seifert={"-": trefoil_a, "+": np.array(trefoil_a).T})
    ok = True
    for link in (unknot(), trefoil, make_torus(3).underlying_oriented,
                 make_torus(1).underlying_oriented,
                 make_unlink(3).underlying_oriented):
        ok = ok and all(r.passed for r in verify_lt(link))

    hopf = make_torus(1)
    for k in range(1, 51):
        ok = ok and all(r.passed for r in verify_multi_lt(hopf, Fraction(k, 51)))

    for ell in (-3, -1, 1, 2, 4):
        ok = ok and predict_lt_limit_2comp(ell) == -((ell > 0) - (ell < 0))
    for k in (-2, -1, 1, 2):
        ok = ok and predict_lt_limit_2comp(0, make_twist(k).conway) == (k > 0) - (k < 0)
    _verdict(8, "one-variable checks pass, the diagonal identity holds at 50 "
                "angles, and the 2-component limit prediction is correct", ok)


def test_criterion_9_torres_predictions():
    rnd = random.Random(99)
    ok = True
    torus = make_torus(3)
    for _ in range(25):
        theta = _rational(rnd, avoid=lambda t: (3 * t).denominator == 1)
        pred = predict_torres(torus, TorusPoint([theta]))
        ok = ok and pred.eta == 2 and pred.midpoint == "pass" and pred.midpoint_value == 0
    for k in (-2, -1, 1, 2):
        pred = predict_torres(make_twist(k), TorusPoint([_rational(rnd)]))
        ok = ok and pred.sigma == ((k > 0) - (k < 0)) and pred.eta == 0
    _verdict(9, "boundary predictions give eta=2 and midpoint 0 on the torus "
                "link and (sgn k, 0) on twist links", ok)


def test_criterion_10_property_suites():
    ok = True

    # Sylvester conjugation invariance, 500 random cases
    rng = np.random.default_rng(123)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = HermitianMatrix((a + a.conj().T) / 2)
        p = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if abs(np.linalg.det(p)) <= 1e-9 or np.linalg.cond(p) >= 1e4:
            continue
        if conjugate_inertia_check(h, p) != inertia(h):
            ok = False

    # clasp-move invariance, 500 random sequences, both moves
    rnd = random.Random(321)
    for _ in range(500):
        clasps = [(rnd.randint(2, 4), rnd.choice((1, -1)))
                  for _ in range(rnd.randint(2, 8))]
        pt = TorusPoint([_rational(rnd, 24) for _ in range(3)])
        ine = inertia(clasp_matrix(clasps, pt))
        base = (ine.signature, ine.nullity)
        for i in range(len(clasps) - 1):
            if (clasps[i][0] == clasps[i + 1][0]
                    and clasps[i][1] == -clasps[i + 1][1]):
                shorter = clasps[:i] + clasps[i + 2:]
                if shorter:
                    got = inertia(clasp_matrix(shorter, pt))
                    ok = ok and (got.signature, got.nullity) == base
                break
        for i in range(len(clasps) - 1):
            if clasps[i][0] != clasps[i + 1][0]:
                swapped = list(clasps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                got = inertia(clasp_matrix(swapped, pt))
                ok = ok and (got.signature, got.nullity) == base
                break

    # antisymmetry of the pair sign under conjugation, 10^3 points
    for _ in range(1000):
        a, b = _rational(rnd), _rational(rnd)
        ok = ok and signature_jump((1, 1), (-a, -b)) == -signature_jump((1, 1), (a, b))

    # side symmetry of one-variable directional limits
    for link in (unknot(), make_torus(3).underlying_oriented,
                 make_unlink(2).underlying_oriented):
        plus = directional_limit(link, TorusPoint(()), "plus")
        minus = directional_limit(link, TorusPoint(()), "minus")
        ok = ok and plus.value == minus.value

    _verdict(10, "Sylvester invariance, clasp-move invariance, conjugation "
                 "antisymmetry, and side symmetry all hold", ok)


def test_total_runtime_budget():
    elapsed = time.monotonic() - _MODULE_START
    print("acceptance suite elapsed: %.1fs" % elapsed)
    assert elapsed < 60.0
