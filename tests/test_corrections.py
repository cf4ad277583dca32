import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from oracles import (ClaspSequence, ZeroLinking, chain_matrix, chain_sign_by_pairs,
                     clasp_matrix, signature_jump_by_walls)

from sigtorus.angles import TorusPoint, normalize_angle
from sigtorus.corrections import signature_jump, torus_signature_profile, wall_indicator
from sigtorus.errors import BoundaryPoint, DomainError
from sigtorus.families import make_torus, oracle_torus
from sigtorus.hermitian import inertia
from sigtorus.links import signature_nullity


def rational_angle(rnd, max_den=48):
    q = rnd.randint(2, max_den)
    return Fraction(rnd.randint(1, q - 1), q)


def test_pair_sign_zero_cases_exact():
    assert signature_jump((1, 1), (Fraction(1, 3), Fraction(2, 3))) == 0  # product is 1
    assert signature_jump((1, 1), (Fraction(0), Fraction(1, 5))) == 0
    assert signature_jump((1, 1), (Fraction(1, 5), Fraction(0))) == 0


def test_pair_sign_values():
    assert signature_jump((1, 1), (Fraction(1, 4), Fraction(1, 4))) == 1
    assert signature_jump((1, 1), (Fraction(2, 5), Fraction(7, 10))) == -1
    # a + b within 1e-17 of 1: the sign is exact, not read off a float residue
    tiny = Fraction(1, 10 ** 17)
    assert signature_jump((1, 1), (Fraction(1, 3), Fraction(2, 3) + tiny)) == -1
    assert signature_jump((1, 1), (Fraction(1, 3), Fraction(2, 3) - tiny)) == 1


def test_pair_sign_antisymmetric_under_conjugation():
    rnd = random.Random(0)
    for _ in range(300):
        a, b = rational_angle(rnd), rational_angle(rnd)
        assert signature_jump((1, 1), (-a, -b)) == -signature_jump((1, 1), (a, b))


def test_chain_sign_degenerate_lengths():
    assert signature_jump((), []) == 0
    assert signature_jump((1,), [Fraction(1, 3)]) == 0


def test_chain_sign_small_cases():
    assert signature_jump((1, 1), [Fraction(1, 4)] * 2) == 1
    # five copies of a point just above 1 telescope to the maximum value
    tiny = Fraction(1, 1000)
    assert signature_jump((1,) * 5, [tiny] * 5) == 4


def test_jump_closed_form_two_colors():
    # bands carry |l| - 2k - 1, nodes |l| - 2k, all times the sign of l
    for ell in (5, -5):
        s = 1 if ell > 0 else -1
        for k in range(5):
            theta = Fraction(2 * k + 1, 10)
            assert signature_jump((ell,), [theta]) == s * (5 - 2 * k - 1)
        for k in range(1, 5):
            theta = Fraction(k, 5)
            assert signature_jump((ell,), [theta]) == s * (5 - 2 * k)


def test_jump_zero_linking():
    assert signature_jump((0,), [Fraction(1, 3)]) == 0
    assert signature_jump((0, 0), [Fraction(1, 3), Fraction(1, 7)]) == 0


def test_walls_oracle_values():
    assert signature_jump_by_walls((2, 3), [Fraction(1, 1000), Fraction(1, 1000)]) == 4
    assert signature_jump_by_walls((2, 2), [Fraction(1, 4), Fraction(1, 4)]) == 2
    assert signature_jump_by_walls((5,), [Fraction(1, 2)]) == 0


def test_walls_oracle_errors():
    with pytest.raises(ZeroLinking):
        signature_jump_by_walls((0,), [Fraction(1, 3)])
    with pytest.raises(ValueError, match="different lengths"):
        signature_jump_by_walls((2, 3), [Fraction(1, 3)])


def test_jump_equals_walls_oracle():
    rnd = random.Random(1)
    for ell in ((5,), (-5,), (2, 2), (2, 3), (-2, 3)):
        for _ in range(400):
            pt = TorusPoint([rational_angle(rnd) for _ in ell])
            assert signature_jump(ell, pt) == signature_jump_by_walls(ell, pt)
    # points within 1e-17 of a wall, on either side
    tiny = Fraction(1, 10 ** 17)
    for ell, pt in (((2,), [Fraction(1, 2) + tiny]), ((2,), [Fraction(1, 2) - tiny]),
                    ((1, 1), [Fraction(1, 3), Fraction(2, 3) + tiny]),
                    ((1, 1), [Fraction(1, 3), Fraction(2, 3) - tiny])):
        assert signature_jump(ell, pt) == signature_jump_by_walls(ell, pt)
    # linking beyond an index: the jump is a wall count, with no block vector
    big = ((10 ** 30,), [Fraction(2, 7)])
    assert signature_jump(*big) == signature_jump_by_walls(*big) == 428571428571428571428571428571


def test_jump_reads_float_angles_as_the_fractions_they_print_as():
    # 0.3 is 3/10, so the block sum T keeps its integer part at any linking
    for ell in ((10 ** 30,), (10 ** 400,), (2 ** 52, -(2 ** 52))):
        exact = [Fraction(3, 10)] * len(ell)
        assert signature_jump(ell, [0.3] * len(ell)) == signature_jump(ell, exact) \
            == signature_jump_by_walls(ell, exact)
    below = (2 ** 53 - 1,)
    assert signature_jump(below, [0.5]) == signature_jump_by_walls(below, [Fraction(1, 2)])
    assert signature_jump((3,), [0.3]) == signature_jump((3,), [Fraction(3, 10)]) == 2
    assert signature_jump((10 ** 30, 0), [Fraction(3, 10), 0.3]) == 4 * 10 ** 29


@hst.composite
def _jump_cases(draw):
    """Linking numbers |l_j| <= 200 and rational angles with denominators
    <= 64, zeros included; half the time the last angle is moved onto a
    wall (sum l_j theta_j an integer) when its linking number is nonzero.
    Also a profile argument theta in (0, 2)."""
    mu = draw(hst.integers(1, 4))
    bound = draw(hst.sampled_from((20, 200)))
    ell = draw(hst.lists(hst.integers(-bound, bound), min_size=mu, max_size=mu))
    angles = []
    for _ in range(mu):
        q = draw(hst.integers(1, 64))
        angles.append(Fraction(draw(hst.integers(0, q - 1)), q))
    if draw(hst.booleans()) and ell[-1]:
        rest = sum(lj * a for lj, a in zip(ell[:-1], angles[:-1]))
        angles[-1] = (Fraction(draw(hst.integers(0, abs(ell[-1]) - 1))) - rest) / ell[-1] % 1
    q = draw(hst.integers(1, 64))
    return tuple(ell), angles, Fraction(draw(hst.integers(1, 2 * q - 1)), q)


@settings(max_examples=300, deadline=None)
@given(_jump_cases())
def test_wall_counts_equal_the_telescoped_definition(case):
    ell, angles, theta = case
    blocks = [normalize_angle(a * (1 if lj > 0 else -1))
              for lj, a in zip(ell, angles) for _ in range(abs(lj))]
    want = chain_sign_by_pairs(blocks)
    assert signature_jump(ell, angles) == want
    assert signature_jump((1,) * len(blocks), blocks) == want
    assert signature_jump((1,) * len(angles), angles) == chain_sign_by_pairs(angles)
    # the profile is the chain sign of n copies of t = min(theta, 2 - theta)
    n = max(1, abs(ell[0]))
    t = min(theta, 2 - theta)
    want = 1 - n if t == 1 else chain_sign_by_pairs([t] * n)
    assert torus_signature_profile(n, theta) == want
    if max(map(abs, ell)) <= 20 and blocks and 0 not in blocks:
        assert inertia(chain_matrix(blocks)).signature == signature_jump(ell, angles)
    # the wall indicator is [sum l_j theta_j is an integer]
    wall = int(sum(lj * a for lj, a in zip(ell, angles)).denominator == 1)
    assert wall_indicator(ell, angles) == wall
    # a float angle counts as the fraction it prints as (1/3 as 0.3333333333333333)
    for j in range(len(angles)):
        floats = angles[:j] + [float(angles[j])] + angles[j + 1:]
        printed = angles[:j] + [Fraction(repr(float(angles[j])))] + angles[j + 1:]
        assert wall_indicator(ell, floats) == wall_indicator(ell, printed)
        assert signature_jump(ell, floats) == signature_jump(ell, printed)


def test_jump_antisymmetric_under_conjugation():
    rnd = random.Random(2)
    for ell in ((5,), (2, 3)):
        for _ in range(100):
            pt = TorusPoint([rational_angle(rnd) for _ in ell])
            assert signature_jump(ell, pt.conjugate()) == -signature_jump(ell, pt)


def test_wall_indicator_examples():
    assert wall_indicator((2, 3), [Fraction(1, 2), Fraction(1, 3)]) == 1
    assert wall_indicator((0,), [Fraction(1, 7)]) == 1
    assert wall_indicator((5,), [Fraction(1, 2)]) == 0
    # float angles are the fractions they print as: 10 * 0.1 is 1, 3 * 0.1 is not
    assert wall_indicator((10,), [0.1]) == 1
    assert wall_indicator((3, 7), [0.1, 0.1]) == 1
    assert wall_indicator((2,), [0.25]) == 0


def test_jump_drops_by_two_across_walls():
    # along the diagonal path, walls sit exactly at integer values of 5*t
    ell = (2, 3)
    for k in range(1, 5):
        before = TorusPoint([Fraction(k, 5) - Fraction(1, 100)] * 2)
        on = TorusPoint([Fraction(k, 5)] * 2)
        after = TorusPoint([Fraction(k, 5) + Fraction(1, 100)] * 2)
        v_before = signature_jump(ell, before)
        v_on = signature_jump(ell, on)
        v_after = signature_jump(ell, after)
        assert v_before - v_after == 2
        assert 2 * v_on == v_before + v_after
        assert wall_indicator(ell, on) == 1
        assert wall_indicator(ell, before) == 0


def test_profile_values_and_symmetry():
    assert torus_signature_profile(3, Fraction(1, 5)) == 2
    assert torus_signature_profile(3, Fraction(1, 3)) == 1
    assert torus_signature_profile(3, 1) == -2
    rnd = random.Random(3)
    for _ in range(100):
        n = rnd.randint(1, 6)
        theta = Fraction(rnd.randint(1, 99), 100)
        assert torus_signature_profile(n, 2 - theta) == torus_signature_profile(n, theta)
    with pytest.raises(DomainError):
        torus_signature_profile(3, Fraction(5, 2))


def test_float_oracles_read_the_fractions_they_print_as():
    # 0.1 and 0.2 as binary floats lie just above 1/10 and 1/5, off the node
    assert oracle_torus(5, 0.1, 0.1) == oracle_torus(5, Fraction(1, 10), Fraction(1, 10)) \
        == signature_nullity(make_torus(5), (0.1, 0.1)) == (3, 1)
    assert torus_signature_profile(5, 0.2) == torus_signature_profile(5, Fraction(1, 5)) == 3


# A float p/q lies near a node of the profile, where the float's binary
# value and the fraction it prints as can fall on different sides.
_FLOAT_ANGLES = hst.one_of(
    hst.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    hst.builds(lambda q, p: (p % (q - 1) + 1) / q, hst.integers(2, 60), hst.integers(0, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(hst.integers(-12, 12).filter(bool), _FLOAT_ANGLES, _FLOAT_ANGLES)
@example(5, 0.1, 0.1)
def test_float_oracles_equal_their_values_at_printed_fractions(ell, theta1, theta2):
    exact1, exact2 = Fraction(repr(theta1)), Fraction(repr(theta2))
    assert oracle_torus(ell, theta1, theta2) == oracle_torus(ell, exact1, exact2)
    total = theta1 + theta2  # a float in (0, 2), since both lie in (0, 1)
    assert torus_signature_profile(abs(ell), total) \
        == torus_signature_profile(abs(ell), Fraction(repr(total)))


def test_chain_matrix_small_cases():
    assert chain_matrix([Fraction(1, 3)]).n == 0
    got = chain_matrix([Fraction(1, 4)] * 2).entries
    assert np.allclose(got, [[1.0]])
    conj_pair = chain_matrix([Fraction(1, 5), Fraction(4, 5)])
    assert inertia(conj_pair).nullity == 1
    with pytest.raises(BoundaryPoint):
        chain_matrix([Fraction(1, 3), Fraction(0)])


def test_chain_matrix_realizes_sign_and_product_rule():
    rnd = random.Random(4)
    for _ in range(250):
        n = rnd.randint(1, 4)
        angles = [rational_angle(rnd, 24) for _ in range(n)]
        ine = inertia(chain_matrix(angles))
        assert ine.signature == signature_jump((1,) * n, angles)
        product_integral = (sum(angles) % 1) == 0
        assert ine.nullity == (1 if product_integral else 0)


def test_clasp_sequence_validation():
    with pytest.raises(ValueError):
        ClaspSequence([])
    with pytest.raises(ValueError):
        ClaspSequence([(1, 1)])
    with pytest.raises(ValueError):
        ClaspSequence([(2, 2)])


def test_clasp_matrix_cases():
    cancelling = clasp_matrix([(2, 1), (2, -1)], TorusPoint([Fraction(1, 5)]))
    assert np.allclose(cancelling.entries, [[0.0]])
    assert clasp_matrix([(2, 1)], TorusPoint([Fraction(1, 5)])).n == 0
    pt = TorusPoint([Fraction(2, 7)])
    torus_like = clasp_matrix([(2, 1)] * 3, pt)
    direct = chain_matrix([Fraction(2, 7)] * 3)
    assert np.allclose(torus_like.entries, direct.entries)


def _random_clasps(rnd, n):
    return [(rnd.randint(2, 4), rnd.choice((1, -1))) for _ in range(n)]


def _clasp_inertia(clasps, pt):
    ine = inertia(clasp_matrix(clasps, pt))
    return ine.signature, ine.nullity


def test_clasp_moves_preserve_inertia_sample():
    rnd = random.Random(5)
    done = 0
    while done < 120:
        clasps = _random_clasps(rnd, rnd.randint(2, 8))
        pt = TorusPoint([rational_angle(rnd, 24) for _ in range(3)])
        base = _clasp_inertia(clasps, pt)
        # removal of an adjacent same-color, opposite-sign pair
        for i in range(len(clasps) - 1):
            if clasps[i][0] == clasps[i + 1][0] and clasps[i][1] == -clasps[i + 1][1]:
                shorter = clasps[:i] + clasps[i + 2:]
                if shorter:
                    assert _clasp_inertia(shorter, pt) == base
                break
        # swap of adjacent clasps of different colors
        for i in range(len(clasps) - 1):
            if clasps[i][0] != clasps[i + 1][0]:
                swapped = list(clasps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert _clasp_inertia(swapped, pt) == base
                break
        done += 1
