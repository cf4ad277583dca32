"""Properties of the exact one-sided limits on random valid Seifert systems.

Three oracles that share no code with the descent's stacking or its
coordinates: a unimodular change of the Seifert basis, the sampled limits
of ``sampler.py`` wherever they read cleanly, and single-point calls.  On
systems whose form vanishes on a whole circle the answer is known exactly.
The path families the limits descend on are checked against the forms
that ``sampler.py`` builds on their paths, and handles added by
``oracles.enlarge`` leave every value unchanged.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from oracles import congruent, enlarge
from sampler import forms, path_rows, sampled_limit

from sigtorus import links, verify
from sigtorus.angles import TorusPoint, angle_to_complex
from sigtorus.families import make_torus, make_unlink, oracle_torus
from sigtorus.links import (ColoredLink, SeifertSystem, corner_limit_counts,
                            rest_limit_counts, sign_key, sign_vectors, signature_nullity)
from sigtorus.verify import directional_limit


def _link(mu, n, halves, basis=None):
    """The link of the Seifert system with A^eps = halves[k] for the k-th eps
    with eps_1 = + (A^-eps its transpose), in the basis given by ``basis``."""
    mats = {}
    half = [eps for eps in sign_vectors(mu) if eps[0] > 0]
    for eps, mat in zip(half, halves):
        mat = np.array(mat, dtype=np.int64).reshape(n, n)
        if basis is not None:
            mat = basis.T @ mat @ basis
        mats[sign_key(eps)] = mat.tolist()
        mats[sign_key(tuple(-e for e in eps))] = mat.T.tolist()
    return ColoredLink(mu, [1] * mu, {}, SeifertSystem(mu, mats))


def _unimodular(n, moves):
    """An integer matrix of determinant +-1: row operations r_i += c r_j,
    then a sign on the first row."""
    basis = np.eye(n, dtype=np.int64)
    for i, j, c in moves:
        if i % n != j % n:
            basis[i % n] += c * basis[j % n]
    basis[0] *= -1 if len(moves) % 2 else 1
    return basis


_angle = hst.integers(2, 64).flatmap(
    lambda q: hst.integers(1, q - 1).map(lambda p: Fraction(p, q)))


@hst.composite
def _systems(draw):
    mu, n = draw(hst.integers(1, 3)), draw(hst.integers(1, 4))
    entries = hst.lists(hst.integers(-2, 2), min_size=n * n, max_size=n * n)
    halves = draw(hst.lists(entries, min_size=2 ** (mu - 1), max_size=2 ** (mu - 1)))
    points = draw(hst.lists(hst.lists(_angle, min_size=mu - 1, max_size=mu - 1)
                            .map(TorusPoint), min_size=1, max_size=4))
    moves = draw(hst.lists(hst.tuples(hst.integers(0, 3), hst.integers(0, 3),
                                      hst.sampled_from((-1, 1))), max_size=6))
    return mu, n, halves, points, moves


@hst.composite
def _systems_with_a_common_kernel(draw):
    """Systems A^eps = S^T (B^eps + 0) S with S unimodular and B^eps of size
    n - 1, so that every form H has a kernel vector in common."""
    mu, n = draw(hst.integers(1, 3)), draw(hst.integers(2, 4))
    entries = hst.lists(hst.integers(-2, 2), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2)
    blocks = draw(hst.lists(entries, min_size=2 ** (mu - 1), max_size=2 ** (mu - 1)))
    basis = _unimodular(n, draw(hst.lists(hst.tuples(
        hst.integers(0, 3), hst.integers(0, 3), hst.sampled_from((-1, 1))), max_size=6)))
    halves = []
    for block in blocks:
        padded = np.zeros((n, n), dtype=np.int64)
        padded[:-1, :-1] = np.reshape(block, (n - 1, n - 1))
        halves.append((basis.T @ padded @ basis).ravel().tolist())
    points = draw(hst.lists(hst.lists(_angle, min_size=mu - 1, max_size=mu - 1)
                            .map(TorusPoint), min_size=1, max_size=4))
    return mu, n, halves, points


@hst.composite
def _systems_vanishing_on_a_circle(draw):
    """Systems with A^eta = -A^eta' for eta' = eta with eta_j flipped, for one
    j >= 2, and a point omega_1 with rest point omega' at theta_j = 1/2.
    There both factors 1 - conj(omega_j)^(+-1) are 2, so the terms cancel
    and H is 0 on the whole circle omega_j = -1."""
    mu, n = draw(hst.integers(2, 4)), draw(hst.integers(1, 4))
    j = draw(hst.integers(2, mu))
    entries = hst.lists(hst.integers(-2, 2), min_size=n * n, max_size=n * n)
    drawn, halves = {}, []
    for eta in sign_vectors(mu)[:2 ** (mu - 1)]:  # the eta with eta_1 = +
        key = eta[:j - 1] + eta[j:]
        if key not in drawn:
            drawn[key] = draw(entries)
        halves.append(drawn[key] if eta[j - 1] > 0 else [-x for x in drawn[key]])
    angles = draw(hst.lists(_angle, min_size=mu, max_size=mu))
    angles[j - 1] = Fraction(1, 2)
    return mu, n, halves, angles[0], TorusPoint(angles[1:])


@hst.composite
def _paths(draw):
    """A system with mu = 1..4 and n = 0..4, a path that sends coordinates
    1..k to 1 with drawn signs and holds the others at drawn angles, and an
    offset delta on it."""
    mu, n = draw(hst.integers(1, 4)), draw(hst.integers(0, 4))
    entries = hst.lists(hst.integers(-2, 2), min_size=n * n, max_size=n * n)
    halves = draw(hst.lists(entries, min_size=2 ** (mu - 1), max_size=2 ** (mu - 1)))
    k = draw(hst.integers(0, mu))
    signs = draw(hst.lists(hst.sampled_from((1, -1)), min_size=k, max_size=k))
    held = draw(hst.lists(_angle, min_size=mu - k, max_size=mu - k))
    delta = draw(hst.sampled_from((Fraction(1, 7), Fraction(1, 40), Fraction(3, 10))))
    return mu, n, halves, signs, held, delta


@settings(max_examples=80, deadline=None)
@given(_paths())
def test_path_family_is_the_form_on_its_path(path):
    """prod_j (2 eps_j t / (1 + t^2)) sum_d t^d F_d, for the coefficients F_d
    of links._path_forms and t = tan(pi delta), is the form H at the path's
    point: every coefficient, and the prefactor whose sign the limits apply.
    The error is taken relative to prod_j |1 - omega_j| sum_eps ||A^eps||,
    which bounds the size of H's terms."""
    mu, n, halves, signs, held, delta = path
    link = _link(mu, n, halves)
    held = tuple(angle_to_complex(a) for a in held)
    family = links._path_forms(link, np.array(signs, dtype=float).reshape(1, -1), [held])[0]
    t = math.tan(math.pi * delta)
    got = math.prod(2 * e * t / (1 + t * t) for e in signs) * sum(
        t ** d * coefficient for d, coefficient in enumerate(family))
    row = path_rows(signs, held, [delta])
    scale = float(np.prod(np.abs(1 - np.asarray(row[0])))) * sum(
        float(np.linalg.norm(mat)) for mat in link.seifert.stack)
    assert np.linalg.norm(got - forms(link, row)[0]) <= 1e-12 * scale


def _rest_limits(link, point):
    return [(lim.value, lim.eta) for lim in
            (directional_limit(link, point, side) for side in ("plus", "minus"))]


def _corners(link):
    return {sign_key(signs): tuple(limit) for signs, limit
            in zip(sign_vectors(link.mu), corner_limit_counts(link).tolist())}


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_limits_survive_a_change_of_basis(system):
    mu, n, halves, points, moves = system
    link = _link(mu, n, halves)
    moved = _link(mu, n, halves, _unimodular(n, moves))
    for point in points:
        assert _rest_limits(moved, point) == _rest_limits(link, point)
    assert _corners(moved) == _corners(link)


def _assert_limits_agree_with_clean_samples(link, points):
    for point in points:
        for sign, limit in zip((1, -1), _rest_limits(link, point)):
            assert sampled_limit(link, (sign,), point.omega()) in (None, limit)
    for key, limit in _corners(link).items():
        signs = tuple(1 if c == "+" else -1 for c in key)
        assert sampled_limit(link, signs) in (None, limit)


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_limits_agree_with_clean_samples(system):
    mu, n, halves, points, _ = system
    _assert_limits_agree_with_clean_samples(_link(mu, n, halves), points)


# At corners ++, +-, -+, -- mpmath at 80 digits gives (1, 1), (-1, 1), (-1, 1)
# and (1, 1), and the samples read the same.
@example((2, 4, [[-1, 1, -2, -2, -1, -1, -1, -2, 1, 0, 2, 2, -2, 2, -4, -4],
                 [1, -1, 2, 2, 0, -1, 1, 0, -1, -1, -1, -2, 2, -2, 4, 4]],
          [TorusPoint([Fraction(1, 3)])]))
@settings(max_examples=80, deadline=None)
@given(_systems_with_a_common_kernel())
def test_limits_with_a_common_kernel_agree_with_clean_samples(system):
    mu, n, halves, points = system
    _assert_limits_agree_with_clean_samples(_link(mu, n, halves), points)


# ROADMAP item 2(b)'s system, the smallest such system, and one on which
# the comparison with clean samples once failed at random
@example((3, 2, [[18, 24, 24, 32], [9, 12, 12, 16], [-18, -24, -24, -32],
                 [-9, -12, -12, -16]], Fraction(1, 3),
          TorusPoint([Fraction(1, 2), Fraction(2, 3)])))
@example((2, 1, [[1], [-1]], Fraction(1, 3), TorusPoint([Fraction(1, 2)])))
@example((3, 1, [[0], [0], [1], [-1]], Fraction(1, 3),
          TorusPoint([Fraction(1, 4), Fraction(1, 2)])))
@settings(max_examples=80, deadline=None)
@given(_systems_vanishing_on_a_circle())
def test_limits_where_the_form_vanishes_on_a_circle(system):
    mu, n, halves, first, rest = system
    link = _link(mu, n, halves)
    assert rest_limit_counts(link, [rest.omega()]).tolist() == [[0, 0, n]]
    assert signature_nullity(link, TorusPoint((first,) + rest.angles)) == (0, n)


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_stacked_group_matches_single_points(system):
    mu, n, halves, points, _ = system
    link = _link(mu, n, halves)
    rests = verify._Rests(link, points)
    for point, (plus, minus, eta) in zip(points, rests.limits):
        assert [(plus, eta), (minus, eta)] == _rest_limits(link, point)


def test_corner_limits_of_a_system_singular_along_the_corner_path():
    # H along corners +- and -+ has eigenvalues -a, 0, +a (mpmath at 60 digits)
    link = _link(2, 3, [[0, 2, 0, 2, 2, 0, -2, 2, -2], [0, 2, 0, 2, 2, 2, -2, 2, -2]])
    corners = corner_limit_counts(link).tolist()  # at ++, +-, -+, --
    for row, signs in ((1, (1, -1)), (2, (-1, 1))):
        assert sampled_limit(link, signs) == (0, 1)
        assert corners[row] == [0, 1]


def _unlink_with_handles():
    """unlink(3), whose form is 0, with three handles on color 1: rows (2, 3),
    (4, 5) and (6, 7), with xi on the b rows 3, 5 and 7.  By
    :func:`oracles.enlarge` every value is unlink(3)'s: sigma 0 and eta 2."""
    link = make_unlink(3)
    for xi in ((-2, -2), (3, 1, 2, 2), (2, 3, 1, -1, -3, 0)):
        link = enlarge(link, 1, xi)
    return link


def test_handles_keep_points_and_rest_limits():
    unlink, link = make_unlink(3), _unlink_with_handles()
    for angles in ((Fraction(1, 7), Fraction(2, 5), Fraction(3, 11)),
                   (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)),
                   (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)),
                   (Fraction(1, 300),) * 3):
        assert signature_nullity(link, TorusPoint(angles)) == \
            signature_nullity(unlink, TorusPoint(angles)) == (0, 2), angles
    rest = [TorusPoint([Fraction(1, 3), Fraction(2, 5)]).omega()]
    assert rest_limit_counts(link, rest).tolist() == \
        rest_limit_counts(unlink, rest).tolist() == [[0, 0, 2]]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the float descent reads the kernel of size 2 that "
                          "F_0 has at level 3 as noise past the cut, (+-1, 1) at every corner")
def test_handles_keep_the_corners():
    assert corner_limit_counts(_unlink_with_handles()).tolist() == \
        corner_limit_counts(make_unlink(3)).tolist()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the handle blocks scale as about (2 pi delta)^5, "
                          "below hermitian.ZERO_CUT, the zero cut's absolute floor; "
                          "eta reads 8")
def test_handles_keep_a_point_near_the_corner():
    point = TorusPoint((Fraction(1, 1000),) * 3)
    assert signature_nullity(_unlink_with_handles(), point) == (0, 2)


# A basis change of determinant 1 for torus(3) with two handles whose
# congruent system has entries of at most 54
_HANDLE_BASIS = ((3, 0, 0, 0, 0, -1), (3, -2, 0, -1, 0, 2), (0, -6, 1, 0, -2, 0),
                 (-1, -3, 0, 0, 0, 6), (1, 2, 0, 0, 0, -4), (3, 3, 0, 0, 1, -1))


def _torus_with_handles():
    return enlarge(enlarge(make_torus(3), 1, (1, -2)), 2, (0, 1, 3, -1))


def test_the_congruence_pin_is_small_and_unimodular():
    link = _torus_with_handles()
    assert round(np.linalg.det(np.array(_HANDLE_BASIS))) == 1
    assert np.abs(congruent(link, _HANDLE_BASIS).seifert.stack).max() == 54
    point = TorusPoint((Fraction(36, 64),) * 2)
    assert signature_nullity(link, point) == oracle_torus(3, *point.angles) == (-2, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the congruent H has an eigenvalue of -1.25e-6, inside "
                          "the cut ZERO_CUT * ||H||_F of about 1.8e-6; the point reads (-1, 1)")
def test_a_unimodular_congruence_keeps_an_interior_point():
    point = TorusPoint((Fraction(36, 64),) * 2)
    assert signature_nullity(congruent(_torus_with_handles(), _HANDLE_BASIS), point) == (-2, 0)
