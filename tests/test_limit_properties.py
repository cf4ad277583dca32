"""Properties of the exact one-sided limits on random valid Seifert systems.

Three oracles that share no code with the descent's stacking or its
coordinates: a unimodular change of the Seifert basis, the sampled limits
of ``sampler.py`` wherever they read cleanly, and single-point calls.  On
systems whose form vanishes on a whole circle the answer is known exactly.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from sampler import sampled_limit

from sigtorus import verify
from sigtorus.angles import TorusPoint
from sigtorus.links import (ColoredLink, SeifertSystem, corner_limit_counts,
                            rest_limit_counts, sign_key, sign_vectors, signature_nullity)
from sigtorus.verify import directional_limit

TOL = 1e-9


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


def _rest_limits(link, point):
    return [(lim.value, lim.eta) for lim in
            (directional_limit(link, point, side, TOL) for side in ("plus", "minus"))]


def _corners(link):
    return {sign_key(signs): tuple(limit) for signs, limit
            in zip(sign_vectors(link.mu), corner_limit_counts(link, TOL).tolist())}


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
    rests = verify._Rests(link, points, TOL)
    for point, (plus, minus, eta) in zip(points, rests.limits):
        assert [(plus, eta), (minus, eta)] == _rest_limits(link, point)


def test_corner_limits_of_a_system_singular_along_the_corner_path():
    # H along corners +- and -+ has eigenvalues -a, 0, +a (mpmath at 60 digits)
    link = _link(2, 3, [[0, 2, 0, 2, 2, 0, -2, 2, -2], [0, 2, 0, 2, 2, 2, -2, 2, -2]])
    corners = corner_limit_counts(link, TOL).tolist()  # at ++, +-, -+, --
    for row, signs in ((1, (1, -1)), (2, (-1, 1))):
        assert sampled_limit(link, signs) == (0, 1)
        assert corners[row] == [0, 1]
