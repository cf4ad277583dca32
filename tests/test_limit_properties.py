"""Properties of the exact one-sided limits on random valid Seifert systems.

Three oracles that share no code with the descent's stacking or its
coordinates: a unimodular change of the Seifert basis, the sampled limits
of ``sampler.py`` wherever they read cleanly, and single-point calls.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from sampler import sampled_limit

from sigtorus import verify
from sigtorus.angles import TorusPoint
from sigtorus.links import (ColoredLink, SeifertSystem, corner_limit_counts, sign_key,
                            sign_vectors)
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


def _rest_limits(link, point):
    return [(lim.value, lim.eta) for lim in
            (directional_limit(link, point, side, TOL) for side in ("plus", "minus"))]


def _corners(link):
    return {key: (lim.value, lim.eta) for key, lim in verify._corner_limits(link, TOL).items()}


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_limits_survive_a_change_of_basis(system):
    mu, n, halves, points, moves = system
    link = _link(mu, n, halves)
    moved = _link(mu, n, halves, _unimodular(n, moves))
    for point in points:
        assert _rest_limits(moved, point) == _rest_limits(link, point)
    assert _corners(moved) == _corners(link)


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_limits_agree_with_clean_samples(system):
    mu, n, halves, points, _ = system
    link = _link(mu, n, halves)
    for point in points:
        for sign, limit in zip((1, -1), _rest_limits(link, point)):
            assert sampled_limit(link, (sign,), point.omega()) in (None, limit)
    for key, limit in _corners(link).items():
        signs = tuple(1 if c == "+" else -1 for c in key)
        assert sampled_limit(link, signs) in (None, limit)


@settings(max_examples=80, deadline=None)
@given(_systems())
def test_stacked_group_matches_single_points(system):
    mu, n, halves, points, _ = system
    link = _link(mu, n, halves)
    group = verify._rest_group(link, points, TOL)
    # reading one side at the last member fills both sides at every member
    group[-1].limit("minus")
    for rest in group:
        assert [(lim.value, lim.eta) for lim in rest._limits.values()] == \
            _rest_limits(link, rest.point)


@pytest.mark.xfail(strict=True, reason=(
    "the corner descent returns (1, 0) at all four corners of this system, "
    "where H along corners +- and -+ has eigenvalues -a, 0, +a (mpmath at 60 "
    "digits), so the limit there is (0, 1)"))
def test_corner_limits_of_a_system_singular_along_the_corner_path():
    link = _link(2, 3, [[0, 2, 0, 2, 2, 0, -2, 2, -2], [0, 2, 0, 2, 2, 2, -2, 2, -2]])
    corners = corner_limit_counts(link, TOL).tolist()  # at ++, +-, -+, --
    for row, signs in ((1, (1, -1)), (2, (-1, 1))):
        assert sampled_limit(link, signs) == (0, 1)
        assert corners[row] == [0, 1]
