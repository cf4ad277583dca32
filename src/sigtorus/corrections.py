"""Correction terms governing one-sided limits of link signatures.

The functions here are purely combinatorial in the linking numbers and the
angles of the remaining coordinates: the jump of the signature across the
first coordinate, the wall indicator for its degeneracy locus, and the step
profile of torus-link signatures.  The jump and the profile are one wall
count: the chain sign of n angles in [0, 1) with sum T, Z of them 0, is
n - 1 - 2*floor(T) + [T is an integer] - Z, which drops by 2 per wall
crossed; the wall indicator is the [T is an integer] term of the jump, read
off the same blocks.  Every count compares sums of angles, which are
fractions (:func:`sigtorus.angles.normalize_angle`), so all is exact.
"""

import math

from .angles import TorusPoint, conj_angle, exact_angle, normalize_angle
from .errors import DomainError
from .laurent import as_integer


def _wall_count(count, total, zeros):
    """Chain sign of ``count`` angles in [0, 1) with sum ``total``, ``zeros`` of them 0."""
    k = math.floor(total)
    return count - 1 - 2 * k + (total == k) - zeros


def _blocks(linking, point):
    """The blocks (|l_j|, sgn(l_j) theta_j mod 1) of the l_j != 0."""
    ell = tuple(as_integer(lj, "linking number %r", lj) for lj in linking)
    angles = point.angles if isinstance(point, TorusPoint) else tuple(map(normalize_angle, point))
    if len(ell) != len(angles):
        raise ValueError("linking vector and point have different lengths")
    return [(lj, a) if lj > 0 else (-lj, conj_angle(a)) for lj, a in zip(ell, angles) if lj]


def signature_jump(linking, point):
    """The one-sided jump of the signature across the first coordinate.

    The chain sign of the block vector that repeats a_j = sgn(l_j) theta_j
    mod 1 |l_j| times, read in O(mu) without building it: N - 1 - 2*floor(T)
    + [T is an integer] - Z for N = sum |l_j|, T = sum |l_j| a_j and Z the
    blocks with a_j = 0.  Zero for vanishing linking.
    """
    blocks = _blocks(linking, point)
    return _wall_count(sum(m for m, _ in blocks), sum(m * a for m, a in blocks),
                       sum(m for m, a in blocks if a == 0))


def wall_indicator(linking, point):
    """[T is an integer] for the block sum T of :func:`signature_jump`: 1
    when sum l_j theta_j is an integer, else 0, and 1 for all-zero linking.
    """
    total = sum(m * a for m, a in _blocks(linking, point))
    return int(total == math.floor(total))


def torus_signature_profile(n, theta):
    """The integer step profile of the 2-strand torus-link signature.

    Symmetric about theta = 1 on its domain (0, 2); equals n - 2k - 1 on the
    open band (k/n, (k+1)/n), n - 2k at the node k/n, and 1 - n at theta = 1:
    with t = min(theta, 2 - theta), the wall count of n angles summing to
    n*t, plus 1 at t = 1.  A float theta is read as the fraction it prints
    as (:func:`sigtorus.angles.exact_angle`).
    """
    n = as_integer(n, "profile order %r", n)
    if n < 1:
        raise ValueError("profile order must be positive")
    theta = exact_angle(theta)
    if not 0 < theta < 2:
        raise DomainError("profile argument must lie in (0, 2)")
    t = min(theta, 2 - theta)
    return _wall_count(n, n * t, 0) + (t == 1)
