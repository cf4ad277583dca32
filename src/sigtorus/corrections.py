"""Correction terms governing one-sided limits of link signatures.

The functions here are purely combinatorial in the linking numbers and the
angles of the remaining coordinates: the sign of a two-point expression on
the circle, its telescoped sum along a chain, the jump of the signature
across the first coordinate, the wall indicator for its degeneracy locus,
and the step profile of torus-link signatures.  The chain sign, the jump
and the profile are one wall count: the chain sign of n angles in [0, 1)
with sum T, Z of them 0, is n - 1 - 2*floor(T) + [T is an integer] - Z,
which drops by 2 per wall crossed.  Inputs may be angles in turns
(fractions preferred) or unit complex numbers; every sign compares angle
sums, so all is exact on rational angles, and on float angles it compares
the floats.
"""

import math
from fractions import Fraction

from .angles import TorusPoint, as_angle, scale_angle
from .errors import DomainError, InexactAngles


def pair_sign(z1, z2):
    """Sign in {-1, 0, 1} of i*(z1*z2 - 1)*(conj(z1) - 1)*(conj(z2) - 1).

    For angles a, b in [0, 1) the expression is 8 sin(pi(a+b)) sin(pi a)
    sin(pi b), so the sign is 0 when a = 0, b = 0 or a + b = 1, +1 when
    a + b < 1 and -1 when a + b > 1: a comparison of angles, exact on
    rational ones.
    """
    a = as_angle(z1)
    b = as_angle(z2)
    if a == 0 or b == 0 or a + b == 1:
        return 0
    return 1 if a + b < 1 else -1


def _wall_count(count, total, zeros):
    """Chain sign of ``count`` angles in [0, 1) with sum ``total``, ``zeros`` of them 0."""
    k = math.floor(total)
    return count - 1 - 2 * k + (total == k) - zeros


def chain_sign(points):
    """Telescoped pair signs of a chain: sum of pair_sign(z_j, z_{j+1}...z_n).

    Read as n - 1 - 2*floor(T) + [T is an integer] - Z for n angles with sum
    T, Z of them 0; on float angles T is one float sum, compared once.
    Empty and one-element chains give 0.
    """
    angles = [as_angle(z) for z in points]
    return _wall_count(len(angles), sum(angles), angles.count(0))


def _linking_tuple(linking):
    if isinstance(linking, int):
        return (linking,)
    return tuple(int(v) for v in linking)


def _as_point(point):
    if isinstance(point, TorusPoint):
        return point
    return TorusPoint(point)


def signature_jump(linking, point):
    """The one-sided jump of the signature across the first coordinate.

    The chain sign of the block vector that repeats a_j = sgn(l_j) theta_j
    mod 1 |l_j| times, read in O(mu) without building it: N - 1 - 2*floor(T)
    + [T is an integer] - Z for N = sum |l_j|, T = sum |l_j| a_j and Z the
    blocks with a_j = 0.  Zero for vanishing linking; on float angles T is
    one float sum, compared once, and N of 2**53 or more raises
    InexactAngles, as that sum no longer holds the integer part of T.
    """
    ell = _linking_tuple(linking)
    point = _as_point(point)
    if len(ell) != point.mu:
        raise ValueError("linking vector and point have different lengths")
    blocks = [(abs(lj), scale_angle(a, 1 if lj > 0 else -1)) for lj, a in zip(ell, point) if lj]
    count = sum(m for m, _ in blocks)
    if count >= 2 ** 53 and any(isinstance(a, float) for _, a in blocks):
        raise InexactAngles("float angles need sum |l_j| below 2**53; pass exact angles")
    return _wall_count(count, sum(m * a for m, a in blocks),
                       sum(m for m, a in blocks if a == 0))


def wall_indicator(linking, point):
    """1 when the linking-weighted angle sum is an integer, else 0.

    Decided exactly; float angles (with nonzero coefficient) raise
    InexactAngles rather than guessing.  An all-zero linking vector gives 1
    (empty product).
    """
    ell = _linking_tuple(linking)
    point = _as_point(point)
    return 1 if point.power_is_integer(ell) else 0


def torus_signature_profile(n, theta):
    """The integer step profile of the 2-strand torus-link signature.

    Symmetric about theta = 1 on its domain (0, 2); equals n - 2k - 1 on the
    open band (k/n, (k+1)/n), n - 2k at the node k/n, and 1 - n at theta = 1:
    with t = min(theta, 2 - theta), the wall count of n angles summing to
    n*t, plus 1 at t = 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError("profile order must be positive")
    theta = Fraction(theta)
    if not 0 < theta < 2:
        raise DomainError("profile argument must lie in (0, 2)")
    t = min(theta, 2 - theta)
    return _wall_count(n, n * t, 0) + (t == 1)
