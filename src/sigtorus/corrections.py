"""Correction terms governing one-sided limits of link signatures.

The functions here are purely combinatorial in the linking numbers and the
angles of the remaining coordinates: the sign of a two-point expression on
the circle, its telescoped extension to chains, the jump of the signature
across the first coordinate, the wall indicator for its degeneracy locus,
and the step profile of torus-link signatures.

Inputs may be angles in turns (fractions preferred) or unit complex
numbers; exact case splits fire only for rational angles.
"""

from fractions import Fraction

from .angles import TorusPoint, angle_sum, angle_to_complex, as_angle, scale_angle
from .errors import DomainError

_IMAG_SLACK = 1e-10


def pair_sign(z1, z2):
    """Sign in {-1, 0, 1} of i*(z1*z2 - 1)*(conj(z1) - 1)*(conj(z2) - 1).

    The expression is real on the circle; its imaginary part is asserted
    small.  On rational angles the zero cases (either point equal to 1, or
    the product equal to 1) are decided exactly, never by a float residue.
    """
    a = as_angle(z1)
    b = as_angle(z2)
    if a == 0 or b == 0 or angle_sum(a, b) == 0:
        return 0
    za = angle_to_complex(a)
    zb = angle_to_complex(b)
    value = 1j * (za * zb - 1.0) * (za.conjugate() - 1.0) * (zb.conjugate() - 1.0)
    assert abs(value.imag) <= _IMAG_SLACK, "expression should be real on the circle"
    if value.real > 0.0:
        return 1
    if value.real < 0.0:
        return -1
    return 0


def chain_sign(points):
    """Telescoped pair signs of a chain: sum of pair_sign(z_j, z_{j+1}...z_n).

    Empty and one-element chains give 0.
    """
    angles = [as_angle(z) for z in points]
    n = len(angles)
    if n <= 1:
        return 0
    total = 0
    suffix = angles[-1]
    for j in range(n - 2, -1, -1):
        total += pair_sign(angles[j], suffix)
        suffix = angle_sum(angles[j], suffix)
    return total


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

    Evaluates the chain sign of the block vector that repeats the j-th
    coordinate (sign-adjusted) |l_j| times; identically zero for vanishing
    linking.
    """
    ell = _linking_tuple(linking)
    point = _as_point(point)
    if len(ell) != point.mu:
        raise ValueError("linking vector and point have different lengths")
    blocks = []
    for lj, angle in zip(ell, point.angles):
        if lj == 0:
            continue
        sign = 1 if lj > 0 else -1
        blocks.extend([scale_angle(angle, sign)] * abs(lj))
    if not blocks:
        return 0
    return chain_sign(blocks)


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
    open band (k/n, (k+1)/n), n - 2k at the node k/n, and 1 - n at theta = 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError("profile order must be positive")
    theta = Fraction(theta)
    if not 0 < theta < 2:
        raise DomainError("profile argument must lie in (0, 2)")
    if theta > 1:
        theta = 2 - theta
    if theta == 1:
        return 1 - n
    scaled = n * theta
    k = scaled.numerator // scaled.denominator
    if scaled == k:
        return n - 2 * k
    return n - 2 * k - 1
