"""Independent oracles for the tests, kept out of the package.

Each oracle is built from its definition and shares no code with the route
it checks: the wall-crossing count for the signature jump, the tridiagonal
chain and clasp matrices whose inertia realizes the chain sign, Sylvester's
law of inertia, the boundary form F_0 of the rest path, and the linking
matrix read from every pair of components.
"""

from fractions import Fraction

import numpy as np

from sigtorus.angles import TorusPoint, angle_to_complex, as_angle, scale_angle
from sigtorus.errors import (BoundaryPoint, InexactAngles, SigtorusError,
                             ZeroParameter)
from sigtorus.hermitian import DEFAULT_TOL, HermitianMatrix, inertia
from sigtorus.links import sign_vectors


class SingularMatrix(SigtorusError):
    """A conjugating matrix is (numerically) singular."""


class ZeroLinking(SigtorusError):
    """A linking vector is identically zero where that is not allowed."""


def _as_point(point):
    return point if isinstance(point, TorusPoint) else TorusPoint(point)


def signature_jump_by_walls(linking, point):
    """Wall-crossing oracle for :func:`sigtorus.corrections.signature_jump`.

    After reorienting each coordinate by the sign of its linking number, the
    combination x = sum |l_j| * angle_j lies in (0, |l|); the value starts at
    |l| - 1 near the corner, drops by 2 per wall crossed (x an integer), and
    takes the midpoint value on each wall.
    """
    ell = (linking,) if isinstance(linking, int) else tuple(int(v) for v in linking)
    point = _as_point(point)
    if len(ell) != point.mu:
        raise ValueError("linking vector and point have different lengths")
    total = sum(abs(v) for v in ell)
    if total == 0:
        raise ZeroLinking("wall-crossing description needs a nonzero linking vector")
    x = Fraction(0)
    for lj, angle in zip(ell, point.angles):
        if lj == 0:
            continue
        if not isinstance(angle, Fraction):
            raise InexactAngles("wall-crossing oracle needs rational angles")
        x += abs(lj) * ((angle if lj > 0 else -angle) % 1)
    k = x.numerator // x.denominator
    if x == k:
        return total - 2 * k
    return total - 1 - 2 * k


def chain_matrix(points):
    """The tridiagonal Hermitian matrix of size n-1 attached to a chain.

    Subdiagonal i/(1 - z_k), diagonal i*(z_k*z_{k+1} - 1) over the product
    of (1 - z_k)(1 - z_{k+1}), superdiagonal conjugate to the subdiagonal.
    Its signature equals the chain sign and its nullity is 1 exactly when
    the product of the chain is 1.
    """
    angles = [as_angle(z) for z in points]
    if any(a == 0 for a in angles):
        raise BoundaryPoint("chain points must differ from 1")
    z = [angle_to_complex(a) for a in angles]
    m = max(len(z) - 1, 0)
    mat = np.zeros((m, m), dtype=complex)
    for r in range(m):
        mat[r, r] = 1j * (z[r] * z[r + 1] - 1.0) / ((1.0 - z[r]) * (1.0 - z[r + 1]))
    for r in range(1, m):
        sub = 1j / (1.0 - z[r])
        mat[r, r - 1] = sub
        mat[r - 1, r] = sub.conjugate()
    return HermitianMatrix(mat)


class ClaspSequence:
    """The clasps met along the boundary of the first surface, in order.

    Each entry is a (color, sign) pair with color at least 2; the sequence
    is never empty (a connected C-complex meets the first surface).
    """

    __slots__ = ("clasps",)

    def __init__(self, clasps):
        clasps = [(int(c), int(s)) for c, s in clasps]
        if not clasps:
            raise ValueError("a clasp sequence cannot be empty")
        for c, s in clasps:
            if c < 2:
                raise ValueError("clasp colors start at 2")
            if s not in (-1, 1):
                raise ValueError("clasp signs are +1 or -1")
        self.clasps = tuple(clasps)

    def __iter__(self):
        return iter(self.clasps)


def clasp_matrix(clasps, point):
    """The chain matrix of a clasp sequence at a point over colors 2..mu."""
    point = _as_point(point)
    chain = []
    for color, sign in ClaspSequence(clasps):
        if color - 2 >= point.mu:
            raise ValueError("clasp color %d exceeds the point's colors" % color)
        chain.append(scale_angle(point[color - 2], sign))
    return chain_matrix(chain)


def torus_clasp_sequence(ell):
    """The clasps the torus-link C-complex has along its first disk."""
    if ell == 0:
        raise ZeroParameter("the unlink has no clasp sequence")
    return ClaspSequence([(2, 1 if ell > 0 else -1)] * abs(ell))


def conjugate_inertia_check(h, p, tol=DEFAULT_TOL):
    """Inertia of P* H P for invertible P, which by Sylvester's law of
    inertia must coincide with the inertia of H."""
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    p = np.asarray(p, dtype=complex)
    if p.shape != (h.n, h.n):
        raise ValueError("conjugating matrix has wrong shape")
    if h.n and abs(np.linalg.det(p)) <= 1e-9:
        raise SingularMatrix("conjugating matrix is numerically singular")
    m = p.conj().T @ h.entries @ p
    return inertia(HermitianMatrix((m + m.conj().T) / 2.0), tol)


def boundary_limit_form(link, rest_point, side=1):
    """One-sided limit of H(omega_1, rest) / |1 - omega_1| as omega_1 -> 1.

    ``side`` times the sum over all 2^mu sign vectors eta of
    i eta_1 prod_{j > 1} (1 - conj(omega_j)^eta_j) A^eta.  Valid when every
    basis curve of the Seifert system crosses the first surface (true for
    the built-in families, whose stored sublink has an empty basis).
    """
    if rest_point.mu != link.mu - 1:
        raise ValueError("rest point needs %d coordinates" % (link.mu - 1))
    form = np.zeros((link.seifert.n, link.seifert.n), dtype=complex)
    for eta in sign_vectors(link.mu):
        factor = 1j * eta[0]
        for e, w in zip(eta[1:], rest_point.omega()):
            factor *= 1 - (w.conjugate() if e > 0 else w)
        form += factor * link.seifert.matrix(eta)
    return HermitianMatrix((1.0 if side > 0 else -1.0) * form)


def linking_matrix(link, color_signs):
    """The component-level linking matrix for reoriented colors.

    ``color_signs`` has one sign per color; components inherit the sign of
    their color.  Off-diagonal entries are the sign-twisted linking numbers
    ``link.lk`` of every pair of components, and diagonal entries make every
    row sum to zero.
    """
    comps = ["%d.%d" % (c, k) for c, count in enumerate(link.components_per_color, 1)
             for k in range(1, count + 1)]
    sign = {comp: color_signs[link.color_of(comp) - 1] for comp in comps}
    mat = [[0 if a == b else sign[a] * sign[b] * link.lk(a, b) for b in comps]
           for a in comps]
    for i, row in enumerate(mat):
        row[i] = -sum(row)
    return mat
