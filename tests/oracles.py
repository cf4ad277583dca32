"""Independent oracles for the tests, kept out of the package.

Each oracle is built from its definition and shares no code with the route
it checks: the chain sign telescoped from pair signs (the reference for the
closed-form wall counts in :mod:`sigtorus.corrections`), the wall-crossing
count for the signature jump, the tridiagonal chain and clasp matrices
whose inertia realizes the chain sign, Sylvester's law of inertia, the
boundary form F_0 of the rest path, the linking matrix read from every
pair of components, and the two moves that leave every value unchanged: a
handle and a unimodular change of basis.
"""

from fractions import Fraction

import numpy as np

from sigtorus.angles import TorusPoint, angle_to_complex, normalize_angle
from sigtorus.errors import BoundaryPoint, SigtorusError, ZeroParameter
from sigtorus.hermitian import HermitianMatrix, inertia
from sigtorus.links import ColoredLink, sign_key, sign_vectors


class SingularMatrix(SigtorusError):
    """A conjugating matrix is (numerically) singular."""


class ZeroLinking(SigtorusError):
    """A linking vector is identically zero where that is not allowed."""


def _as_point(point):
    return point if isinstance(point, TorusPoint) else TorusPoint(point)


def pair_sign(a, b):
    """Sign in {-1, 0, 1} of i*(z1*z2 - 1)*(conj(z1) - 1)*(conj(z2) - 1) at
    z1 = exp(2 pi i a), z2 = exp(2 pi i b) for angles a, b in [0, 1).

    The expression is 8 sin(pi(a+b)) sin(pi a) sin(pi b): 0 when a = 0,
    b = 0 or a + b = 1, +1 when a + b < 1 and -1 when a + b > 1.
    """
    if a == 0 or b == 0 or a + b == 1:
        return 0
    return 1 if a + b < 1 else -1


def chain_sign_by_pairs(points):
    """Definitional oracle for the chain sign that
    :func:`sigtorus.corrections.signature_jump` counts.

    The telescoped sum of pair_sign(z_j, z_{j+1}...z_n) over j < n, one
    pair sign per chain step, with the suffix product kept as an angle in
    [0, 1).  Empty and one-element chains give 0.
    """
    angles = [normalize_angle(z) for z in points]
    total = 0
    suffix = angles[-1] if angles else 0
    for angle in reversed(angles[:-1]):
        total += pair_sign(angle, suffix)
        suffix = (angle + suffix) % 1
    return total


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
    angles = [normalize_angle(z) for z in points]
    if any(a == 0 for a in angles):
        raise BoundaryPoint("chain points must differ from 1")
    z = [angle_to_complex(a) for a in angles]
    m = max(len(z) - 1, 0)
    mat = np.zeros((m, m), dtype=complex)
    for r in range(m):
        # real in exact arithmetic; near angle 0 its float residue is not small
        mat[r, r] = (1j * (z[r] * z[r + 1] - 1.0) / ((1.0 - z[r]) * (1.0 - z[r + 1]))).real
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
        chain.append(normalize_angle(point[color - 2] * sign))
    return chain_matrix(chain)


def torus_clasp_sequence(ell):
    """The clasps the torus-link C-complex has along its first disk."""
    if ell == 0:
        raise ZeroParameter("the unlink has no clasp sequence")
    return ClaspSequence([(2, 1 if ell > 0 else -1)] * abs(ell))


def conjugate_inertia_check(h, p):
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
    return inertia(HermitianMatrix((m + m.conj().T) / 2.0))


def boundary_limit_form(link, rest_point, side=1):
    """One-sided limit of H(omega_1, rest) / |1 - omega_1| as omega_1 -> 1.

    ``side`` times the sum over all 2^mu sign vectors eta of
    i eta_1 prod_{j > 1} (1 - conj(omega_j)^eta_j) A^eta.  Valid when every
    basis curve of the Seifert system crosses the first surface (true for
    the built-in families, whose stored sublink has an empty basis).
    """
    if rest_point.mu != link.mu - 1:
        raise ValueError("rest point needs %d coordinates" % (link.mu - 1))
    form = np.zeros((link.seifert.shape[1], link.seifert.shape[1]), dtype=complex)
    for eta, mat in zip(sign_vectors(link.mu), link.seifert):
        factor = 1j * eta[0]
        for e, w in zip(eta[1:], rest_point.omega()):
            factor *= 1 - (w.conjugate() if e > 0 else w)
        form += factor * mat
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


def enlarge(link, color, xi):
    """``link`` with one handle (a, b) added to the surface of ``color``: an
    elementary enlargement of its Seifert system.

    Rows a = n and b = n + 1 join every A^eps, with lk(a^eps, b) =
    [eps_color = +], lk(b^eps, a) = [eps_color = -], the integer vector
    ``xi`` (one entry per old row) in row and column b, and every other new
    entry 0.  In H(omega) = sum_eps prod_j (1 - conj(omega_j)^eps_j) A^eps,
    row a then has one nonzero entry, h = (1 - conj(omega_color))
    prod_{j != color} |1 - omega_j|^2 at column b, and a congruence through
    row a clears xi from row b: the new H is congruent to the direct sum of
    the old one and the block [[0, h], [conj(h), *]], whose determinant
    -|h|^2 is negative on the open torus.  So sigma and eta are unchanged at every interior
    point, and so is every limit.  This is the algebra of S-equivalence:
    H. F. Trotter, Ann. of Math. 76 (1962), and for C-complexes D. Cimasoni
    and V. Florens, Trans. AMS 360 (2008).
    """
    n = link.seifert.shape[1]
    if len(xi) != n:
        raise ValueError("xi needs %d entries, one per row, got %d" % (n, len(xi)))
    mats = {}
    for eps, old in zip(sign_vectors(link.mu), link.seifert):
        mat = np.zeros((n + 2, n + 2), dtype=np.int64)
        mat[:n, :n] = old
        mat[n + 1, :n] = mat[:n, n + 1] = xi
        mat[n, n + 1], mat[n + 1, n] = eps[color - 1] > 0, eps[color - 1] < 0
        mats[sign_key(eps)] = mat
    return ColoredLink(link.mu, link.components_per_color, link.linking,
                       mats, link.conway, link.rank_alexander,
                       link.sublinks, link.underlying_oriented)


def congruent(link, basis):
    """``link`` with every Seifert matrix A^eps replaced by P A^eps P^T, for
    P = ``basis``, an integer n x n matrix of determinant +-1: the same
    C-complex read in another basis of its first homology.

    Each H(omega) = sum_eps prod_j (1 - conj(omega_j)^eps_j) A^eps becomes
    P H(omega) P^T, and each path family's coefficients F_d become P F_d P^T
    with the same constant P.  P is invertible, so by Sylvester's law of
    inertia sigma and eta are unchanged at every point, and so is the
    inertia of every level of every one-sided limit.  (P A P^T)^T =
    P A^T P^T keeps A^-eps the transpose of A^eps.
    """
    p = np.array(basis, dtype=np.int64)
    n = link.seifert.shape[1]
    if p.shape != (n, n) or round(abs(np.linalg.det(p))) != 1:
        raise ValueError("the basis change must be an integer %dx%d matrix of "
                         "determinant +-1" % (n, n))
    mats = {sign_key(eps): (p @ mat @ p.T).tolist()
            for eps, mat in zip(sign_vectors(link.mu), link.seifert)}
    return ColoredLink(link.mu, link.components_per_color, link.linking,
                       mats, link.conway, link.rank_alexander,
                       link.sublinks, link.underlying_oriented)
