"""Built-in link families with Seifert systems, Conway data, and oracles.

Twist links (two unknotted components clasped through k full twists), the
2-strand torus links, and unlinks.  Generators emit complete data, sublinks
and Conway functions included, so every verifier runs on them without
hand-written files; the oracles give the closed-form signature and nullity
the generated data must reproduce.
"""

import numpy as np

from .angles import exact_angle
from .corrections import torus_signature_profile
from .errors import DomainError, ZeroParameter
from .laurent import LaurentPoly, RationalFunction, as_integer
from .links import ColoredLink, SeifertSystem, sign_key, sign_vectors


# The most entries a builder's largest Seifert system, 2^mu matrices of n x n,
# may hold (128 MiB of int64); larger ones are refused before any allocation.
_MAX_ENTRIES = 2 ** 24


def _check_size(name, parameter, mu, n):
    if n * n > _MAX_ENTRIES >> mu:
        raise DomainError("%s(%d) is too large: its largest Seifert system, 2^%d matrices "
                          "of %d rows, exceeds 2**24 entries" % (name, parameter, mu, n))


def _sgn(value):
    return (value > 0) - (value < 0)


def _lower_bidiagonal_ones(size):
    return np.eye(size, dtype=np.int64) + np.eye(size, k=-1, dtype=np.int64)


def _t_minus_inverse(nvars, index):
    return LaurentPoly.variable(nvars, index) - LaurentPoly.variable(nvars, index, -1)


def unknot():
    """The unknot: disk spanning surface, empty basis, known Conway data."""
    seifert = SeifertSystem(1, {"+": [], "-": []})
    conway = RationalFunction(LaurentPoly.constant(1, 1), _t_minus_inverse(1, 0))
    return ColoredLink(mu=1, components_per_color=[1], linking={},
                       seifert=seifert, conway=conway)


def _oriented_unlink(m):
    """The m-component unlink as an oriented link (planar surface basis)."""
    size = m - 1
    zero = np.zeros((size, size), dtype=np.int64)
    return ColoredLink(mu=1, components_per_color=[m], linking={},
                       seifert=SeifertSystem(1, {"+": zero, "-": zero}))


def make_twist(k):
    """The two-component twist link with k full twists.

    All four generalized Seifert matrices are the 1x1 matrix (k); the two
    components have linking number zero.  k = 0 is the unlink, k = +/-1 the
    Whitehead links.
    """
    k = as_integer(k, "twist(%r): k", k)
    if not -2 ** 63 <= k < 2 ** 63:
        raise DomainError("twist(%d): the Seifert entry k must fit in 64 bits" % k)
    mat = [[k]]
    seifert = SeifertSystem(2, {"++": mat, "+-": mat, "-+": mat, "--": mat})
    conway = RationalFunction(_t_minus_inverse(2, 0) * _t_minus_inverse(2, 1) * k)
    return ColoredLink(
        mu=2, components_per_color=[1, 1],
        linking={("1.1", "2.1"): 0},
        seifert=seifert, conway=conway,
        sublinks={"2": unknot()},
    )


def _torus_underlying(ell):
    """The 2-strand torus link as an oriented link.

    Basis from the 2-disk braid-closure surface with 2|l| bands: the Seifert
    matrix is minus the lower-bidiagonal ones matrix of size 2|l| - 1, up to
    the global sign of l.
    """
    mat = (-_sgn(ell)) * _lower_bidiagonal_ones(2 * abs(ell) - 1)
    return ColoredLink(
        mu=1, components_per_color=[2],
        linking={("1.1", "1.2"): ell},
        seifert=SeifertSystem(1, {"-": mat, "+": mat.T}),
    )


def make_torus(ell):
    """The 2-strand torus link with 2*l crossings, one color per component.

    The mixed-sign matrices vanish and the pure-sign ones are the
    lower-bidiagonal ones matrix of size |l| - 1, negated and sign-adjusted.
    l = 0 is the two-component unlink, :func:`make_unlink` (2).
    """
    ell = as_integer(ell, "torus(%r): l", ell)
    if ell == 0:
        return make_unlink(2)
    size = abs(ell) - 1
    _check_size("torus", ell, 1, 2 * abs(ell) - 1)  # the underlying link's system
    plus = (-_sgn(ell)) * _lower_bidiagonal_ones(size)
    zero = np.zeros((size, size), dtype=np.int64)
    seifert = SeifertSystem(2, {"++": plus, "--": plus.T, "+-": zero, "-+": zero})
    diag = LaurentPoly.monomial(2, (ell, ell)) - LaurentPoly.monomial(2, (-ell, -ell))
    den = LaurentPoly.monomial(2, (1, 1)) - LaurentPoly.monomial(2, (-1, -1))
    conway = RationalFunction(diag, den)
    return ColoredLink(
        mu=2, components_per_color=[1, 1],
        linking={("1.1", "2.1"): ell},
        seifert=seifert, conway=conway,
        sublinks={"2": unknot()},
        underlying_oriented=_torus_underlying(ell),
    )


def make_unlink(mu):
    """The mu-component unlink, one color per component.

    Data from a chain-of-disks surface whose basis curves link nothing: all
    sign matrices are the zero matrix of size mu - 1, giving the constant
    signature 0 and nullity mu - 1.
    """
    mu = as_integer(mu, "unlink(%r): mu", mu)
    if mu < 1:
        raise DomainError("an unlink needs at least one component, got %d" % mu)
    _check_size("unlink", mu, mu, mu - 1)
    if mu == 1:
        return unknot()
    size = mu - 1
    zero = np.zeros((size, size), dtype=np.int64)
    seifert = SeifertSystem(mu, {sign_key(eps): zero for eps in sign_vectors(mu)})
    return ColoredLink(
        mu=mu, components_per_color=[1] * mu, linking={},
        seifert=seifert,
        conway=RationalFunction(LaurentPoly.zero(mu)),
        sublinks={",".join(str(j) for j in range(2, mu + 1)): make_unlink(mu - 1)},
        underlying_oriented=_oriented_unlink(mu),
    )


FAMILIES = {"twist": make_twist, "torus": make_torus, "unlink": make_unlink}


def make_family(name, parameter):
    if name not in FAMILIES:
        raise ValueError("unknown family %r" % name)
    return FAMILIES[name](parameter)


def oracle_twist(k):
    """Constant signature sgn(k) and nullity [k == 0] on the open torus."""
    return _sgn(k), 1 if k == 0 else 0


def oracle_torus(ell, theta1, theta2):
    """Closed-form signature and nullity of the 2-strand torus link.

    Signature is the sign-adjusted step profile at theta1 + theta2; nullity
    is 1 exactly when l*(theta1 + theta2) is an integer while the sum itself
    differs from 1.  Angles are read by :func:`sigtorus.angles.exact_angle`,
    a float as the fraction it prints as, so all is exact.
    """
    ell = as_integer(ell, "oracle_torus(%r): l", ell)
    if ell == 0:
        raise ZeroParameter("use the unlink oracle (0, 1) for l = 0")
    theta1, theta2 = exact_angle(theta1), exact_angle(theta2)
    if not (0 < theta1 < 1 and 0 < theta2 < 1):
        raise ValueError("angles must lie strictly between 0 and 1")
    total = theta1 + theta2
    sigma = _sgn(ell) * torus_signature_profile(abs(ell), total)
    product = ell * total
    eta = 1 if product.denominator == 1 and total != 1 else 0
    return sigma, eta
