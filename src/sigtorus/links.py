"""Colored links: generalized Seifert systems, linking data, sublinks.

A mu-colored link is described by the counts of components per color, the
pairwise linking numbers of its components, the 2^mu generalized Seifert
matrices of a C-complex basis, and optional Conway-function and sublink
data.  Points and one-sided limits toward the boundary read one path
family: along a path sending k coordinates to 1 at angles eps_j delta,
the form is a real multiple of a matrix polynomial F(t) of degree k in
t = tan(pi delta), F(-t) is the path of -eps, and k n + 1 levels of
:func:`sigtorus.hermitian.limit_counts` settle it.  A point is the path
with k = 0, a rest limit has k = 1 and a corner k = mu.
"""

import functools
import itertools
import json
import operator

import numpy as np

from .angles import TorusPoint
from .errors import (BoundaryPoint, DimensionMismatch, SchemaError,
                     SymmetryViolation)
from .hermitian import DEFAULT_TOL, integer_inertia, limit_counts
from .laurent import _INT_ONLY, RationalFunction, as_integer as _integer


def sign_vectors(mu):
    """All sign vectors in {+1, -1}^mu, in a fixed deterministic order."""
    return list(itertools.product((1, -1), repeat=mu))


def sign_key(eps):
    return "".join("+" if e > 0 else "-" for e in eps)


@functools.lru_cache(maxsize=8)
def _layout(mu):
    """The sign keys of ``mu`` colors in :func:`sign_vectors` order, as a
    tuple, as a frozenset and as a getter of a document's values in that
    order.  Index 2^mu - 1 - i holds the negation of sign vector i, and the
    first half holds the sign vectors with eps_1 = +.
    """
    keys = tuple(sign_key(eps) for eps in sign_vectors(mu))
    return keys, frozenset(keys), operator.itemgetter(*keys)


def _integer_rows(data, context):
    """One Seifert matrix as square lists of ints.  Rows that are not all
    exactly int are read entry by entry; errors name ``context`` and the
    failing row or entry."""
    try:
        rows = [list(row) for row in data]
    except TypeError:
        raise SchemaError("%s must be a list of rows" % context) from None
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise DimensionMismatch("%s: row %d has length %d, expected %d"
                                    % (context, i, len(row), len(rows)))
        if not _INT_ONLY.issuperset(map(type, row)):
            rows[i] = [_integer(v, "%s: entry (%d, %d)", context, i, j)
                       for j, v in enumerate(row)]
    return rows


def _shape_defect(keys, mats):
    """The error naming the first matrix, in key order, that keeps
    ``mats`` from being one (2^mu, n, n) int64 stack."""
    n = None
    for key, mat in zip(keys, mats):
        context = "seifert[%s]" % key
        rows = _integer_rows(mat, context)
        try:
            np.array(rows, dtype=np.int64)
        except OverflowError:
            return SchemaError("%s has an entry beyond 64 bits" % context)
        if n is None:
            n = len(rows)
        elif len(rows) != n:
            return DimensionMismatch("%s is %dx%d, expected %dx%d"
                                     % (context, len(rows), len(rows), n, n))
    raise AssertionError("no defect in a system that did not stack")


def _seifert_stack(mu, matrices):
    """A ``seifert`` object as the int64 (2^mu, n, n) stack in
    :func:`sign_vectors` order, checked in bulk: the key count and key set,
    one type scan over every entry, one ``np.array`` and one transpose
    comparison.  Only rows that fail the type scan are read entry by entry;
    a defect is named only after a bulk step has failed.
    """
    if not isinstance(matrices, dict):
        raise SchemaError("seifert must be an object keyed by sign vectors")
    # Fewer than 2^(mu - 1) keys, in O(1) for any mu; past this check the
    # 2^mu sign keys are at most twice as many as the keys given.
    if len(matrices).bit_length() < mu:
        raise SchemaError("seifert has %d matrices, mu = %d needs 2^%d"
                          % (len(matrices), mu, mu))
    keys, key_set, values = _layout(mu)
    if matrices.keys() != key_set:
        for key in keys:
            if key not in matrices:
                raise SchemaError("seifert: missing matrix for sign vector %r" % key)
        raise SchemaError("seifert: unexpected keys %r" % sorted(set(matrices) - key_set))
    mats = values(matrices)
    try:
        exact = _INT_ONLY.issuperset(map(type, itertools.chain.from_iterable(
            itertools.chain.from_iterable(mats))))
    except TypeError:  # a matrix or a row that is not a list
        exact = False
    if not exact:
        mats = [_integer_rows(mat, "seifert[%s]" % key) for key, mat in zip(keys, mats)]
    try:
        stack = np.array(mats, dtype=np.int64)
    except (ValueError, OverflowError):  # ragged, or beyond 64 bits
        raise _shape_defect(keys, mats) from None
    if stack.shape == (len(keys), 0):  # every matrix is []
        stack = stack.reshape(len(keys), 0, 0)
    elif stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise _shape_defect(keys, mats)
    # stack[::-1] holds the matrix at -eps where stack holds eps's, so pair
    # k fails exactly when pair 2^mu - 1 - k does, and the first failing
    # index has eps_1 = +.
    unpaired = stack[::-1] != stack.transpose(0, 2, 1)
    if unpaired.any():
        k = int(unpaired.any(axis=(1, 2)).argmax())
        raise SymmetryViolation("seifert[%s] is not the transpose of seifert[%s]"
                                % (keys[-1 - k], keys[k]))
    return stack


class SeifertSystem:
    """The 2^mu generalized Seifert matrices of a C-complex basis.

    One reader, :func:`_seifert_stack`, checks that the keys are exactly the
    sign vectors, that the matrices are square, of one size, with integer
    entries that fit in 64 bits, and that the matrix at -eps is the
    transpose of the matrix at eps, naming the key, row, entry or pair of a
    defect.  ``matrices`` maps each sign key to a view of one int64
    (2^mu, n, n) stack, and ``half_stack`` is the float stack of the
    matrices with eps_1 = +.
    """

    __slots__ = ("mu", "n", "matrices", "half_stack")

    def __init__(self, mu, matrices):
        self.mu = int(mu)
        if self.mu < 1:
            raise SchemaError("color count must be at least 1")
        stack = _seifert_stack(self.mu, matrices)
        self.n = stack.shape[1]
        self.matrices = dict(zip(_layout(self.mu)[0], stack))
        self.half_stack = stack[:len(stack) // 2].astype(float)

    def matrix(self, eps):
        return self.matrices[sign_key(eps)]

    def to_document(self):
        return {key: [[int(v) for v in row] for row in mat]
                for key, mat in sorted(self.matrices.items())}


def _is_component(comp_id, components_per_color):
    """Whether ``comp_id`` is a canonical "c.k" with 1 <= c <= mu and k at
    most the count of color c, decided without listing the components."""
    color, _, index = str(comp_id).partition(".")
    try:
        c, k = int(color), int(index)
    except ValueError:
        return False
    return ("%d.%d" % (c, k) == comp_id and 1 <= c <= len(components_per_color)
            and 1 <= k <= components_per_color[c - 1])


class ColoredLink:
    """Immutable colored-link data; see the JSON schema in ``parse_link``."""

    __slots__ = ("mu", "components_per_color", "linking", "seifert", "conway",
                 "rank_alexander", "sublinks", "underlying_oriented")

    def __init__(self, mu, components_per_color, linking, seifert, conway=None,
                 rank_alexander=0, sublinks=None, underlying_oriented=None):
        self.mu = int(mu)
        try:
            comps = [_integer(c, "components_per_color") for c in components_per_color]
        except TypeError:  # not a list
            comps = []
        if len(comps) != self.mu or any(c < 1 for c in comps):
            raise SchemaError("components_per_color must list a positive count per color")
        self.components_per_color = tuple(comps)
        canon = {}
        for (a, b), value in dict(linking or {}).items():
            if not (_is_component(a, comps) and _is_component(b, comps)):
                raise SchemaError("linking refers to unknown component %r" % ((a, b),))
            if a == b:
                raise SchemaError("linking number of a component with itself")
            key = (a, b) if a < b else (b, a)
            value = _integer(value, "linking number %r", key)
            if key in canon and canon[key] != value:
                raise SchemaError("conflicting linking numbers for %r" % (key,))
            canon[key] = value
        self.linking = canon
        if not isinstance(seifert, SeifertSystem):
            seifert = SeifertSystem(self.mu, seifert)
        if seifert.mu != self.mu:
            raise SchemaError("seifert system has %d colors, link has %d" % (seifert.mu, self.mu))
        self.seifert = seifert
        if conway is not None and conway.nvars != self.mu:
            raise SchemaError("conway data has %d variables, link has %d colors"
                              % (conway.nvars, self.mu))
        self.conway = conway
        self.rank_alexander = _integer(rank_alexander, "rank_alexander")
        if self.rank_alexander < 0:
            raise SchemaError("rank_alexander must be nonnegative")
        self.sublinks = dict(sublinks or {})
        for key, sub in self.sublinks.items():
            colors = [str(c) for c in range(1, self.mu + 1) if ",%d," % c in ",%s," % key]
            if ",".join(colors) != key or sub.mu != len(colors):
                raise SchemaError("sublinks[%s] has %d colors; its key must list as many colors of"
                                  " the link, comma-separated and increasing" % (key, sub.mu))
        if underlying_oriented is not None and underlying_oriented.mu != 1:
            raise SchemaError("underlying_oriented must be 1-colored")
        self.underlying_oriented = underlying_oriented

    # -- component bookkeeping ------------------------------------------

    @property
    def total_components(self):
        return sum(self.components_per_color)

    @staticmethod
    def color_of(comp_id):
        return int(comp_id.split(".")[0])

    def lk(self, a, b):
        key = (a, b) if a < b else (b, a)
        return self.linking.get(key, 0)

    def lk_colors(self, i, j):
        """Total linking number between the sublinks of two colors: a sum
        over the ordered pairs of each linking record."""
        return sum(value for (a, b), value in self.linking.items() for pair in ((a, b), (b, a))
                   if (self.color_of(pair[0]), self.color_of(pair[1])) == (i, j))

    def linking_vector(self):
        """lk(L_1, L_j) for j = 2..mu."""
        return tuple(self.lk_colors(1, j) for j in range(2, self.mu + 1))

    def rest_key(self):
        return ",".join(str(j) for j in range(2, self.mu + 1))

    def rest_sublink(self):
        """Data for the link with color 1 removed, if stored."""
        return self.sublinks.get(self.rest_key())

    # -- serialization ---------------------------------------------------

    def to_document(self):
        doc = {
            "mu": self.mu,
            "components_per_color": list(self.components_per_color),
            "linking": [{"a": a, "b": b, "lk": v}
                        for (a, b), v in sorted(self.linking.items())],
            "seifert": self.seifert.to_document(),
        }
        if self.conway is not None:
            doc["conway"] = self.conway.to_document()
        if self.rank_alexander:
            doc["rank_alexander"] = self.rank_alexander
        if self.sublinks:
            doc["sublinks"] = {key: sub.to_document()
                               for key, sub in sorted(self.sublinks.items())}
        if self.underlying_oriented is not None:
            doc["underlying_oriented"] = self.underlying_oriented.to_document()
        return doc


def parse_link(document):
    """Validate a link document (parsed JSON) into a ColoredLink.

    Schema: {"mu": int, "components_per_color": [int], "linking":
    [{"a": id, "b": id, "lk": int}], "seifert": {"<+/- string>": [[int]]},
    "conway": rational function, "rank_alexander": int, "sublinks":
    {"<colors>": link}, "underlying_oriented": link}; component ids are
    "color.index" strings and all 2^mu sign-vector keys are required.  An
    error in a nested link names its key, as "sublinks[2]: ...".
    """
    if not isinstance(document, dict):
        raise SchemaError("link document must be an object")
    for field in ("mu", "components_per_color", "seifert"):
        if field not in document:
            raise SchemaError("link document is missing %r" % field)
    mu = document["mu"]
    if not isinstance(mu, int) or isinstance(mu, bool) or mu < 1:
        raise SchemaError("mu must be a positive integer")
    records, sublinks = document.get("linking", []), document.get("sublinks", {})
    if not isinstance(records, list):
        raise SchemaError("linking must be a list of records")
    if not isinstance(sublinks, dict):
        raise SchemaError("sublinks must be an object keyed by colors")
    linking = {}
    for rec in records:
        try:
            linking[(rec["a"], rec["b"])] = rec["lk"]
        except (TypeError, KeyError) as exc:
            raise SchemaError("bad linking record %r" % (rec,)) from exc
    conway = document.get("conway")
    if conway is not None:
        try:
            conway = RationalFunction.from_document(mu, conway)
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise SchemaError("conway: missing key or bad value: %s" % exc) from None
    sublinks = {key: _parse_nested("sublinks[%s]" % key, sub) for key, sub in sublinks.items()}
    underlying = document.get("underlying_oriented")
    if underlying is not None:
        underlying = _parse_nested("underlying_oriented", underlying)
    return ColoredLink(
        mu=mu,
        components_per_color=document["components_per_color"],
        linking=linking,
        seifert=SeifertSystem(mu, document["seifert"]),
        conway=conway,
        rank_alexander=document.get("rank_alexander", 0),
        sublinks=sublinks,
        underlying_oriented=underlying,
    )


def _parse_nested(where, document):
    """parse_link of a nested document, its SchemaError prefixed with ``where``."""
    try:
        return parse_link(document)
    except SchemaError as exc:
        raise type(exc)("%s: %s" % (where, exc)) from None


def load_link(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise SchemaError("%s is not a JSON document: %s" % (path, exc)) from None
    return parse_link(document)


def save_link(link, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(link.to_document(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the Hermitian form and its inertia ----------------------------------

# Points per stacked block are capped so that one (P, n, n) complex stack
# stays near this many bytes, however many points a sweep asks for.
_STACK_BYTES = 16 << 20


def _coefficients(omegas):
    """Rows prod_j (1 - conj(omega_j)^eps_j) over sign vectors with eps_1 = +.

    ``omegas`` has shape (P, mu); column k of the result belongs to the k-th
    such sign vector in :func:`sign_vectors` order.
    """
    # the factor pairs (1 - conj(omega_j), 1 - omega_j) of every coordinate,
    # filled in place: np.stack costs more than the products on small stacks
    pairs = np.empty(omegas.shape + (2,), dtype=complex)
    np.conjugate(omegas, out=pairs[:, :, 0])
    pairs[:, :, 1] = omegas
    pairs = 1.0 - pairs
    coeffs = pairs[:, 0, :1]
    for j in range(1, omegas.shape[1]):
        coeffs = (coeffs[:, :, None] * pairs[:, j, None, :]).reshape(len(omegas), 2 ** j)
    return coeffs


# Kept for bench/tracer.py, which wraps it; the package reads H through _path_forms.
def assemble_form_raw(link, point):
    """The Hermitian matrix at one torus point, as a raw complex array: the
    k = 0 path of :func:`_path_forms`.  At a boundary point the matrix
    simply degenerates."""
    return _path_forms(link, np.empty((1, 0)), [point.omega()])[0, 0]


def signature_nullity_batch(link, omegas, tol=DEFAULT_TOL):
    """Signatures and nullities at P interior points, as two int lists.

    ``omegas`` is a (P, mu) array of unit complex numbers; no coordinate may
    equal 1 (not checked here).  Each point is read as the k = 0 path of
    :func:`_path_limit_counts`, whose one coefficient is H.
    """
    counts = _path_limit_counts(link, np.empty((len(omegas), 0)), omegas, tol)
    return counts[:, 0].tolist(), counts[:, 2].tolist()


def signature_nullity(link, point, tol=DEFAULT_TOL):
    """Signature and nullity of the link at an interior torus point.

    An eigenvalue of H counts as zero when its magnitude is at most
    ``tol * max(1, ||H||)``.
    """
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    if not point.in_open_torus:
        raise BoundaryPoint(
            "coordinate(s) %r equal 1; the Seifert form degenerates there"
            % point.boundary_indices())
    sigmas, etas = signature_nullity_batch(link, [point.omega()], tol)
    return sigmas[0], etas[0]


# -- one-sided limits toward the boundary ----------------------------------

def _path_forms(link, signs, rest):
    """Coefficients F_0 .. F_k of the form along paths to the boundary, one
    family per row: a (P, k + 1, n, n) complex stack.

    Path p sends coordinates 1..k to 1 at angles signs[p, j] delta and holds
    the others at rest[p] (a (P, mu - k) array).  With t = tan(pi delta),
    H = prod_j (2 eps_j t / (1 + t^2)) F(t) for F = M + M^* and
    M = sum_{eta_1 = +} prod_{j <= k} (i eta_j + eps_j t)
    prod_{j > k} (1 - conj(omega_j)^eta_j) A^eta, a polynomial of degree k.
    A point is the path with k = 0: F_0 = H, Hermitian to the last bit.
    """
    count, k = signs.shape
    rest = np.asarray(rest, dtype=complex)
    if rest.shape == (0,):  # an empty point list
        rest = rest.reshape(0, link.mu - k)
    if rest.ndim != 2 or rest.shape[1] != link.mu - k:
        raise ValueError("points have %d coordinates, expected %d: %d colors, %d sent to 1"
                         % (rest.shape[-1], link.mu - k, link.mu, k))
    if k:  # omega_j = 0 makes the factors of the path coordinates 1
        rest = np.concatenate([np.zeros((count, k)), rest], axis=1)
    terms = _coefficients(rest)[:, None]  # index (p, degree, eta)
    if k:
        i_eta = 1j * np.array(sign_vectors(link.mu)[:len(link.seifert.half_stack)])
        terms = np.concatenate([terms, np.zeros((count, k, terms.shape[2]))], axis=1)
        for j in range(k):
            terms[:, 1:] = i_eta[:, j] * terms[:, 1:] + signs[:, j, None, None] * terms[:, :-1]
            terms[:, 0] *= i_eta[:, j]
    m = np.einsum("pde,eab->pdab", terms, link.seifert.half_stack)
    return m + m.conj().transpose(0, 1, 3, 2)


def _path_limit_counts(link, signs, rest, tol):
    """:func:`limit_counts` of the families of :func:`_path_forms`, each padded
    to the k n + 1 coefficients its descent may read, in blocks of about
    ``_STACK_BYTES``: an int (P, 3) array of sigma's limit as t -> 0+ and
    t -> 0-, and eta's."""
    k, n = signs.shape[1], max(link.seifert.n, 1)
    depth = k * n + 1  # det F(t) has degree at most k n
    block = max(1, _STACK_BYTES // (16 * depth * n * n))
    counts = []
    for start in range(0, max(len(signs), 1), block):
        family = _path_forms(link, signs[start:start + block], rest[start:start + block])
        if depth > k + 1:
            family = np.concatenate([family, np.zeros(
                (len(family), depth - k - 1) + family.shape[2:], dtype=complex)], axis=1)
        counts.append(limit_counts(family, tol))
    return np.concatenate(counts)


def rest_limit_counts(link, rest_omegas, tol=DEFAULT_TOL):
    """The limits as omega_1 -> 1 at rest points omega' (a (P, mu - 1) array):
    an int (P, 3) array of sigma's limit through angles 0+ ("plus") and 1-
    ("minus"), and eta's.  Both sides read one path family (k = 1): plus is
    lim sigma(F(t)) as t -> 0+, and minus is -lim sigma(F(t)) as t -> 0-."""
    limits = _path_limit_counts(link, np.ones((len(rest_omegas), 1)), rest_omegas, tol)
    limits[:, 1] *= -1
    return limits


def corner_limit_counts(link, tol=DEFAULT_TOL):
    """The limits with coordinate j at angle eps_j delta, delta -> 0+, per sign
    vector eps in :func:`sign_vectors` order: an int (2^mu, 2) array of
    sigma's limit and eta's.  One path family (k = mu) per eps with eps_1 = +
    gives the limit at eps as t -> 0+, times prod_j eps_j, and the one at
    -eps as t -> 0-, times (-1)^mu prod_j eps_j."""
    half = np.array(sign_vectors(link.mu)[:len(link.seifert.half_stack)])
    limits = _path_limit_counts(link, half, np.zeros((len(half), 0)), tol)
    sign = np.prod(half, axis=1)
    # sign vector 2^mu - 1 - i is the negation of sign vector i
    sigmas = np.concatenate([sign * limits[:, 0], ((-1) ** link.mu * sign * limits[:, 1])[::-1]])
    return np.stack([sigmas, np.concatenate([limits[:, 2], limits[::-1, 2]])], axis=1)


def linking_inertia(link, color_signs):
    """The exact inertia of the component-level linking matrix for reoriented
    colors: components inherit the sign of their color, off-diagonal entries
    are the sign-twisted linking numbers, and diagonal entries make every row
    sum to zero.  The matrix is built only over the components named in
    nonzero linking records: every other component's row and column are 0
    and add exactly 1 to the nullity."""
    color_signs = tuple(int(s) for s in color_signs)
    if len(color_signs) != link.mu or any(s not in (-1, 1) for s in color_signs):
        raise ValueError("need one sign (+1/-1) per color")
    named = sorted({comp for pair, value in link.linking.items() if value for comp in pair})
    position = {comp: i for i, comp in enumerate(named)}
    mat = [[0] * len(named) for _ in named]
    for (a, b), value in link.linking.items():
        if value:
            i, j = position[a], position[b]
            mat[i][j] = mat[j][i] = (color_signs[link.color_of(a) - 1]
                                     * color_signs[link.color_of(b) - 1] * value)
    for i, row in enumerate(mat):
        row[i] = -sum(row)
    ine = integer_inertia(mat)
    return ine._replace(n_zero=ine.n_zero + link.total_components - len(named))
