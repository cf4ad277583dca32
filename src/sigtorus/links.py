"""Colored links: generalized Seifert systems, linking data, sublinks.

A mu-colored link is described by the counts of components per color, the
pairwise linking numbers of its components, the 2^mu generalized Seifert
matrices of a C-complex basis, and optional Conway-function and sublink
data.  Points and one-sided limits toward the boundary read one path
family: along a path sending coordinates 1..k to 1 at angles eps_j delta,
the form is H = prod_j (2 eps_j t / (1 + t^2)) F(t) for a matrix
polynomial F(t) of degree k in t = tan(pi delta), F(-t) is the path of
-eps, and k n + 1 levels of :func:`sigtorus.hermitian.limit_counts`
settle it.  A point is the path with k = 0, a rest limit has k = 1 and a
corner k = mu.
"""

import functools
import itertools
import json
import operator

import numpy as np

from .angles import TorusPoint
from .errors import (BoundaryPoint, DimensionMismatch, SchemaError,
                     SymmetryViolation)
from .hermitian import integer_inertia, limit_counts
from .laurent import _INT_ONLY, RationalFunction, as_integer as _integer, as_rational


def sign_vectors(mu):
    """All sign vectors in {+1, -1}^mu, in a fixed deterministic order."""
    return list(itertools.product((1, -1), repeat=mu))


def sign_key(eps):
    return "".join("+" if e > 0 else "-" for e in eps)


@functools.lru_cache(maxsize=8)
def _layout(mu):
    """The sign keys of ``mu`` colors in :func:`sign_vectors` order, as a
    tuple, as a frozenset and as a getter of a document's values in that
    order, then the first half of the sign vectors, those with eps_1 = +,
    as a read-only int array and the read-only table of its entries < 0.
    Index 2^mu - 1 - i holds the negation of sign vector i.
    """
    vectors = sign_vectors(mu)
    keys = tuple(map(sign_key, vectors))
    half = np.array(vectors[:len(vectors) // 2])
    negative = half < 0
    half.flags.writeable = negative.flags.writeable = False
    return keys, frozenset(keys), operator.itemgetter(*keys), half, negative


# The matrix and row types of _seifert_stack's fast path, all accepted by _integer_rows
_LISTS = frozenset((list, tuple))


def _integer_rows(data, context):
    """One Seifert matrix as square lists of ints; the matrix and each row
    are lists, tuples or numpy arrays, and a numpy row is read whole by
    ``tolist``.  Rows not all exactly int are read entry by entry; errors
    name ``context`` and the failing row or entry."""
    arrays = (list, tuple, np.ndarray)
    try:
        if not isinstance(data, arrays) or not all(isinstance(row, arrays) for row in data):
            raise TypeError  # an object or a string iterates too
        rows = [row.tolist() if isinstance(row, np.ndarray) and row.ndim else list(row)
                for row in data]  # list() refuses a 0-d array row
    except TypeError:  # also a numpy scalar
        raise SchemaError("%s must be a list of rows" % context) from None
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise DimensionMismatch("%s: row %d has length %d, expected %d"
                                    % (context, i, len(row), len(rows)))
        if not _INT_ONLY.issuperset(map(type, row)):
            rows[i] = [_integer(v, "%s: entry (%d, %d)", context, i, j)
                       for j, v in enumerate(row)]
    return rows


def _seifert_stack(mu, matrices):
    """A ``seifert`` object as the int64 (2^mu, n, n) stack in
    :func:`sign_vectors` order.  After the key count and the key set, the
    fast path is one type scan over the matrices and rows, which must be
    lists or tuples, and one over every entry, then one ``np.array`` and its
    reshape to n x n, n the first matrix's row count.  Where any of them
    fails, the same matrices go to the reader that names defects: matrix by
    matrix in key order, :func:`_integer_rows`, the size the first matrix
    sets, then the 64-bit bound.  One transpose comparison closes both.
    """
    if not isinstance(matrices, dict):
        raise SchemaError("seifert must be an object keyed by sign vectors")
    # Fewer than 2^(mu - 1) keys, in O(1) for any mu; past this check the
    # 2^mu sign keys are at most twice as many as the keys given.
    if len(matrices).bit_length() < mu:
        raise SchemaError("seifert has %d matrices, mu = %d needs 2^%d"
                          % (len(matrices), mu, mu))
    keys, key_set, values = _layout(mu)[:3]
    if matrices.keys() != key_set:
        for key in keys:
            if key not in matrices:
                raise SchemaError("seifert: missing matrix for sign vector %r" % key)
        raise SchemaError("seifert: unexpected keys %r" % sorted(set(matrices) - key_set))
    mats, stack = values(matrices), None
    try:
        rows = list(itertools.chain.from_iterable(mats))
        if _LISTS.issuperset(map(type, mats)) and _LISTS.issuperset(map(type, rows)) \
                and _INT_ONLY.issuperset(map(type, itertools.chain.from_iterable(rows))):
            n = len(mats[0])
            stack = np.array(mats, dtype=np.int64).reshape(len(keys), n, n)
    except (TypeError, ValueError, OverflowError):  # not arrays, ragged, not square, 64 bits
        pass
    if stack is None:
        for k, (key, mat) in enumerate(zip(keys, mats)):
            context = "seifert[%s]" % key
            rows = _integer_rows(mat, context)
            if k == 0:
                stack = np.empty((len(keys), len(rows), len(rows)), dtype=np.int64)
            elif len(rows) != stack.shape[1]:
                raise DimensionMismatch("%s is %dx%d, expected %dx%d" % (
                    context, len(rows), len(rows), stack.shape[1], stack.shape[1]))
            try:
                stack[k] = rows
            except OverflowError:
                raise SchemaError("%s has an entry beyond 64 bits" % context) from None
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
    defect.  ``stack`` is the validated int64 (2^mu, n, n) stack in
    :func:`sign_vectors` order, and nothing derived from it is kept.
    """

    __slots__ = ("mu", "n", "stack")

    def __init__(self, mu, matrices):
        self.mu = _integer(mu, "color count %r", mu)
        if self.mu < 1:
            raise SchemaError("color count must be at least 1")
        self.stack = _seifert_stack(self.mu, matrices)
        self.n = self.stack.shape[1]

    def matrix(self, eps):
        return self.stack[_layout(self.mu)[0].index(sign_key(eps))]

    def to_document(self):
        return dict(sorted(zip(_layout(self.mu)[0], self.stack.tolist())))


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
        self.mu = _integer(mu, "color count %r", mu)
        try:
            comps = [_integer(c, "components_per_color") for c in components_per_color]
        except TypeError:  # not a list
            comps = []
        if len(comps) != self.mu or any(c < 1 for c in comps):
            raise SchemaError("components_per_color must list a positive count per color")
        self.components_per_color = tuple(comps)
        canon = {}
        # a mapping or a list of ((a, b), lk) records: a file's list keeps each
        # record, so that two values for one pair are refused in either order
        records = linking.items() if isinstance(linking, dict) else linking or ()
        for (a, b), value in records:
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
        if conway is not None:
            conway = as_rational(conway)
            if conway.nvars != self.mu:
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
    mu = _integer(document["mu"], "mu %r", document["mu"])
    if mu < 1:
        raise SchemaError("mu must be a positive integer")
    records, sublinks = document.get("linking", []), document.get("sublinks", {})
    if not isinstance(records, list):
        raise SchemaError("linking must be a list of records")
    if not isinstance(sublinks, dict):
        raise SchemaError("sublinks must be an object keyed by colors")
    linking = []
    for rec in records:
        try:
            linking.append(((rec["a"], rec["b"]), rec["lk"]))
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise SchemaError("%s is not a JSON document: %s" % (path, exc)) from None
        return parse_link(document)
    except RecursionError:
        raise SchemaError("%s nests too deeply to read" % path) from None


def save_link(link, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(link.to_document(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the Hermitian form and its inertia ----------------------------------

# Points per stacked block are capped so that one (P, n, n) complex stack
# stays near this many bytes, however many points a sweep asks for.
_STACK_BYTES = 16 << 20


# Kept for bench/tracer.py, which wraps it; the package reads H through _path_forms.
def assemble_form_raw(link, point):
    """The Hermitian matrix at one torus point, as a raw complex array: the
    k = 0 path of :func:`_path_forms`.  At a boundary point the matrix
    simply degenerates."""
    return _path_forms(link, np.empty((1, 0)), [point.omega()])[0, 0]


def signature_nullity_batch(link, omegas):
    """Signatures and nullities at P interior points, as two int lists.

    ``omegas`` is a (P, mu) array of unit complex numbers; no coordinate may
    equal 1 (not checked here), and a NaN or infinite one raises ValueError.
    Each point is read as the k = 0 path of :func:`_path_limit_counts`, whose
    one coefficient is H.
    """
    counts = _path_limit_counts(link, np.empty((len(omegas), 0)), omegas)
    return counts[:, 0].tolist(), counts[:, 2].tolist()


def signature_nullity(link, point):
    """Signature and nullity of the link at an interior torus point.

    An eigenvalue of H counts as zero when its magnitude is at most the cut
    ``ZERO_CUT * max(1, ||H||)`` of :mod:`sigtorus.hermitian`.
    """
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    if not point.in_open_torus:
        raise BoundaryPoint(
            "coordinate(s) %r equal 1; the Seifert form degenerates there"
            % point.boundary_indices())
    sigmas, etas = signature_nullity_batch(link, [point.omega()])
    return sigmas[0], etas[0]


# -- one-sided limits toward the boundary ----------------------------------

def _path_forms(link, signs, rest):
    """Coefficients F_0 .. F_k of the form along paths to the boundary, one
    family per row: a (P, k + 1, n, n) complex stack.

    Path p sends coordinates 1..k to 1 at angles signs[p, j] delta and holds
    the others at rest[p] (a (P, mu - k) array).  With t = tan(pi delta),
    H = prod_j (2 eps_j t / (1 + t^2)) F(t) for F = M + M^* and
    M = sum_{eta_1 = +} prod_{j > k} (1 - conj(omega_j)^eta_j)
    prod_{j <= k} (i eta_j + eps_j t) A^eta, a polynomial of degree k.
    A point is the path with k = 0: F_0 = H, Hermitian to the last bit.  The
    A^eta with eta_1 = + are the Seifert stack's first half, which the
    contraction casts to complex exactly.
    """
    count, k = signs.shape
    rest = np.asarray(rest, dtype=complex).reshape(count, link.mu - k)
    eta, negative = _layout(link.mu)[3:]
    # the factors 1 - conj(omega_j)^eta_j of the held coordinates, index (p, eta, j)
    held = 1.0 - np.where(negative[:, k:], rest[:, None], rest.conj()[:, None])
    terms = np.zeros((count, k + 1, len(eta)), dtype=complex)  # index (p, degree, eta)
    terms[:, 0] = 1.0
    # held factors first, then path factors: the order of the products fixes H's last bits
    for j in range(link.mu - k):
        terms[:, 0] *= held[:, :, j]
    for j in range(k):  # a path coordinate multiplies in i eta_j + eps_j t
        i_eta = 1j * eta[:, j]
        terms[:, 1:] = i_eta * terms[:, 1:] + signs[:, j, None, None] * terms[:, :-1]
        terms[:, 0] *= i_eta
    m = np.einsum("pde,eab->pdab", terms, link.seifert.stack[:len(eta)])
    return m + m.conj().transpose(0, 1, 3, 2)


def _path_limit_counts(link, signs, rest):
    """The limits of sigma(H) along the paths of :func:`_path_forms`, read by
    :func:`limit_counts` from F padded to the k n + 1 coefficients its descent
    may read, in blocks of about ``_STACK_BYTES``: an int (P, 3) array of
    sigma's limit as t -> 0+ and t -> 0-, and eta's."""
    k, n = signs.shape[1], link.seifert.n
    rest = np.asarray(rest, dtype=complex)
    if rest.shape == (0,):  # an empty point list
        rest = rest.reshape(0, link.mu - k)
    if rest.ndim != 2 or rest.shape[1] != link.mu - k:
        raise ValueError("points have %d coordinates, expected %d: %d colors, %d sent to 1"
                         % (rest.shape[-1], link.mu - k, link.mu, k))
    if not np.isfinite(rest).all():  # a NaN eigenvalue would pass as a zero one
        raise ValueError("points have a coordinate that is not finite")
    depth = k * n + 1  # det F(t) has degree at most k n
    block = max(1, _STACK_BYTES // (16 * depth * max(n, 1) ** 2))
    counts = []
    for start in range(0, max(len(signs), 1), block):
        family = _path_forms(link, signs[start:start + block], rest[start:start + block])
        if depth > k + 1:
            family = np.concatenate([family, np.zeros(
                (len(family), depth - k - 1) + family.shape[2:], dtype=complex)], axis=1)
        counts.append(limit_counts(family))
    counts = np.concatenate(counts)
    if k:  # sigma(H) is sigma(F) times the sign of prod_j 2 eps_j t / (1 + t^2):
        # prod_j eps_j for t > 0 and (-1)^k prod_j eps_j for t < 0
        counts[:, :2] *= np.prod(signs, axis=1).astype(np.int64)[:, None] * [1, (-1) ** k]
    return counts


def rest_limit_counts(link, rest_omegas):
    """The limits as omega_1 -> 1 at rest points omega' (a (P, mu - 1) array):
    an int (P, 3) array of sigma's limit through angles 0+ ("plus") and 1-
    ("minus"), and eta's.  Both sides read one path family (k = 1, eps_1 = +):
    plus is its limit as t -> 0+, and minus its limit as t -> 0-."""
    return _path_limit_counts(link, np.ones((len(rest_omegas), 1)), rest_omegas)


def corner_limit_counts(link):
    """The limits with coordinate j at angle eps_j delta, delta -> 0+, per sign
    vector eps in :func:`sign_vectors` order: an int (2^mu, 2) array of
    sigma's limit and eta's.  One path family (k = mu) per eps with eps_1 = +
    gives the limit at eps as t -> 0+ and the one at -eps as t -> 0-."""
    half = _layout(link.mu)[3]
    limits = _path_limit_counts(link, half, np.zeros((len(half), 0)))
    # sign vector 2^mu - 1 - i is the negation of sign vector i
    return np.concatenate([limits[:, [0, 2]], limits[::-1, [1, 2]]])


def linking_inertia(link, color_signs):
    """The exact inertia of the component-level linking matrix for reoriented
    colors: components inherit the sign of their color, off-diagonal entries
    are the sign-twisted linking numbers, and diagonal entries make every row
    sum to zero.  The matrix is built only over the components named in
    nonzero linking records: every other component's row and column are 0
    and add exactly 1 to the nullity."""
    color_signs = tuple(_integer(s, "color sign %r", s) for s in color_signs)
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
