"""Colored links: generalized Seifert systems, linking data, sublinks.

A mu-colored link is described by the counts of components per color, the
pairwise linking numbers of its components, the 2^mu generalized Seifert
matrices of a C-complex basis, and optional Conway-function and sublink
data.  The Hermitian form at a torus point and its signature/nullity are
computed here.
"""

import functools
import itertools
import json
import operator

import numpy as np

from .angles import TorusPoint
from .errors import (BoundaryPoint, DimensionMismatch, SchemaError,
                     SymmetryViolation)
from .hermitian import DEFAULT_TOL, HermitianMatrix, inertia_counts, limit_counts
from .laurent import RationalFunction, as_integer as _integer


def sign_vectors(mu):
    """All sign vectors in {+1, -1}^mu, in a fixed deterministic order."""
    return list(itertools.product((1, -1), repeat=mu))


def sign_key(eps):
    return "".join("+" if e > 0 else "-" for e in eps)


# A row whose entries are all exactly int (so no bool) needs no per-entry check.
_INT_ONLY = frozenset((int,))


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


def _component_ids(components_per_color):
    out = []
    for color, count in enumerate(components_per_color, start=1):
        out.extend("%d.%d" % (color, k) for k in range(1, count + 1))
    return out


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
        ids = set(_component_ids(comps))
        canon = {}
        for (a, b), value in dict(linking or {}).items():
            if a not in ids or b not in ids:
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
        if underlying_oriented is not None and underlying_oriented.mu != 1:
            raise SchemaError("underlying_oriented must be 1-colored")
        self.underlying_oriented = underlying_oriented

    # -- component bookkeeping ------------------------------------------

    def component_ids(self):
        return _component_ids(self.components_per_color)

    def components_of_color(self, color):
        count = self.components_per_color[color - 1]
        return ["%d.%d" % (color, k) for k in range(1, count + 1)]

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
        """Total linking number between the sublinks of two colors."""
        return sum(self.lk(a, b)
                   for a in self.components_of_color(i)
                   for b in self.components_of_color(j))

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
    "color.index" strings and all 2^mu sign-vector keys are required.
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
    sublinks = {key: parse_link(sub) for key, sub in sublinks.items()}
    underlying = document.get("underlying_oriented")
    if underlying is not None:
        underlying = parse_link(underlying)
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
    plus = 1.0 - omegas.conj()
    minus = 1.0 - omegas
    coeffs = plus[:, :1]
    for j in range(1, omegas.shape[1]):
        pair = np.stack([plus[:, j], minus[:, j]], axis=1)
        coeffs = (coeffs[:, :, None] * pair[:, None, :]).reshape(len(omegas), 2 ** j)
    return coeffs


def assemble_forms(link, omegas):
    """The forms H at P points as a (P, n, n) complex stack.

    ``omegas`` is a (P, mu) array of unit complex numbers.  With M the sum
    over sign vectors with eps_1 = +, H = M + M^* is Hermitian to the last
    bit, not merely up to rounding.  Defined for every torus point; at
    boundary points the matrix simply degenerates.
    """
    omegas = np.asarray(omegas, dtype=complex)
    if omegas.ndim != 2 or omegas.shape[1] != link.mu:
        raise ValueError("points have %d coordinates, link has %d colors"
                         % (omegas.shape[-1], link.mu))
    m = np.einsum("pk,kab->pab", _coefficients(omegas), link.seifert.half_stack)
    return m + m.conj().transpose(0, 2, 1)


def assemble_form_raw(link, point):
    """The Hermitian matrix at one torus point, as a raw complex array."""
    return assemble_forms(link, [point.omega()])[0]


def form_at(link, point):
    return HermitianMatrix(assemble_form_raw(link, point))


def _by_blocks(counts, rows, row_bytes):
    """``counts`` over blocks of ``rows`` of about ``_STACK_BYTES``, concatenated."""
    block = max(1, _STACK_BYTES // row_bytes)
    return np.concatenate([counts(rows[start:start + block])
                           for start in range(0, max(len(rows), 1), block)])


def signature_nullity_batch(link, omegas, tol=DEFAULT_TOL):
    """Signatures and nullities at P interior points, as two int lists.

    ``omegas`` is a (P, mu) array of unit complex numbers; no coordinate may
    equal 1 (not checked here).  Points are assembled and diagonalized in
    stacked blocks of at most about ``_STACK_BYTES``.
    """
    omegas = np.asarray(omegas, dtype=complex)
    if omegas.shape == (0,):  # an empty point list
        omegas = omegas.reshape(0, link.mu)
    counts = _by_blocks(lambda rows: inertia_counts(assemble_forms(link, rows), tol),
                        omegas, 16 * max(link.seifert.n, 1) ** 2)
    return (counts[:, 0] - counts[:, 1]).tolist(), counts[:, 2].tolist()


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

def _pencils(link, rest_omegas):
    """P = i (M - M^*) and Q = M + M^* at rest points omega' (a (P, mu - 1)
    array), M = sum_eps' c_eps'(omega') A^(+, eps'): for theta in (0, 1),
    H(e^(2 pi i theta), omega') = sin(2 pi theta) (P + tan(pi theta) Q)."""
    rest = np.asarray(rest_omegas, dtype=complex)
    origin = np.zeros((len(rest), 1))  # omega_1 = 0 makes the first factor 1
    m = np.einsum("pk,kab->pab", _coefficients(np.concatenate([origin, rest], axis=1)),
                  link.seifert.half_stack)
    m_star = m.conj().transpose(0, 2, 1)
    return 1j * (m - m_star), m + m_star


def rest_limit_counts(link, rest_omegas, tol=DEFAULT_TOL):
    """The limits as omega_1 -> 1 at rest points omega' (a (P, mu - 1) array):
    an int (P, 3) array of sigma's limit through angles 0+ ("plus") and 1-
    ("minus"), and eta's.  With t = tan(pi theta), plus is lim sigma(P + t Q)
    as t -> 0+, and minus is -lim sigma(P + t Q) as t -> 0-."""
    n = link.seifert.n
    depth = max(n, 1) + 1  # det(P + t Q) has degree at most n

    def counts(rows):
        family = np.zeros((len(rows), depth, n, n), dtype=complex)
        family[:, 0], family[:, 1] = _pencils(link, rows)
        return limit_counts(family, tol)

    limits = _by_blocks(counts, rest_omegas, 16 * depth * max(n, 1) ** 2)
    limits[:, 1] *= -1
    return limits


def corner_limit_counts(link, tol=DEFAULT_TOL):
    """The limits with coordinate j at angle eps_j delta, delta -> 0+, per sign
    vector eps in :func:`sign_vectors` order: an int (2^mu, 2) array of
    sigma's limit and eta's.  On the path H = (2 sin(pi delta))^mu (prod eps_j)
    G(delta), G(delta) = sum_eta (prod_j i eta_j) e^(-i pi delta (eta . eps)) A^eta;
    z^mu G is a matrix polynomial of degree 2 mu in z = e^(-i pi delta), so
    2 mu n + 1 Taylor coefficients of G settle the descent."""
    half = np.array([eps for eps in sign_vectors(link.mu) if eps[0] > 0])
    signs = np.array(sign_vectors(link.mu))
    depth = 2 * link.mu * link.seifert.n + 1

    def counts(rows):
        step = -1j * np.pi * (rows @ half.T)
        terms = np.empty((len(rows), depth, len(half)), dtype=complex)
        terms[:, 0] = np.prod(1j * half, axis=1)
        for k in range(1, depth):
            terms[:, k] = terms[:, k - 1] * step / k
        m = np.einsum("cke,eab->ckab", terms, link.seifert.half_stack)
        return limit_counts(m + m.conj().transpose(0, 1, 3, 2), tol)

    limits = _by_blocks(counts, signs, 16 * depth * max(link.seifert.n, 1) ** 2)
    return np.stack([np.prod(signs, axis=1) * limits[:, 0], limits[:, 2]], axis=1)


def linking_matrix(link, color_signs):
    """The component-level linking matrix for reoriented colors.

    ``color_signs`` has one sign per color; components inherit the sign of
    their color.  Off-diagonal entries are the sign-twisted linking numbers,
    diagonal entries make every row sum to zero.
    """
    color_signs = tuple(int(s) for s in color_signs)
    if len(color_signs) != link.mu or any(s not in (-1, 1) for s in color_signs):
        raise ValueError("need one sign (+1/-1) per color")
    ids = link.component_ids()
    signs = [color_signs[link.color_of(cid) - 1] for cid in ids]
    m = len(ids)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        total = 0
        for j in range(m):
            if i == j:
                continue
            v = signs[i] * signs[j] * link.lk(ids[i], ids[j])
            mat[i][j] = v
            total += v
        mat[i][i] = -total
    return mat


def boundary_limit_form(link, rest_point, side=1):
    """One-sided limit of H(omega_1, rest) / |1 - omega_1| as omega_1 -> 1.

    This is ``side`` times P of :func:`_pencils`.  Valid when every basis
    curve of the Seifert system crosses the first surface (true for the
    built-in families, whose stored sublink has an empty basis).
    """
    if rest_point.mu != link.mu - 1:
        raise ValueError("rest point needs %d coordinates" % (link.mu - 1))
    p, _ = _pencils(link, [rest_point.omega()])
    return HermitianMatrix((1.0 if side > 0 else -1.0) * p[0])
