"""Colored links: generalized Seifert systems, linking data, sublinks.

A mu-colored link is described by the counts of components per color, the
pairwise linking numbers of its components, the 2^mu generalized Seifert
matrices of a C-complex basis, and optional Conway-function and sublink
data.  The Hermitian form at a torus point and its signature/nullity are
computed here.
"""

import itertools
import json

import numpy as np

from .angles import TorusPoint
from .errors import (BoundaryPoint, DimensionMismatch, SchemaError,
                     SymmetryViolation)
from .hermitian import DEFAULT_TOL, HermitianMatrix, inertia_counts
from .laurent import RationalFunction


def sign_vectors(mu):
    """All sign vectors in {+1, -1}^mu, in a fixed deterministic order."""
    return list(itertools.product((1, -1), repeat=mu))


def sign_key(eps):
    return "".join("+" if e > 0 else "-" for e in eps)


def key_signs(key):
    return tuple(1 if ch == "+" else -1 for ch in key)


def _as_integer_matrix(data, context):
    rows = list(data)
    n = len(rows)
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    mat = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n:
            raise DimensionMismatch("%s: row %d has length %d, expected %d"
                                    % (context, i, len(row), n))
        for j, value in enumerate(row):
            if isinstance(value, float) and not value.is_integer():
                raise SchemaError("%s: entry (%d, %d) is not an integer" % (context, i, j))
            mat[i, j] = int(value)
    return mat


class SeifertSystem:
    """The 2^mu generalized Seifert matrices of a C-complex basis.

    Validates that every sign vector is present, that all matrices share one
    size, and that the matrix at -eps is the transpose of the matrix at eps.
    """

    __slots__ = ("mu", "n", "matrices", "half_stack")

    def __init__(self, mu, matrices):
        self.mu = int(mu)
        if self.mu < 1:
            raise SchemaError("color count must be at least 1")
        parsed = {}
        n = None
        for eps in sign_vectors(self.mu):
            key = sign_key(eps)
            if key not in matrices:
                raise SchemaError("seifert: missing matrix for sign vector %r" % key)
            mat = _as_integer_matrix(matrices[key], "seifert[%s]" % key)
            if n is None:
                n = mat.shape[0]
            elif mat.shape[0] != n:
                raise DimensionMismatch("seifert[%s] is %dx%d, expected %dx%d"
                                        % (key, mat.shape[0], mat.shape[0], n, n))
            parsed[key] = mat
        extra = set(matrices) - set(parsed)
        if extra:
            raise SchemaError("seifert: unexpected keys %r" % sorted(extra))
        for eps in sign_vectors(self.mu):
            key = sign_key(eps)
            other = sign_key(tuple(-e for e in eps))
            if not np.array_equal(parsed[other], parsed[key].T):
                raise SymmetryViolation(
                    "seifert[%s] is not the transpose of seifert[%s]" % (other, key))
        self.n = n
        self.matrices = parsed
        # A^eps for eps_1 = +, in sign_vectors order: the other half of the
        # system is their transposes, so these determine the form.
        self.half_stack = np.array([parsed[sign_key(eps)] for eps in sign_vectors(self.mu)
                                    if eps[0] > 0], dtype=float)

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
        comps = [int(c) for c in components_per_color]
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
            if key in canon and canon[key] != int(value):
                raise SchemaError("conflicting linking numbers for %r" % (key,))
            canon[key] = int(value)
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
        self.rank_alexander = int(rank_alexander)
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
    if not isinstance(mu, int) or mu < 1:
        raise SchemaError("mu must be a positive integer")
    linking = {}
    for rec in document.get("linking", []):
        try:
            linking[(rec["a"], rec["b"])] = rec["lk"]
        except (TypeError, KeyError) as exc:
            raise SchemaError("bad linking record %r" % (rec,)) from exc
    conway = document.get("conway")
    if conway is not None:
        conway = RationalFunction.from_document(mu, conway)
    sublinks = {key: parse_link(sub)
                for key, sub in document.get("sublinks", {}).items()}
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
        return parse_link(json.load(fh))


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


def signature_nullity_batch(link, omegas, tol=DEFAULT_TOL, relative=False):
    """Signatures and nullities at P interior points, as two int lists.

    ``omegas`` is a (P, mu) array of unit complex numbers; no coordinate may
    equal 1 (not checked here).  Points are assembled and diagonalized in
    stacked blocks of at most about ``_STACK_BYTES``.  ``relative`` takes the
    zero cut relative to the norm of each form, see :func:`signature_nullity`.
    """
    omegas = np.asarray(omegas, dtype=complex)
    block = max(1, _STACK_BYTES // (16 * max(link.seifert.n, 1) ** 2))
    counts = np.concatenate(
        [inertia_counts(assemble_forms(link, omegas[start:start + block]), tol, relative)
         for start in range(0, max(len(omegas), 1), block)])
    return (counts[:, 0] - counts[:, 1]).tolist(), counts[:, 2].tolist()


def signature_nullity(link, point, tol=DEFAULT_TOL, relative=False):
    """Signature and nullity of the link at an interior torus point.

    The zero cut is ``tol * max(1, ||H||)``.  With ``relative`` it is
    ``tol * ||H||``: the form shrinks linearly as a coordinate approaches
    1, so a threshold floored at 1 eventually swallows its true eigenvalues,
    while a cut relative to the norm keeps the inertia of the degenerating
    family readable.  Inertia is scale-invariant, so the two agree wherever
    the norm is of order one.
    """
    if not isinstance(point, TorusPoint):
        point = TorusPoint(point)
    if not point.in_open_torus:
        raise BoundaryPoint(
            "coordinate(s) %r equal 1; the Seifert form degenerates there"
            % point.boundary_indices())
    sigmas, etas = signature_nullity_batch(link, [point.omega()], tol, relative)
    return sigmas[0], etas[0]


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

    Valid when every basis curve of the Seifert system crosses the first
    surface (true for the built-in families, whose stored sublink has an
    empty basis); the limit is then +/- i times the sign-difference sum over
    the remaining colors.
    """
    if rest_point.mu != link.mu - 1:
        raise ValueError("rest point needs %d coordinates" % (link.mu - 1))
    omegas = rest_point.omega()
    n = link.seifert.n
    form = np.zeros((n, n), dtype=complex)
    for eps_rest in sign_vectors(link.mu - 1):
        coeff = 1.0 + 0.0j
        for w, e in zip(omegas, eps_rest):
            coeff *= (1.0 - w.conjugate()) if e > 0 else (1.0 - w)
        diff = (link.seifert.matrix((1,) + eps_rest)
                - link.seifert.matrix((-1,) + eps_rest))
        form += coeff * diff
    sign = 1.0 if side > 0 else -1.0
    return HermitianMatrix(sign * 1j * form)
