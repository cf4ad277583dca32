"""Inertia of Hermitian matrices.

Two backends: a floating-point one for complex Hermitian matrices (LAPACK
``eigvalsh``, stacked over points so that one call counts the inertia of
many matrices) and an exact one for integer symmetric matrices (congruence
elimination over rationals, no tolerances involved).  One-sided limits of
the inertia of analytic families descend on their Taylor coefficients; a
point is the family with one coefficient.  So one zero rule serves points
and limits alike: an eigenvalue of a matrix H is zero when
|lambda| <= tol * max(1, ||H||), at every level of a descent.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9


class Inertia(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self):
        return self.n_plus - self.n_minus

    @property
    def nullity(self):
        return self.n_zero


# Kept for bench/tracer.py, which wraps its constructor; the package builds none.
class HermitianMatrix:
    """A complex Hermitian matrix; symmetrized on construction.

    Construction rejects matrices whose conjugate-transpose defect exceeds
    1e-12 in absolute value.  The 0x0 matrix is valid.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.size == 0:
            a = a.reshape(0, 0)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix, got shape %r" % (a.shape,))
        if a.size and float(np.max(np.abs(a - a.conj().T))) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        self.entries = (a + a.conj().T) / 2.0

    @property
    def n(self):
        return self.entries.shape[0]

    def __repr__(self):
        return "HermitianMatrix(n=%d)" % self.n


def inertia_counts(stack, tol=DEFAULT_TOL):
    """Per-matrix counts (n_plus, n_minus, n_zero) of a (P, n, n) stack.

    The matrices must be Hermitian; LAPACK ``eigvalsh`` reads only their
    lower triangles.  An eigenvalue counts as zero when its magnitude is at
    most the cut ``tol * max(1, ||H||)`` (Frobenius norm), 0 < tol < 1.
    Returns an integer array of shape (P, 3).
    """
    # |lambda| <= ||H||, so a tol of 1 or more would make every eigenvalue zero
    if not 0 < tol < 1:
        raise ValueError("tol must be a number in (0, 1), got %r" % (tol,))
    stack = np.asarray(stack)
    count, n = stack.shape[0], stack.shape[-1]
    if count == 0 or n == 0:
        return np.zeros((count, 3), dtype=np.int64)
    if stack.dtype.kind in "biu":  # squares of int64 entries would wrap
        stack = stack.astype(float)
    eigs = np.linalg.eigvalsh(stack)
    # the operations of np.linalg.norm's Frobenius branch, without its dispatch
    norms = np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(1, 2)))
    cuts = (tol * np.maximum(norms, 1.0))[:, None]
    counts = np.empty((count, 3), dtype=np.int64)
    (eigs > cuts).sum(1, out=counts[:, 0])
    (eigs < -cuts).sum(1, out=counts[:, 1])
    counts[:, 2] = n - counts[:, 0] - counts[:, 1]
    return counts


_LEVEL = np.array([[1, 1, 0], [-1, -1, 0], [0, 0, 1]])  # inertia -> (sigma, sigma, eta)


def limit_counts(coefficients, tol=DEFAULT_TOL):
    """One-sided limits at t = 0 of the inertia of analytic Hermitian families.

    ``coefficients`` is a (P, D, n, n) stack of Taylor coefficients F_0 ..
    F_{D-1} of F(t) = sum_k t^k F_k.  Returns an int (P, 3) array: sigma(F(t))
    as t -> 0+ and as t -> 0-, and the nullity of F(t) for small t != 0.  On
    a path family of :mod:`sigtorus.links` (F of degree k in t = tan(pi delta))
    t -> 0- reads the path with the opposite signs.

    Level k counts the inertia of the current F_0 with :func:`inertia_counts`,
    whose cut |lambda| <= tol * max(1, ||F_0||) is the only zero rule here:
    no family is rescaled, so a one-coefficient family counts exactly as
    :func:`inertia_counts` does.  The level adds F_0's signature to the
    t -> 0+ limit and (-1)^k times it to the t -> 0- one, and passes to
    S(t) / t, S the Schur complement of F(t) onto ker F_0 (Rellich; Kato,
    ch. II).  A level takes one coefficient: if det F(t) has order r at 0
    (r <= k n for F of degree k), r + 1 levels settle it.  What is left in
    the kernel when the coefficients run out is the nullity.
    """
    family = np.asarray(coefficients, dtype=complex)
    ine = inertia_counts(family[:, 0], tol)
    counts = ine @ _LEVEL
    if family.shape[1] == 1:
        return counts
    minus, kernel = ine[:, 1], ine[:, 2]
    # families with the same kernel dimension descend together
    for size in sorted(set(kernel.tolist()) - {0}):
        rows = np.flatnonzero(kernel == size)
        # where F_0 = 0, S(t) / t is F(t) / t
        deeper = limit_counts(family[rows, 1:] if size == family.shape[-1]
                              else _schur_series(family[rows], size, minus[rows]), tol)
        counts[rows, 0] += deeper[:, 0]
        counts[rows, 1] -= deeper[:, 1]
        counts[rows, 2] = deeper[:, 2]
    return counts


def _schur_series(family, size, minus):
    """Taylor coefficients of S(t) / t, one fewer than F's, for S the Schur
    complement of F(t) onto the ``size``-dimensional kernel of F_0, which has
    ``minus`` negative eigenvalues.  In an eigenbasis of F_0, kernel first,
    F(t) = [[A, B], [B^*, C]] with A(0) = B(0) = 0 and C(0) = E diagonal;
    S = A - B W, and C W = B^* is solved for W one power of t at a time.
    """
    eigs, vecs = np.linalg.eigh(family[:, 0])
    # rotate the ascending order so that the kernel comes first
    rows = np.arange(len(family))[:, None]
    order = (np.arange(family.shape[-1]) + minus[:, None]) % family.shape[-1]
    basis = vecs[rows, :, order]  # row k: the k-th eigenvector
    inverse = 1.0 / eigs[rows, order][:, size:, None]
    # index j holds the coefficient of t^(j+1)
    rot = np.einsum("pab,pjbc->pjac", basis.conj(),
                    np.einsum("pjab,pcb->pjac", family[:, 1:], basis))
    a, b = rot[:, :, :size, :size], rot[:, :, :size, size:]
    b_star, c = rot[:, :, size:, :size], rot[:, :, size:, size:]
    out, w = np.empty_like(a), np.empty_like(b_star)
    for j in range(rot.shape[1]):
        earlier = w[:, :j][:, ::-1]
        out[:, j] = a[:, j] - np.einsum("pjab,pjbc->pac", b[:, :j], earlier)
        w[:, j] = inverse * (b_star[:, j] - np.einsum("pjab,pjbc->pac", c[:, :j], earlier))
    return (out + out.conj().transpose(0, 1, 3, 2)) / 2


# Kept for bench/tracer.py, which wraps it; the package counts with inertia_counts.
def inertia(h, tol=DEFAULT_TOL):
    """Counts of positive, negative, and zero eigenvalues of one matrix.

    An eigenvalue counts as zero when its magnitude is at most
    ``tol * max(1, ||H||)`` (Frobenius norm).
    """
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    return Inertia(*inertia_counts(h.entries[None], tol)[0].tolist())


# Kept only as a name: bench/tracer.py wraps ``hermitian.jacobi_eigenvalues``
# as a span target.  The Jacobi solver is gone; LAPACK is the one backend.
jacobi_eigenvalues = np.linalg.eigvalsh


def integer_inertia(matrix):
    """Exact inertia of a symmetric integer matrix.

    Symmetric Gaussian elimination over rationals: any nonzero diagonal
    entry serves as a pivot; when all active diagonal entries vanish, a
    nonzero off-diagonal entry gives a hyperbolic 2x2 block contributing
    (1, 1, 0).  No tolerance is involved.
    """
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")

    s = rows
    active = list(range(n))
    plus = minus = zero = 0
    while active:
        pivot = next((i for i in active if s[i][i] != 0), None)
        if pivot is not None:
            d = s[pivot][pivot]
            if d > 0:
                plus += 1
            else:
                minus += 1
            active.remove(pivot)
            piv_row = s[pivot]
            coupling = {i: s[i][pivot] for i in active}
            for i in active:
                if coupling[i] == 0:
                    continue
                f = coupling[i] / d
                row = s[i]
                for j in active:
                    row[j] -= f * piv_row[j]
            continue

        pair = None
        for idx, i in enumerate(active):
            for j in active[idx + 1:]:
                if s[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        b = s[i][j]
        plus += 1
        minus += 1
        active.remove(i)
        active.remove(j)
        row_i = list(s[i])
        row_j = list(s[j])
        alpha = {r: s[r][i] for r in active}
        beta = {r: s[r][j] for r in active}
        for r in active:
            fb = beta[r] / b
            fa = alpha[r] / b
            if fb == 0 and fa == 0:
                continue
            row = s[r]
            for c in active:
                row[c] -= fb * row_i[c] + fa * row_j[c]
    return Inertia(plus, minus, zero)
