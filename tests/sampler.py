"""Sampled one-sided limits: a test oracle for the exact descent.

The limit of the signature along a path to the boundary is read off the
forms at the offsets delta = 1/16, 1/32, ..., 1/2^20 of a geometric
schedule and at one far offset 2^-30.  Each form is divided by the size
of its terms, prod_j |1 - omega_j| * sum_eps ||A^eps|| (Frobenius norms),
which bounds its norm, and its eigenvalues are cut at 1e-9.  So a form
that is zero up to rounding reads as zero however small its terms are;
dividing by the form's own norm would lift that rounding to unit size.
The reading is kept only where it cannot mislead: the last four schedule
samples and the far one agree, and no sample on the whole path has an
eigenvalue within a factor 10^3 of the cut.  An eigenvalue that vanishes
to high order in delta at the boundary crosses that band somewhere on the
schedule, so it rules the path out instead of being cut to zero at the
tail.
"""

from fractions import Fraction

import numpy as np

from sigtorus.angles import angle_to_complex
from sigtorus.links import sign_vectors

TOL = 1e-9
MARGIN = 1e3
DELTAS = [Fraction(1, 16 * 2 ** m) for m in range(17)] + [Fraction(1, 2 ** 30)]
TAIL = 5  # the last four schedule samples and the far one


def path_rows(signs, fixed, deltas=DELTAS):
    """Unit complex points on the path: the leading coordinates at angle
    delta (sign +1) or 1 - delta (sign -1), then the ``fixed`` ones."""
    return [tuple(angle_to_complex(d if s > 0 else 1 - d) for s in signs) + tuple(fixed)
            for d in deltas]


def forms(link, rows):
    """H at each row of unit complex points, built apart from the package's
    path families: the sum over all 2^mu sign vectors eps of
    prod_j (1 - conj(omega_j)^eps_j) A^eps, stacked over the rows."""
    eps = np.array(sign_vectors(link.mu))
    omegas = np.asarray(rows, dtype=complex)[:, None, :]
    coeffs = np.prod(np.where(eps > 0, 1 - omegas.conj(), 1 - omegas), axis=2)
    mats = link.seifert.astype(float)
    form = np.einsum("pe,eab->pab", coeffs, mats)
    return (form + form.conj().transpose(0, 2, 1)) / 2


def sampled_limit(link, signs, fixed=()):
    """(sigma, eta) along the path, or None where the samples cannot be trusted."""
    rows = path_rows(signs, fixed)
    size = sum(float(np.linalg.norm(mat)) for mat in link.seifert)
    readings = []
    for row, form in zip(rows, forms(link, rows)):
        scale = size * float(np.prod(np.abs(1 - np.asarray(row))))
        eigs = np.linalg.eigvalsh(form / scale) if scale > 0 else np.zeros(len(form))
        mags = np.abs(eigs)
        if np.any((mags > TOL / MARGIN) & (mags < TOL * MARGIN)):
            return None
        plus, minus = int(np.sum(eigs > TOL)), int(np.sum(eigs < -TOL))
        readings.append((plus - minus, len(eigs) - plus - minus))
    tail = set(readings[-TAIL:])
    return tail.pop() if len(tail) == 1 else None
