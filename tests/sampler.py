"""Sampled one-sided limits: a test oracle for the exact descent.

The limit of the signature along a path to the boundary is read off the
forms at the offsets delta = 1/16, 1/32, ..., 1/2^20 of a geometric
schedule and at one far offset 2^-30.  Each form is divided by its
Frobenius norm and its eigenvalues are cut at 1e-9.  The reading is kept
only where it cannot mislead: the last four schedule samples and the far
one agree, and no sample on the whole path has an eigenvalue within a
factor 10^3 of the cut.  An eigenvalue that vanishes to high order in
delta at the boundary crosses that band somewhere on the schedule, so it
rules the path out instead of being cut to zero at the tail.
"""

from fractions import Fraction

import numpy as np

from sigtorus.angles import angle_to_complex
from sigtorus.links import assemble_forms

TOL = 1e-9
MARGIN = 1e3
DELTAS = [Fraction(1, 16 * 2 ** m) for m in range(17)] + [Fraction(1, 2 ** 30)]
TAIL = 5  # the last four schedule samples and the far one


def path_rows(signs, fixed, deltas=DELTAS):
    """Unit complex points on the path: the leading coordinates at angle
    delta (sign +1) or 1 - delta (sign -1), then the ``fixed`` ones."""
    return [tuple(angle_to_complex(d if s > 0 else 1 - d) for s in signs) + tuple(fixed)
            for d in deltas]


def sampled_limit(link, signs, fixed=()):
    """(sigma, eta) along the path, or None where the samples cannot be trusted."""
    readings = []
    for form in assemble_forms(link, path_rows(signs, fixed)):
        norm = float(np.linalg.norm(form))
        eigs = np.linalg.eigvalsh(form / norm) if norm > 0 else np.zeros(len(form))
        mags = np.abs(eigs)
        if np.any((mags > TOL / MARGIN) & (mags < TOL * MARGIN)):
            return None
        plus, minus = int(np.sum(eigs > TOL)), int(np.sum(eigs < -TOL))
        readings.append((plus - minus, len(eigs) - plus - minus))
    tail = set(readings[-TAIL:])
    return tail.pop() if len(tail) == 1 else None
