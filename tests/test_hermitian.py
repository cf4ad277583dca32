import cmath
import math

import numpy as np
import pytest

from sigtorus.errors import SingularMatrix
from sigtorus.hermitian import (HermitianMatrix, Inertia,
                                conjugate_inertia_check, inertia,
                                inertia_counts, integer_inertia)


def test_diagonal_inertia():
    assert inertia(HermitianMatrix(np.diag([2.0, -3.0, 0.0]))) == Inertia(1, 1, 1)


def test_positive_scalar():
    # the twist-link form at (i, -1) with two full twists: 2*|1-i|^2*|1+1|^2
    assert inertia(HermitianMatrix([[16.0]])) == Inertia(1, 0, 0)


def test_torus_node_matrix():
    # 2x2 tridiagonal with one vanishing eigenvalue at angles (1/6, 1/6)
    w1 = cmath.exp(2j * math.pi / 6)
    w2 = cmath.exp(2j * math.pi / 6)
    a = -(1 - w1.conjugate()) * (1 - w2.conjugate()) * (1 + w1 * w2)
    b = -(1 - w1) * (1 - w2)
    h = HermitianMatrix([[a, b], [b.conjugate(), a]])
    assert inertia(h) == Inertia(1, 0, 1)


def test_empty_and_zero_matrices():
    assert inertia(HermitianMatrix(np.zeros((0, 0)))) == Inertia(0, 0, 0)
    assert inertia(HermitianMatrix(np.zeros((3, 3)))) == Inertia(0, 0, 3)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        HermitianMatrix([[0.0, 1.0], [2.0, 0.0]])


def test_integer_inertia_examples():
    assert integer_inertia([[-3, 3], [3, -3]]) == Inertia(0, 1, 1)
    assert integer_inertia([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == Inertia(0, 0, 3)
    assert integer_inertia(np.eye(4, dtype=int)) == Inertia(4, 0, 0)


def test_integer_inertia_hyperbolic_blocks():
    assert integer_inertia([[0, 2], [2, 0]]) == Inertia(1, 1, 0)
    assert integer_inertia([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == Inertia(1, 1, 1)
    # coupled hyperbolic pivot: elimination must decouple the third row
    # (eigenvalues of this matrix are approximately -3.20, -0.91, 4.11)
    assert integer_inertia([[0, 1, 2], [1, 0, 3], [2, 3, 0]]) == Inertia(1, 2, 0)


def test_integer_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        integer_inertia([[0, 1], [2, 0]])


def test_backends_agree_on_random_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 7))
        m = rng.integers(-4, 5, size=(n, n))
        s = m + m.T
        assert inertia(HermitianMatrix(s.astype(complex))) == integer_inertia(s)


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((a + a.conj().T) / 2)


def test_lapack_counts_match_exact_and_sylvester():
    # one stacked call per size against the exact backend on integer matrices
    rng = np.random.default_rng(11)
    for n in range(7):
        m = rng.integers(-4, 5, size=(30, n, n))
        s = m + m.transpose(0, 2, 1)
        counts = inertia_counts(s.astype(complex))
        assert [Inertia(*c) for c in counts.tolist()] == [integer_inertia(x) for x in s]
    # complex ones: H and its congruent P* H P share a stack and their counts
    for _ in range(60):
        n = int(rng.integers(1, 7))
        h = _random_hermitian(rng, n).entries
        p = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if abs(np.linalg.det(p)) <= 1e-9:
            continue
        m = p.conj().T @ h @ p
        counts = inertia_counts(np.stack([h, (m + m.conj().T) / 2]))
        assert counts[0].tolist() == counts[1].tolist()


def test_relative_cut_reads_small_forms():
    tiny = 1e-12 * np.diag([1.0, -1.0, 0.0])[None].astype(complex)
    assert inertia_counts(tiny).tolist() == [[0, 0, 3]]
    assert inertia_counts(tiny, relative=True).tolist() == [[1, 1, 1]]
    assert inertia_counts(np.zeros((2, 3, 3)), relative=True).tolist() == [[0, 0, 3]] * 2


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError):
        inertia(HermitianMatrix([[1.0]]), tol)
    with pytest.raises(ValueError):
        inertia_counts(np.zeros((0, 2, 2)), tol)


def test_sylvester_invariance_sample():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        h = _random_hermitian(rng, n)
        p = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if abs(np.linalg.det(p)) <= 1e-9:
            continue
        assert conjugate_inertia_check(h, p) == inertia(h)


def test_singular_conjugation_rejected():
    h = HermitianMatrix(np.diag([1.0, -1.0]))
    assert conjugate_inertia_check(h, np.eye(2)) == Inertia(1, 1, 0)
    with pytest.raises(SingularMatrix):
        conjugate_inertia_check(h, np.zeros((2, 2)))


def test_scaling_preserves_sign():
    assert conjugate_inertia_check(HermitianMatrix([[16.0]]), [[3.0]]) == Inertia(1, 0, 0)
