import cmath
import math

import numpy as np
import pytest
from oracles import SingularMatrix, conjugate_inertia_check

from sigtorus.hermitian import (HermitianMatrix, Inertia, inertia,
                                inertia_counts, integer_inertia, limit_counts)


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


# -- one-sided limits of analytic families -----------------------------------

def _series(*coefficients):
    """A (1, D, n, n) stack from D Taylor coefficients."""
    return np.array(coefficients, dtype=complex)[None]


def _congruent(family, rng):
    """The family X(t)^* F(t) X(t), truncated to as many coefficients, for
    X(t) = X_0 + t Y with X_0 random near the identity (so invertible near
    t = 0) and Y random."""
    n = family.shape[-1]
    x = [np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
         rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))]
    out = np.zeros_like(family, dtype=complex)
    for i in range(family.shape[1]):
        for a in (0, 1):
            for b in (0, 1):
                if i + a + b < family.shape[1]:
                    out[:, i + a + b] += x[a].conj().T @ family[:, i] @ x[b]
    return out


def test_limit_counts_of_a_diagonal_family():
    # F(t) = diag(1, t, -t^2, t^3, 0): signs 1, +-1, -1, +-1 and one zero
    diag = np.diag
    family = _series(diag([1, 0, 0, 0, 0]), diag([0, 1, 0, 0, 0]),
                     diag([0, 0, -1, 0, 0]), diag([0, 0, 0, 1, 0]),
                     np.zeros((5, 5)), np.zeros((5, 5)))
    assert limit_counts(family).tolist() == [[2, -2, 1]]
    rng = np.random.default_rng(3)
    stack = np.concatenate([family] + [_congruent(family, rng) for _ in range(20)])
    assert limit_counts(stack).tolist() == [[2, -2, 1]] * 21
    # with three coefficients the t^3 entry is beyond reach and counts as zero
    assert limit_counts(family[:, :3]).tolist() == [[1, -1, 2]]


def test_limit_counts_agree_with_small_t():
    # generic pencils with a kernel at t = 0, against eigenvalues at t = +-1e-4
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, rank = int(rng.integers(2, 6)), int(rng.integers(0, 3))
        u = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        p = u @ np.diag(rng.choice([-1.0, 1.0], size=rank)) @ u.conj().T
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = q + q.conj().T
        (plus, minus, eta), = limit_counts(_series(p, q, *[np.zeros((n, n))] * (n - 1)))
        for t, want in ((1e-4, plus), (-1e-4, minus)):
            eigs = np.linalg.eigvalsh(p + t * q)
            assert np.min(np.abs(eigs)) > 1e-9
            assert int(np.sum(eigs > 0) - np.sum(eigs < 0)) == want
        assert eta == 0


def test_limit_counts_of_singular_families():
    # det F(t) = 0 for every t: one vector in the kernel of F(t), moving with t
    pencil = _series([[0, 0, 1], [0, 0, 0], [1, 0, 0]],
                     [[0, 0, 0], [0, 0, 1], [0, 1, 0]], np.zeros((3, 3)), np.zeros((3, 3)))
    assert limit_counts(pencil).tolist() == [[0, 0, 1]]
    quadratic = _series([[0, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]])
    assert limit_counts(quadratic).tolist() == [[1, 1, 1]]
    rng = np.random.default_rng(5)
    assert limit_counts(_congruent(quadratic, rng)).tolist() == [[1, 1, 1]]


def test_limit_counts_of_zero_and_empty_families():
    assert limit_counts(np.zeros((2, 3, 4, 4))).tolist() == [[0, 0, 4]] * 2
    assert limit_counts(np.zeros((0, 3, 4, 4))).shape == (0, 3)
    assert limit_counts(np.zeros((2, 3, 0, 0))).tolist() == [[0, 0, 0]] * 2
    # one zero rule: a one-coefficient family counts as inertia_counts does,
    # so below the cut tol * max(1, ||F_0||) a tiny family is zero
    for scale in (1e-12, 1.0, 1e6):
        family = scale * _series(np.diag([1, -1, 0]))
        (plus, minus, zero), = inertia_counts(family[:, 0]).tolist()
        assert limit_counts(family).tolist() == [[plus - minus, plus - minus, zero]]
    assert limit_counts(1e-12 * _series(np.diag([1, -1, 0]))).tolist() == [[0, 0, 3]]


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0, 1e308])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError):
        inertia(HermitianMatrix([[1.0]]), tol)
    with pytest.raises(ValueError):
        inertia_counts(np.zeros((0, 2, 2)), tol)
    with pytest.raises(ValueError):
        limit_counts(np.zeros((0, 2, 2, 2)), tol)


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


@pytest.mark.parametrize("scale", [13.0, 0.5])
def test_inertia_counts_at_the_cut(scale):
    """An eigenvalue at the cut tol * max(1, ||H||_F), with the norm taken by
    np.linalg.norm, or one ulp either side of it, counts as that cut says."""
    tol = 1e-9
    base = [3.0 * scale / 13, -4.0 * scale / 13, 12.0 * scale / 13]
    edge = tol * max(1.0, scale)
    probes = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    stack = np.array([np.diag(base + [sign * x]) for sign in (1, -1) for x in probes],
                     dtype=complex)
    assert all(sorted(np.linalg.eigvalsh(h)) == sorted(np.diag(h).real) for h in stack)
    expected = []
    for h in stack:
        cut = tol * max(1.0, np.linalg.norm(h))
        d = np.diag(h).real
        expected.append([int((d > cut).sum()), int((d < -cut).sum()),
                         int((abs(d) <= cut).sum())])
    # the probes straddle the cut: on each side only the outer one is nonzero
    assert sorted(map(tuple, expected)) == [(2, 1, 1)] * 4 + [(2, 2, 0), (3, 1, 0)]
    counts = inertia_counts(stack, tol)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected
    assert [inertia_counts(h[None], tol).tolist()[0] for h in stack] == expected


def test_inertia_counts_of_empty_stacks():
    for shape in ((0, 3, 3), (0, 0, 0), (2, 0, 0)):
        counts = inertia_counts(np.zeros(shape, dtype=complex))
        assert counts.dtype == np.int64
        assert counts.tolist() == [[0, 0, 0]] * shape[0]


def test_inertia_counts_of_integer_stacks():
    """Integer entries are read as floats, so squares beyond int64 do not wrap."""
    for big in (3, 4_000_000_000):
        stack = np.array([[[big, 0], [0, -1]], [[0, big], [big, 0]]])
        assert inertia_counts(stack).tolist() == inertia_counts(stack.astype(float)).tolist()
    assert inertia_counts(np.array([[[4_000_000_000, 0], [0, -1]]])).tolist() == [[1, 0, 1]]
