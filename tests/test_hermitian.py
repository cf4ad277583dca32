import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import SingularMatrix, conjugate_inertia_check

from sigtorus import hermitian, links
from sigtorus.angles import TorusPoint
from sigtorus.families import make_twist, make_unlink, unknot
from sigtorus.hermitian import (ZERO_CUT, HermitianMatrix, Inertia, inertia,
                                inertia_counts, integer_inertia, limit_counts)
from sigtorus.links import ColoredLink, SeifertSystem, sign_key, sign_vectors


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
    assert integer_inertia([[2.0, np.int32(1)], [np.float64(1), 2]]) == Inertia(2, 0, 0)


def test_integer_inertia_hyperbolic_blocks():
    assert integer_inertia([[0, 2], [2, 0]]) == Inertia(1, 1, 0)
    assert integer_inertia([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == Inertia(1, 1, 1)
    # coupled hyperbolic pivot: elimination must decouple the third row
    # (eigenvalues of this matrix are approximately -3.20, -0.91, 4.11)
    assert integer_inertia([[0, 1, 2], [1, 0, 3], [2, 3, 0]]) == Inertia(1, 2, 0)


def test_integer_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        integer_inertia([[0, 1], [2, 0]])


@pytest.mark.parametrize("matrix, entry", [([[0.5]], r"\(0, 0\) = 0.5"),
                                           ([[1, 2.5], [2.5, 1]], r"\(0, 1\) = 2.5")],
                         ids=["diagonal", "off-diagonal"])
def test_integer_inertia_rejects_non_integral_entries(matrix, entry):
    with pytest.raises(ValueError, match=entry):
        integer_inertia(matrix)


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
    # zero diagonals (where the exact backend pivots after a congruence) and
    # low rank (sums of +-v v^T).  For n <= 6 and entries in [-3, 3] the
    # product of the nonzero eigenvalues is a nonzero integer, so each is at
    # least 18^-5 ~ 5e-7 in size, far above the cut of at most 1.8e-8.
    for n in range(1, 7):
        upper = np.triu(rng.integers(-3, 4, size=(40, n, n)), 1)
        zero_diagonal = upper + upper.transpose(0, 2, 1)
        v = rng.integers(-1, 2, size=(40, 3, n))
        signs = rng.choice([-1, 1], size=(40, 3))
        low_rank = np.einsum("pk,pki,pkj->pij", signs, v, v)
        for s in (zero_diagonal, low_rank):
            counts = inertia_counts(s.astype(complex))
            assert [Inertia(*c) for c in counts.tolist()] == [integer_inertia(x) for x in s]


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
    # so below the cut ZERO_CUT * max(1, ||F_0||) a tiny family is zero
    for scale in (1e-12, 1.0, 1e6):
        family = scale * _series(np.diag([1, -1, 0]))
        (plus, minus, zero), = inertia_counts(family[:, 0]).tolist()
        assert limit_counts(family).tolist() == [[plus - minus, plus - minus, zero]]
    assert limit_counts(1e-12 * _series(np.diag([1, -1, 0]))).tolist() == [[0, 0, 3]]


@hst.composite
def _families(draw):
    """A (P, D, n, n) stack of integer Hermitian families, P, D and n at most
    4.  F_0 = U^T diag(d) U with d in {-1, 0, 1}^n, where 0 is drawn half
    the time, so F_0 is often singular; the other coefficients are M + M^*."""
    p, depth, n = (draw(hst.integers(1, 4)) for _ in range(3))

    def matrices(count, values=hst.integers(-2, 2)):
        size = count * n * n
        return np.reshape(draw(hst.lists(values, min_size=size, max_size=size)),
                          (count, n, n))
    u = matrices(p)
    d = draw(hst.lists(hst.sampled_from((-1, 0, 0, 1)), min_size=p * n, max_size=p * n))
    first = np.einsum("pba,pb,pbc->pac", u, np.reshape(d, (p, n)), u)
    m = (matrices(p * (depth - 1)) + 1j * matrices(p * (depth - 1))).reshape(p, depth - 1, n, n)
    return np.concatenate([first[:, None], m + m.conj().swapaxes(-1, -2)], axis=1)


@settings(max_examples=100, deadline=None)
@given(_families(), hst.integers(0, 3))
def test_leading_zero_coefficients_flip_only_the_left_limit(family, z):
    """t^z F(t) is F(t) times t^z, which is positive for t > 0 and has the
    sign (-1)^z for t < 0: the t -> 0+ limit and the nullity stay, and the
    t -> 0- limit is multiplied by (-1)^z."""
    shifted = np.concatenate([np.zeros((len(family), z) + family.shape[2:]), family], axis=1)
    want = limit_counts(family) * [1, (-1) ** z, 1]
    assert limit_counts(shifted).tolist() == want.tolist()


def _count_solves(monkeypatch):
    """The list that records the size of every stack that
    hermitian.inertia_counts diagonalizes from now on."""
    sizes, solve = [], hermitian.inertia_counts

    def counting(stack):
        sizes.append(len(stack))
        return solve(stack)
    monkeypatch.setattr(hermitian, "inertia_counts", counting)
    return sizes


def _zero_system(mu, n):
    zero = [[0] * n for _ in range(n)]
    return ColoredLink(mu, [1] * mu, {},
                       SeifertSystem(mu, {sign_key(eps): zero for eps in sign_vectors(mu)}))


@pytest.mark.parametrize("link", [unknot(), make_unlink(2), make_unlink(3), make_unlink(4),
                                  make_twist(0), _zero_system(3, 3)],
                         ids=["unknot", "unlink2", "unlink3", "unlink4", "twist0", "zero3"])
def test_zero_systems_read_zero_with_no_eigen_solve(link, monkeypatch):
    """H = 0 on every path of a zero system: each point, rest limit and
    corner reads sigma 0 and nullity n, and nothing is diagonalized."""
    solves, n = _count_solves(monkeypatch), link.seifert.n
    angles = [Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)]
    points = [TorusPoint([a] * link.mu).omega() for a in angles]
    rests = [TorusPoint([a] * (link.mu - 1)).omega() for a in angles]
    assert links.signature_nullity_batch(link, points) == ([0] * 3, [n] * 3)
    assert links.rest_limit_counts(link, rests).tolist() == [[0, 0, n]] * 3
    assert links.corner_limit_counts(link).tolist() == [[0, n]] * 2 ** link.mu
    assert solves == []


def test_exactly_zero_levels_cost_no_eigen_solve(monkeypatch):
    """On twist(2) the rest path's F_0 and the corner paths' F_0 and F_1 are
    exactly 0: one stacked solve reads all rest points, and one all corners."""
    solves = _count_solves(monkeypatch)
    rests = [TorusPoint([Fraction(k, 11)]).omega() for k in range(1, 6)]
    assert links.rest_limit_counts(make_twist(2), rests).tolist() == [[1, 1, 0]] * 5
    assert solves == [5]
    assert links.corner_limit_counts(make_twist(2)).tolist() == [[1, 0]] * 4
    assert solves == [5, 2]


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
    """An eigenvalue at the cut ZERO_CUT * max(1, ||H||_F), with the norm taken
    by np.linalg.norm, or one ulp either side of it, counts as that cut says."""
    base = [3.0 * scale / 13, -4.0 * scale / 13, 12.0 * scale / 13]
    edge = ZERO_CUT * max(1.0, scale)
    probes = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    stack = np.array([np.diag(base + [sign * x]) for sign in (1, -1) for x in probes],
                     dtype=complex)
    assert all(sorted(np.linalg.eigvalsh(h)) == sorted(np.diag(h).real) for h in stack)
    expected = []
    for h in stack:
        cut = ZERO_CUT * max(1.0, np.linalg.norm(h))
        d = np.diag(h).real
        expected.append([int((d > cut).sum()), int((d < -cut).sum()),
                         int((abs(d) <= cut).sum())])
    # the probes straddle the cut: on each side only the outer one is nonzero
    assert sorted(map(tuple, expected)) == [(2, 1, 1)] * 4 + [(2, 2, 0), (3, 1, 0)]
    counts = inertia_counts(stack)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected
    assert [inertia_counts(h[None]).tolist()[0] for h in stack] == expected


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
