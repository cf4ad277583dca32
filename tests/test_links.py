import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sigtorus.angles import TorusPoint
from sigtorus.corrections import signature_jump, wall_indicator
from sigtorus.errors import (BoundaryPoint, SchemaError, SymmetryViolation)
from sigtorus import cli, links
from sigtorus.families import (make_torus, make_twist, make_unlink,
                               torus_clasp_sequence)
from sigtorus.hermitian import inertia
from sigtorus.links import (ColoredLink, SeifertSystem, assemble_form_raw,
                            boundary_limit_form, form_at, linking_matrix,
                            parse_link, save_link, sign_key, sign_vectors,
                            signature_nullity)
from sigtorus.verify import DEFAULT_SCHEDULE, directional_limit


def rational_point(rnd, mu, max_den=48):
    return TorusPoint([Fraction(rnd.randint(1, q - 1), q)
                       for q in [rnd.randint(2, max_den) for _ in range(mu)]])


def test_parse_round_trip_twist():
    link = parse_link(make_twist(2).to_document())
    assert link.mu == 2
    for key in ("++", "+-", "-+", "--"):
        assert link.seifert.matrices[key].tolist() == [[2]]
    assert link.rest_sublink() is not None
    assert link.conway is not None


def test_missing_sign_key_rejected():
    doc = make_twist(2).to_document()
    del doc["seifert"]["-+"]
    with pytest.raises(SchemaError):
        parse_link(doc)


def test_transpose_violation_named():
    with pytest.raises(SymmetryViolation):
        SeifertSystem(1, {"+": [[1]], "-": [[2]]})


def test_dimension_mismatch_rejected():
    doc = make_twist(2).to_document()
    doc["seifert"]["+-"] = [[2, 0], [0, 2]]
    with pytest.raises(SchemaError):
        parse_link(doc)


def test_twist_form_closed_expression():
    rnd = random.Random(0)
    link = make_twist(3)
    for _ in range(20):
        pt = rational_point(rnd, 2)
        w1, w2 = pt.omega()
        expected = 3 * abs(1 - w1) ** 2 * abs(1 - w2) ** 2
        got = form_at(link, pt).entries
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(expected)


def test_form_vanishes_at_full_boundary():
    link = make_twist(5)
    raw = assemble_form_raw(link, TorusPoint([0, 0]))
    assert np.array_equal(raw, np.zeros((1, 1)))


def test_form_is_exactly_hermitian():
    rnd = random.Random(1)
    for link in (make_twist(-2), make_torus(3), make_torus(-2)):
        for _ in range(15):
            raw = assemble_form_raw(link, rational_point(rnd, 2))
            assert np.array_equal(raw, raw.conj().T)


def test_torus_form_matches_tridiagonal_display():
    link = make_torus(3)
    pt = TorusPoint([Fraction(1, 5), Fraction(2, 7)])
    w1, w2 = pt.omega()
    a = -(1 - w1.conjugate()) * (1 - w2.conjugate()) * (1 + w1 * w2)
    b = -(1 - w1) * (1 - w2)
    expected = np.array([[a, b], [b.conjugate(), a]])
    assert np.allclose(form_at(link, pt).entries, expected, atol=1e-12)


def test_signature_nullity_examples():
    assert signature_nullity(make_twist(2), TorusPoint([Fraction(1, 4), Fraction(1, 2)])) == (1, 0)
    assert signature_nullity(make_twist(0), TorusPoint([Fraction(1, 3), Fraction(2, 7)])) == (0, 1)
    assert signature_nullity(make_torus(3), TorusPoint([Fraction(1, 10), Fraction(1, 10)])) == (2, 0)


def test_boundary_point_rejected():
    with pytest.raises(BoundaryPoint):
        signature_nullity(make_twist(2), TorusPoint([0, Fraction(1, 2)]))
    with pytest.raises(BoundaryPoint):
        signature_nullity(make_twist(2), TorusPoint([0, Fraction(1, 2)]), relative=True)


def test_conjugation_symmetry():
    rnd = random.Random(2)
    for link in (make_torus(3), make_twist(-1)):
        for _ in range(25):
            pt = rational_point(rnd, 2)
            assert signature_nullity(link, pt) == signature_nullity(link, pt.conjugate())


def trefoil():
    a = [[-1, 1], [0, -1]]
    at = [[-1, 0], [1, -1]]
    return ColoredLink(mu=1, components_per_color=[1], linking={},
                       seifert=SeifertSystem(1, {"-": a, "+": at}))


def test_single_color_reduces_to_levine_tristram():
    link = trefoil()
    a = np.array([[-1, 1], [0, -1]], dtype=float)
    rnd = random.Random(3)
    for _ in range(25):
        theta = Fraction(rnd.randint(1, 47), 48)
        w = cmath.exp(2j * math.pi * float(theta))
        classical = (1 - w) * a + (1 - w.conjugate()) * a.T
        eigs = np.linalg.eigvalsh((classical + classical.conj().T) / 2)
        cut = 1e-9 * max(1.0, float(np.linalg.norm(classical)))
        expected = (int(np.sum(eigs > cut)) - int(np.sum(eigs < -cut)),
                    int(np.sum(np.abs(eigs) <= cut)))
        assert signature_nullity(link, TorusPoint([theta])) == expected
    # the trefoil value at -1 is a classical anchor
    assert signature_nullity(link, TorusPoint([Fraction(1, 2)])) == (-2, 0)


def test_linking_matrix_examples():
    assert linking_matrix(make_torus(3), (1, 1)) == [[-3, 3], [3, -3]]
    assert linking_matrix(make_twist(4), (1, 1)) == [[0, 0], [0, 0]]
    assert linking_matrix(make_torus(2), (1, -1)) == [[2, -2], [-2, 2]]


def test_signature_locally_constant_between_walls():
    link = make_torus(2)
    values = {signature_nullity(link, TorusPoint([Fraction(1, 5), Fraction(k, 40)]))
              for k in range(2, 9)}  # sums stay inside (0, 1/2)
    assert values == {(1, 0)}


def test_boundary_limit_form_has_jump_and_wall_inertia():
    rnd = random.Random(4)
    for ell in (1, 2, 3, -3):
        link = make_torus(ell)
        for _ in range(15):
            pt = rational_point(rnd, 1)
            for side in (1, -1):
                ine = inertia(boundary_limit_form(link, pt, side))
                assert ine.signature == side * signature_jump((ell,), pt)
                assert ine.nullity == wall_indicator((ell,), pt)


def test_degeneration_bound_along_schedule():
    # |lim sigma - sigma(limit form)| <= eta(limit form) - lim eta
    rnd = random.Random(5)
    for link, ell in ((make_twist(0), (0,)), (make_twist(2), (0,)),
                      (make_torus(2), (2,)), (make_torus(3), (3,))):
        for _ in range(10):
            pt = rational_point(rnd, 1)
            for side in (1, -1):
                limit_ine = inertia(boundary_limit_form(link, pt, side))
                deltas = [Fraction(1, 16 * 2 ** m) for m in range(12, 16)]
                tail = []
                for d in deltas:
                    angle = d if side > 0 else 1 - d
                    tail.append(signature_nullity(link, pt.prepend(angle), relative=True))
                assert len({t for t in tail}) == 1
                sig, eta = tail[-1]
                assert abs(sig - limit_ine.signature) <= limit_ine.nullity - eta


def test_clasp_route_matches_limit_form():
    rnd = random.Random(6)
    from sigtorus.corrections import clasp_matrix
    for ell in (1, 2, 3):
        link = make_torus(ell)
        for _ in range(10):
            pt = rational_point(rnd, 1)
            lhs = inertia(clasp_matrix(torus_clasp_sequence(ell), pt))
            rhs = inertia(boundary_limit_form(link, pt, 1))
            assert (lhs.signature, lhs.nullity) == (rhs.signature, rhs.nullity)


# -- the stacked path against a plain per-point loop ----------------------------

def _loop_sigma_eta(link, point, relative=False, tol=1e-9):
    """Reference: sum over every sign vector at one point, then eigvalsh."""
    n = link.seifert.n
    form = np.zeros((n, n), dtype=complex)
    for eps in sign_vectors(link.mu):
        coeff = 1.0 + 0.0j
        for w, e in zip(point.omega(), eps):
            coeff *= (1.0 - w.conjugate()) if e > 0 else (1.0 - w)
        form += coeff * link.seifert.matrix(eps)
    form = (form + form.conj().T) / 2
    norm = float(np.linalg.norm(form))
    if relative and norm > 0:
        form, norm = form / norm, 1.0
    cut = tol * max(1.0, norm)
    eigs = np.linalg.eigvalsh(form) if n else np.zeros(0)
    plus, minus = int(np.sum(eigs > cut)), int(np.sum(eigs < -cut))
    return plus - minus, n - plus - minus


def _random_link(seed, mu=3, n=5):
    rnd = random.Random(seed)
    mats = {}
    for eps in sign_vectors(mu):
        if eps[0] > 0:
            mat = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            mats[sign_key(eps)] = mat
            mats[sign_key(tuple(-e for e in eps))] = [list(r) for r in zip(*mat)]
    return ColoredLink(mu, [1] * mu, {}, SeifertSystem(mu, mats))


STACK_CASES = [(make_torus(3), ()), (make_torus(10), ()), (make_twist(2), ()),
               (make_twist(-2), ()), (make_unlink(3), (Fraction(1, 3),)),
               (_random_link(7), (Fraction(2, 7),))]
STACK_IDS = ["torus3", "torus10", "twist2", "twist-2", "unlink3", "random3"]


@pytest.mark.parametrize("link, rest", STACK_CASES, ids=STACK_IDS)
def test_stacked_grid_matches_per_point_loop(tmp_path, monkeypatch, link, rest):
    path = str(tmp_path / "link.json")
    save_link(link, path)
    axes = (1, 3) if rest else (1, 2)
    argv = ["grid", "--link", path, "--resolution", "9", "--axes", "%d,%d" % axes]
    if rest:
        argv += ["--rest", ",".join(str(a) for a in rest)]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
    assert len(rows) == 64
    for row in rows:
        t1, t2, sigma, eta = row.split(",")
        angles = [None] * link.mu
        angles[axes[0] - 1], angles[axes[1] - 1] = Fraction(t1), Fraction(t2)
        if rest:
            angles[1] = rest[0]
        assert (int(sigma), int(eta)) == _loop_sigma_eta(link, TorusPoint(angles))
    # blocks of three points split the 64 unevenly; the output must not move
    monkeypatch.setattr(links, "_STACK_BYTES", 3 * 16 * max(link.seifert.n, 1) ** 2)
    assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("link, rest", STACK_CASES, ids=STACK_IDS)
def test_stacked_limits_match_per_point_loop(link, rest):
    rnd = random.Random(8)
    for _ in range(3):
        pt = TorusPoint((rational_point(rnd, 1)[0],) + rest)
        for side in ("plus", "minus"):
            expected = []
            for delta in DEFAULT_SCHEDULE.deltas():
                angle = delta if side == "plus" else 1 - delta
                expected.append((delta,) + _loop_sigma_eta(link, pt.prepend(angle),
                                                           relative=True))
            samples = directional_limit(link, pt, side).samples
            assert samples == expected
            assert all(type(s) is int and type(e) is int for _, s, e in samples)
