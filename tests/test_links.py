import cmath
import functools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from oracles import (boundary_limit_form, clasp_matrix, linking_matrix,
                     torus_clasp_sequence)

from sigtorus.angles import TorusPoint, angle_to_complex, normalize_angle, parse_angle
from sigtorus.corrections import signature_jump, torus_signature_profile, wall_indicator
from sigtorus.errors import (BoundaryPoint, DimensionMismatch, DomainError,
                             SchemaError, SymmetryViolation)
from sigtorus import cli, links
from sigtorus.families import make_torus, make_twist, make_unlink, oracle_torus
from sigtorus.hermitian import inertia, integer_inertia
from sigtorus.laurent import LaurentPoly
from sigtorus.links import (ColoredLink, SeifertSystem, assemble_form_raw,
                            linking_inertia, load_link, parse_link, save_link,
                            sign_key, sign_vectors, signature_nullity)
from sigtorus.verify import (directional_limit, predict_lt_limit_2comp, report_text,
                            run_suite, verify_multi_lt)


def rational_point(rnd, mu, max_den=48):
    return TorusPoint([Fraction(rnd.randint(1, q - 1), q)
                       for q in [rnd.randint(2, max_den) for _ in range(mu)]])


def test_parse_round_trip_twist():
    link = parse_link(make_twist(2).to_document())
    assert link.mu == 2
    for key in ("++", "+-", "-+", "--"):
        assert link.seifert.matrix([1 if c == "+" else -1 for c in key]).tolist() == [[2]]
    assert link.rest_sublink() is not None
    assert link.conway is not None


def test_nonzero_rank_survives_save_and_load(tmp_path):
    twist = make_twist(2)
    link = ColoredLink(twist.mu, twist.components_per_color, twist.linking, twist.seifert,
                       twist.conway, rank_alexander=1, sublinks=twist.sublinks)
    path = str(tmp_path / "link.json")
    save_link(link, path)
    assert json.loads((tmp_path / "link.json").read_text())["rank_alexander"] == 1
    loaded = load_link(path)
    assert loaded.rank_alexander == 1
    assert loaded.to_document() == link.to_document()


def _bare(link):
    """The link with every polynomial Conway function passed as a LaurentPoly."""
    conway = link.conway
    if conway is not None and conway.den == 1:
        conway = conway.num
    return ColoredLink(link.mu, link.components_per_color, link.linking, link.seifert,
                       conway, link.rank_alexander,
                       {key: _bare(sub) for key, sub in link.sublinks.items()},
                       link.underlying_oriented)


@pytest.mark.parametrize("link", [make_twist(2), make_twist(0), make_unlink(3)],
                         ids=["twist2", "twist0", "unlink3"])
def test_a_bare_polynomial_conway_function_is_read_as_a_rational_function(tmp_path, link):
    assert link.conway.den == 1
    bare = _bare(link)
    path = str(tmp_path / "link.json")
    save_link(bare, path)
    assert load_link(path).to_document() == bare.to_document() == link.to_document()
    assert report_text(run_suite(bare, "4d", samples=20, seed=1)) == \
        report_text(run_suite(link, "4d", samples=20, seed=1))


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


def test_equally_non_square_matrices_rejected():
    # they stack into one (2, 2, 1) array, whose transpose still broadcasts
    with pytest.raises(DimensionMismatch, match=r"seifert\[\+\]: row 0 has length 1, expected 2"):
        SeifertSystem(1, {"+": [[1], [1]], "-": [[1], [1]]})


def test_twist_form_closed_expression():
    rnd = random.Random(0)
    link = make_twist(3)
    for _ in range(20):
        pt = rational_point(rnd, 2)
        w1, w2 = pt.omega()
        expected = 3 * abs(1 - w1) ** 2 * abs(1 - w2) ** 2
        got = assemble_form_raw(link, pt)
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
    assert np.allclose(assemble_form_raw(link, pt), expected, atol=1e-12)


def test_signature_nullity_examples():
    assert signature_nullity(make_twist(2), TorusPoint([Fraction(1, 4), Fraction(1, 2)])) == (1, 0)
    assert signature_nullity(make_twist(0), TorusPoint([Fraction(1, 3), Fraction(2, 7)])) == (0, 1)
    assert signature_nullity(make_torus(3), TorusPoint([Fraction(1, 10), Fraction(1, 10)])) == (2, 0)


def test_boundary_point_rejected():
    with pytest.raises(BoundaryPoint):
        signature_nullity(make_twist(2), TorusPoint([0, Fraction(1, 2)]))
    with pytest.raises(BoundaryPoint):
        signature_nullity(make_twist(2), TorusPoint([Fraction(1, 2), 0]))


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


def test_linking_inertia_matches_the_dense_matrix():
    rnd = random.Random(11)
    for _ in range(200):
        mu = rnd.randint(1, 3)
        counts = [rnd.randint(1, 4) for _ in range(mu)]
        comps = ["%d.%d" % (c + 1, k + 1) for c in range(mu) for k in range(counts[c])]
        pairs = [rnd.sample(comps, 2) for _ in range(rnd.randint(0, 6) if len(comps) > 1 else 0)]
        link = ColoredLink(mu, counts, {tuple(sorted(p)): rnd.randint(-2, 2) for p in pairs},
                           {key: [] for key in map(sign_key, sign_vectors(mu))})
        signs = [rnd.choice((-1, 1)) for _ in range(mu)]
        assert linking_inertia(link, signs) == integer_inertia(linking_matrix(link, signs))


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
            for side, name in ((1, "plus"), (-1, "minus")):
                limit_ine = inertia(boundary_limit_form(link, pt, side))
                lim = directional_limit(link, pt, name)
                assert abs(lim.value - limit_ine.signature) <= limit_ine.nullity - lim.eta


def test_clasp_route_matches_limit_form():
    rnd = random.Random(6)
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
    # the exact limit against the sampled forms next to the boundary, each
    # normalized and diagonalized on its own
    rnd = random.Random(8)
    for _ in range(3):
        pt = TorusPoint((rational_point(rnd, 1)[0],) + rest)
        for side in ("plus", "minus"):
            expected = {_loop_sigma_eta(link, TorusPoint((d if side == "plus" else 1 - d,)
                                                         + pt.angles), relative=True)
                        for d in (Fraction(1, 2 ** 20), Fraction(1, 2 ** 22))}
            res = directional_limit(link, pt, side)
            assert {(res.value, res.eta)} == expected
            assert type(res.value) is int and type(res.eta) is int


# -- non-finite angles and empty point lists -----------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(value):
    for angle in (value, np.float32(value)):
        with pytest.raises(DomainError, match="finite"):
            normalize_angle(angle)
    with pytest.raises(DomainError):
        signature_nullity(make_torus(3), [0.5, value])
    # the batch readers take unit complex numbers, not angles, and refuse them
    # before any shortcut: unlink(2) is a zero system
    for link in (make_torus(3), make_unlink(2)):
        for point in ([value, 1j], [1j, 1j * value]):
            with pytest.raises(ValueError, match="^points have a coordinate that is not finite$"):
                links.signature_nullity_batch(link, [point])
        with pytest.raises(ValueError, match="^points have a coordinate that is not finite$"):
            links.rest_limit_counts(link, [[value]])

    with pytest.raises(ValueError, match="finite"):
        parse_angle("-1e400")


def test_parse_angle_reduces_like_fraction():
    for p in [*range(-13, 0), *range(1, 14)]:
        for q in [*range(-13, 0), *range(1, 14)]:
            angle = parse_angle("%d/%d" % (p, q))
            assert angle == Fraction(p, q) % 1
            assert 0 <= angle.numerator < angle.denominator
    with pytest.raises(ZeroDivisionError) as fraction_error:
        Fraction(1, 0)
    with pytest.raises(ZeroDivisionError) as angle_error:
        parse_angle("1/0")
    assert str(angle_error.value) == str(fraction_error.value)


def test_reduced_angles_are_kept_as_they_are():
    for angle in (Fraction(0), Fraction(2, 7), Fraction(12, 13)):
        assert normalize_angle(angle) is angle
        assert TorusPoint([angle]).angles[0] is angle
    assert normalize_angle(Fraction(-1, 3)) == Fraction(2, 3)
    assert normalize_angle(Fraction(7, 3)) == Fraction(1, 3)


def test_numpy_scalar_angles_read_as_int_and_float():
    """A numpy integer reads as an int, a numpy float as its float64 value:
    a float32 is the fraction that value prints as."""
    assert normalize_angle(np.int64(1)) == normalize_angle(np.uint8(3)) == 0
    assert normalize_angle(np.int32(-7)) == normalize_angle(-7)
    assert normalize_angle(np.float32(0.5)) == normalize_angle(np.float16(-0.5)) == Fraction(1, 2)
    assert normalize_angle(np.float32(0.1)) == Fraction("0.10000000149011612") \
        == normalize_angle(float(np.float32(0.1)))
    with pytest.raises(TypeError):
        normalize_angle(np.bool_(True))
    assert TorusPoint([np.float32(0.25), np.int64(2)]).angles == (Fraction(1, 4), 0)
    point = [np.float32(0.25)]
    assert signature_jump([3], point) == signature_jump([3], [Fraction(1, 4)])
    assert wall_indicator([4], point) == wall_indicator([4], [Fraction(1, 4)]) == 1
    assert verify_multi_lt(make_torus(1), np.float32(0.25)) == \
        verify_multi_lt(make_torus(1), Fraction(1, 4))


def test_tiny_negative_float_angles_reduce_to_zero():
    # -1e-20 % 1.0 rounds to 1.0, outside [0, 1): the angle is 0, the boundary
    assert normalize_angle(-1e-20) == normalize_angle(1e-20 * -1) == 0.0
    assert not TorusPoint([-1e-20, 0.2]).in_open_torus
    with pytest.raises(BoundaryPoint):
        signature_nullity(make_torus(3), [-1e-20, 0.2])


@settings(max_examples=300, deadline=None)
@given(hst.floats(allow_nan=False, allow_infinity=False))
def test_float_angles_read_as_the_fractions_they_print_as(value):
    """A float is reduced as a float, then read as the shortest decimal it
    prints as, which converts back to that same float: its circle point and
    text are those of the float."""
    reduced = value % 1.0
    reduced = 0.0 if reduced == 1.0 else reduced
    angle = normalize_angle(value)
    assert type(angle) is Fraction and 0 <= angle < 1
    assert angle == Fraction(repr(reduced))
    assert float(angle) == reduced
    assert angle_to_complex(angle) == angle_to_complex(reduced)
    assert normalize_angle(np.float64(value)) == angle
    assert parse_angle(repr(value)) == angle


def _conway_document(records):
    doc = make_twist(2).to_document()
    doc["conway"] = {"num": records, "den": [{"coeff": 1, "exp": [0, 0]}]}
    return doc


def test_conway_records_read_like_seifert_rows():
    """Integral floats and duplicate exponents read as the int document does."""
    ints = parse_link(_conway_document([{"coeff": 2, "exp": [1, 0]},
                                        {"coeff": -1, "exp": [0, 1]}])).conway
    floats = parse_link(_conway_document([{"coeff": 2.0, "exp": [1.0, 0]},
                                          {"coeff": -1, "exp": [0, 1.0]}])).conway
    split = parse_link(_conway_document([{"coeff": 1, "exp": [1, 0]},
                                         {"coeff": -1, "exp": [0, 1]},
                                         {"coeff": 1.0, "exp": [1, 0]}])).conway
    assert floats == ints and split == ints
    assert ints.num.terms == {(1, 0): 2, (0, 1): -1}
    assert all(type(v) is int for term in floats.num.terms.items()
               for v in (*term[0], term[1]))
    cancelled = parse_link(_conway_document([{"coeff": 1, "exp": [1, 0]},
                                             {"coeff": -1, "exp": [1, 0]}])).conway
    assert cancelled.num.is_zero
    with pytest.raises(SchemaError, match="conway"):
        parse_link(_conway_document([{"coeff": 1, "exp": [1, 0, 0]}]))


def test_empty_point_list_gives_empty_lists():
    for link in (make_torus(3), make_torus(1)):  # n = 2, and n = 0 that skips the descent
        assert links.signature_nullity_batch(link, []) == ([], [])
        assert links.signature_nullity_batch(link, np.zeros((0, 2))) == ([], [])
        with pytest.raises(ValueError, match="^points have 0 coordinates, expected 2: "
                                             "2 colors, 0 sent to 1$"):
            links.signature_nullity_batch(link, np.zeros((3, 0)))
        # points and rest points meet one width check: a rest point has mu - 1
        with pytest.raises(ValueError, match="^points have 2 coordinates, expected 1: "
                                             "2 colors, 1 sent to 1$"):
            links.rest_limit_counts(link, np.zeros((2, 2)))
    assert links.rest_limit_counts(make_torus(1), [[-1.0], [1j]]).tolist() == [[0, 0, 0]] * 2


@pytest.mark.parametrize("ell", [20, -20])
def test_deep_descents_match_the_closed_form(ell):
    # n = 19: a rest family may descend 20 levels and a corner family 39; the
    # rest points j/60 with 3 | j lie on walls l (theta_1 + theta_2) in Z
    link, tiny = make_torus(ell), Fraction(1, 2 ** 40)
    rests = [Fraction(j, 60) for j in range(1, 60)]
    expected = [[oracle_torus(ell, tiny, r)[0], oracle_torus(ell, 1 - tiny, r)[0],
                 oracle_torus(ell, tiny, r)[1]] for r in rests]
    got = links.rest_limit_counts(link, [TorusPoint([r]).omega() for r in rests])
    assert got.tolist() == expected
    sgn = 1 if ell > 0 else -1
    assert links.corner_limit_counts(link).tolist() == \
        [[s1 * s2 * (ell - sgn), 0] for s1, s2 in sign_vectors(2)]


@pytest.mark.parametrize("key, sub", [
    ("2", make_twist(1)), ("3", make_unlink(1)), ("2,1", make_twist(1)), ("1,1", make_twist(1)),
    ("02", make_unlink(1)), ("1, 2", make_twist(1)), ("", make_unlink(1))],
    ids=["too-many-colors", "unknown-color", "decreasing", "repeated", "leading-zero",
         "space", "empty"])
def test_sublink_key_must_list_the_sublink_colors(key, sub):
    doc = make_torus(3).to_document()
    doc["sublinks"] = {key: sub.to_document()}
    with pytest.raises(SchemaError) as err:
        parse_link(doc)
    assert str(err.value).startswith("sublinks[%s]" % key)


def test_nested_errors_name_their_key_and_keep_their_class():
    doc = make_torus(3).to_document()
    doc["sublinks"]["2"]["seifert"] = {"+": [[1]], "-": [[2]]}
    with pytest.raises(SymmetryViolation, match=r"^sublinks\[2\]: seifert\[-\] is not"):
        parse_link(doc)
    doc = make_torus(3).to_document()
    doc["underlying_oriented"]["seifert"]["-"] = [[0]]
    with pytest.raises(DimensionMismatch, match=r"^underlying_oriented: seifert\[-\] is 1x1"):
        parse_link(doc)
    doc = make_unlink(3).to_document()
    doc["sublinks"]["2,3"]["sublinks"]["2"]["seifert"] = 5
    with pytest.raises(SchemaError) as info:
        parse_link(doc)
    assert type(info.value) is SchemaError
    assert str(info.value) == ("sublinks[2,3]: sublinks[2]: "
                               "seifert must be an object keyed by sign vectors")


def test_sublink_keys_of_increasing_colors_are_read():
    doc = make_torus(3).to_document()
    for key, sub in (("1", make_unlink(1)), ("2", make_unlink(1)), ("1,2", make_twist(1))):
        doc["sublinks"] = {key: sub.to_document()}
        assert parse_link(doc).sublinks[key].mu == sub.mu


# -- the row check of Seifert entries against a per-entry reference ------------

def _reference_matrix(data, context):
    """Every entry through ``_integer``, one at a time."""
    return np.array([[links._integer(v, "%s: entry (%d, %d)", context, i, j)
                      for j, v in enumerate(row)] for i, row in enumerate(data)],
                    dtype=np.int64).reshape(len(data), len(data))


def _first_transpose_defect(matrices, mu):
    """The message of the first failing pair over every sign vector, or None."""
    for eps in sign_vectors(mu):
        key, other = sign_key(eps), sign_key(tuple(-e for e in eps))
        if not np.array_equal(np.asarray(matrices[other]), np.asarray(matrices[key]).T):
            return "seifert[%s] is not the transpose of seifert[%s]" % (other, key)
    return None


def _random_document(rnd, mu, n):
    mats = {}
    for eps in sign_vectors(mu):
        if eps[0] > 0:
            mat = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            mats[sign_key(eps)] = mat
            mats[sign_key(tuple(-e for e in eps))] = [list(r) for r in zip(*mat)]
    for mat in mats.values():  # integral floats scattered over some rows
        for row in mat:
            for j in range(n):
                if rnd.random() < 0.1:
                    row[j] = float(row[j])
    return {"mu": mu, "components_per_color": [1] * mu, "seifert": mats}


def test_row_check_matches_per_entry_reference():
    rnd = random.Random(11)
    for trial in range(60):
        mu, n = rnd.randint(1, 4), rnd.randint(0, 6)
        doc = _random_document(rnd, mu, n)
        seifert = doc["seifert"]
        if trial % 3 == 0:  # numpy integer arrays instead of lists
            seifert = {k: _reference_matrix(m, k) for k, m in seifert.items()}
            doc = dict(doc, seifert=seifert)
        link = parse_link(doc)
        expected = np.array([_reference_matrix(seifert[key], "seifert[%s]" % key)
                             for key in map(sign_key, sign_vectors(mu))]).reshape(2 ** mu, n, n)
        got = link.seifert.stack
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("value", [1.5, True, "3"], ids=["fraction", "bool", "string"])
def test_row_check_names_the_bad_entry(value):
    doc = _random_document(random.Random(3), 2, 3)
    doc["seifert"]["+-"] = [[int(v) for v in row] for row in doc["seifert"]["+-"]]
    doc["seifert"]["+-"][1][2] = value
    with pytest.raises(SchemaError) as info:
        parse_link(doc)
    assert str(info.value) == "seifert[+-]: entry (1, 2) is not an integer"


def test_row_check_keeps_the_64_bit_bound():
    doc = _random_document(random.Random(4), 2, 3)
    doc["seifert"]["-+"][0][1] = 10 ** 30
    with pytest.raises(SchemaError, match="seifert\\[-\\+\\] has an entry beyond 64 bits"):
        parse_link(doc)


def test_transpose_defect_names_the_first_failing_pair():
    rnd = random.Random(5)
    for trial in range(40):
        mu = rnd.randint(1, 4)
        doc = _random_document(rnd, mu, rnd.randint(1, 4))
        keys = sorted(doc["seifert"])
        for key in rnd.sample(keys, rnd.randint(1, min(3, len(keys)))):
            doc["seifert"][key][0][0] += 1
        expected = _first_transpose_defect(doc["seifert"], mu)
        if expected is None:  # the damage happened to keep every pair transposed
            parse_link(doc)
            continue
        with pytest.raises(SymmetryViolation) as info:
            parse_link(doc)
        assert str(info.value) == expected


# -- every outcome of the one Seifert reader -----------------------------------

def _damaged(rnd, mu, n, defect):
    """An all-int document with transposed pairs, then one ``defect``.

    Also returns the undamaged matrices, the damaged key (or, for an entry
    written at a pair, its member with eps_1 = +) and the damaged entry
    (i, j) in that key's matrix.
    """
    mats = {}
    for eps in sign_vectors(mu):
        if eps[0] > 0:
            mat = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            mats[sign_key(eps)] = mat
            mats[sign_key(tuple(-e for e in eps))] = [list(r) for r in zip(*mat)]
    clean = {k: [list(r) for r in m] for k, m in mats.items()}
    key = rnd.choice(sorted(mats))
    i, j = rnd.randrange(max(n, 1)), rnd.randrange(max(n, 1))
    other = sign_key(tuple(-1 if c == "+" else 1 for c in key))
    if defect == "numpy":
        mats = {k: np.array(m, dtype=np.int64).reshape(n, n) for k, m in mats.items()}
    elif defect == "missing":
        del mats[key]
    elif defect == "extra":
        mats["+" * (mu + 1)] = mats[key]
    elif n and defect == "ragged":
        mats[key][i].append(0)
    elif defect == "non-square":
        mats[key].append([0] * n)
    elif defect == "other-size":
        mats[key] = [[0] * (n + 1) for _ in range(n + 1)]
    elif defect == "list":
        mats = list(mats.values())
    elif n and defect == "transpose":
        mats[key][i][j] += 1
    elif n and defect in ("range", "range-float"):
        # a row that is not an array: refused by the fast path and, once a
        # float sends every matrix to the reader that names defects, there too
        mats[key][i] = range(n)
        if defect == "range-float":
            mats[other][0][0] = float(mats[other][0][0])
    elif n and defect != "none":  # another kind of entry at (i, j) and its transpose
        value = {"float": float(mats[key][i][j]), "beyond-64-bits": 10 ** 30,
                 "bool": True, "string": "3"}[defect]
        mats[key][i][j] = mats[other][j][i] = value
    if defect in ("transpose", "float", "beyond-64-bits", "bool", "string") \
            and key[0] == "-":
        key, i, j = other, j, i
    return {"mu": mu, "components_per_color": [1] * mu, "seifert": mats}, clean, key, i, j


def _expected_error(mu, n, defect, key, i, j):
    """The error class and message that name the one ``defect``, or None
    where the document is valid."""
    keys = [sign_key(eps) for eps in sign_vectors(mu)]
    if defect == "missing":
        return SchemaError, "seifert: missing matrix for sign vector %r" % key
    if defect == "extra":
        return SchemaError, "seifert: unexpected keys %r" % ["+" * (mu + 1)]
    if defect == "list":
        return SchemaError, "seifert must be an object keyed by sign vectors"
    if defect == "non-square":
        return DimensionMismatch, "seifert[%s]: row 0 has length %d, expected %d" % (key, n, n + 1)
    if defect == "other-size":
        if key == keys[0]:  # the first matrix sets the size the second one misses
            return DimensionMismatch, "seifert[%s] is %dx%d, expected %dx%d" % (
                keys[1], n, n, n + 1, n + 1)
        return DimensionMismatch, "seifert[%s] is %dx%d, expected %dx%d" % (
            key, n + 1, n + 1, n, n)
    if n == 0 or defect in ("none", "numpy", "float"):
        return None
    if defect in ("range", "range-float"):
        return SchemaError, "seifert[%s] must be a list of rows" % key
    if defect == "ragged":
        return DimensionMismatch, "seifert[%s]: row %d has length %d, expected %d" % (
            key, i, n + 1, n)
    if defect == "transpose":
        other = sign_key(tuple(-1 if c == "+" else 1 for c in key))
        return SymmetryViolation, "seifert[%s] is not the transpose of seifert[%s]" % (
            other, key)
    if defect == "beyond-64-bits":
        return SchemaError, "seifert[%s] has an entry beyond 64 bits" % key
    return SchemaError, "seifert[%s]: entry (%d, %d) is not an integer" % (key, i, j)


@settings(max_examples=300, deadline=None)
@given(mu=hst.integers(1, 4), n=hst.integers(0, 6), seed=hst.integers(0, 2 ** 32 - 1),
       defect=hst.sampled_from(["none", "numpy", "float", "missing", "extra", "ragged",
                                "non-square", "other-size", "beyond-64-bits", "bool",
                                "string", "transpose", "list", "range", "range-float"]))
# {"+": [range(1)], "-": [[0]]} on the fast path, then "-" holds [[0.0]]
@example(mu=1, n=1, seed=25, defect="range")
@example(mu=1, n=1, seed=25, defect="range-float")
def test_seifert_reader_outcome_per_defect(mu, n, seed, defect):
    doc, clean, key, i, j = _damaged(random.Random(seed), mu, n, defect)
    expected = _expected_error(mu, n, defect, key, i, j)
    if expected is not None:
        with pytest.raises(SchemaError) as info:
            parse_link(doc)
        assert (type(info.value), str(info.value)) == expected
        return
    system = parse_link(doc).seifert
    assert system.n == n
    assert system.stack.dtype == np.int64 and system.stack.shape == (2 ** mu, n, n)
    assert system.stack.tolist() == [clean[sign_key(eps)] for eps in sign_vectors(mu)]


_PARSE_IN_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sigtorus.errors import SchemaError
from sigtorus.links import parse_link
try:
    parse_link(json.loads(sys.argv[1]))
except SchemaError as exc:
    print(exc)
"""


@pytest.mark.parametrize("mu", [20, 40, 10 ** 30], ids=["20", "40", "1e30"])
def test_oversized_mu_is_refused_by_the_key_count(mu):
    """The key count is compared with 2^mu before any sign key is listed,
    so a huge mu fails at once; the parse runs in a child process under a
    1 GiB address-space limit so that a regression cannot exhaust memory."""
    doc = {"mu": mu, "components_per_color": [1], "seifert": {}}
    src = os.path.dirname(os.path.dirname(links.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _PARSE_IN_CHILD, json.dumps(doc)],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "seifert has 0 matrices, mu = %d needs 2^%d\n" % (mu, mu)


_HUGE_COUNTS_IN_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sigtorus.links import ColoredLink, parse_link
link = parse_link({"mu": 1, "components_per_color": [10 ** 8],
                   "linking": [{"a": "1.1", "b": "1.100000000", "lk": 2}],
                   "seifert": {"+": [], "-": []}})
print(link.total_components, link.lk("1.100000000", "1.1"))
two = ColoredLink(2, [1, 10 ** 6], {("2.1000000", "1.1"): 3, ("2.7", "1.1"): -1},
                  {"++": [], "+-": [], "-+": [], "--": []})
print(two.linking_vector(), two.lk_colors(2, 1))
"""


def test_huge_component_counts_are_read_from_the_linking_records():
    """Component ids are checked arithmetically and linking totals summed
    over the records, so no per-component list is built; the child runs
    under a 1 GiB address-space limit."""
    src = os.path.dirname(os.path.dirname(links.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _HUGE_COUNTS_IN_CHILD],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "100000000 2\n(2,) 2\n"


_LINKING_CHECKS_IN_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sigtorus.links import ColoredLink, linking_inertia
from sigtorus.verify import verify_corner_limits, verify_lt
two = ColoredLink(2, [1, 10 ** 5], {("1.1", "2.1"): 1},
                  {"++": [], "+-": [], "-+": [], "--": []})
one = ColoredLink(1, [10 ** 5], {("1.1", "1.2"): 1}, {"+": [], "-": []})
print(tuple(linking_inertia(two, (1, -1))), tuple(linking_inertia(one, (1,))))
reports = verify_corner_limits(two) + verify_lt(one)
print(len(reports), all(rep.passed for rep in reports))
"""


def test_linking_checks_build_no_dense_matrix():
    """Only the components named in nonzero linking records enter the
    linking matrix, so the corner and LT checks on 10^5 components fit in
    a child process under a 1 GiB address-space limit."""
    src = os.path.dirname(os.path.dirname(links.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _LINKING_CHECKS_IN_CHILD],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "(1, 0, 100000) (0, 1, 99999)\n16 True\n"


def test_equal_linking_records_are_accepted_in_either_order():
    doc = make_torus(3).to_document()
    record = doc["linking"][0]
    doc["linking"] = [record, dict(record), dict(record, a=record["b"], b=record["a"])]
    assert parse_link(doc).to_document() == make_torus(3).to_document()


@pytest.mark.parametrize("comp", ["3.1", "1.2", "0.1", "1.0", "01.1", "1.01", "+1.1",
                                  "1", "1.1.1", "", 1, None])
def test_linking_with_an_unknown_component_is_refused(comp):
    doc = make_twist(2).to_document()
    doc["linking"] = [{"a": comp, "b": "2.1", "lk": 1}]
    with pytest.raises(SchemaError) as info:
        parse_link(doc)
    assert str(info.value) == "linking refers to unknown component %r" % ((comp, "2.1"),)


# -- no link document ends in a traceback --------------------------------------

_JUNK = [None, True, 0, -1, 1.5, "", "x", [], {}, [[]], [1], {"a": 1}, 10 ** 30]


def _nodes(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def test_no_link_document_ends_in_a_traceback():
    failures = []
    for link in (make_torus(3), make_twist(2), make_unlink(3)):
        holder = {"root": link.to_document()}
        for path in list(_nodes(holder))[1:]:
            parent = functools.reduce(operator.getitem, path[:-1], holder)
            kept = parent[path[-1]]
            for value in _JUNK:
                parent[path[-1]] = value
                try:
                    parse_link(holder["root"])
                except SchemaError:
                    pass
                except Exception as exc:
                    failures.append((path, value, repr(exc)))
            parent[path[-1]] = kept
    assert failures == []


# -- integers passed by library callers ------------------------------------------

def _jump_of(ell):
    return signature_jump((ell, 1), (Fraction(1, 3), Fraction(1, 5)))


def _wall_of(ell):
    return wall_indicator((ell, 1), (Fraction(1, 3), Fraction(1, 5)))


def _torus3_file_with(value, *path):
    """torus(3) read back from its document with the entry at ``path`` set to ``value``."""
    doc = make_torus(3).to_document()
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    return parse_link(doc).to_document()


# Every integer entry point, and a value it accepts: each reads through
# laurent.as_integer, so an integral float or a numpy integer reads as its
# int, and a bool, a non-integral float or a string is refused, not truncated.
_INTEGER_READERS = {
    "file-mu": (lambda mu: _torus3_file_with(mu, "mu"), 2),
    "file-components_per_color": (lambda c: _torus3_file_with(c, "components_per_color", 0), 1),
    "file-rank_alexander": (lambda r: _torus3_file_with(r, "rank_alexander"), 2),
    "file-lk": (lambda lk: _torus3_file_with(lk, "linking", 0, "lk"), 2),
    "ColoredLink-mu": (lambda mu: ColoredLink(mu, [1, 1], {}, make_twist(2).seifert.to_document())
                       .to_document(), 2),
    "SeifertSystem-mu": (lambda mu: SeifertSystem(mu, {"+": [[1]], "-": [[1]]}).to_document(), 1),
    "linking_inertia-sign": (lambda s: linking_inertia(make_torus(3), (s, -1)), 1),
    "linking_inertia-bool": (lambda s: linking_inertia(make_torus(3), (1, s)), -1),
    "predict_lt_limit_2comp": (lambda ell: predict_lt_limit_2comp(ell, make_twist(2).conway), 2),
    "LaurentPoly-nvars": (lambda nvars: LaurentPoly(nvars, {}).nvars, 2),
    "signature_jump": (_jump_of, 2),
    "wall_indicator": (_wall_of, 2),
    "torus_signature_profile": (lambda n: torus_signature_profile(n, Fraction(1, 2)), 2),
    "run_suite-samples": (lambda samples: report_text(run_suite(make_torus(3), "3d", samples)), 2),
    "family-twist": (lambda k: make_twist(k).to_document(), 2),
    "family-torus": (lambda ell: make_torus(ell).to_document(), 2),
    "family-unlink": (lambda mu: make_unlink(mu).to_document(), 2),
    "oracle_torus": (lambda ell: oracle_torus(ell, Fraction(1, 10), Fraction(1, 10)), 2),
}


@pytest.mark.parametrize("read, good", list(_INTEGER_READERS.values()),
                         ids=list(_INTEGER_READERS))
def test_library_integers_are_read_as_file_integers(read, good):
    """An integral float or a numpy integer reads as its int; a bool, a
    non-integral float or a string is refused with SchemaError."""
    assert read(float(good)) == read(np.int64(good)) == read(good)
    for bad in (True, good + 0.5, str(good)):
        with pytest.raises(SchemaError, match="is not an integer"):
            read(bad)
