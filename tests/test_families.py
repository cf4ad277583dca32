import random
from fractions import Fraction

import pytest
from oracles import torus_clasp_sequence

from sigtorus.angles import TorusPoint
from sigtorus.errors import ZeroParameter
from sigtorus.families import (make_family, make_torus, make_twist,
                               make_unlink, oracle_torus, oracle_twist, unknot)
from sigtorus.links import parse_link, signature_nullity


def test_twist_data_shape():
    link = make_twist(1)  # a Whitehead link
    assert link.mu == 2
    assert link.lk_colors(1, 2) == 0
    assert all(m.tolist() == [[1]] for m in link.seifert.matrices.values())
    assert link.rest_sublink().seifert.n == 0


def test_torus_data_shape():
    link = make_torus(3)
    assert link.seifert.matrices["++"].tolist() == [[-1, 0], [-1, -1]]
    assert link.seifert.matrices["--"].tolist() == [[-1, -1], [0, -1]]
    assert link.seifert.matrices["+-"].tolist() == [[0, 0], [0, 0]]
    assert link.lk_colors(1, 2) == 3
    assert make_torus(1).seifert.n == 0
    assert make_torus(-3).seifert.matrices["++"].tolist() == [[1, 0], [1, 1]]
    assert make_torus(0).seifert.n == 0


def test_oracle_values_from_step_profile():
    assert oracle_torus(3, Fraction(1, 10), Fraction(1, 10)) == (2, 0)
    assert oracle_torus(3, Fraction(1, 6), Fraction(1, 6)) == (1, 1)
    assert oracle_torus(3, Fraction(1, 2), Fraction(1, 2)) == (-2, 0)
    with pytest.raises(ZeroParameter):
        oracle_torus(0, Fraction(1, 3), Fraction(1, 3))


def test_twist_oracle():
    assert oracle_twist(-5) == (-1, 0)
    assert oracle_twist(0) == (0, 1)
    assert oracle_twist(7) == (1, 0)


def test_torus_engine_matches_oracle_sample_grid():
    for ell in (-3, -2, -1, 1, 2, 3):
        link = make_torus(ell)
        for i in range(1, 12):
            for j in range(1, 12):
                pt = TorusPoint([Fraction(i, 12), Fraction(j, 12)])
                assert signature_nullity(link, pt) == oracle_torus(ell, *pt.angles)


def test_twist_engine_matches_oracle_sample_grid():
    for k in (-2, -1, 0, 1, 2):
        link = make_twist(k)
        expected = oracle_twist(k)
        for i in range(1, 8):
            for j in range(1, 8):
                pt = TorusPoint([Fraction(i, 8), Fraction(j, 8)])
                assert signature_nullity(link, pt) == expected


def test_unlink_signature_and_nullity():
    rnd = random.Random(0)
    for mu in (1, 2, 3, 4):
        link = make_unlink(mu)
        for _ in range(6):
            pt = TorusPoint([Fraction(rnd.randint(1, 11), 12) for _ in range(mu)])
            assert signature_nullity(link, pt) == (0, mu - 1)


def test_unknot_conway_value():
    # 1/(t - 1/t) at t = i is 1/(2i)
    value = unknot().conway.eval((1j,))
    assert value == pytest.approx(-0.5j)


def test_document_round_trip_preserves_invariants():
    rnd = random.Random(1)
    for link in (make_twist(2), make_torus(3), make_unlink(3)):
        reparsed = parse_link(link.to_document())
        for _ in range(5):
            pt = TorusPoint([Fraction(rnd.randint(1, 15), 16)
                             for _ in range(link.mu)])
            assert signature_nullity(reparsed, pt) == signature_nullity(link, pt)
        assert reparsed.linking == link.linking


def test_make_family_dispatch():
    assert make_family("twist", 0).mu == 2
    assert make_family("torus", 2).lk_colors(1, 2) == 2
    assert make_family("unlink", 3).mu == 3
    with pytest.raises(ValueError):
        make_family("granny", 1)


def test_torus_clasp_sequence():
    clasps = torus_clasp_sequence(-2)
    assert list(clasps) == [(2, -1), (2, -1)]
    with pytest.raises(ZeroParameter):
        torus_clasp_sequence(0)


def test_torus_underlying_oriented_present():
    link = make_torus(1)  # a Hopf link
    oriented = link.underlying_oriented
    assert oriented.mu == 1
    assert oriented.seifert.matrices["-"].tolist() == [[-1]]
    assert oriented.lk("1.1", "1.2") == 1
