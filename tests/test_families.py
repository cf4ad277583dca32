import random
from fractions import Fraction

import pytest
from oracles import torus_clasp_sequence

from sigtorus.angles import TorusPoint
from sigtorus.errors import SigtorusError, ZeroParameter
from sigtorus.families import (make_family, make_torus, make_twist,
                               make_unlink, oracle_torus, oracle_twist, unknot)
from sigtorus.links import (corner_limit_counts, load_link, parse_link, rest_limit_counts,
                            save_link, signature_nullity)
from sigtorus.slope import slope
from sigtorus.verify import random_rational_point, report_text, run_suite


def test_twist_data_shape():
    link = make_twist(1)  # a Whitehead link
    assert link.mu == 2
    assert link.lk_colors(1, 2) == 0
    assert all(m.tolist() == [[1]] for m in link.seifert.stack)
    assert link.rest_sublink().seifert.n == 0


def test_torus_data_shape():
    link = make_torus(3)
    assert link.seifert.matrix((1, 1)).tolist() == [[-1, 0], [-1, -1]]
    assert link.seifert.matrix((-1, -1)).tolist() == [[-1, -1], [0, -1]]
    assert link.seifert.matrix((1, -1)).tolist() == [[0, 0], [0, 0]]
    assert link.lk_colors(1, 2) == 3
    assert make_torus(1).seifert.n == 0
    assert make_torus(-3).seifert.matrix((1, 1)).tolist() == [[1, 0], [1, 1]]
    assert make_torus(0).to_document() == make_unlink(2).to_document()


def test_torus_zero_is_the_two_component_unlink():
    """torus(0) has the unlink's nullity 1 on the open torus, as twist(0)
    and the unlink oracle (0, 1) say, at points, rest limits and corners."""
    torus, unlink, twist = make_torus(0), make_unlink(2), make_twist(0)
    for point in [(Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2), Fraction(5, 6))]:
        assert signature_nullity(torus, point) == signature_nullity(twist, point) == (0, 1)
    rests = [TorusPoint([Fraction(1, 3)]).omega(), TorusPoint([Fraction(1, 2)]).omega()]
    assert rest_limit_counts(torus, rests).tolist() == rest_limit_counts(unlink, rests).tolist()
    assert corner_limit_counts(torus).tolist() == corner_limit_counts(unlink).tolist()


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


_FAMILY_LINKS = ([("torus", ell) for ell in (2, -2, 3, -3, 5, -5, 7)]
                 + [("twist", k) for k in range(-3, 6)] + [("unlink", m) for m in (2, 3, 4)])


def _slope_outcome(link, point):
    try:
        return repr(slope(link.conway, link.rest_sublink().conway, point))
    except SigtorusError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name, parameter", _FAMILY_LINKS,
                         ids=["%s(%d)" % case for case in _FAMILY_LINKS])
def test_a_family_and_its_file_compute_the_same_bits(tmp_path, name, parameter):
    """Conway terms are evaluated in one order however they were built, so
    a family's verify report and slopes equal those of its saved file."""
    link = make_family(name, parameter)
    save_link(link, str(tmp_path / "link.json"))
    loaded = load_link(str(tmp_path / "link.json"))
    assert report_text(run_suite(loaded, "all", samples=50, seed=3)) == \
        report_text(run_suite(link, "all", samples=50, seed=3))
    rnd = random.Random(parameter)
    for _ in range(200):
        point = random_rational_point(rnd, link.mu - 1)
        assert _slope_outcome(loaded, point) == _slope_outcome(link, point)


def test_make_family_dispatch():
    assert make_family("twist", 0).mu == 2
    assert make_family("torus", 2).lk_colors(1, 2) == 2
    assert make_family("unlink", 3).mu == 3
    with pytest.raises(ValueError):
        make_family("granny", 1)


_BUILDERS = [make_twist, make_torus, make_unlink,
             lambda ell: oracle_torus(ell, Fraction(1, 10), Fraction(1, 10))]
_BUILDER_IDS = ["twist", "torus", "unlink", "oracle_torus"]


@pytest.mark.parametrize("build", _BUILDERS, ids=_BUILDER_IDS)
def test_a_non_integral_parameter_is_refused(build):
    with pytest.raises(SigtorusError, match=r"\(2\.5\)"):
        build(2.5)


@pytest.mark.parametrize("build", _BUILDERS, ids=_BUILDER_IDS)
def test_an_integral_float_parameter_is_read_as_its_integer(build):
    def described(value):
        return value if isinstance(value, tuple) else value.to_document()
    assert described(build(2.0)) == described(build(2))


def test_torus_clasp_sequence():
    clasps = torus_clasp_sequence(-2)
    assert list(clasps) == [(2, -1), (2, -1)]
    with pytest.raises(ZeroParameter):
        torus_clasp_sequence(0)


def test_torus_underlying_oriented_present():
    link = make_torus(1)  # a Hopf link
    oriented = link.underlying_oriented
    assert oriented.mu == 1
    assert oriented.seifert.matrix((-1,)).tolist() == [[-1]]
    assert oriented.lk("1.1", "1.2") == 1
