import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import sigtorus
import sigtorus.cli
from sigtorus.angles import angle_to_complex
from sigtorus.cli import main
from sigtorus.families import make_family, make_torus, make_twist, oracle_torus, unknot
from sigtorus.links import (ColoredLink, SeifertSystem, save_link, sign_key,
                            sign_vectors, signature_nullity_batch)
from sigtorus.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_file(tmp_path, capsys, name, param, filename):
    path = tmp_path / filename
    code, _, _ = run(capsys, "family", "--name", name, "--param", str(param),
                     "--out", str(path))
    assert code == 0
    return str(path)


def test_family_eval_round_trip(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist2.json")
    code, out, _ = run(capsys, "eval", "--link", twist, "--omega", "1/4,1/2")
    assert code == 0
    assert out.strip() == "sigma=1 eta=0 dim=1"

    torus = make_file(tmp_path, capsys, "torus", 3, "torus3.json")
    code, out, _ = run(capsys, "eval", "--link", torus, "--omega", "1/6,1/6")
    assert code == 0
    assert out.startswith("sigma=1 eta=1")


def test_eval_boundary_exits_2(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    code, _, err = run(capsys, "eval", "--link", twist, "--omega", "0,1/2")
    assert code == 2
    assert "torres" in err


def test_eval_reads_decimal_angles_as_fractions(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    code, out, err = run(capsys, "eval", "--link", twist, "--omega", "0.25,0.5")
    assert (code, out, err) == (0, "sigma=1 eta=0 dim=1\n", "")


# one point of 1, 2 and 3 angles, spelled as decimals and as p/q
_SPELLINGS = {1: ("0.3", "3/10"), 2: ("0.25,0.2", "1/4,1/5"),
              3: ("0.3,0.25,0.2", "3/10,1/4,1/5")}


@pytest.mark.parametrize("name, param", [("torus", 3), ("twist", 2), ("unlink", 3)])
def test_decimal_and_fraction_spellings_print_alike(tmp_path, capsys, name, param):
    """A decimal reads as the fraction it prints as: both spellings of one
    point give the same stdout, stderr, exit code and written files."""
    path = make_file(tmp_path, capsys, name, param, "link.json")
    mu = make_family(name, param).mu
    results = []
    for which in (0, 1):
        point, rest = _SPELLINGS[mu][which], _SPELLINGS[mu - 1][which]
        csv, pgm = (str(tmp_path / ("%d.%s" % (which, ext))) for ext in ("csv", "pgm"))
        outputs = [run(capsys, *argv, "--link", path) for argv in (
            ["eval", "--omega", point],
            ["limit", "--side", "plus", "--omega-rest", rest],
            ["limit", "--side", "minus", "--omega-rest", rest],
            ["slope", "--omega", rest],
            ["torres", "--omega", rest],
            ["grid", "--resolution", "5", "--out", csv, "--heatmap", pgm,
             "--rest", ("0.5", "1/2")[which]])]
        if mu == 3:
            outputs += [Path(csv).read_bytes(), Path(pgm).read_bytes()]
        results.append(outputs)
    assert results[0] == results[1]
    if name == "torus":
        assert results[0][4] == (0, "sigma_pred=0 eta_pred=2 midpoint=pass\n"
                                    "note: no component of the first color splits off\n", "")
    # the float is reduced before it is read: -1e-20 is angle 0, on the boundary
    code, out, err = run(capsys, "eval", "--link", path, "--omega=" + ",".join(
        ["-1e-20"] + _SPELLINGS[mu - 1][1].split(",")))
    assert (code, out) == (2, "") and "torres" in err


def test_negative_angle_needs_the_equals_form(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus3.json")
    code, out, _ = run(capsys, "eval", "--link", torus, "--omega=-1/3,1/5")
    assert (code, out) == (0, "sigma=-2 eta=0 dim=2\n")
    # separated, argparse reads "-1/3,1/5" as an option: a usage error
    env = dict(os.environ, PYTHONPATH=str(Path(sigtorus.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "sigtorus.cli", "eval", "--link", torus,
                           "--omega", "-1/3,1/5"],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "expected one argument" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_grid_outputs_and_determinism(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    pgm = tmp_path / "a.pgm"
    assert run(capsys, "grid", "--link", torus, "--resolution", "6",
               "--out", str(out1), "--heatmap", str(pgm))[0] == 0
    assert run(capsys, "grid", "--link", torus, "--resolution", "6",
               "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "theta1,theta2,sigma,eta"
    assert len(lines) == 1 + 25
    header = pgm.read_text().splitlines()
    assert header[0] == "P2"
    assert header[1] == "5 5"
    assert header[2] == "255"


def test_grid_smallest_resolution(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    out = tmp_path / "g.csv"
    assert run(capsys, "grid", "--link", twist, "--resolution", "2",
               "--out", str(out))[0] == 0
    lines = out.read_text().splitlines()
    assert lines[1:] == ["1/2,1/2,0,1"]


def test_grid_trivial_link_rows(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    out = tmp_path / "g.csv"
    assert run(capsys, "grid", "--link", twist, "--resolution", "10",
               "--out", str(out))[0] == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 81
    assert all(row.endswith(",0,1") for row in rows)


def test_grid_axes_for_three_colors(tmp_path, capsys):
    link = make_file(tmp_path, capsys, "unlink", 3, "unlink3.json")
    out = tmp_path / "g.csv"
    code, _, _ = run(capsys, "grid", "--link", link, "--resolution", "3",
                     "--out", str(out), "--axes", "1,3", "--rest", "1/3")
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",0,2") for row in rows)


def test_grid_missing_rest_angles_exits_2(tmp_path, capsys):
    link = make_file(tmp_path, capsys, "unlink", 3, "unlink3.json")
    code, _, err = run(capsys, "grid", "--link", link, "--resolution", "3",
                       "--out", str(tmp_path / "g.csv"))
    assert code == 2
    assert "--rest" in err


def test_tolerance_is_not_read_from_the_environment(tmp_path, capsys, monkeypatch):
    """The zero cut is a constant: SIGTORUS_TOL changes no answer and no report byte."""
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")

    def answers(name):
        report = tmp_path / name
        evaluated = run(capsys, "eval", "--link", torus, "--omega", "1/20,1/20")
        verified = run(capsys, "verify", "--link", torus, "--suite", "all", "--samples", "5",
                       "--report", str(report))
        return evaluated, verified, report.read_bytes()

    unset = answers("unset.json")
    assert unset[0] == (0, "sigma=2 eta=0 dim=2\n", "")
    assert unset[1][0] == 0 and unset[1][1].endswith("failures=0\n")
    monkeypatch.setenv("SIGTORUS_TOL", "0.1")
    assert answers("set.json") == unset


def test_grid_constant_heatmap_is_zero(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    pgm = tmp_path / "flat.pgm"
    assert run(capsys, "grid", "--link", twist, "--resolution", "4",
               "--out", str(tmp_path / "g.csv"), "--heatmap", str(pgm))[0] == 0
    body = pgm.read_text().splitlines()[3:]
    assert set(" ".join(body).split()) == {"0"}


def _grid_texts(link, n, axes=(1, 2), rest=None):
    """The grid CSV and PGM texts from one signature_nullity_batch call over
    every point of the sweep, with no pairing of conjugate points."""
    thetas = [Fraction(i, n) for i in range(1, n)]
    rows = []
    for t1 in thetas:
        for t2 in thetas:
            angles = {**(rest or {}), axes[0]: t1, axes[1]: t2}
            rows.append([angle_to_complex(angles[c]) for c in range(1, link.mu + 1)])
    sigmas, etas = signature_nullity_batch(link, rows)
    csv = "theta1,theta2,sigma,eta\n" + "".join(
        "%s,%s,%d,%d\n" % (t1, t2, sigma, eta)
        for (t1, t2), sigma, eta in zip([(a, b) for a in thetas for b in thetas],
                                         sigmas, etas))
    low, span = min(sigmas), max(sigmas) - min(sigmas)
    pixels = [str(round((s - low) * 255 / span)) if span else "0" for s in sigmas]
    side = n - 1
    pgm = "P2\n%d %d\n255\n" % (side, side) + "".join(
        " ".join(pixels[r * side:(r + 1) * side]) + "\n" for r in range(side))
    return csv, pgm


def _system_link(mu, n, halves):
    """The link whose A^eps is halves[k] for the k-th eps with eps_1 = +."""
    mats = {}
    for eps, half in zip([eps for eps in sign_vectors(mu) if eps[0] > 0], halves):
        mat = [half[r * n:(r + 1) * n] for r in range(n)]
        mats[sign_key(eps)] = mat
        mats[sign_key(tuple(-e for e in eps))] = [list(col) for col in zip(*mat)]
    return ColoredLink(mu, [1] * mu, {}, SeifertSystem(mu, mats))


@hst.composite
def _grid_cases(draw):
    """A random system with mu = 2, or mu = 3 swept with its rest angle at
    1/2 (spelled 1/2 or 0.5) on either axis order, and a resolution."""
    mu, n = draw(hst.integers(2, 3)), draw(hst.integers(1, 7))
    entries = hst.lists(hst.integers(-3, 3), min_size=n * n, max_size=n * n)
    halves = draw(hst.lists(entries, min_size=2 ** (mu - 1), max_size=2 ** (mu - 1)))
    argv = []
    if mu == 3:
        argv = ["--rest", draw(hst.sampled_from(("1/2", "0.5")))]
        argv += draw(hst.sampled_from(([], ["--axes", "1,2"], ["--axes", "2,1"])))
    return _system_link(mu, n, halves), draw(hst.integers(2, 13)), argv


@settings(max_examples=60, deadline=None)
@given(case=_grid_cases())
def test_grid_equals_a_sweep_over_every_point(case):
    link, resolution, argv = case
    axes = (2, 1) if "2,1" in argv else (1, 2)
    rest = {3: Fraction(1, 2) if "1/2" in argv else 0.5} if link.mu == 3 else None
    with tempfile.TemporaryDirectory() as tmp:
        path, csv, pgm = (os.path.join(tmp, name) for name in ("l.json", "g.csv", "g.pgm"))
        save_link(link, path)
        assert main(["grid", "--link", path, "--resolution", str(resolution),
                     "--out", csv, "--heatmap", pgm] + argv) == 0
        with open(csv, encoding="utf-8") as fh_csv, open(pgm, encoding="utf-8") as fh_pgm:
            got = fh_csv.read(), fh_pgm.read()
    assert got == _grid_texts(link, resolution, axes, rest)


@pytest.mark.parametrize("name, param, resolution, argv, evaluated", [
    ("torus", 3, 2, [], 1),       # one point, its own conjugate
    ("torus", 3, 7, [], 18),      # 36 points
    ("torus", -4, 8, [], 25),     # 49 points, the centre (1/2, 1/2) alone
    ("unlink", 3, 6, ["--rest", "1/2"], 13),
    ("unlink", 3, 6, ["--rest", "0.5", "--axes", "3,1"], 13),
    ("unlink", 3, 6, ["--rest", "1/3"], 25),
    ("unlink", 3, 2, ["--rest", "1/3"], 1),
])
def test_grid_evaluates_each_conjugate_pair_once(tmp_path, capsys, monkeypatch,
                                                 name, param, resolution, argv, evaluated):
    link = make_file(tmp_path, capsys, name, param, "link.json")
    counts = []
    batch = sigtorus.cli.signature_nullity_batch

    def counted(link, omegas, *args):
        counts.append(len(omegas))
        return batch(link, omegas, *args)

    monkeypatch.setattr(sigtorus.cli, "signature_nullity_batch", counted)
    out = tmp_path / "g.csv"
    assert run(capsys, "grid", "--link", link, "--resolution", str(resolution),
               "--out", str(out), *argv)[0] == 0
    assert counts == [evaluated]
    assert len(out.read_text().splitlines()) == 1 + (resolution - 1) ** 2


def test_limit_command(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, _ = run(capsys, "limit", "--link", torus, "--side", "plus",
                       "--omega-rest", "1/10")
    assert code == 0
    assert out.strip() == "limit=2 side=plus status=stable"
    code, out, _ = run(capsys, "limit", "--link", torus, "--side", "minus",
                       "--omega-rest", "1/10")
    assert "limit=-2" in out


def test_limit_where_the_form_vanishes_on_the_rest_circle(tmp_path, capsys):
    # A^{++} = [1] and A^{+-} = [-1]: H is 0 on the whole circle omega_2 = -1
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps({"mu": 2, "components_per_color": [1, 1], "seifert": {
        "++": [[1]], "+-": [[-1]], "-+": [[-1]], "--": [[1]]}}))
    for side in ("plus", "minus"):
        code, out, _ = run(capsys, "limit", "--link", str(path), "--side", side,
                           "--omega-rest", "1/2")
        assert code == 0
        assert out.strip() == "limit=0 side=%s status=stable" % side


def test_slope_command(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    code, out, _ = run(capsys, "slope", "--link", twist, "--omega", "1/4")
    assert code == 0
    assert out.strip() == "slope=4 s=1 eps=0"


def test_slope_command_at_zero_and_infinity(tmp_path, capsys):
    """The two ends of the slope: twist(0)'s derivative vanishes (slope 0),
    and a sublink Conway function t^2 - t^-2 vanishes at the square root i
    of the angle 1/2 (slope inf)."""
    twist0 = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    assert run(capsys, "slope", "--link", twist0, "--omega", "1/4") == (
        0, "slope=0 s=0 eps=1\n", "")
    twist2 = make_file(tmp_path, capsys, "twist", 2, "twist2.json")
    doc = json.loads(Path(twist2).read_text())
    doc["sublinks"]["2"]["conway"] = [{"coeff": 1, "exp": [2]}, {"coeff": -1, "exp": [-2]}]
    Path(twist2).write_text(json.dumps(doc))
    assert run(capsys, "slope", "--link", twist2, "--omega", "1/2") == (
        0, "slope=inf s=0 eps=-1\n", "")


# a valid argv, --link left out, for every command that reads a link file
_LINK_COMMANDS = [["eval", "--omega", "1/3,1/5"],
                  ["grid", "--resolution", "3", "--out", "g.csv"],
                  ["limit", "--side", "plus", "--omega-rest", "1/5"],
                  ["slope", "--omega", "1/4"],
                  ["verify", "--suite", "lt"],
                  ["torres", "--omega", "1/5"]]


def test_every_link_command_is_listed():
    _, commands = sigtorus.cli._build_parser()
    takes_link = {name for name, parser in commands.items()
                  if any("--link" in action.option_strings for action in parser._actions)}
    assert takes_link == {argv[0] for argv in _LINK_COMMANDS}


@pytest.mark.parametrize("tol", ["1e-9", "abc", "nan", "0", "-1", "inf", "1", "1e308"])
def test_bad_tol_flag_exits_2(tmp_path, capsys, tol):
    """The zero cut is a constant, so no command has a --tol flag: any value,
    the old default 1e-9 included, exits 2 as an unrecognized argument."""
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    for argv in _LINK_COMMANDS:
        with pytest.raises(SystemExit) as info:
            main(argv[:1] + ["--link", twist] + argv[1:] + ["--tol", tol])
        assert info.value.code == 2, argv
        assert "unrecognized arguments: --tol" in capsys.readouterr().err, argv


@pytest.mark.parametrize("sublink_conway", [None, [{"coeff": 1, "exp": [0]}]],
                         ids=["stock", "no-pole-at-1"])
def test_slope_at_a_boundary_point_exits_2(tmp_path, capsys, sublink_conway):
    """slope --omega 0 is refused as limit and torres refuse it, whatever
    the sublink's Conway data reads at 1."""
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    if sublink_conway is not None:
        doc = json.loads(Path(twist).read_text())
        doc["sublinks"]["2"]["conway"] = sublink_conway
        Path(twist).write_text(json.dumps(doc))
    for argv in (["slope", "--omega", "0"], ["torres", "--omega", "0"],
                 ["limit", "--side", "plus", "--omega-rest", "0"]):
        code, out, err = run(capsys, *argv, "--link", twist)
        assert (code, out) == (2, ""), argv
        assert err == "error: the fixed coordinates must avoid 1\n", argv


def test_torres_command(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, _ = run(capsys, "torres", "--link", torus, "--omega", "1/5")
    assert code == 0
    assert "sigma_pred=0 eta_pred=2 midpoint=pass" in out


def test_torres_command_with_decimal_angles(tmp_path, capsys):
    # 0.3 is 3/10, so the exact wall test decides the midpoint check
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    decimal = run(capsys, "torres", "--link", torus, "--omega", "0.3")
    assert decimal == (0, "sigma_pred=0 eta_pred=2 midpoint=pass\n"
                          "note: no component of the first color splits off\n", "")
    assert run(capsys, "torres", "--link", torus, "--omega", "3/10") == decimal


def test_torres_command_notes_the_split_slope(tmp_path, capsys):
    twist0 = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    code, out, err = run(capsys, "torres", "--link", twist0, "--omega", "1/4")
    assert (code, err) == (0, "")
    assert "note: split case: slope SlopeValue(0.0)" in out.splitlines()


def test_verify_command_and_report(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 2, "torus.json")
    report1 = tmp_path / "r1.json"
    report2 = tmp_path / "r2.json"
    code, out, _ = run(capsys, "verify", "--link", torus, "--suite", "all",
                       "--samples", "4", "--seed", "7", "--report", str(report1))
    assert code == 0
    assert "failures=0" in out
    assert run(capsys, "verify", "--link", torus, "--suite", "all",
               "--samples", "4", "--seed", "7", "--report", str(report2))[0] == 0
    assert report1.read_bytes() == report2.read_bytes()
    payload = json.loads(report1.read_text())
    assert payload and all(rec["pass"] for rec in payload)
    assert {"check", "inputs", "lhs", "rhs", "relation", "pass", "notes"} <= set(payload[0])


def test_verify_missing_data_exits_2(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    doc = json.loads(Path(twist).read_text())
    del doc["conway"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--link", str(stripped), "--suite", "4d",
                       "--samples", "2")
    assert code == 2
    assert "conway" in err


def test_verify_failure_exits_4(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    doc = json.loads(Path(twist).read_text())
    doc["rank_alexander"] = 5  # deliberately wrong input data
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--link", str(bad), "--suite", "3d",
                       "--samples", "2")
    assert code == 4
    assert "FAIL" in out


def test_verify_at_linking_beyond_an_index_exits_4(tmp_path, capsys):
    """torus(3) data with lk = 10**30: the jump is a wall count, so the
    checks run and fail on the inconsistent data instead of raising."""
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    doc = json.loads(Path(torus).read_text())
    doc["linking"][0]["lk"] = 10 ** 30
    Path(torus).write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--link", torus, "--suite", "all",
                         "--samples", "3")
    assert (code, err) == (4, "")
    assert "FAIL 3d/equality/plus" in out


_CONWAY_COMMANDS = (("slope", "--omega", "1/5"), ("torres", "--omega", "1/5"),
                    ("verify", "--suite", "all", "--samples", "3"))


@pytest.mark.parametrize("family, param, key, field, commands", [
    ("twist", 2, "", "coeff", _CONWAY_COMMANDS),
    ("twist", 2, "2", "coeff", _CONWAY_COMMANDS),
    ("twist", 2, "", "exp", _CONWAY_COMMANDS),
    ("torus", 3, "2", "coeff", _CONWAY_COMMANDS[:1]),
], ids=["twist-link-coeff", "twist-sublink-coeff", "twist-link-exp", "torus-sublink-coeff"])
def test_conway_beyond_float_range_exits_2(tmp_path, capsys, family, param, key, field,
                                            commands):
    """A link ("") or sublink ("2") Conway numerator with a coefficient or an
    exponent of 10**400 is an input error that names the Conway function."""
    doc = make_family(family, param).to_document()
    record = (doc["sublinks"][key] if key else doc)["conway"]["num"][0]
    record[field] = 10 ** 400 if field == "coeff" else [10 ** 400] + record["exp"][1:]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in commands:
        code, out, err = run(capsys, *argv, "--link", str(path))
        assert (code, out) == (2, ""), argv
        assert "Conway function" in err and "beyond float range" in err, argv
    # eval reads no Conway data
    code, out, _ = run(capsys, "eval", "--link", str(path), "--omega", "1/3,1/5")
    assert code == 0 and out.startswith("sigma=")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the zero cut ZERO_CUT * max(1, ||H||_F) has an absolute floor of "
                          "ZERO_CUT = 1e-9, and ||H||_F is about |1 - omega_1|, 6e-11 here")
def test_eval_near_the_boundary_reads_the_closed_form(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    # 1e-11 reads as the rational 1/100000000000, so both spellings need the fix
    for theta1 in ("1/1000000000", "1/100000000000", "1e-11"):
        want = "sigma=%d eta=%d dim=2\n" % oracle_torus(3, Fraction(theta1), Fraction(1, 5))
        code, out, _ = run(capsys, "eval", "--link", torus, "--omega", theta1 + ",1/5")
        assert (code, out) == (0, want), theta1


def test_family_refuses_overwrite(tmp_path, capsys):
    path = tmp_path / "link.json"
    assert run(capsys, "family", "--name", "torus", "--param", "0",
               "--out", str(path))[0] == 0
    code, _, err = run(capsys, "family", "--name", "torus", "--param", "1",
                       "--out", str(path))
    assert code == 2
    assert "--force" in err
    assert run(capsys, "family", "--name", "torus", "--param", "1",
               "--out", str(path), "--force")[0] == 0


@pytest.mark.parametrize("name, param", [
    ("unlink", "0"), ("unlink", "-1"), ("twist", str(10 ** 30)), ("twist", str(-10 ** 30)),
    ("torus", str(10 ** 30)), ("torus", str(-10 ** 30)), ("unlink", str(10 ** 30)),
], ids=["0", "-1", "twist-1e30", "twist-minus-1e30", "torus-1e30", "torus-minus-1e30",
        "unlink-1e30"])
def test_family_bad_param_exits_2(tmp_path, capsys, name, param):
    path = tmp_path / "unlink.json"
    code, out, err = run(capsys, "family", "--name", name, "--param", param,
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert "--param" in err
    assert not path.exists()


def _set_seifert_entry(value):
    def damage(doc):  # the same diagonal entry in A^{++} and A^{--}, keeping the transpose
        doc["seifert"]["++"][0][0] = doc["seifert"]["--"][0][0] = value
    return damage


def _break_components(doc):
    doc["components_per_color"] = 1


def _break_conway_record(doc):
    del doc["conway"]["num"][0]["exp"]


def _set_conway_field(field, value):
    def damage(doc):
        doc["conway"]["num"][0][field] = value if field == "coeff" else [value, 0]
    return damage


def _break_linking(doc):
    doc["linking"] = 5


def _break_sublinks(doc):
    doc["sublinks"] = [1]


def _two_color_sublink(doc):
    doc["sublinks"]["2"] = make_twist(1).to_document()


def _set_seifert(value):
    def damage(doc):
        doc["seifert"] = value
    return damage


def _seifert_as_list(doc):
    doc["seifert"] = list(doc["seifert"].values())


def _put(value, *path):
    """Set the entry at ``path``, a key sequence from the top, to ``value``."""
    def damage(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return damage


def _drop(*path):
    def damage(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return damage


_SELF_LINKED = [{"a": "1.1", "b": "1.1", "lk": 1}]
_CONFLICTING = [{"a": "1.1", "b": "2.1", "lk": 0}, {"a": "2.1", "b": "1.1", "lk": 1}]
_CONFLICTING_SAME_ORDER = [{"a": "1.1", "b": "2.1", "lk": 3}, {"a": "1.1", "b": "2.1", "lk": 5}]
_TWO_COLOR_KEYS = {"mu": 2, "components_per_color": [1, 1], "seifert": {"+": [], "-": []}}


@pytest.mark.parametrize("damage, key", [
    ('{"mu": 2,', "JSON"),
    (_set_seifert_entry("a"), "seifert"),
    (_set_seifert_entry("3"), "seifert"),
    (_set_seifert_entry(True), "seifert"),
    (_set_seifert_entry(10 ** 30), "seifert"),
    (_break_components, "components_per_color"),
    (_break_conway_record, "exp"),
    (_set_conway_field("coeff", 2.9), "conway"),
    (_set_conway_field("coeff", True), "conway"),
    (_set_conway_field("coeff", "2"), "conway"),
    (_set_conway_field("exp", 0.7), "conway"),
    (_break_linking, "linking"),
    (_break_sublinks, "sublinks"),
    (_two_color_sublink, "sublinks[2]"),
    (_set_seifert(None), "seifert must be an object"),
    (_set_seifert(5), "seifert must be an object"),
    (_set_seifert("++"), "seifert must be an object"),
    (_seifert_as_list, "seifert must be an object"),
    ("[1, 2]", "link document must be an object"),
    (_drop("mu"), "link document is missing 'mu'"),
    (_put(True, "mu"), "mu True is not an integer"),
    (_put(0, "mu"), "mu must be a positive integer"),
    (_put(_SELF_LINKED, "linking"), "linking number of a component with itself"),
    (_put(_CONFLICTING, "linking"), "conflicting linking numbers"),
    (_put(_CONFLICTING_SAME_ORDER, "linking"), "conflicting linking numbers"),
    (_put([5], "linking"), "bad linking record 5"),
    (_put(-1, "rank_alexander"), "rank_alexander must be nonnegative"),
    (_put({"+": 5, "-": 5}, "sublinks", "2", "seifert"), "seifert[+] must be a list of rows"),
    (_put({"+": [5], "-": [5]}, "sublinks", "2", "seifert"),
     "seifert[+] must be a list of rows"),
    (_put({"+": {}, "-": []}, "sublinks", "2", "seifert"),
     "sublinks[2]: seifert[+] must be a list of rows"),
    (_put({"+": {}, "-": {}}, "sublinks", "2", "seifert"),
     "sublinks[2]: seifert[+] must be a list of rows"),
    (_put({"+": "", "-": ""}, "sublinks", "2", "seifert"),
     "sublinks[2]: seifert[+] must be a list of rows"),
    (_put({"+": "12", "-": "12"}, "sublinks", "2", "seifert"),
     "sublinks[2]: seifert[+] must be a list of rows"),
    (_put(make_twist(1).to_document(), "underlying_oriented"),
     "underlying_oriented must be 1-colored"),
    (_put({"+": [[1]], "-": [[2]]}, "sublinks", "2", "seifert"),
     "sublinks[2]: seifert[-] is not the transpose of seifert[+]"),
    (_drop("sublinks", "2", "seifert"), "sublinks[2]: link document is missing 'seifert'"),
    (_put(5, "underlying_oriented"), "underlying_oriented: link document must be an object"),
    (_put(_TWO_COLOR_KEYS, "underlying_oriented"),
     "underlying_oriented: seifert: missing matrix for sign vector '++'"),
], ids=["malformed-json", "seifert-entry", "seifert-entry-string", "seifert-entry-bool",
        "seifert-entry-beyond-int64", "components-not-list", "conway-no-exp",
        "conway-coeff-fraction", "conway-coeff-bool", "conway-coeff-string",
        "conway-exp-fraction", "linking-not-list", "sublinks-not-object", "sublink-colors",
        "seifert-null", "seifert-number", "seifert-string", "seifert-list",
        "document-not-object", "mu-missing", "mu-bool", "mu-zero", "linking-self",
        "linking-conflict", "linking-conflict-same-order", "linking-record-not-object",
        "rank-negative",
        "seifert-matrix-number", "seifert-rows-numbers", "seifert-matrix-object",
        "seifert-matrices-objects", "seifert-matrices-empty-strings", "seifert-matrices-strings",
        "underlying-two-colors", "sublink-transpose", "sublink-no-seifert",
        "underlying-not-object", "underlying-two-color-keys"])
def test_bad_link_file_names_the_key(tmp_path, capsys, damage, key):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    bad = tmp_path / "bad.json"
    if isinstance(damage, str):  # the whole text of the file
        bad.write_text(damage)
    else:
        doc = json.loads(Path(twist).read_text())
        damage(doc)
        bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--link", str(bad), "--omega", "1/3,1/5")
    assert code == 2
    assert out == ""
    assert key in err


def _underlying_chain(depth):
    """A torus(3) document whose underlying_oriented documents nest ``depth`` deep."""
    doc = unknot().to_document()
    for _ in range(depth):
        doc = dict(unknot().to_document(), underlying_oriented=doc)
    return json.dumps(dict(make_torus(3).to_document(), underlying_oriented=doc))


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, _underlying_chain(600)],
                         ids=["json-arrays", "underlying-chain"])
def test_deeply_nested_link_file_exits_2(tmp_path, capsys, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    code, out, err = run(capsys, "eval", "--link", str(deep), "--omega", "1/3,1/5")
    assert (code, out) == (2, "")
    assert err == "error: %s nests too deeply to read\n" % deep


def test_family_then_eval_matches_library(tmp_path, capsys):
    from fractions import Fraction

    from sigtorus.angles import TorusPoint
    from sigtorus.families import make_torus
    from sigtorus.links import signature_nullity

    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, _ = run(capsys, "eval", "--link", torus, "--omega", "2/7,3/11")
    assert code == 0
    sigma, eta = signature_nullity(make_torus(3),
                                   TorusPoint([Fraction(2, 7), Fraction(3, 11)]))
    assert out.strip() == "sigma=%d eta=%d dim=2" % (sigma, eta)


@pytest.mark.parametrize("family, argv, flag", [
    (("torus", 3), ["eval", "--omega", "1/3,1/0"], "--omega"),
    (("torus", 3), ["eval", "--omega", "1/3,x"], "--omega"),
    (("torus", 3), ["eval", "--omega", "1/3"], "--omega"),
    (("unlink", 3), ["eval", "--omega", "1/3,1/5"], "--omega"),
    (("torus", 3), ["grid", "--resolution", "3", "--axes", "1,x"], "--axes"),
    (("unlink", 3), ["grid", "--resolution", "3", "--rest", "1/0"], "--rest"),
    (("torus", 3), ["limit", "--side", "plus", "--omega-rest", "1/3,1/5"], "--omega-rest"),
    (("twist", 2), ["slope", "--omega", "1/4,1/4"], "--omega"),
    (("torus", 3), ["torres"], "--omega"),
    (("torus", 3), ["verify", "--suite", "all", "--samples", "-1"], "--samples"),
    (("torus", 3), ["verify", "--suite", "3d", "--samples", "0"], "--samples"),
    (("torus", 3), ["verify", "--suite", "all", "--samples", "1000000000"], "--samples"),
    (("torus", 3), ["eval", "--omega", "1/3,1e400"], "--omega"),
    (("torus", 3), ["limit", "--side", "plus", "--omega-rest", "1e400"], "--omega-rest"),
    (("unlink", 3), ["grid", "--resolution", "3", "--rest", "1e400"], "--rest"),
    (("unlink", 1), ["torres", "--omega", "1/3"], "--omega"),
    (("torus", 3), ["grid", "--resolution", "1"], "--resolution"),
    (("torus", 3), ["grid", "--resolution", "1000000000"], "--resolution"),
    (("unlink", 3), ["grid", "--resolution", "3", "--rest", "0"], "--rest"),
], ids=["zero-denominator", "not-a-number", "too-few", "too-many", "axes-not-int",
        "rest-zero-denominator", "limit-count", "slope-count", "torres-missing",
        "samples-negative", "samples-zero", "samples-1e9", "omega-not-finite",
        "omega-rest-not-finite", "rest-not-finite", "torres-one-color-count", "resolution-1",
        "resolution-1e9", "rest-zero"])
def test_bad_input_names_the_flag(tmp_path, capsys, family, argv, flag):
    link = make_file(tmp_path, capsys, family[0], family[1], "link.json")
    if argv[0] == "grid":
        argv = argv + ["--out", str(tmp_path / "g.csv")]
    code, out, err = run(capsys, argv[0], "--link", link, *argv[1:])
    assert code == 2
    assert out == ""
    assert flag in err


def _without_conway(doc):
    del doc["conway"]


def _without_sublink_conway(doc):
    del doc["sublinks"]["2"]["conway"]


@pytest.mark.parametrize("family, damage, argv, message", [
    (("unlink", 1), None, ["grid", "--resolution", "3"], "at least two colors"),
    (("twist", 2), _without_conway, ["slope", "--omega", "1/4"], "carries no conway data"),
    (("twist", 2), _without_sublink_conway, ["slope", "--omega", "1/4"],
     "carries no sublink conway data"),
    (("twist", 2), _without_sublink_conway, ["verify", "--suite", "4d"],
     "split case needs conway data for the sublink"),
    (("torus", 3), _put([{"coeff": 1, "exp": [1, 0]}], "conway"), ["slope", "--omega", "1/3"],
     "has a large imaginary part"),
], ids=["grid-one-color", "slope-no-conway", "slope-no-sublink-conway", "verify-4d-split",
        "slope-not-real"])
def test_unusable_requests_exit_2(tmp_path, capsys, family, damage, argv, message):
    link = make_file(tmp_path, capsys, family[0], family[1], "link.json")
    if damage is not None:
        doc = json.loads(Path(link).read_text())
        damage(doc)
        Path(link).write_text(json.dumps(doc))
    if argv[0] == "grid":
        argv = argv + ["--out", str(tmp_path / "g.csv")]
    code, out, err = run(capsys, argv[0], "--link", link, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("family, damage, left_out, message", [
    (("twist", 2), _drop("sublinks"), ["3d", "4d", "torres"],
     "link carries no sublink data under key '2'"),
    (("twist", 2), _without_conway, ["4d", "torres"], "split case needs the link's conway data"),
    (("twist", 2), _without_sublink_conway, ["4d", "torres"],
     "split case needs conway data for the sublink"),
    (("torus", 3), _drop("sublinks"), ["3d", "4d", "torres"],
     "link carries no sublink data under key '2'"),
], ids=["twist-no-sublinks", "twist-no-conway", "twist-no-sublink-conway", "torus-no-sublinks"])
def test_all_leaves_out_a_suite_whose_data_the_link_lacks(tmp_path, capsys, family, damage,
                                                          left_out, message):
    link = make_file(tmp_path, capsys, family[0], family[1], "link.json")
    doc = json.loads(Path(link).read_text())
    damage(doc)
    Path(link).write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--link", link, "--suite", "all", "--samples", "3",
                         "--report", str(report))
    assert (code, err) == (0, "") and out.endswith(" failures=0\n")
    records = json.loads(report.read_text())
    assert {rec["check"].split("/")[0] for rec in records} == set(SUITES) - {"all"}
    for suite in left_out:
        assert [rec for rec in records if rec["check"].startswith(suite + "/")] == [
            {"check": suite + "/skipped", "inputs": {}, "lhs": None, "rhs": None,
             "relation": "==", "pass": True, "notes": [message]}]
        code, out, err = run(capsys, "verify", "--link", link, "--suite", suite, "--samples", "3")
        assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, target", [
    (["grid", "--link", "{torus}", "--resolution", "3", "--out", "{missing}"], "{missing}"),
    (["grid", "--link", "{torus}", "--resolution", "3", "--out", "{tmp}/g.csv",
      "--heatmap", "{missing}"], "{missing}"),
    (["verify", "--link", "{torus}", "--suite", "3d", "--samples", "2",
      "--report", "{missing}"], "{missing}"),
    (["family", "--name", "torus", "--param", "3", "--out", "{missing}"], "{missing}"),
    (["eval", "--link", "{tmp}/missing.json", "--omega", "1/3,1/5"], "{tmp}/missing.json"),
], ids=["grid-out", "grid-heatmap", "verify-report", "family-out", "eval-link"])
def test_io_errors_exit_3_with_one_line(tmp_path, capsys, argv, target):
    names = {"torus": make_file(tmp_path, capsys, "torus", 3, "torus3.json"),
             "missing": str(tmp_path / "no-such-dir" / "file"), "tmp": str(tmp_path)}
    code, out, err = run(capsys, *[arg.format(**names) for arg in argv])
    assert code == 3
    assert err == "error: [Errno 2] No such file or directory: %r\n" % target.format(**names)
    # verify prints its checks before writing the report, and no summary after
    if argv[0] == "verify":
        assert out and all(line.startswith("PASS ") for line in out.splitlines())
    else:
        assert out == ""
    assert not (tmp_path / "no-such-dir").exists()


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """One parser serves every call; each call's output matches a fresh process."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    sigtorus.cli._build_parser.cache_clear()
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    assert built, "the first call builds the parser"
    del built[:]
    knot = str(tmp_path / "knot.json")
    save_link(make_torus(3).underlying_oriented, knot)

    calls = [
        ["eval", "--link", torus],  # argparse usage error: --omega is required
        ["eval", "--link", torus, "--omega", "2/7,3/11"],
        ["limit", "--link", knot, "--side", "minus"],
        ["grid", "--link", torus, "--resolution", "5", "--out", "%s"],
        ["verify", "--link", torus, "--suite", "all", "--samples", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(sigtorus.__file__).parent.parent))
    codes = []
    for k, argv in enumerate(calls):
        here = [a.replace("%s", str(tmp_path / ("in%d.csv" % k))) for a in argv]
        fresh = [a.replace("%s", str(tmp_path / ("sub%d.csv" % k))) for a in argv]
        try:
            code = main(here)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "sigtorus.cli", *fresh],
                              capture_output=True, text=True, env=env, check=False)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        codes.append(code)
        if here != fresh:
            assert Path(here[-1]).read_bytes() == Path(fresh[-1]).read_bytes()
    assert codes == [2, 0, 0, 0, 0]
    assert built == []


# The verify reports of the benchmark's built-in links, recorded byte for byte.
DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
VERIFY_FAMILIES = (("torus", 3), ("torus", -2), ("twist", 2), ("twist", -1),
                   ("twist", 0), ("unlink", 3))


def _outcome(capsys, entry, argv):
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _through_the_top_level_parser(argv):
    """``main`` as it was when every argv went through the top-level parser."""
    args = sigtorus.cli._build_parser()[0].parse_args(argv)
    return args.func(args)


def test_dispatch_prints_what_the_top_level_parser_prints(tmp_path, capsys, monkeypatch):
    """An argv that starts with a subcommand goes straight to its parser;
    every exit code, stdout and stderr is the top-level parser's, in-process
    and from ``python -m sigtorus.cli`` (``main()`` reading sys.argv)."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    calls = [
        [], ["-h"], ["eval", "-h"], ["bogus"],
        ["eval", "--link", torus],  # --omega is missing
        ["eval", "--link", torus, "--omega", "1/3,1/5", "--bogus", "1"],
        ["eval", "--li", torus, "--om", "1/3,1/5"],
        ["eval", "--link", torus, "--omega=-1/3,1/5"],
        ["--link", torus, "eval"],
        ["limit", "--link", torus, "--side", "up"],
        ["grid", "--link", torus, "--resolution", "x", "--out", str(tmp_path / "g.csv")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(sigtorus.__file__).parent.parent))
    codes = []
    for argv in calls:
        expected = _outcome(capsys, _through_the_top_level_parser, argv)
        assert _outcome(capsys, main, argv) == expected, argv
        proc = subprocess.run([sys.executable, "-m", "sigtorus.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
        codes.append(expected[0])
    assert codes == [2, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2]
    # the top-level parser no longer parses an argv that names a subcommand
    monkeypatch.setattr(sigtorus.cli._build_parser()[0], "parse_known_args", None)
    assert run(capsys, "eval", "--link", torus, "--omega", "1/3,1/5")[0] == 0


@pytest.mark.parametrize("seed", [0, 1, 63])
def test_verify_reports_match_recorded_digests(tmp_path, capsys, seed):
    recorded = json.loads(DIGESTS.read_text())["verify"][str(seed)]
    for name, param in VERIFY_FAMILIES:
        stem = "%s%d" % (name, param)
        link = make_file(tmp_path, capsys, name, param, stem + ".json")
        report = tmp_path / (stem + "-report.json")
        code, out, _ = run(capsys, "verify", "--link", link, "--suite", "all",
                           "--samples", "10", "--seed", str(seed), "--report", str(report))
        assert code == 0 and out.endswith(" failures=0\n")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == recorded[stem], stem


@pytest.mark.parametrize("name, param", VERIFY_FAMILIES + (("unlink", 4),),
                         ids=str)
def test_verify_report_is_json_dump_at_the_default_sample_count(tmp_path, capsys,
                                                                name, param):
    """verify --report writes exactly json.dump(indent=2, sort_keys=True) plus a
    newline at the CLI default of 50 samples; the digests check only 10."""
    link = make_file(tmp_path, capsys, name, param, "link.json")
    report = tmp_path / "report.json"
    assert run(capsys, "verify", "--link", link, "--suite", "all", "--samples", "50",
               "--report", str(report))[0] == 0
    text = report.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_verify_report_bytes_do_not_depend_on_asserts(tmp_path, capsys):
    """python -O strips asserts: torus(3)'s report is the same bytes under it."""
    link = make_file(tmp_path, capsys, "torus", 3, "torus3.json")
    argv = ["verify", "--link", link, "--suite", "all", "--samples", "50", "--report"]
    report, stripped = tmp_path / "report.json", tmp_path / "report-O.json"
    assert run(capsys, *argv, str(report))[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(sigtorus.__file__).parent.parent))
    subprocess.run([sys.executable, "-O", "-m", "sigtorus.cli", *argv, str(stripped)],
                   capture_output=True, env=env, check=True)
    assert stripped.read_bytes() == report.read_bytes()


@pytest.mark.parametrize("ell", [20, -20])
def test_grid_at_resolution_60_matches_the_closed_form(tmp_path, capsys, ell):
    """grid evaluates one point of each conjugate pair and mirrors it; every one
    of the 3481 points of a resolution-60 sweep matches families.oracle_torus,
    where the benchmark sweeps stop at resolution 8."""
    link = make_file(tmp_path, capsys, "torus", ell, "torus.json")
    out = tmp_path / "grid.csv"
    assert run(capsys, "grid", "--link", link, "--resolution", "60", "--out", str(out))[0] == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3482
    assert [row for row in rows[1:] if tuple(map(int, row.split(",")[2:]))
            != oracle_torus(ell, *map(Fraction, row.split(",")[:2]))] == []


@pytest.mark.parametrize("ell", [20, -20, 13])
def test_verify_3d_at_large_linking(tmp_path, capsys, ell):
    """Every 3d check centres on sigma(L') +/- J, with the jump J read as a
    closed-form wall count; this checks it against the Seifert-form limits at
    |lk| up to 20 (torus(20) alone makes 338 equality checks at generic
    points), where the other tests stop at small linking."""
    link = make_file(tmp_path, capsys, "torus", ell, "torus.json")
    code, out, _ = run(capsys, "verify", "--link", link, "--suite", "3d", "--samples", "200")
    assert code == 0
    assert re.fullmatch(r"checks=[0-9]+ failures=0", out.splitlines()[-1])


def test_bench_tracer_targets_resolve():
    """Every span target of bench/tracer.py names a function that exists."""
    spec = importlib.util.spec_from_file_location(
        "sigtorus_bench_tracer", DIGESTS.parent / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    for span, module, path in tracer_module.TARGETS:
        owner = importlib.import_module("sigtorus." + module)
        for part in path.split("."):
            assert hasattr(owner, part), "%s: sigtorus.%s has no %s" % (span, module, path)
            owner = getattr(owner, part)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert main is sigtorus.cli.main
