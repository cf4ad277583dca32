import json

import pytest

from sigtorus.cli import main


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


def test_eval_decimal_angles_warn(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    code, out, err = run(capsys, "eval", "--link", twist, "--omega", "0.25,0.5")
    assert code == 0
    assert "sigma=1" in out
    assert "exact predicates" in err


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


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    monkeypatch.setenv("SIGTORUS_TOL", "5")
    code, out, _ = run(capsys, "eval", "--link", torus, "--omega", "1/6,1/6")
    assert code == 0
    assert out.strip() == "sigma=0 eta=2 dim=2"


def test_grid_constant_heatmap_is_zero(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 0, "twist0.json")
    pgm = tmp_path / "flat.pgm"
    assert run(capsys, "grid", "--link", twist, "--resolution", "4",
               "--out", str(tmp_path / "g.csv"), "--heatmap", str(pgm))[0] == 0
    body = pgm.read_text().splitlines()[3:]
    assert set(" ".join(body).split()) == {"0"}


def test_limit_command(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, _ = run(capsys, "limit", "--link", torus, "--side", "plus",
                       "--omega-rest", "1/10")
    assert code == 0
    assert out.strip() == "limit=2 side=plus status=stable"
    code, out, _ = run(capsys, "limit", "--link", torus, "--side", "minus",
                       "--omega-rest", "1/10")
    assert "limit=-2" in out


def test_slope_command(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    code, out, _ = run(capsys, "slope", "--link", twist, "--omega", "1/4")
    assert code == 0
    assert out.strip() == "slope=4 s=1 eps=0"


def test_torres_command(tmp_path, capsys):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, _ = run(capsys, "torres", "--link", torus, "--omega", "1/5")
    assert code == 0
    assert "sigma_pred=0 eta_pred=2 midpoint=pass" in out


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
    doc = json.loads(open(twist).read())
    del doc["conway"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--link", str(stripped), "--suite", "4d",
                       "--samples", "2")
    assert code == 2
    assert "conway" in err


def test_verify_failure_exits_4(tmp_path, capsys):
    twist = make_file(tmp_path, capsys, "twist", 2, "twist.json")
    doc = json.loads(open(twist).read())
    doc["rank_alexander"] = 5  # deliberately wrong input data
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--link", str(bad), "--suite", "3d",
                       "--samples", "2")
    assert code == 4
    assert "FAIL" in out


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


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_bad_tol_flag_exits_2(tmp_path, capsys, tol):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    code, out, err = run(capsys, "eval", "--link", torus, "--omega", "1/3,1/5",
                         "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("value", ["abc", "nan", "0", "-1"])
def test_bad_tol_env_exits_2(tmp_path, capsys, monkeypatch, value):
    torus = make_file(tmp_path, capsys, "torus", 3, "torus.json")
    monkeypatch.setenv("SIGTORUS_TOL", value)
    code, out, err = run(capsys, "eval", "--link", torus, "--omega", "1/3,1/5")
    assert code == 2
    assert out == ""
    assert "SIGTORUS_TOL" in err


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
], ids=["zero-denominator", "not-a-number", "too-few", "too-many", "axes-not-int",
        "rest-zero-denominator", "limit-count", "slope-count", "torres-missing"])
def test_bad_input_names_the_flag(tmp_path, capsys, family, argv, flag):
    link = make_file(tmp_path, capsys, family[0], family[1], "link.json")
    if argv[0] == "grid":
        argv = argv + ["--out", str(tmp_path / "g.csv")]
    code, out, err = run(capsys, argv[0], "--link", link, *argv[1:])
    assert code == 2
    assert out == ""
    assert flag in err
