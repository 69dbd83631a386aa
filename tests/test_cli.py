import itertools
import json
import os
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from crlie import classify, cli
from crlie.report import Report
from crlie.rootsys import parse_type
from crlie.scalars import Poly


def run(argv):
    return cli.main(argv)


def test_roots_command(tmp_path, capsys):
    assert run(["roots", "--type", "G2"]) == 0
    out = capsys.readouterr().out
    assert "e1-e3" in out and "cartan_row" in out
    assert run(["roots", "--type", "A", "--rank", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(1 for r in data["rows"] if r["what"] == "root") == 2
    assert run(["roots", "--type", "F4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(1 for r in data["rows"] if r["what"] == "root") == 48


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["roots"])
    assert exc.value.code == 64
    assert run(["roots", "--type", "Q9"]) == 64
    assert run(["classify", "--what", "special", "--max-rank", "1"]) == 64
    assert run(["check"]) == 64
    assert run(["check", "--theta=1,0,0", "--family"]) == 64
    assert run(["table1", "--rank-range", "x-y"]) == 64
    assert run(["table1", "--rank-range", "2-3"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("type_,rank,message", [
    ("A2", "3", "--type 'A2' must be one type letter with --rank 3"),
    ("A+B", "2", "--type 'A+B' must be one type letter with --rank 2"),
    ("A", "0", "--type 'A' with --rank 0 names no root system"),
])
def test_roots_type_and_rank_errors_name_both_fields(type_, rank, message, capsys):
    # the parent glued the fields into "invalid type/rank combination A23"
    assert run(["roots", "--type", type_, "--rank", rank]) == 64
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_json_roundtrip_and_multiset(tmp_path):
    out = tmp_path / "t3.json"
    assert run(["table3", "--format", "json", "--out", str(out)]) == 0
    rep = Report.from_json(out.read_text())
    assert Report.from_json(rep.to_json()).rows == rep.rows
    csv_out = tmp_path / "t3.csv"
    txt_out = tmp_path / "t3.txt"
    assert run(["table3", "--format", "csv", "--out", str(csv_out)]) == 0
    assert run(["table3", "--format", "text", "--out", str(txt_out)]) == 0
    # identical row multisets across renderings
    import csv as _csv

    with open(csv_out) as f:
        rows = list(_csv.DictReader(f))
    json_rows = [
        {k: str(v) for k, v in r.items() if str(v) != ""} for r in rep.rows
    ]
    csv_rows = [{k: v for k, v in r.items() if v != ""} for r in rows]
    key = lambda r: tuple(sorted(r.items()))
    assert sorted(map(key, json_rows)) == sorted(map(key, csv_rows))


def test_tables_match_goldens(capsys):
    assert run(["table1", "--out", os.devnull]) == 0
    assert run(["table2", "--out", os.devnull]) == 0
    assert run(["table3", "--out", os.devnull]) == 0


def test_check_graph(capsys):
    assert run(["check", "--graph", "A5:g,b,w,w,w", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["rows"][0]
    assert row["good"] == "yes" and row["cr_type"] == "I"
    assert run(["check", "--graph", "D6:w,b,g,w,w,w", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["rows"][0]
    assert row["good"] == "no" and "witness" in row
    assert run(["check", "--graph", "Z9:w"]) == 64


def test_check_m10_spec(capsys):
    # the generic doubly twisted subspace: integrable iff t = s^2
    spec = {
        "pairs": [
            ["1,0,0,-1,0", "0,0,0,-1,1", "s"],
            ["0,1,0,0,-1", "-1,1,0,0,0", "s"],
        ],
        "su2": ["1,0,0,0,-1", "t"],
    }
    rc = run([
        "check", "--type", "A4", "--theta", "1,0,0,0,-1",
        "--m10", json.dumps(spec), "--format", "json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    # chart orientation of the hand-built spec may differ by a unit;
    # the constraint is a binomial tying t to s^2
    constraint = out["rows"][0]["constraint"]
    assert "t" in constraint and "s^2" in constraint


def test_check_family_dispatch(capsys):
    rc = run(["check", "--type", "B3", "--theta", "1,0,0", "--family", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    fams = {r["family"] for r in data["rows"]}
    assert "disc family" in fams and "standard" in fams


def test_table1_rank_range(capsys):
    assert run(["table1", "--rank-range", "4-6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    abcd = {int(r["rank"]) for r in data["rows"] if r["type"] in "ABCD"}
    assert abcd == {4, 5, 6}
    assert any(r["type"] == "E" for r in data["rows"])
    # LO alone runs to rank 8
    assert run(["table1", "--rank-range", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {int(r["rank"]) for r in data["rows"] if r["type"] in "ABCD"} == {5, 6, 7, 8}


def test_module_tables_below_rank_4(capsys):
    # F4 (rank 4) and B3 (rank 3) enter only when the bound reaches their rank
    assert run(["table2", "--max-rank", "3", "--format", "json"]) == 0
    assert {r["type"] for r in json.loads(capsys.readouterr().out)["rows"]} == {"B", "C", "G"}
    assert run(["table3", "--max-rank", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_report_byte_stability(capsys):
    assert run(["table2", "--format", "json", "--max-rank", "4"]) == 0
    first = capsys.readouterr().out
    assert run(["table2", "--format", "json", "--max-rank", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_check_family_composite(capsys):
    rc = run(["check", "--type", "A1+A2", "--theta", "1,-1,-1,1,0",
              "--family", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    fams = {r["family"]: r for r in data["rows"]}
    assert fams["disc family"]["primitive"] == "no"
    assert "S(S3)" in fams["disc family"]["fibers"]
    assert fams["standard"]["circular"] == "yes"


def test_classify_special(capsys):
    assert run(["classify", "--what", "special", "--max-rank", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ms = {r["M"] for r in data["rows"]}
    assert "SU2" in ms
    g2_rows = [r for r in data["rows"] if r["type"] == "G"]
    assert {r["length"] for r in g2_rows} == {"long", "short"}


def test_env_var_bound(monkeypatch, capsys):
    monkeypatch.setenv("CRLIE_MAX_RANK", "3")
    assert run(["classify", "--what", "crgraphs", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(int(r["rank"]) <= 3 for r in data["rows"])


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


@pytest.mark.parametrize("argv,named", [
    (["roots", "--type", "A2", "--rank", "abc"], "crlie roots: argument --rank"),
    (["roots", "--type", "-A2"], "crlie roots: argument --type: expected one argument"),
    (["check", "--bogus"], "crlie check: unrecognized arguments: --bogus"),
    (["check", "--type", "A2", "--theta", "-1,0,1", "--family"], "crlie check: argument --theta"),
    (["classify", "--what", "all"], "crlie classify: argument --what: invalid choice"),
    (["roots"], "crlie roots: the following arguments are required: --type"),
    (["bogus"], "crlie: argument command: invalid choice"),
])
def test_argparse_errors_take_one_line(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64
    assert _one_line_error(capsys).startswith(f"error: {named}")


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["roots", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: crlie roots")


def test_max_rank_zero_is_not_unset(capsys):
    assert run(["classify", "--what", "special", "--max-rank", "0"]) == 64
    _one_line_error(capsys)


def test_env_max_rank_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("CRLIE_MAX_RANK", "abc")
    assert run(["classify", "--what", "special"]) == 64
    assert "CRLIE_MAX_RANK" in _one_line_error(capsys)


def test_check_family_zero_theta(capsys):
    assert run(["check", "--type", "A2", "--theta=0,0,0", "--family"]) == 64
    assert "nonzero" in _one_line_error(capsys)


def test_check_m10_non_congruent_pair(capsys):
    # e1-e3 and e2-e4 are highest weights of two modules whose difference is
    # not a multiple of theta
    spec = {"pairs": [["1,0,-1,0", "0,1,0,-1", "t"]]}
    rc = run(["check", "--type", "A3", "--theta", "1,0,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "non-congruent" in _one_line_error(capsys)


def test_check_m10_pair_into_itself(capsys):
    # a module twisted into itself differs from its partner by 0 times theta
    spec = {"pairs": [["1,0,-1,0", "1,0,-1,0", "t"]]}
    rc = run(["check", "--type", "A3", "--theta", "1,0,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "non-congruent" in _one_line_error(capsys)


def test_check_family_e6_root(capsys):
    # every E6 root is long, so its contact form is the special one
    rc = run(["check", "--type", "E6", "--theta=1,0,0,0,1,1,-1", "--family", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["family"], r["primitive"]) for r in rows] == [("standard", "no")]


@pytest.mark.parametrize("theta,printed", [("4,0,0", "4e1"), ("-7,0,0", "-7e1")])
def test_check_family_prints_the_least_lift(theta, printed, capsys):
    # the L1-least lifts 4e1 and -7e1 shift the relation block by k = 4 and -7
    rc = run(["check", "--type", "A2", f"--theta={theta}", "--family", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["theta"] for r in rows] == [printed]


def test_max_rank_above_the_fixtures(capsys):
    # the golden fixtures stop at rank 8
    assert run(["table2", "--max-rank", "9"]) == 64
    assert "--max-rank must be at most 8" in _one_line_error(capsys)


def test_env_max_rank_above_the_fixtures(monkeypatch, capsys):
    monkeypatch.setenv("CRLIE_MAX_RANK", "99")
    assert run(["classify", "--what", "primitive"]) == 64
    assert "CRLIE_MAX_RANK must be at most 8" in _one_line_error(capsys)


def test_env_max_rank_below_the_classify_floor(monkeypatch, capsys):
    # classify's floor of 2 names the bound's source; the tables have none
    monkeypatch.setenv("CRLIE_MAX_RANK", "1")
    assert run(["classify", "--what", "special"]) == 64
    assert "CRLIE_MAX_RANK must be at least 2, got 1" in _one_line_error(capsys)
    assert run(["table2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_table1_has_no_max_rank(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["table1", "--max-rank", "4"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_check_m10_conjugate_twist_only(capsys):
    # t~ is sampled as the conjugate of t, so a coefficient naming only t~
    # has no sample value
    spec = {"su2": ["1,0,-1", "t~"], "plains": ["1,-1,0", "0,1,-1"]}
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "t~" in _one_line_error(capsys)


def test_check_theta_zero_denominator(capsys):
    assert run(["check", "--type", "A2", "--theta=1/0,0,-1", "--family"]) == 64
    assert "zero denominator" in _one_line_error(capsys)


@pytest.mark.parametrize("theta,message", [
    ("a,b,c,d", "coordinate 1 ('a') is no number"),
    ("1,0,0,x", "coordinate 4 ('x') is no number"),
    ("1,,0,-1", "coordinate 2 ('') is no number"),
    ("1,0,1/0,-1", "coordinate 3 ('1/0') has a zero denominator"),
    ("1,-1", "expected 4 coordinates for A3, got 2"),
    ("1,0,0,0,-1", "expected 4 coordinates for A3, got 5"),
])
def test_check_theta_names_the_bad_coordinate(theta, message, capsys):
    assert run(["check", "--type", "A3", f"--theta={theta}", "--family"]) == 64
    assert f"invalid vector {theta!r}: {message}" in _one_line_error(capsys)


@pytest.mark.parametrize("argv,message", [
    (["--type", "A2", "--theta=", "--family"], "invalid vector '': expected 3 coordinates"),
    (["--type=", "--theta=1,0,-1", "--family"], "cannot parse type string ''"),
    (["--graph="], "expected TYPE:colors, got ''"),
    (["--type", "A2", "--theta=1,0,-1", "--m10="], "invalid --m10 spec: Expecting value"),
])
def test_check_names_an_empty_option_given(argv, message, capsys):
    # an empty value is a given option, not an absent one: the message
    # names its fault, not "check needs --graph or --type/--theta ..."
    assert run(["check"] + argv) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {message}") and out.err.count("\n") == 1


def test_check_m10_vector_zero_denominator(capsys):
    spec = {"plains": ["1/0,0,0"]}
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "zero denominator" in _one_line_error(capsys)


@pytest.mark.parametrize("spec,bad", [
    ({"rj_plus": ["1,1,-2"]}, "1,1,-2"),
    ({"su2": ["1,1,-2", "t"]}, "1,1,-2"),
    ({"rj_plus": ["0,0,0"]}, "0,0,0"),
    ({"plains": ["1,1,-2"]}, "1,1,-2"),
    ({"pairs": [["1,0,-1", "1,1,-2", "t"]]}, "1,1,-2"),
])
def test_check_m10_vector_not_a_root(spec, bad, capsys):
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    err = _one_line_error(capsys)
    assert f"vector {bad!r} is not a root" in err


def test_check_m10_error_order(capsys):
    # the dimension check comes before the check that no root lies on two
    # lines: -1,0,1 is both in R_J+ and the second root of the su2 line
    spec = {"su2": ["1,0,-1", "t"], "rj_plus": ["-1,0,1"]}
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "subspace dimension 2 is not half of |R'| = 6" in _one_line_error(capsys)
    spec["rj_plus"].append("1,-1,0")
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "a root carries two roles in the subspace" in _one_line_error(capsys)


@pytest.mark.parametrize("spec,named", [
    ({"rj_plus": "postive", "su2": ["1,0,-1", "t"]}, "'postive'"),
    ({"rj_plus": 3, "su2": ["1,0,-1", "t"]}, "got 3"),
    ({"plain": ["1,-1,0", "0,1,-1"], "su2": ["1,0,-1", "t"]}, "unknown key 'plain'"),
    ({"su2": ["1,0,-1", "t"], "Pairs": []}, "unknown key 'Pairs'"),
    # a part of the wrong shape names its key and the shape expected
    ({"pairs": 1}, "pairs must be a list of [root, partner, coefficient] entries, got 1"),
    ({"pairs": [["1,0,-1", "0,1,-1"]]},
     "pairs entry 1 must be [root, partner, coefficient], got ['1,0,-1', '0,1,-1']"),
    ({"plains": "1,0,-1"}, "plains must be a list of roots, got '1,0,-1'"),
    ({"su2": ["1,0,-1"]}, "su2 must be [root, coefficient], got ['1,0,-1']"),
    ({"su2": 5}, "su2 must be [root, coefficient], got 5"),
    # a vector that does not parse is named with its key
    ({"plains": ["1,0"]}, "spec: plains: invalid vector '1,0': expected 3 coordinates for A2"),
    ({"plains": ["1/0,0,0"]}, "spec: plains: invalid vector '1/0,0,0': coordinate 1 ('1/0') "
                              "has a zero denominator"),
    ({"su2": ["1,x,-1", "t"]}, "spec: su2: invalid vector '1,x,-1': coordinate 2 ('x') is no"),
    ({"rj_plus": [3]}, "spec: rj_plus: invalid vector 3: expected comma-separated coordinates"),
    ({"pairs": [["1,0,-1", "0,1", "t"]]}, "spec: pairs entry 1: invalid vector '0,1': expected 3"),
])
def test_check_m10_bad_spec_part(spec, named, capsys):
    # a misspelt key or rj_plus value is named, not dropped
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    err = _one_line_error(capsys)
    assert named in err and "invalid --m10 spec" in err


@pytest.mark.parametrize("spec", [
    # su2 on the R_o root e2 - e3
    {"su2": ["0,1,-1,0", "t"], "rj_plus": ["1,-1,0,0", "1,0,-1,0", "0,1,0,-1", "0,0,1,-1"]},
    # the same root inside rj_plus
    {"rj_plus": ["0,1,-1,0", "1,-1,0,0", "1,0,-1,0", "0,1,0,-1", "0,0,1,-1"]},
])
def test_check_m10_root_outside_rprime(spec, capsys):
    # m10 lies in m^C, so a line root of R_o is refused, not a KeyError
    rc = run(["check", "--type", "A3", "--theta=1,0,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    err = _one_line_error(capsys)
    assert "invalid --m10 spec" in err and "e2-e3" in err and "R_o" in err


def test_check_m10_su2_off_a_special_root(capsys):
    # an su2 line is the pair (mu, -mu) and propagates as one: B2's short
    # root e1 is not strongly orthogonal to R_o = {e2, -e2}, so its line
    # is refused (it was accepted with a normalizer excess of -2)
    spec = {"su2": ["1,0", "t"], "rj_plus": ["1,1", "1,-1"]}
    rc = run(["check", "--type", "B2", "--theta=1,0", "--m10", json.dumps(spec)])
    assert rc == 64
    assert "twisted pair components must be module highest weights" in _one_line_error(capsys)


def _m10_out(tag, theta, spec, fmt, capsys):
    rc = run(["check", "--type", tag, f"--theta={theta}", "--m10", json.dumps(spec),
              "--format", fmt])
    assert rc == 0
    return capsys.readouterr().out


def test_check_m10_su2_is_the_pair_of_mu_and_minus_mu(capsys):
    """The su2 specs of tools/cli_digest.py (the README's A4 spec, C3 on
    2,0,0 among them) print what their "pairs" twins [mu, -mu, c] print."""
    from test_crstruct import _cli_digest

    digest = _cli_digest()
    su2_specs = [c for c in digest.M10_CHECKS + digest.M10_MORE if "su2" in c[2]]
    negatives = {"A4": "-1,0,0,0,1", "B3": "-1,-1,0", "C3": "-2,0,0", "A3": "-1,0,0,1"}
    assert [tag for tag, _, _ in su2_specs] == list(negatives)
    for (tag, theta, spec), (_, _, twin) in zip(su2_specs, digest.M10_TWINS):
        mu, coeff = spec["su2"]
        assert twin == {**{k: v for k, v in spec.items() if k != "su2"},
                        "pairs": spec.get("pairs", []) + [[mu, negatives[tag], coeff]]}
        for fmt in ("text", "json"):
            assert _m10_out(tag, theta, twin, fmt, capsys) \
                == _m10_out(tag, theta, spec, fmt, capsys), (tag, fmt)


def test_main_reuses_its_parser(capsys):
    # one parser per process, and a bad command line still exits 64 after reuse
    assert run(["roots", "--type", "A1"]) == 0
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as e:
        run(["roots"])
    assert e.value.code == 64
    capsys.readouterr()
    assert run(["roots", "--type", "A1"]) == 0


def test_check_m10_not_an_object(capsys):
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", "[1]"])
    assert rc == 64
    assert "JSON object" in _one_line_error(capsys)


def test_table1_rank_range_above_the_fixtures(capsys):
    # the fixtures stop at rank 8, so a larger HI is refused before any build
    assert run(["table1", "--rank-range", "3-99"]) == 64
    assert "HI <= 8" in _one_line_error(capsys)


def test_table1_rank_range_beyond_rank_8(capsys):
    assert run(["table1", "--rank-range", "9-9"]) == 64
    assert "HI <= 8" in _one_line_error(capsys)


@pytest.mark.parametrize("spec", ["3-4-5", "3-4-junk"])
def test_table1_rank_range_with_trailing_fields(spec, capsys):
    # a third field is refused, not dropped
    assert run(["table1", "--rank-range", spec]) == 64
    assert repr(spec) in _one_line_error(capsys)


def test_out_to_a_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert run(["check", "--graph", "E6:g,w,w,w,b,w", "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "--out" in captured.err


@pytest.mark.parametrize("coeff,factor", [
    ("t^-1", "t^-1"),
    ("t^0", "t^0"),
    ("-t", "-t"),
    ("1/2*t", "1/2"),
    ("2t", "2t"),
    ("t**2", ""),
])
def test_check_m10_bad_coefficient_factor(coeff, factor, capsys):
    # a factor is an integer or a name with an optional positive exponent;
    # t^-1 once evaluated to 1, on the excluded locus |t| = 1
    spec = {"su2": ["1,0,-1", coeff], "plains": ["1,-1,0", "0,1,-1"]}
    rc = run(["check", "--type", "A2", "--theta=1,0,-1", "--m10", json.dumps(spec)])
    assert rc == 64
    assert f"factor {factor!r}" in _one_line_error(capsys)


def test_m10_coefficient_grammar():
    t, s = Poly.var("t"), Poly.var("s")
    assert cli._parse_coeff("-2 * t^2*s") == (t * t * s).scale(-2)
    assert cli._parse_coeff("t ^ 3") == t * t * t
    assert cli._parse_coeff("0").is_zero()
    with pytest.raises(ValueError):
        Poly.var("t", 0)


# isomorphic duplicates, each with the type it is isomorphic to
ALIASES = (("B1", "A1"), ("C2", "B2"), ("D3", "A3"))


def _node_map(alias, target):
    """A node bijection p with C_alias[i][j] == C_target[p[i]][p[j]]."""
    ca, ct = alias.cartan_matrix(), target.cartan_matrix()
    n = alias.rank
    return next(p for p in itertools.permutations(range(n))
                if all(ca[i][j] == ct[p[i]][p[j]] for i in range(n) for j in range(n)))


def _json_rows(argv, capsys) -> list[dict]:
    assert run(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("alias,target", ALIASES)
def test_isomorphic_types_give_the_same_family_rows(alias, target, capsys):
    """The routes read the Dynkin type off the roots, not the type letter:
    on the dominant root of each length, longest first, an alias prints
    its isomorphic type's rows but for type and theta."""
    rows = []
    for tag in (alias, target):
        sysm = parse_type(tag)
        reps = sysm.length_representatives
        rows.append([
            [{k: v for k, v in row.items() if k not in ("type", "theta")}
             for row in _json_rows(["check", "--type", tag, "--theta",
                                    classify.canon_str(reps[n]), "--family"], capsys)]
            for n in sorted(reps, reverse=True)
        ])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("alias,target", ALIASES)
def test_isomorphic_types_give_the_same_graph_verdicts(alias, target, capsys):
    a, b = parse_type(alias), parse_type(target)
    p = _node_map(a, b)
    keys = ("admissible", "reason", "good", "cr_type", "K_type", "Q_type")
    for colors in itertools.product("wbg", repeat=a.rank):
        image = [None] * b.rank
        for i, c in enumerate(colors):
            image[p[i]] = c
        got = [_json_rows(["check", "--graph", f"{tag}:{','.join(cs)}"], capsys)[0]
               for tag, cs in ((alias, colors), (target, image))]
        a_row, b_row = ({k: row.get(k) for k in keys} for row in got)
        assert a_row == b_row, colors


def _family_rows(tag, theta, capsys):
    """(exit code, check --family JSON rows without their theta)."""
    rc = run(["check", "--type", tag, f"--theta={theta}", "--family", "--format", "json"])
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"] if rc == 0 else []
    return rc, [{k: v for k, v in r.items() if k != "theta"} for r in rows]


def test_check_family_is_the_same_on_scaled_forms(capsys):
    """Every golden contact form of tools/cli_digest.py, scaled by 10^k:
    the same rows up to theta, in time that does not grow with k."""
    from test_crstruct import _cli_digest

    forms = _cli_digest().golden_forms(Path(cli.__file__).resolve().parent / "data")
    assert len(forms) == 42
    for tag, theta in forms:
        want = _family_rows(tag, theta, capsys)
        for k in (1, 6, 30):
            scaled = ",".join(str(Fraction(x) * 10**k) for x in theta.split(","))
            assert _family_rows(tag, scaled, capsys) == want, (tag, theta, k)


@pytest.mark.parametrize("tag,theta", [
    ("A3", "1000000000000,0,0,-1"),
    ("A4", "1000000,1000000,0,-1000000,-1000000"),
])
def test_check_family_on_a_large_coordinate_is_fast(tag, theta, capsys):
    start = time.perf_counter()
    assert run(["check", "--type", tag, f"--theta={theta}", "--family"]) == 0
    assert time.perf_counter() - start < 1.0
    assert theta.split(",")[0] + "e1" in capsys.readouterr().out


@pytest.mark.parametrize("graph,message", [
    ("A3:x,w,w", "node 1 has color 'x', expected w, b or g"),
    ("A3:w,w,gg", "node 3 has color 'gg'"),
    ("A3:g,w", "A3 has 3 nodes, expected one color per node, got 2"),
    ("A2+A1:g,w|g,w", "A2+A1 has 3 nodes, expected one color per node, got 4"),
])
def test_check_graph_errors_name_the_node_or_count(graph, message, capsys):
    assert run(["check", "--graph", graph]) == 64
    assert message in _one_line_error(capsys)


SPEC_A4 = {"pairs": [["1,0,0,-1,0", "0,0,0,-1,1", "s"], ["0,1,0,0,-1", "-1,1,0,0,0", "s"]],
           "su2": ["1,0,0,0,-1", "t"]}


def _check_a4(coeff):
    spec = dict(SPEC_A4, su2=["1,0,0,0,-1", coeff])
    return run(["check", "--type", "A4", "--theta=1,0,0,0,-1", "--m10", json.dumps(spec)])


def test_twist_exponent_at_the_bound_is_fast(capsys):
    top = cli.MAX_TWIST_EXPONENT
    start = time.perf_counter()
    assert _check_a4(f"t^{top}") == 0
    assert _check_a4(f"t^{top - 1}*t") == 0
    assert time.perf_counter() - start < 1.0
    assert f"t^{top}" in capsys.readouterr().out


@pytest.mark.parametrize("coeff,factor", [
    (f"t^{cli.MAX_TWIST_EXPONENT + 1}", f"t^{cli.MAX_TWIST_EXPONENT + 1}"),
    (f"t^{cli.MAX_TWIST_EXPONENT}*t", "t"),
    ("s*t^10000000", "t^10000000"),
])
def test_twist_exponent_above_the_bound_is_refused(coeff, factor, capsys):
    start = time.perf_counter()
    assert _check_a4(coeff) == 64
    assert time.perf_counter() - start < 1.0
    err = _one_line_error(capsys)
    assert f"factor {factor!r} raises t above the power {cli.MAX_TWIST_EXPONENT}" in err


def test_twist_exponent_of_many_digits_is_refused(capsys):
    start = time.perf_counter()
    assert _check_a4("t^" + "9" * 5000) == 64
    assert time.perf_counter() - start < 1.0
    _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["roots", "--type", "A8"],
    ["roots", "--type", "A", "--rank", "8"],
    ["roots", "--type", "A4+A4"],
    ["check", "--graph", "E8:g,w,w,w,w,w,w,w"],
    ["check", "--type", "G2+E6", "--theta=1,0,-1,0,0,0,0,0,0,0", "--family"],
])
def test_total_rank_at_the_bound_runs(argv, capsys):
    assert run(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,named,total", [
    (["roots", "--type", "A9"], "--type 'A9'", 9),
    (["roots", "--type", "A200"], "--type 'A200'", 200),
    (["roots", "--type", "A", "--rank", "9"], "--type 'A'", 9),
    (["roots", "--type", "A4+A5"], "--type 'A4+A5'", 9),
    (["check", "--graph", "A9:g,w,w,w,w,w,w,w,w"], "--graph 'A9'", 9),
    (["check", "--type", "E8+A1", "--theta=1", "--family"], "--type 'E8+A1'", 9),
])
def test_total_rank_above_the_bound_is_refused(argv, named, total, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_product", built.append)
    start = time.perf_counter()
    assert run(argv) == 64
    assert time.perf_counter() - start < 1.0
    assert f"{named} must have total rank at most 8, got {total}" in _one_line_error(capsys)
    assert built == []


def _readme_commands():
    """The argv of every crlie command in README's sh code blocks; a
    command runs from its crlie to the next one or the block's end."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cmds = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        cmd = None
        for token in shlex.split(block, comments=True):
            if token == "crlie":
                cmd = []
                cmds.append(cmd)
            elif cmd is not None:
                cmd.append(token)
    return cmds


def test_readme_commands_exit_0(capsys):
    cmds = _readme_commands()
    assert len(cmds) == 13 and cmds[-1][:2] == ["check", "--type"]
    assert [argv for argv in cmds if run(argv) != 0] == []
    capsys.readouterr()
