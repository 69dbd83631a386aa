"""The three cheap paths of one crlie call against the general code they
stand in for: the subcommand parser against the full parser, int()
against Fraction() on integer coordinates, and Report.to_json's own
layout against json.dumps(indent=2)."""

import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from crlie import cli
from crlie.report import KINDS, Report
from crlie.rootsys import parse_type

ARGVS = [
    # every subcommand, as a user types it
    ["roots", "--type", "A2"],
    ["roots", "--type", "A", "--rank", "3", "--format", "json"],
    ["table1", "--rank-range", "3-5", "--format", "csv"],
    ["table2", "--max-rank", "4"],
    ["table3", "--out", "t3.json"],
    ["classify", "--what", "primitive", "--max-rank", "5"],
    ["check", "--type", "D6", "--theta=0,0,0,0,1,1", "--family", "--format", "json"],
    ["check", "--graph", "A3:w,b,w"],
    ["check", "--type", "A2", "--theta", "1,0,-1", "--m10", "{}"],
    # option forms: =value, abbreviations, repeats, "--" and a lone "-"
    ["roots", "--type=A1"],
    ["roots", "--ty", "A1", "--form", "csv"],
    ["check", "--fam"],
    ["roots", "--type", "A1", "--type", "B2"],
    ["table1", "--", "x"],
    ["roots", "-", "--type", "A1"],
    # help before and after the command
    ["-h"],
    ["--help"],
    ["--help", "roots"],
    ["-h", "check", "--family"],
    ["roots", "-h"],
    ["check", "--help"],
    ["classify", "--type", "A1", "--help"],
    ["roots", "--he"],
    # no argv, an unknown command, an option before the command
    [],
    ["bogus"],
    ["Roots", "--type", "A1"],
    ["root", "--type", "A1"],
    ["--format", "json", "roots", "--type", "A1"],
    ["--type", "A1", "roots"],
    ["-x"],
    # unrecognized arguments and argparse's own errors
    ["check", "--bogus"],
    ["roots", "--type", "A1", "extra"],
    ["roots", "--type", "A1", "--rank", "2", "more", "--format"],
    ["roots"],
    ["roots", "--type"],
    ["roots", "--type", "A2", "--rank", "abc"],
    ["roots", "--type", "-A2"],
    ["check", "--t", "A2"],
    ["check", "--type", "A2", "--theta", "-1,0,1", "--family"],
    ["classify", "--what", "all"],
    ["table2", "--format", "xml"],
]


def _outcome(parse, argv, capsys):
    """What parse(argv) returns, or the code it exits with, then the stdout
    and stderr it wrote."""
    try:
        args, extras = parse(list(argv))
        result = ("parsed", vars(args), extras)
    except SystemExit as e:
        result = ("exit", e.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_subcommand_dispatch_parses_as_the_full_parser(argv, capsys):
    assert _outcome(cli._parse_known, argv, capsys) \
        == _outcome(cli._parser().parse_known_args, argv, capsys)


def test_every_subcommand_is_dispatched():
    assert {argv[0] for argv in ARGVS if argv} >= set(cli._parser().commands)


# -- integer coordinates ------------------------------------------------------------

COORDINATES = ["1_0", "٣", " +2 ", "-0", "+-1", "1/2", "0.5", "1e2", "", "1/0", "nan",
               "7", "-12", "+3", "0012", "1 0", "--1", "2/1", "-4/6", "١٢", "\t5\n", "Infinity"]


def _reference_vector(system, text):
    """cli._parse_vector as it read every coordinate with Fraction()."""
    coords = []
    for k, x in enumerate(text.split(","), 1):
        try:
            coords.append(Fraction(x))
        except (ValueError, ZeroDivisionError) as e:
            why = "has a zero denominator" if isinstance(e, ZeroDivisionError) else "is no number"
            return f"invalid vector {text!r}: coordinate {k} ({x!r}) {why}"
    return system.vector(coords)


def _parsed_vector(system, text):
    try:
        return cli._parse_vector(system, text)
    except cli.UsageError as e:
        return str(e)


@pytest.mark.parametrize("x", COORDINATES)
def test_integer_coordinates_read_as_fraction_reads_them(x):
    system = parse_type("B2")  # ambient dimension 2, spanned by the roots
    for text in (f"{x},1", f"1,{x}"):
        assert _parsed_vector(system, text) == _reference_vector(system, text), text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789+-/._ e٣\t", max_size=6))
def test_drawn_coordinates_read_as_fraction_reads_them(x):
    system = parse_type("B2")
    text = f"{x},-3"
    assert _parsed_vector(system, text) == _reference_vector(system, text)


def test_vector_reads_an_int_as_its_fraction():
    system = parse_type("G2")
    for coords in ([2, -1, -1], [0, 1, -1], [-3, 6, -3]):
        assert system.vector(coords) == system.vector([Fraction(x) for x in coords])


# -- JSON reports -------------------------------------------------------------------


def _reference_json(report):
    """Report.to_json as it was written by json.dumps."""
    data = {
        "kind": report.kind,
        "rows": [dict(sorted(r.items())) for r in report.sorted().rows],
        "provenance": list(report.provenance),
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name", sorted(
    f.name for f in resources.files("crlie.data").iterdir() if f.name.endswith(".json")))
def test_to_json_writes_every_fixture_as_json_dumps(name):
    report = Report.from_json(resources.files("crlie.data").joinpath(name).read_text())
    assert report.to_json() == _reference_json(report)


# any text, quotes, backslashes, control and non-ASCII characters drawn often
STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                                                "é", "√2·SU2", "\ud7ff", "𝔰𝔲", '\\"\n\t']))
# keys as well, but for the two that Report.sorted reads as ints
KEYS = STRINGS.filter(lambda k: k not in ("rank", "index"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS),
       st.lists(st.dictionaries(KEYS, STRINGS, max_size=4), max_size=4),
       st.lists(STRINGS, max_size=3))
@example("roots", [], [])
@example("check", [{}], [])
@example("check", [{}, {"a": ""}, {}], ["p"])
@example("table1", [{'"k"': "\\", "\n": "\x01é"}], ['"', "\u2029"])
def test_to_json_writes_drawn_reports_as_json_dumps(kind, rows, provenance):
    report = Report(kind, tuple(rows), tuple(provenance))
    assert report.to_json() == _reference_json(report)
    assert Report.from_json(report.to_json()).rows == report.sorted().rows
