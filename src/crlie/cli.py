"""Command-line driver.

Subcommands: roots, table1, table2, table3, classify, check.
Exit codes: 0 success (golden diffs clean), 2 classification/golden
mismatch, 64 usage error.  CRLIE_MAX_RANK overrides the default scan bound
(at most 8, the highest rank of the golden fixtures), which also bounds
the total rank of a --type or --graph.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from importlib import resources

from . import classify
from .contact import ContactDatum, contact_datum
from .crstruct import HolomorphicSubspace, StructError, TwistedPair
from .modules import dual_pairs
from .painted import GraphError, PaintedGraph, flag_pair, is_good
from .report import Report
from .rootsys import (VALID_TYPES, RootSystem, RootSystemError, RootVector, build_product,
                      format_vector, parse_components)
from .scalars import Poly

USAGE_ERROR = 64
MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One line naming the (sub)command, then exit 64; the usage is
        left to --help."""
        sys.stderr.write(f"error: {self.prog}: {message}\n")
        raise SystemExit(USAGE_ERROR)


class UsageError(Exception):
    """Bad input found after parsing; main reports it on one line and exits 64."""


def _max_rank(args, least: int | None = None) -> int:
    """--max-rank, else CRLIE_MAX_RANK, else 8; the fixtures stop at rank 8.
    A bound below least, where given, is a usage error naming its source."""
    top = classify.DEFAULT_MAX_RANK
    if args.max_rank is not None:
        source, value = "--max-rank", args.max_rank
    else:
        env = os.environ.get("CRLIE_MAX_RANK")
        if not env:
            return top
        try:
            source, value = "CRLIE_MAX_RANK", int(env)
        except ValueError:
            raise UsageError(f"CRLIE_MAX_RANK must be an integer, got {env!r}") from None
    if value > top:
        raise UsageError(f"{source} must be at most {top}, got {value}")
    if least is not None and value < least:
        raise UsageError(f"{source} must be at least {least}, got {value}")
    return value


def _system(source: str, text: str, rank: int | None = None) -> RootSystem:
    """The system a type string names, or type letter and rank; a total rank
    above the fixtures' bound is a usage error before any system is built."""
    if rank is not None and text not in VALID_TYPES:
        raise UsageError(f"{source} {text!r} must be one type letter with --rank {rank}")
    try:
        comps = parse_components(text) if rank is None else [(text, rank)]
        total, top = sum(r for _, r in comps), classify.DEFAULT_MAX_RANK
        if total > top:
            raise UsageError(f"{source} {text!r} must have total rank at most {top}, got {total}")
        return build_product(comps)
    except RootSystemError as e:
        raise UsageError(e if rank is None else
                         f"{source} {text!r} with --rank {rank} names no root system") from None


def load_fixture(name: str) -> Report:
    text = resources.files("crlie.data").joinpath(name).read_text()
    return Report.from_json(text)


def _golden_diff(report: Report, fixture_name: str, keys: list[str], row_filter) -> int:
    """Exit code of a diff against the fixture rows that pass row_filter,
    projected to keys; a mismatch names each missing and extra row on
    stderr."""
    golden = load_fixture(fixture_name)

    def project(rows):
        return sorted(tuple((k, str(r.get(k, ""))) for k in keys) for r in rows)

    got = project(report.rows)
    want = project(r for r in golden.rows if row_filter(r))
    if got == want:
        return 0
    for row in want:
        if row not in got:
            sys.stderr.write(f"golden mismatch: missing: {dict(row)}\n")
    for row in got:
        if row not in want:
            sys.stderr.write(f"golden mismatch: extra: {dict(row)}\n")
    return MISMATCH


def _emit(report: Report, args) -> None:
    text = report.render(args.format)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out!r}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_roots(args) -> int:
    system = _system("--type", args.type, args.rank)
    rows = [{"what": "root", "value": format_vector(r), "coords": classify.canon_str(r),
             "positive": "yes" if system.positive[i] else "no", "norm2": str(system.norm2(i))}
            for i, r in enumerate(system.roots)]
    rows += [{"what": "simple_root", "index": str(k + 1), "value": format_vector(a)}
             for k, a in enumerate(system.simple_roots)]
    if system.is_simple:
        rows.append({"what": "highest_root", "value": format_vector(system.highest_root())})
    rows += [{"what": "cartan_row", "index": str(k + 1), "value": ",".join(map(str, row))}
             for k, row in enumerate(system.cartan_matrix())]
    _emit(Report("roots", tuple(rows)), args)
    return 0


def cmd_table(args, which: int) -> int:
    if which == 1:
        top = classify.DEFAULT_MAX_RANK
        parts = args.rank_range.split("-") if args.rank_range else ["3"]
        lo, hi = (parts + [str(top)])[:2]
        if not (len(parts) <= 2 and lo.isdecimal() and hi.isdecimal()
                and 3 <= int(lo) <= int(hi) <= top):
            raise UsageError(
                f"--rank-range must be LO-HI with 3 <= LO <= HI <= {top}, got {args.rank_range!r}")
        report = Report("table1", tuple(classify.table1_rows(range(int(lo), int(hi) + 1))),
                        (f"fixtures/table1.json",))
        keys = ["type", "rank", "mu_canon", "Ro", "R1", "g1_summands"]
        keep = lambda r: int(lo) <= int(r["rank"]) <= int(hi) or r["type"] in "EFG"
    else:
        max_rank = _max_rank(args)
        make = classify.report_table2 if which == 2 else classify.report_table3
        report = make(max_rank)
        keys = ["type", "rank", "theta_canon", "l_type", "groups"]
        keep = lambda r: int(r["rank"]) <= max_rank
    _emit(report.sorted(), args)
    return _golden_diff(report, f"table{which}.json", keys, keep)


def cmd_classify(args) -> int:
    max_rank = _max_rank(args, least=2)
    report = classify.report_classify(args.what, max_rank)
    _emit(report, args)
    if args.what == "special":
        return 0
    if args.what == "primitive":
        fixture, keys = "primitive.json", ["type", "rank", "family", "theta_canon"]
    else:
        fixture = "nonprimitive.json"
        keys = ["type", "rank", "graph", "cr_type", "theta_canon", "fiber"]
    return _golden_diff(report, fixture, keys, lambda r: int(r["rank"]) <= max_rank)


# a factor of an --m10 coefficient: an integer, or a twist name with an
# optional positive exponent
_INT = re.compile(r"-?[0-9]+")
_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*([1-9][0-9]*))?")
# the highest power of a twist in one coefficient: each sample evaluates
# a twist with one product per unit of its exponent
MAX_TWIST_EXPONENT = 100


def _parse_coeff(s) -> Poly:
    if not isinstance(s, str):
        raise UsageError(f"invalid --m10 coefficient {s!r}: expected a string")
    out = Poly.const(1)
    for factor in s.split("*"):
        factor = factor.strip()
        if factor.split("^")[0].strip().endswith("~"):
            # x~ takes its value from x, so a coefficient naming x~ alone is never sampled
            raise UsageError(f"invalid --m10 coefficient {s!r}: name the twist, not its conjugate")
        power = _POWER.fullmatch(factor)
        if _INT.fullmatch(factor):
            out = out.scale(int(factor))
        elif power:
            out = out * Poly.var(power[1], int(power[2] or 1))
            if max((e for m in out.terms for _, e in m), default=0) > MAX_TWIST_EXPONENT:
                raise UsageError(f"invalid --m10 coefficient {s!r}: factor {factor!r} raises "
                                 f"{power[1]} above the power {MAX_TWIST_EXPONENT}")
        else:
            raise UsageError(f"invalid --m10 coefficient {s!r}: factor {factor!r} is neither "
                             "an integer nor a name with an optional positive exponent ^k")
    return out


# an optionally signed run of decimal digits, which int() and Fraction() read alike
_SIGNED_DIGITS = re.compile(r"[-+]?\d+")


def _parse_vector(system, s, prefix: str = "") -> RootVector:
    """The vector of comma-separated ambient coordinates s; prefix opens each message."""
    bad = f"{prefix}invalid vector {s!r}"
    if not isinstance(s, str):
        raise UsageError(f"{bad}: expected comma-separated coordinates")
    fields = s.split(",")
    if len(fields) != system.dim:
        raise UsageError(f"{bad}: expected {system.dim} coordinates for {system.type_str()}, "
                         f"got {len(fields)}")
    coords = []
    for k, x in enumerate(fields, 1):
        try:  # int() is the cheap read of an integer; "1_0" stays a Fraction's to judge
            coords.append(int(x) if _SIGNED_DIGITS.fullmatch(x) else Fraction(x))
        except (ValueError, ZeroDivisionError) as e:
            why = "has a zero denominator" if isinstance(e, ZeroDivisionError) else "is no number"
            raise UsageError(f"{bad}: coordinate {k} ({x!r}) {why}") from None
    return system.vector(coords)


def _root_index(system, s, where: str) -> int:
    """The index of the root an --m10 vector names; where names its place
    in the spec."""
    i = system.root_index(_parse_vector(system, s, f"invalid --m10 spec: {where}: "))
    if i is None:
        raise UsageError(f"invalid --m10 spec: {where}: vector {s!r} is not a root")
    return i


def _shaped(value, where: str, shape: str, size: int | None = None) -> list:
    """value, when it is a list (of size items, where size is given); else
    a usage error naming its place in the spec and the shape expected."""
    if not isinstance(value, list) or size not in (None, len(value)):
        raise UsageError(f"invalid --m10 spec: {where} must be {shape}, got {value!r}")
    return value


M10_KEYS = ("pairs", "plains", "rj_plus", "su2")


def build_subspace(datum: ContactDatum, spec) -> HolomorphicSubspace:
    if not isinstance(spec, dict):
        raise UsageError(f"invalid --m10 spec: expected a JSON object, got {spec!r}")
    for key in spec:
        if key not in M10_KEYS:
            raise UsageError(f"invalid --m10 spec: unknown key {key!r}, "
                             f"expected one of {', '.join(M10_KEYS)}")
    system = datum.system
    pairs = []
    entries = _shaped(spec.get("pairs", []), "pairs",
                       "a list of [root, partner, coefficient] entries")
    for k, entry in enumerate(entries, 1):
        where = f"pairs entry {k}"
        hw, partner, coeff = _shaped(entry, where, "[root, partner, coefficient]", 3)
        pairs.append(TwistedPair(_root_index(system, hw, where),
                                 _root_index(system, partner, where), _parse_coeff(coeff)))
    plains = tuple(_root_index(system, p, "plains")
                   for p in _shaped(spec.get("plains", []), "plains", "a list of roots"))
    rj: frozenset[int] = frozenset()
    rj_spec = spec.get("rj_plus")
    if rj_spec == "positive":
        rj = dual_pairs(datum).rj_plus
    elif isinstance(rj_spec, list):
        rj = frozenset(_root_index(system, p, "rj_plus") for p in rj_spec)
    elif "rj_plus" in spec:
        raise UsageError(f'invalid --m10 spec: rj_plus must be "positive" or a list of roots, '
                         f"got {rj_spec!r}")
    if "su2" in spec:  # the line E_mu + c E_-mu is the pair (mu, -mu, c)
        root, coeff = _shaped(spec["su2"], "su2", "[root, coefficient]", 2)
        mu = _root_index(system, root, "su2")
        pairs.append(TwistedPair(mu, system.neg_index[mu], _parse_coeff(coeff)))
    return HolomorphicSubspace(datum, tuple(pairs), plains, rj)


def cmd_check(args) -> int:
    rows = []
    if args.graph is not None:
        if ":" in args.graph:  # the type's rank is checked before PaintedGraph builds it
            _system("--graph", args.graph.split(":")[0])
        try:
            g = PaintedGraph.parse(args.graph)
        except (GraphError, RootSystemError) as e:
            raise UsageError(e) from None
        v = is_good(g)
        row = {
            "graph": g.serialize(),
            "admissible": "yes" if v.admissible else "no",
            "reason": v.reason,
        }
        if v.admissible:
            row["theta"] = format_vector(v.theta)
            row["good"] = "yes" if v.good else "no"
            if v.good:
                row["cr_type"] = v.cr_type or ""
                k, q = flag_pair(g)
                row["K_type"], row["Q_type"] = k.type_str(), q.type_str()
            elif v.witness is not None:
                row["witness"] = format_vector(v.witness)
        rows.append(row)
        _emit(Report("check", tuple(rows)), args)
        return 0
    if (args.type is not None and args.theta is not None
            and (args.m10 is not None or args.family)):
        system = _system("--type", args.type)
        try:
            datum = contact_datum(system, _parse_vector(system, args.theta))
        except (RootSystemError, ValueError) as e:  # ContactError is a ValueError
            raise UsageError(e) from None
        if args.family:
            rows = classify.structure_rows_for_datum(datum)
        else:
            try:
                h = build_subspace(datum, json.loads(args.m10))
            except (ValueError, KeyError, TypeError) as e:
                raise UsageError(f"invalid --m10 spec: {e}") from None
            try:
                rows.append(classify._structure_row(h, "user subspace"))
            except StructError as e:
                raise UsageError(f"invalid --m10 spec: {e}") from None
        _emit(Report("structures", tuple(rows)), args)
        return 0
    raise UsageError("check needs --graph or --type/--theta with --m10 or --family")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and reused by every main call."""
    p = _Parser(prog="crlie", description="invariant contact and CR structure classification")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # each subcommand's parser, by name

    def common(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("roots", parents=[], help="root system data")
    sp.add_argument("--type", required=True)
    sp.add_argument("--rank", type=int, default=None)
    common(sp)

    for n in (1, 2, 3):
        sp = sub.add_parser(f"table{n}", help=f"reconstruct classification table {n}")
        if n == 1:
            sp.add_argument("--rank-range", default=None, help="e.g. 3-8")
        else:
            sp.add_argument("--max-rank", type=int, default=None)
        common(sp)

    sp = sub.add_parser("classify", help="run a classification scan")
    sp.add_argument("--what", required=True,
                    choices=("special", "primitive", "crgraphs", "nonprimitive"))
    sp.add_argument("--max-rank", type=int, default=None)
    common(sp)

    sp = sub.add_parser("check", help="verdicts for a painted graph or subspace")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--type", default=None)
    sp.add_argument("--theta", default=None)
    sp.add_argument("--m10", default=None)
    sp.add_argument("--family", action="store_true",
                    help="classify all structures for the given contact form")
    common(sp)
    return p


def _parse_known(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """_parser().parse_known_args(argv), with the same namespace, extras,
    messages and exits.  When argv[0] names a subcommand, its own parser
    reads the rest as the full parser would hand it over, and the
    top-level pass is skipped; any other argv (none, an unknown command,
    an option first) goes through the full parser."""
    parser = _parser()
    if argv and argv[0] in parser.commands:
        return parser.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_known_args(argv)


def main(argv=None) -> int:
    args, extras = _parse_known(sys.argv[1:] if argv is None else list(argv))
    if extras:  # reported by the subcommand they were given to
        _parser().commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        if args.command == "roots":
            return cmd_roots(args)
        if args.command == "table1":
            return cmd_table(args, 1)
        if args.command == "table2":
            return cmd_table(args, 2)
        if args.command == "table3":
            return cmd_table(args, 3)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "check":
            return cmd_check(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
