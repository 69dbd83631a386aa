"""A cold crlie call imports no module it does not use, and the records
keep the constructors and the value semantics their callers read.

The records are plain classes with hand-written constructors: importing
the package compiles no generated source and loads neither dataclasses
(with inspect, ast, dis and tokenize behind it) nor csv, which only a CSV
rendering needs."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crlie import contact as ct
from crlie import crstruct as cs
from crlie import families as fam
from crlie import modules as md
from crlie import painted as pt
from crlie import report as rp
from crlie import rootsys as rs
from crlie.scalars import Poly

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter without bytecode, as a first crlie call
# does: the modules that importing the package and two renderings add.
_COLD = r"""
import sys
base = set(sys.modules)
import contextlib, io
import crlie, crlie.classify, crlie.cli
imported = set(sys.modules) - base
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [crlie.cli.main(["roots", "--type", "A2", "--format", fmt]) for fmt in ("text", "json")]
print(rcs)
print(*sorted(imported))
print(*sorted(set(sys.modules) - base))
"""

UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}


def test_cold_import_loads_no_unused_module():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _COLD], env=env, capture_output=True,
                          text=True, check=True)
    rcs, imported, rendered = proc.stdout.splitlines()[-3:]
    assert rcs == "[0, 0]"
    assert "crlie.cli" in imported.split()
    assert UNUSED.isdisjoint(imported.split())
    # a text and a JSON rendering load no csv either
    assert UNUSED.isdisjoint(rendered.split())


# Each record's constructor: its parameters in order, with their defaults.
_EMPTY = inspect.Parameter.empty
SIGNATURES = {
    rs.Block: [("kind", _EMPTY), ("start", _EMPTY), ("size", _EMPTY)],
    ct.ContactDatum: [("system", _EMPTY), ("theta", _EMPTY), ("Ro", _EMPTY),
                      ("Rprime", _EMPTY), ("theta_pairings", _EMPTY)],
    cs.TwistedPair: [("hw", _EMPTY), ("partner", _EMPTY), ("coeff", _EMPTY)],
    cs.HolomorphicSubspace: [("datum", _EMPTY), ("pairs", ()), ("plains", ()),
                             ("rj_plus", frozenset()), ("label", "")],
    cs.ConstraintSet: [("generators", _EMPTY)],
    cs.DisjointnessResult: [("factors", _EMPTY)],
    cs.ParabolicWitness: [("sym_roots", _EMPTY), ("fiber_dim", _EMPTY), ("fiber_type", _EMPTY)],
    cs.FibrationReport: [("witnesses", _EMPTY)],
    md.IrredModule: [("highest", _EMPTY), ("weights", _EMPTY)],
    md.CongruenceDatum: [("datum", _EMPTY), ("pairs", _EMPTY)],
    md.ReVerdict: [("accepted", _EMPTY), ("reason", _EMPTY), ("re_type", _EMPTY)],
    fam.Families: [("datum", _EMPTY), ("route", _EMPTY), ("structures", ()), ("family", None),
                   ("primitive", None), ("fibered", None), ("chart", None), ("reason", "")],
    pt.PaintedGraph: [("system", _EMPTY), ("colors", _EMPTY)],
    pt.GraphVerdict: [("admissible", _EMPTY), ("reason", _EMPTY), ("shape", ""),
                      ("gamma_e", frozenset()), ("theta", None), ("good", None),
                      ("cr_type", None), ("whites", frozenset())],
    pt.CRGraph: [("graph", _EMPTY), ("cr_type", _EMPTY), ("theta", _EMPTY)],
    rp.Report: [("kind", _EMPTY), ("rows", _EMPTY), ("provenance", ())],
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_record_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def _datum():
    s = rs.build("A3")
    return ct.contact_datum(s, s.vector([1, 0, 0, -1]))


def test_records_take_positional_and_keyword_arguments():
    datum = _datum()
    h = cs.HolomorphicSubspace(datum)
    assert (h.datum, h.pairs, h.plains, h.rj_plus, h.label) == (datum, (), (), frozenset(), "")
    assert cs.HolomorphicSubspace(datum=datum, label="disc").label == "disc"
    f = fam.Families(datum, "pair")
    assert (f.datum, f.route, f.structures, f.family, f.primitive, f.fibered, f.chart,
            f.reason) == (datum, "pair", (), None, None, None, None, "")
    f = fam.Families(datum, "special", (h,), fibered=h, reason="r")
    assert (f.structures, f.fibered, f.primitive, f.reason) == ((h,), h, None, "r")
    v = pt.GraphVerdict(False, "no grey node")
    assert (v.admissible, v.reason, v.shape, v.gamma_e, v.theta, v.good, v.cr_type,
            v.whites) == (False, "no grey node", "", frozenset(), None, None, None, frozenset())
    assert v.missing == frozenset() and v.violations == () and v.witness is None
    r = rp.Report(kind="check", rows=())
    assert (r.kind, r.rows, r.provenance) == ("check", (), ())


def test_bad_records_raise_as_before():
    a2 = rs.build("A2")
    with pytest.raises(pt.GraphError, match=r"^A2 has 2 nodes, expected one color per node, "
                                            r"got 3$"):
        pt.PaintedGraph(a2, ("w", "w", "g"))
    with pytest.raises(pt.GraphError, match=r"^node 2 has color 'x', expected w, b or g$"):
        pt.PaintedGraph(a2, ("w", "x"))
    with pytest.raises(ValueError, match=r"^unknown report kind nope$"):
        rp.Report("nope", ())


def _subspace(datum, label=""):
    t = Poly.var("t")
    return cs.HolomorphicSubspace(datum, (cs.TwistedPair(1, 2, t), cs.TwistedPair(5, 6, t)),
                                  (3,), frozenset({4}), label)


def test_value_records_compare_and_hash_by_value():
    a3 = rs.build("A3")
    g, g2 = (pt.PaintedGraph(a3, ("g", "b", "w")) for _ in range(2))
    assert g is not g2 and g == g2 and hash(g) == hash(g2)
    assert g != pt.PaintedGraph(a3, ("g", "w", "w"))
    assert g != pt.PaintedGraph(rs.build("B3"), ("g", "b", "w"))

    d, d2 = _datum(), _datum()
    assert d is not d2 and d == d2 and hash(d) == hash(d2)
    h, h2 = _subspace(d), _subspace(d2)
    assert h == h2 and hash(h) == hash(h2)
    assert h != _subspace(d, "disc") and h != cs.HolomorphicSubspace(d)
    assert len({h, h2, cs.HolomorphicSubspace(d)}) == 2

    w, w2 = (cs.ParabolicWitness(frozenset({0, 6}), 1, "A1") for _ in range(2))
    assert w == w2 and hash(w) == hash(w2)
    assert w != cs.ParabolicWitness(frozenset({0, 6}), 1, "A1+A1")
    assert w != (frozenset({0, 6}), 1, "A1")

