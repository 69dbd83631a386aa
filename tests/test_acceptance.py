"""Acceptance gate: every criterion runs at its stated tolerance (exact
equality throughout) and prints one PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time
from fractions import Fraction as Q

import pytest

from crlie import chevalley as ch
from crlie import classify
from crlie import contact as ct
from crlie import crstruct as cs
from crlie import families as fam
from crlie import modules as md
from crlie import rootsys as rs
from crlie.cli import load_fixture
from crlie.painted import PaintedGraph, is_good
from crlie.rootsys import format_vector
from crlie.scalars import Gauss
from test_crstruct import root_vector

SAMPLES = classify.SAMPLES


def _special(s):
    """The special route's Families of s, on the highest root's datum."""
    return fam.special_su_families(ct.grade_by_highest_root(s))


def _short_root(s):
    """The short-root route's Families of s, on the dominant short root's
    datum."""
    short = min(range(len(s.roots)), key=s.norm2)
    return fam.short_root_families(ct.contact_datum(s, s.dominant(s.roots[short])))


def project(rows, keys):
    return sorted(tuple((k, str(r.get(k, ""))) for k in keys) for r in rows)


def test_criterion_1_table1_reproduction():
    t0 = time.time()
    keys = ["type", "rank", "mu_canon", "Ro", "R1", "g1_summands"]
    got = project(classify.table1_rows(), keys)
    want = project(load_fixture("table1.json").rows, keys)
    assert got == want
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 (Table 1 exact reproduction, {elapsed:.1f}s): PASS")


def test_criterion_2_tables_2_and_3():
    keys = ["type", "rank", "theta_canon", "l_type", "groups"]
    got = project(classify.table2_rows(), keys)
    want = project(load_fixture("table2.json").rows, keys)
    assert got == want
    got = project(classify.table3_rows(), keys)
    want = project(load_fixture("table3.json").rows, keys)
    assert got == want
    print("\nACCEPTANCE 2 (Tables 2 and 3 module groupings exact): PASS")


def test_criterion_3_primitive_scan():
    t0 = time.time()
    keys = ["type", "rank", "family", "theta_canon"]
    rows = classify.primitive_rows(8)
    fixture = load_fixture("primitive.json").rows
    assert project(rows, keys) == project(fixture, keys)
    assert {r["family"] for r in rows} == {str(k) for k in range(1, 8)}
    # the stored contact forms canonicalize consistently with their sources
    for r in fixture:
        system = (
            rs.build_product([("A", 1), ("A", 1)])
            if r["type"] == "A1+A1"
            else rs.build(r["type"], int(r["rank"]))
        )
        src = system.vector([Q(x) for x in r["theta_source"].split(",")])
        assert classify.canon_str(system.canonical_form(src)) == r["theta_canon"]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 (the seven primitive families, {elapsed:.1f}s): PASS")


def test_criterion_4_cr_graph_scan():
    t0 = time.time()
    keys = ["type", "rank", "graph", "cr_type", "theta_canon", "fiber"]
    rows = classify.crgraph_rows(8)
    fixture = load_fixture("nonprimitive.json").rows
    assert project(rows, keys) == project(fixture, keys)
    spheres = {r["cr_type"]: r["fiber"] for r in rows}
    assert spheres == {
        "I": "SO3 = S(S2)",
        "II": "SO4/SO2 = S(S3)",
        "III": "SO6/SO4 = S(S5)",
        "IV": "SO8/SO6 = S(S7)",
        "V": "SO10/SO8 = S(S9)",
    }
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 (CR-graph families I-V with fibers S(S^r), r in 2,3,5,7,9, {elapsed:.1f}s): PASS")


def test_criterion_5_integrability_constraints():
    t0 = time.time()
    F = _special(rs.build("A4"))
    assert cs.check_integrability(F.fibered).unconditional
    assert cs.check_integrability(_named(F, "disc family J'_t")).unconditional
    gen = cs.check_integrability(F.chart)
    assert str(gen) == "t = s^2"
    for tv in SAMPLES:
        vals = {"s": tv, "t": tv * tv, "s~": tv.conj(), "t~": (tv * tv).conj()}
        assert gen.holds_at(vals)
    for tag in ("C3", "C4", "F4"):
        R = _short_root(rs.build(tag))
        gen = cs.check_integrability(R.chart)
        assert str(gen) == "s = t^2", tag
        for tv in SAMPLES:
            vals = {"t": tv, "s": tv * tv, "t~": tv.conj(), "s~": (tv * tv).conj()}
            assert gen.holds_at(vals)
        assert cs.check_integrability(R.primitive).unconditional
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 (integrability charts: unconditional / t = s^2 / s = t^2, {elapsed:.1f}s): PASS")


def _named(F, label):
    """The structure of a Families record with this report label."""
    return next(h for h in F.structures if h.label == label)


def _family_battery():
    out = []
    F1 = _special(rs.build("A1"))
    out.append(("SU2", F1.fibered, F1.structures[0]))
    F = _special(rs.build("A3"))
    out.append(("A3 twisted line", F.fibered, F.structures[1]))
    out.append(("A3 doubly twisted", F.primitive, F.structures[0]))
    for tag in ("B3", "C3", "F4"):
        R = _short_root(rs.build(tag))
        out.append((f"{tag} short", R.primitive, R.structures[0]))
    d5 = rs.build("D5")
    P = fam.pair_family(ct.contact_datum(d5, d5.vector([1, 0, 0, 0, 0])))
    out.append(("D5 pair", P.primitive, P.structures[0]))
    b3 = rs.build("B3")
    P = fam.pair_family(ct.contact_datum(b3, b3.vector([1, 1, 1])))
    out.append(("B3 pair", P.primitive, P.structures[0]))
    prod = rs.build_product([("A", 1), ("A", 1)])
    P = fam.pair_family(ct.contact_datum(prod, prod.vector([1, -1, -1, 1])))
    out.append(("split pair", P.primitive, P.structures[0]))
    for text in ("A1+A2:g|g,b", "A4:w,g,w,b", "D5:b,w,w,w,g", "E6:g,w,w,w,b,w"):
        g = PaintedGraph.parse(text)
        v = is_good(g)
        P = classify.classify_datum(ct.contact_datum(g.system, v.theta))
        out.append((f"composite {v.cr_type}", P.fibered, P.structures[0]))
    return out


def test_criterion_6_standard_normalizer_dichotomy():
    t0 = time.time()
    for label, family, standard in _family_battery():
        assert cs.is_standard(standard, {}), label
        assert cs.normalizer_excess(standard, {}) == 1, label
        for tv in (SAMPLES[0], SAMPLES[1]):
            vals = {"t": tv}
            if "u" in family.parameters():
                vals["u"] = Gauss(1) / tv
            assert not cs.is_standard(family, vals), label
            assert cs.normalizer_excess(family, vals) == 0, label
    print(f"\nACCEPTANCE 6 (t = 0 standard/excess 1; t != 0 non-standard/excess 0, {time.time()-t0:.1f}s): PASS")


def test_criterion_7_case_eliminations():
    # candidate subsystem eliminations
    def cand(tag, theta):
        s = rs.parse_type(tag)
        d = ct.contact_datum(s, s.vector(theta))
        cd = md.dual_pairs(d)
        return cd, cd.paired_roots

    for tag, theta in [
        ("C4", [1, 1, 1, 1]), ("C5", [1, 1, 1, 1, 0]), ("C6", [1, 1, 1, 1, 0, 0]),
        ("C4", [1, 1, 2, 0]),
        ("F4", [1, 1, 1, 0]),
        ("E8", [-1, 1, 0, 0, 0, 1, 1, 1, 0]),
        ("E8", [0, 0, 0, 0, 0, 1, 0, 2, 0]),
    ]:
        cd, re = cand(tag, theta)
        v = md.tilde_Re_type(cd, re)
        assert not v.accepted, (tag, theta, v)
    # hand-fed full E-type candidate sets are rejected by type
    for tag in ("E6", "E7"):
        s = rs.parse_type(tag)
        theta = s.simple_roots[0] + 2 * s.simple_roots[2]
        d = ct.contact_datum(s, theta)
        v = md.tilde_Re_type(md.dual_pairs(d), frozenset(d.Rprime))
        assert not v.accepted

    # painted-graph eliminations with the named witness roots
    witnesses = {
        "B5:w,g,w,b,w": "e2+e3",
        "E7:g,w,w,w,w,b,w": "e7-e8",
        "E8:w,w,b,w,w,w,g,w": "e1+e2+e4",
        "E8:g,w,w,w,w,w,b,w": "e7-e9",
    }
    for text, named in witnesses.items():
        v = is_good(PaintedGraph.parse(text))
        assert v.admissible and v.good is False
        assert named in {format_vector(x) for x in v.violations}, text
    print("\nACCEPTANCE 7 (case eliminations with the named witnesses): PASS")


def test_criterion_8_algebra_substrate():
    t0 = time.time()
    # Jacobi identity, exhaustively, on every type of rank <= 4
    for tag in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D3",
                "D4", "G2", "F4"):
        s = rs.parse_type(tag)
        basis = [root_vector(s, r) for r in s.roots]
        basis += [ch.LieElement.coroot(s, a) for a in s.simple_roots]
        for x, y, z in itertools.combinations(basis, 3):
            j = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
            assert j.is_zero(), tag
        # |N| = p + 1 on all composable pairs
        tab = s.constants
        for i in range(len(s.roots)):
            for jdx in range(len(s.roots)):
                if s.sum_index(i, jdx) is None:
                    continue
                p, _ = ch.root_string(s, s.roots[i], s.roots[jdx])
                assert abs(tab.n(i, jdx)) == p + 1, tag
    # dual-pair uniqueness for every module-table datum
    data = [("B", r, [1] + [0] * (r - 1)) for r in range(2, 9)]
    data += [("C", r, [1, 1] + [0] * (r - 2)) for r in range(3, 9)]
    data += [("F", 4, [1, 0, 0, 0]), ("B", 3, [1, 1, 1])]
    data += [("D", r, [1] + [0] * (r - 1)) for r in range(3, 9)]
    for t, r, theta in data:
        s = rs.build(t, r)
        d = ct.contact_datum(s, s.vector(theta))
        cd = md.dual_pairs(d)
        seen = set()
        for a, b in cd.pairs:
            assert a not in seen and b not in seen
            seen.update((a, b))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 (Jacobi, string magnitudes, dual uniqueness, {elapsed:.1f}s): PASS")
