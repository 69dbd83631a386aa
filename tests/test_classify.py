"""The contact-datum dispatcher, checked against the golden fixtures."""

import random
from fractions import Fraction as Q
from math import gcd

import pytest

from crlie import classify, cli
from crlie import contact as ct
from crlie import crstruct as cs
from crlie import rootsys as rs
from crlie.cli import load_fixture
from crlie.linalg import chamber_walk
from crlie.modules import dual_pairs


def _datum(row, key="theta_canon"):
    """The contact datum of a fixture row's form; primitive.json names a
    simple type by letter and rank, nonprimitive.json by type tag."""
    t = row["type"]
    s = rs.parse_type(t if t[-1].isdigit() else t + row["rank"])
    return ct.contact_datum(s, s.vector([Q(x) for x in row[key].split(",")]))


def _verdict(row):
    """The Families record for a fixture row's canonical contact form."""
    return classify.classify_datum(_datum(row))


@pytest.mark.parametrize("t,r", classify.simple_types(8))
def test_highest_root_routes_special(t, r):
    s = rs.build(t, r)
    for theta in (s.highest_root(), 2 * s.highest_root(), -s.highest_root()):
        assert classify.classify_datum(ct.contact_datum(s, theta)).route == "special"


def test_short_roots_route_by_type():
    routes = {}
    for tag in ("B3", "C3", "F4", "G2"):
        s = rs.parse_type(tag)
        short = min(range(len(s.roots)), key=s.norm2)
        routes[tag] = classify.classify_datum(ct.contact_datum(s, s.roots[short])).route
    assert routes == {"B3": "short-root", "C3": "short-root", "F4": "short-root",
                      "G2": "g2-short"}


@pytest.mark.parametrize("t,r", classify.simple_types(8))
def test_root_route_table(t, r):
    # the dominant root of each length: a primitive disc family exactly on
    # the long roots of A_n (n >= 2) and the short roots of B, C and F4, a
    # fibered one exactly on the long roots of A_n
    s = rs.build(t, r)
    top = max(s.norm2(i) for i in range(len(s.roots)))
    reps = {s.norm2(i): s.dominant(s.roots[i]) for i in range(len(s.roots))}
    assert len(reps) == (2 if t in "BCFG" else 1)
    for norm, theta in reps.items():
        F = classify.classify_datum(ct.contact_datum(s, theta))
        long = norm == top
        assert (F.primitive is not None) == ((t == "A" and r >= 2) if long else t in "BCF")
        assert (F.fibered is not None) == (long and t == "A")


def test_unclassified_reason():
    s = rs.build("C4")
    v = classify.classify_datum(ct.contact_datum(s, s.vector([1, 1, 1, 1])))
    assert v.route == "unclassified" and v.reason.startswith("eliminated: ")
    rows = classify.structure_rows_for_datum(ct.contact_datum(s, s.vector([1, 1, 1, 1])))
    assert rows[0]["constraint"] == v.reason


@pytest.mark.parametrize(
    "row", [r for r in load_fixture("primitive.json").rows if int(r["rank"]) <= 4],
    ids=lambda r: f"{r['type']}{r['rank']}-family{r['family']}",
)
def test_golden_primitive_forms(row):
    v = _verdict(row)
    assert v.route in ("special", "short-root", "pair")
    assert not dual_pairs(_datum(row)).rj_plus
    assert classify._verify(v.primitive, 2) is True


@pytest.mark.parametrize(
    "row", load_fixture("primitive.json").rows,
    ids=lambda r: f"{r['type']}{r['rank']}-family{r['family']}",
)
def test_golden_primitive_family_numbers(row):
    # the record numbers the primitive family, on the source and canonical forms
    for key in ("theta_source", "theta_canon"):
        F = classify.classify_datum(_datum(row, key))
        assert F.route != "unclassified", (key, F.reason)
        assert F.family == int(row["family"]), key


@pytest.mark.parametrize(
    "row", [r for r in load_fixture("nonprimitive.json").rows if int(r["rank"]) <= 5],
    ids=lambda r: f"{r['type']}-{r['cr_type']}",
)
def test_golden_nonprimitive_forms(row):
    v = _verdict(row)
    if row["cr_type"] == "I":
        assert v.route == "special"
    else:
        assert v.route == "pair"
    h = v.fibered
    assert classify._verify(h, 1) is False
    rep = cs.find_crf_parabolics(h, classify._sample_values(h))
    assert row["fiber"] in {w.fiber_type for w in rep.witnesses}


# -- check --family on a root theta: one row table per system and root length ------------------


def _root_forms():
    """(type, theta) of three seeded Weyl conjugates and twice the dominant
    root of each length of the simple types of rank <= 6, in ambient
    coordinates."""
    rng = random.Random(11)
    out = []
    for t, r in classify.simple_types(6):
        s = rs.build(t, r)
        for rep in s.length_representatives.values():
            forms = []
            for _ in range(3):
                v = rep
                for _ in range(4 * r):
                    v = s.reflect(rng.choice(s.simple_roots), v)
                forms.append(v)
            forms.append(2 * rep)
            out += [(f"{t}{r}", ",".join(map(str, v.coords))) for v in forms]
    return out


def _family_bytes(capsys, tag, theta, fmt):
    assert cli.main(["check", "--type", tag, f"--theta={theta}", "--family",
                     "--format", fmt]) == 0
    return capsys.readouterr().out


def test_root_rows_warm_equal_cold(monkeypatch, capsys):
    """In one process the later forms of a length read the table the first
    filled; each must print what a cold run, on freshly built systems,
    prints."""
    forms = [(tag, theta, fmt) for tag, theta in _root_forms() for fmt in ("text", "json")]
    warm = [_family_bytes(capsys, *form) for form in forms]
    for form, got in zip(forms, warm):
        monkeypatch.setattr(rs, "_CACHE", {})
        assert _family_bytes(capsys, *form) == got, form


def _root_datum(tag, long):
    s = rs.parse_type(tag)
    reps = s.length_representatives
    return ct.contact_datum(s, reps[max(reps) if long else min(reps)])


def test_repeated_root_rows_run_no_checks(monkeypatch):
    datum = _root_datum("C4", long=False)
    first = classify.structure_rows_for_datum(datum)
    calls = []
    for name in ("check_integrability", "normalizer_excess"):
        real = getattr(classify, name)
        monkeypatch.setattr(classify, name,
                            lambda *a, _real=real: calls.append(a) or _real(*a))
    s = datum.system
    conjugate = [s.reflect(a, datum.theta) for a in s.simple_roots]
    assert any(v != datum.theta for v in conjugate)
    for theta in conjugate + [datum.theta, -datum.theta]:
        assert classify.structure_rows_for_datum(ct.contact_datum(s, theta)) == first
    assert calls == []


def test_root_rows_are_fresh_copies():
    datum = _root_datum("A3", long=True)
    first = classify.structure_rows_for_datum(datum)
    want = [dict(row) for row in first]
    first[0]["family"] = "changed"
    first.append({})
    assert classify.structure_rows_for_datum(datum) == want


@pytest.mark.parametrize("tag", ["B3", "C3", "F4", "G2"])
def test_root_rows_keyed_by_length(tag):
    long = classify.structure_rows_for_datum(_root_datum(tag, long=True))
    short = classify.structure_rows_for_datum(_root_datum(tag, long=False))
    assert long != short
    assert {row["theta"] for row in long}.isdisjoint(row["theta"] for row in short)
    assert len(rs.parse_type(tag).root_structure_rows) == 2


# -- the primitive scan's candidate contact forms ----------------------------------------


def _reference_primitive_candidates(system):
    """The candidates as two passes: the pair candidates kept on new chamber
    walks, then one per canonical form."""
    reps = list(system.length_representatives.values())
    if system.is_simple:
        yield from reps
    seen = set()
    for cand in _reference_pair_candidates(system, reps):
        key = rs.canon_str(system.canonical_form(cand))
        if key not in seen:
            seen.add(key)
            yield cand


def _reference_pair_candidates(system, reps):
    cartan, roots = system.cartan_matrix(), set(system.expansions)
    out, seen = [], set()
    for a in reps:
        ia = system.root_index(a)
        for j, b in enumerate(system.expansions):
            if system.strongly_orthogonal(ia, j):
                d = chamber_walk(cartan, [x - y for x, y in zip(a.c, b)])
                g = gcd(*d)
                if d not in seen and tuple(x // g for x in d) not in roots:
                    out.append(a - system.roots[j])
                seen.add(d)
    return out


def _candidate_systems(max_rank):
    """(tag, system) of the simple types of rank <= max_rank and A1+A1."""
    out = [(f"{t}{r}", rs.build(t, r)) for t, r in classify.simple_types(max_rank)]
    return out + [("A1+A1", rs.build_product([("A", 1), ("A", 1)]))]


def test_primitive_candidates_match_the_two_pass_reference():
    # the one pass keeps the same contact forms, in the same order
    for tag, s in _candidate_systems(8):
        assert classify._primitive_candidates(s) == list(_reference_primitive_candidates(s)), tag


def test_primitive_candidates_cover_every_strongly_orthogonal_pair():
    # every a - b, a over all roots and b strongly orthogonal to it, lies
    # along a root or has the canonical form of exactly one candidate
    for tag, s in _candidate_systems(6):
        forms = [rs.canon_str(s.canonical_form(v)) for v in classify._primitive_candidates(s)]
        assert len(set(forms)) == len(forms), tag
        for i, a in enumerate(s.roots):
            for j, b in enumerate(s.roots):
                if s.strongly_orthogonal(i, j) and s.root_along(a - b) is None:
                    assert rs.canon_str(s.canonical_form(a - b)) in forms, (tag, i, j)


def _reference_stabilizer_orbit(system, a, j):
    """The orbit of root j under the simple reflections that fix a, walked
    with RootSystem.reflect on RootVectors."""
    fixing = [alpha for alpha in system.simple_roots if system.inner(a, alpha) == 0]
    orbit, frontier = {j}, [j]
    while frontier:
        b = system.roots[frontier.pop()]
        for alpha in fixing:
            k = system.root_index(system.reflect(alpha, b))
            if k not in orbit:
                orbit.add(k)
                frontier.append(k)
    return orbit


def test_stabilizer_orbits_partition_the_strongly_orthogonal_roots():
    # on each length representative a, the W_a-orbits split the roots
    # strongly orthogonal to a, in index order, and every member of an
    # orbit gives a - b one diagram_orbit
    for tag, s in _candidate_systems(8):
        for a in s.length_representatives.values():
            ia = s.root_index(a)
            strong = [j for j in range(len(s.roots)) if s.strongly_orthogonal(ia, j)]
            orbits = s.stabilizer_orbits(a, strong)
            assert sorted(j for orbit in orbits for j in orbit) == strong, tag
            assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits), tag
            for orbit in orbits:
                assert orbit == sorted(_reference_stabilizer_orbit(s, a, orbit[0])), tag
                keys = set()
                for j in orbit:
                    d = [x - y for x, y in zip(a.c, s.expansions[j])]
                    keys.add(s.diagram_orbit([x // gcd(*d) for x in d]))
                assert len(keys) == 1, (tag, orbit)


def test_primitive_candidates_walk_one_member_per_orbit(monkeypatch):
    walks = []
    walk = rs.RootSystem.diagram_orbit
    monkeypatch.setattr(rs.RootSystem, "diagram_orbit",
                        lambda self, c: walks.append(c) or walk(self, c))
    total = 0
    for tag, s in _candidate_systems(6):
        orbits = sum(len(s.stabilizer_orbits(a, [j for j in range(len(s.roots))
                                                 if s.strongly_orthogonal(s.root_index(a), j)]))
                     for a in s.length_representatives.values())
        walks.clear()
        classify._primitive_candidates(s)
        assert len(walks) == orbits, tag
        total += orbits
    assert total == 49
