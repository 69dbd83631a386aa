"""The structure checks decided on root sets against the references they
replaced: HolomorphicSubspace.l_stable against the bracket-and-reduce
check of poly_reference, check_disjointness against the cofactor
determinant of every class on the LieElement basis, and the typing table
RootSystem._subsystem_components against a fresh Subsystem._dynkin_components.
They run on every structure of the tools/cli_digest.py batteries, on its
M10_EDGES specs, and on seeded subspaces of random R_J+ beside twisted pairs,
whose classes are often not square or have two unit rows on one column."""

import random
from collections import Counter
from functools import cache

import pytest

import poly_reference as ref
from crlie import contact as ct
from crlie import crstruct as cs
from crlie import rootsys as rs
from crlie.cli import build_subspace
from crlie.scalars import P_ZERO, Poly
from test_crstruct import _basis_disjointness, _cli_digest, _digest_structures, _outcome

KINDS = ("golden", "sums", "m10")
# (type, theta) of the seeded subspaces: R_o of types A1+A1, A2, A1+A1,
# A1+A1+A1 and A2, and none on A2
RANDOM_FORMS = (("A4", "1,0,0,0,-1"), ("B3", "1,1,0"), ("C3", "2,0,0"), ("D4", "1,1,0,0"),
                ("G2", "1,0,-1"), ("A2", "1,0,-1"))
RANDOM_DRAWS = 40  # subspaces drawn per form


@cache
def _structures(kind):
    """_digest_structures(kind), built once per session."""
    return tuple(_digest_structures(kind))


@cache
def _edge_structures():
    """The M10_EDGES subspaces of tools/cli_digest.py, then A2 at e1 - e3
    with plains e1 - e3, e3 - e1 and e1 - e2, whose first class holds four
    rows and two unit rows on each of its two columns."""
    specs = _cli_digest().M10_EDGES + (
        ("A2", "1,0,-1", {"plains": ["1,0,-1", "-1,0,1", "1,-1,0"]}),)
    out = []
    for t, theta, spec in specs:
        s = rs.parse_type(t)
        out.append(build_subspace(ct.contact_datum(s, s.vector(theta.split(","))), spec))
    return tuple(out)


def _random_subspaces(t, theta, seed):
    """RANDOM_DRAWS subspaces of the form whose lines build: up to one
    twisted pair of congruent modules that propagate, of twist t or 0,
    and R_J+ a random set of the roots of R' left, as many as |R'| / 2
    asks."""
    s = rs.parse_type(t)
    datum = ct.contact_datum(s, s.vector(theta.split(",")))
    wt = datum.weight_codes
    pairs = [(a, b) for a in datum.modules for b in datum.modules
             if a != b and wt[a] == wt[b]
             and isinstance(_outcome(cs._propagate, datum, a, b), dict)]
    rng = random.Random(seed)
    twists = (Poly.var("t"), P_ZERO, Poly.var("t") * Poly.var("s") - Poly.const(1))
    out = []
    while len(out) < RANDOM_DRAWS:
        parts = [cs.TwistedPair(*rng.choice(pairs), rng.choice(twists))] \
            if pairs and rng.random() < 0.7 else []
        taken = {r for p in parts for w, (wp, _) in cs._propagate(datum, p.hw, p.partner).items()
                 for r in (w, wp)}
        free = sorted(datum.Rprime - taken)
        k = len(datum.Rprime) // 2 - len(taken) // 2
        h = cs.HolomorphicSubspace(datum, tuple(parts), (), frozenset(rng.sample(free, k)))
        assert isinstance(_outcome(lambda: h.lines), dict)
        out.append(h)
    return out


def _all_subspaces():
    """Every subspace these tests run on, with a name for its battery."""
    for kind in KINDS:
        yield from ((kind, h) for h in _structures(kind))
    yield from (("edges", h) for h in _edge_structures())
    for n, (t, theta) in enumerate(RANDOM_FORMS):
        yield from ((f"random {t}", h) for h in _random_subspaces(t, theta, n))


def test_l_stable_matches_the_bracket_reference():
    seen = {}
    for name, h in _all_subspaces():
        assert h.l_stable == ref.l_stable(h), (name, h.label)
        seen.setdefault(name, set()).add(h.l_stable)
        if not h.rj_plus:
            # pair and plain parts are l-stable by construction
            assert h.l_stable, (name, h.label)
        # a module is connected under the steps d, and the parts other than
        # R_J+ are whole modules: l-stable exactly when R_J+ splits none
        splits = any(0 < len(h.rj_plus & m.weights) < len(m.weights)
                     for m in h.datum.modules.values())
        assert h.l_stable != splits, (name, h.label)
    assert set().union(*seen.values()) == {True, False}
    # a random R_J+ splits modules where there are any to split; with R_o
    # empty every root is its own module
    assert all(seen[f"random {t}"] == {True, False} for t, _ in RANDOM_FORMS if t != "A2")
    assert seen["random A2"] == {True}


def test_propagated_pairs_are_intertwiners():
    # what l_stable takes from the theory without testing it: on every
    # pair of congruent modules that propagates, of every datum met, the
    # roots w' fill the partner module and w + d is a root exactly when
    # w' + d is, so a pair's lines map onto its lines
    data = {h.datum for _, h in _all_subspaces()}
    pairs = 0
    for datum in data:
        s, wt, mods = datum.system, datum.weight_codes, datum.modules
        for a in mods:
            for b in mods:
                if a == b or wt[a] != wt[b]:
                    continue
                kappa = _outcome(cs._propagate, datum, a, b)
                if not isinstance(kappa, dict):
                    continue
                pairs += 1
                assert {wp for wp, _ in kappa.values()} == mods[b].weights
                for w, (wp, _) in kappa.items():
                    for d in datum.ro_generators:
                        assert (s.sum_index(w, d) is None) == (s.sum_index(wp, d) is None)
    assert pairs > 100


def test_edge_specs_are_as_named():
    a4, d5, a2, g2, a2_square = _edge_structures()
    # G2's two twisted pairs give one class four twisted rows, lines and
    # conjugates, so a 4 x 4 determinant by cofactors
    neg, class_of = g2.datum.system.neg_index, g2.datum.class_of
    twisted = [w for w, line in g2.lines.items() if line and line[1]]
    rows = Counter(class_of[w] for w in twisted) + Counter(class_of[neg[w]] for w in twisted)
    assert 4 in rows.values()
    # pair lines of twist 0, unit rows of check_disjointness
    assert any(line and not line[1] for line in a4.lines.values())
    assert any(line and not line[1] for line in d5.lines.values())
    assert a4.l_stable and d5.l_stable
    with pytest.raises(cs.StructError, match="identically degenerate block"):
        cs.check_disjointness(a2)
    # not square comes first in a class that is degenerate too
    with pytest.raises(cs.StructError, match="congruence block is not square"):
        cs.check_disjointness(a2_square)


def test_disjointness_matches_the_basis_reference():
    outcomes = set()
    for name, h in _all_subspaces():
        if name in KINDS:
            continue  # test_line_checks_match_basis_references covers those
        got = _outcome(lambda: cs.check_disjointness(h).factors)
        assert got == _outcome(_basis_disjointness, h), (name, h.label)
        outcomes.add(got[1] if isinstance(got, tuple) and got[:1] == ("StructError",)
                     else "factors" if got else "none")
    assert outcomes == {"factors", "none", "identically degenerate block",
                        "congruence block is not square"}


def _fresh_components(s, members):
    return tuple(sorted(rs.Subsystem(s, members)._dynkin_components(), key=lambda c: c[:2]))


def _mask(members):
    """The key of RootSystem._subsystem_components: bit i for root i."""
    return sum(1 << i for i in members)


@pytest.mark.parametrize("kind", KINDS)
def test_typing_table_matches_fresh_typing(kind):
    systems = set()
    for h in _structures(kind):
        s, ro = h.datum.system, h.datum.Ro
        systems.add(s)
        assert ro._components == _fresh_components(s, ro.members), (s.type_str(), h.label)
        assert s._subsystem_components[_mask(ro.members)] is ro._components
    # the table holds every R_o and every closure typed on these systems
    for s in systems:
        assert s._subsystem_components
        for mask, comps in s._subsystem_components.items():
            members = frozenset(i for i in range(len(s.roots)) if mask >> i & 1)
            assert comps == _fresh_components(s, members), (s.type_str(), sorted(members))


def test_typing_table_types_each_member_set_once(monkeypatch):
    s = rs.RootSystem([("D", 4)])  # not the cached system: its table starts empty
    calls = []
    work = rs.Subsystem._dynkin_components

    def counted(self):
        calls.append(self.members)
        return work(self)

    monkeypatch.setattr(rs.Subsystem, "_dynkin_components", counted)
    members = s.orthogonal_roots(s.roots[0])
    assert rs.Subsystem(s, members).type_str() == rs.Subsystem(s, members).type_str() == "A1+A1+A1"
    assert calls == [members]


def test_a_set_that_is_no_root_system_is_never_kept():
    s = rs.RootSystem([("A", 3)])
    positive = frozenset(i for i in range(len(s.roots)) if s.positive[i])
    for members in (positive, frozenset([min(positive)])):
        sub = rs.Subsystem(s, members)
        for other in (sub, sub, rs.Subsystem(s, members)):
            with pytest.raises(rs.RootSystemError, match="no root system"):
                other.classify()
        assert _mask(members) not in s._subsystem_components
