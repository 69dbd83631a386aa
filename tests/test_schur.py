"""The isotypic components of m^C (modules.schur_components) and the
l-stable subspaces they allow.

By Schur's lemma (Humphreys §6.1) an l-stable m10 is a free choice in each
isotypic component of m^C.  _schur_choices builds every such choice, each
twisted pair with its own twist, on the dominant classes of R u (R +- R)
of the simple types of rank <= 6.  Every choice must build its lines and
be l-stable, every structure a route builds must be one of them, and the
integrable, non-standard choices that no route builds are counted.  The
table itself is checked on every contact form tools/cli_digest.py checks.
On every choice the structure checks, which read an l-stable subspace's
highest weights only, must equal their every-pair and every-class
references (poly_reference).
"""

import itertools
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import poly_reference as ref
from crlie import classify
from crlie import contact as ct
from crlie import crstruct as cs
from crlie import modules as md
from crlie import rootsys as rs
from crlie.scalars import ONE, ZERO, Poly
from test_congruence import _dominant_sum_forms
from test_crstruct import _check_standardness_rule, _cli_digest

S0 = classify.SAMPLES[0]


def _dominant_classes():
    """(tag, system, theta): the dominant classes of R u (R +- R) of the
    simple types of rank <= 6, up to Weyl group, diagram symmetry, sign
    and positive scaling (RootSystem.canonical_form), in scan order."""
    out = []
    for t, r in classify.simple_types(6):
        s = rs.build(t, r)
        forms = _dominant_sum_forms(f"{t}{r}") + [s.dominant(x) for x in s.roots]
        for theta in dict.fromkeys(s.canonical_form(f) for f in forms):
            out.append((f"{t}{r}", s, theta))
    return out


def _schur_choices(datum):
    """Every l-stable m10 of the datum: the product over its Schur
    components of {a} or {abar} for a pair of multiplicity 1; a, abar or
    the pair (a, abar, x_k) for a self-conjugate component; a + b,
    bbar + abar or the pairs (a, b, x_k) and (bbar, abar, y_k) for a
    conjugate pair of multiplicity 2.  Each twisted pair has its own
    twist."""
    choices = []
    for k, c in enumerate(md.schur_components(datum)):
        x, y = Poly.var(f"x{k}"), Poly.var(f"y{k}")
        if len(c) == 4:
            a, b, bbar, abar = c
            twisted = (cs.TwistedPair(a, b, x), cs.TwistedPair(bbar, abar, y))
            choices.append([((), (a, b)), ((), (bbar, abar)), (twisted, ())])
        elif datum.class_of[c[0]] == datum.class_of[c[1]]:
            choices.append([((), c[:1]), ((), c[1:]), ((cs.TwistedPair(*c, x),), ())])
        else:
            choices.append([((), c[:1]), ((), c[1:])])
    return [cs.HolomorphicSubspace(datum, pairs=sum((p for p, _ in pick), ()),
                                   plains=sum((q for _, q in pick), ()))
            for pick in itertools.product(*choices)]


def _span(lines):
    """The lines of HolomorphicSubspace.at as a set, each line scaled so
    that its smaller root has coefficient 1: two subspaces are equal
    exactly when these sets are, since no root lies on two lines."""
    out = set()
    for w, line in lines.items():
        if line is None:
            out.add(((w, ONE),))
        else:
            wp, c = line
            out.add(((w, ONE), (wp, c)) if w < wp else ((wp, ONE), (w, ONE / c)))
    return frozenset(out)


def _is_choice(h, values, g):
    """Whether h at values is the choice g at some twists: each twist of g
    is read off the line of h through its pair's highest weight (0 where
    that line is not the pair's), and the two spans are compared."""
    lines = h.at(values)
    through = {}
    for w, line in lines.items():
        through[w] = line
        if line is not None:
            through[line[0]] = (w, ONE / line[1])
    twists = {}
    for pair in g.pairs:
        (name,) = pair.coeff.variables()
        wp, c = g.lines[pair.hw]
        got = through.get(pair.hw)
        twists[name] = got[1] / c.eval({name: ONE}) if got and got[0] == wp else ZERO
    return _span(g.at(twists)) == _span(lines)


def _short_form(s):
    """The canonical form of the system's short roots."""
    return s.canonical_form(s.roots[min(range(len(s.roots)), key=s.norm2)])


@lru_cache(maxsize=None)
def _census():
    """The choices of every dominant class, the classes schur_components
    rejects, the route structures matched to a choice and those that are
    not, and the integrable, non-standard choices no route builds."""
    out = {"choices": [], "rejected": [], "matched": 0, "unmatched": [], "unrouted": []}
    for tag, s, theta in _dominant_classes():
        datum = ct.contact_datum(s, theta)
        try:
            choices = _schur_choices(datum)
        except md.CongruenceError:
            out["rejected"].append((tag, theta.canon()))
            continue
        out["choices"].append(choices)
        routed = set()
        for h in classify.classify_datum(datum).structures:
            values = {p: S0 for p in h.parameters()}
            hits = [g for g in choices if _is_choice(h, values, g)]
            if hits:
                out["matched"] += 1
                routed.update(hits)
            else:
                out["unmatched"].append((tag, h.label))
        for g in choices:
            if g not in routed and cs.check_integrability(g).unconditional \
                    and not cs.is_standard(g, {p: S0 for p in g.parameters()}):
                out["unrouted"].append(tag)
    return out


def test_every_schur_choice_builds_and_is_l_stable():
    census = _census()
    assert census["rejected"] == [("G2", _short_form(rs.build("G2")).canon())]
    sizes = [len(choices) for choices in census["choices"]]
    assert (len(sizes), sum(sizes), max(sizes)) == (81, 1635, 192)
    for choices in census["choices"]:
        for g in choices:
            assert 2 * len(g.lines) == len(g.datum.Rprime)
            assert g.l_stable


def test_every_route_structure_is_a_schur_choice():
    # each route structure, with every twist at SAMPLES[0], is one choice
    census = _census()
    assert census["unmatched"] == []
    assert census["matched"] == 89


def test_choices_match_the_every_pair_and_every_class_references():
    # every choice is l-stable, so check_integrability brackets only each
    # module's highest line with the lines of its own and later modules,
    # and check_disjointness takes only the classes of module highest weights
    for choices in _census()["choices"]:
        for g in choices:
            got, want = cs.check_integrability(g), ref.check_integrability(g)
            assert [p.key() for p in got.generators] == [p.key() for p in want.generators]
            got, want = cs.check_disjointness(g), ref.check_disjointness(g)
            assert [f.key() for f in got.factors] == [f.key() for f in want.factors]


def test_untwisted_choices_match_the_every_pair_lone_lines():
    # every choice is l-stable, so an untwisted one's integrability pairs
    # only module highest weights with the lines (_lone_lines_closed)
    seen = Counter()
    for choices in _census()["choices"]:
        for g in choices:
            if not any(g.lines.values()):
                got = cs._lone_lines_closed(g)
                assert got == ref.lone_lines_closed(g.datum, g.lines)
                seen[got] += 1
    assert seen[True] and seen[False]


def test_standardness_rule_on_every_choice(monkeypatch):
    # every choice is l-stable, so wherever its m10 and m01 are disjoint
    # its normalizer excess is 1 when it is standard and 0 otherwise
    # (README, "How the normalizer excess is computed")
    ruled = counted = 0
    for choices in _census()["choices"]:
        for g in choices:
            r, c = _check_standardness_rule(g, monkeypatch)
            ruled, counted = ruled + r, counted + c
    assert ruled >= 6340 and counted >= 745


def test_integrable_choices_no_route_builds():
    # ROADMAP item 1: the integrable, non-standard choices outside every
    # route; two of them are tools/cli_digest.py's M10_UNROUTED specs
    assert Counter(_census()["unrouted"]) == {"A4": 2, "A5": 2, "A6": 2, "D5": 2, "E6": 2}


def _digest_forms():
    """(type, theta) of every contact form tools/cli_digest.py checks."""
    digest = _cli_digest()
    forms = digest.golden_forms(Path(classify.__file__).resolve().parent / "data")
    forms += digest.sum_forms(rs) + digest.sum_forms(rs, digest.RANK2_SUM_FORM_TYPES)
    forms += digest.root_forms(rs) + digest.conjugate_forms(rs)
    m10 = digest.M10_CHECKS + digest.M10_MORE + digest.M10_EDGES + digest.M10_UNROUTED
    forms += [(t, theta) for t, theta, _ in m10]
    return list(dict.fromkeys(forms))


def test_components_partition_the_modules_by_kind():
    # the components partition the modules, each led by a theta-positive
    # module in module order; abar holds -a, and the kinds share or split
    # the congruence classes as modules.schur_components names them
    seen = Counter()
    for t, theta in _digest_forms():
        s = rs.parse_type(t)
        datum = ct.contact_datum(s, s.vector(theta.split(",")))
        if t == "G2" and s.canonical_form(datum.theta) == _short_form(s):
            with pytest.raises(md.CongruenceError):
                md.schur_components(datum)
            seen["G2 short"] += 1
            continue
        comps = md.schur_components(datum)
        mods, neg, order = datum.modules, s.neg_index, list(datum.modules)

        def cls(hw):
            return {h for h in mods if datum.class_of[h] == datum.class_of[hw]}

        assert sorted(h for c in comps for h in c) == sorted(mods), (t, theta)
        assert [order.index(c[0]) for c in comps] == sorted(order.index(c[0]) for c in comps)
        for c in comps:
            a, abar = c[0], c[-1]
            assert datum.theta_pairings[a] > 0 and neg[a] in mods[abar].weights, (t, theta)
            if len(c) == 4:
                b, bbar = c[1:3]
                assert neg[b] in mods[bbar].weights, (t, theta)
                assert cls(a) == {a, b} and cls(abar) == {bbar, abar}, (t, theta)
                seen["conjugate pair of multiplicity 2"] += 1
            elif cls(a) == {a, abar}:
                seen["self-conjugate"] += 1
            else:
                assert cls(a) == {a} and cls(abar) == {abar}, (t, theta)
                seen["conjugate pair of multiplicity 1"] += 1
    assert set(seen) == {"G2 short", "self-conjugate", "conjugate pair of multiplicity 1",
                         "conjugate pair of multiplicity 2"}
