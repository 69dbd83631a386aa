"""The int paths of rootsys against the Fraction paths they replaced.

A RootVector holds int simple-root coordinates over one positive
denominator, in lowest terms, whichever way it was built; every pairing
reads the int Gram matrix RootSystem._igram over gden.  The references
here are the Fraction Gram matrix of the simple roots' ambient
coordinates and the covector, inner product, squared length and
orthogonal complement built on it.
Orderings and printed coordinates read RootVector.numerators(), the
ambient coordinates times the system's one positive denominator; each
reference here is the Fraction implementation that keyed on canon().
Subsystem types are read off the Cartan matrix of the base; the
references are the partition of the members by the base (itself checked
against the members joined by nonzero Fraction inner products) and the
table of (rank, root count, short root count) signatures it replaced.
Root sums and differences read the int root codes (RootSystem.codes);
their references add expansion tuples, and ConstantTable._general's
reference takes Fraction ratios of squared lengths.
The simple roots' ambient rows are gauged in ints, and parsing inverts
them through the adjugate of the int Gram matrix; the references embed
and gauge Fraction rows and solve for the gauged unit vectors in the span
of the simple roots, and solve the int Gram matrix by SpanSolver.
Printed coordinates take int fast paths; the references are the int
renderers they replaced and the Fraction renderers before those.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as Q
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crlie import classify, cli
from crlie import chevalley as ch
from crlie import rootsys as rs
from crlie.contact import contact_datum
from crlie.crstruct import _additive_closure
from crlie.linalg import SpanSolver, nullspace

DATA = Path(rs.__file__).resolve().parent / "data"
# the systems whose roots tools/cli_digest.py prints
SYSTEMS = ([rs.build(t, r) for t, r in classify.simple_types(8)]
           + [rs.parse_type("A1+A1"), rs.parse_type("A2+G2")])
# every simple type of rank <= 8 and every A_p + A_q of rank <= 8
TYPE_SYSTEMS = ([rs.build(t, r) for t, r in classify.simple_types(8)]
                + [rs.build_product([("A", p), ("A", q)]) for p, q in classify.product_types(8)])
# products whose later factor has halves or E6's aux vector
LATER_FACTORS = [rs.parse_type(t) for t in ("A2+E6", "A1+F4", "G2+E6")]


# -- the Fraction references ------------------------------------------------------


def canon_str_reference(v):
    return ",".join(str(x) for x in v.canon())


def best_lift_reference(coords):
    """The least-L1 integral lift of a relation block of Fractions, or the
    block itself."""
    d = [x - coords[0] for x in coords]
    if any(x.denominator != 1 for x in d):
        return coords
    d = [int(x) for x in d]

    def key(k):
        lifted = [k + x for x in d]
        return (sum(map(abs, lifted)), max(map(abs, lifted)), [-x for x in lifted])

    k = min(range(-max(d), 1 - min(d)), key=key)
    return [k + x for x in d]


def render_terms_reference(terms):
    out = ""
    for x, name in terms:
        mag = abs(x)
        piece = name if mag == 1 else f"{mag}{name}"
        if not out:
            out = piece if x > 0 else f"-{piece}"
        else:
            out += ("+" if x > 0 else "-") + piece
    return out


def format_vector_reference(v):
    system = v.system
    parts = []
    for ci, blocks in enumerate(system.comp_blocks):
        sym = "e" + "'" * ci
        terms = []
        for b in blocks:
            coords = list(v.canon()[b.start : b.start + b.size])
            if b.kind == "rel":
                coords = best_lift_reference(coords)
            names = [sym] if b.kind == "aux" else [f"{sym}{i + 1}" for i in range(b.size)]
            terms += [(x, name) for x, name in zip(coords, names) if x != 0]
        if not terms:
            continue
        dens = {x.denominator for x, _ in terms}
        if dens == {2} or dens == {1, 2}:
            parts.append(f"({render_terms_reference([(2 * x, n) for x, n in terms])})/2")
        else:
            parts.append(render_terms_reference(terms))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += "+" + p if not p.startswith("-") else p
    return out


def over_parent(x, den):
    return x // den if not x % den else Q(x, den)


def canon_str_parent(v):
    """canon_str before its integral fast path."""
    den = v.system._ambient[0] * v.den
    return ",".join(str(over_parent(x, den)) for x in v._ints())


def best_lift_parent(num, den):
    """_best_lift before its integral and one-candidate fast paths."""
    d = [x - num[0] for x in num]
    if any(x % den for x in d):
        return None
    d = [x // den for x in d]
    s = sorted(d)
    lo, hi, mid = -s[len(s) // 2], -s[(len(s) - 1) // 2], -(s[0] + s[-1])

    def key(k):
        lifted = [k + x for x in d]
        return (sum(map(abs, lifted)), max(map(abs, lifted)), [-x for x in lifted])

    k = min((min(max(lo, m), hi) for m in (mid // 2, -(-mid // 2))), key=key)
    return [k + x for x in d]


def format_vector_parent(v):
    """format_vector before the term-name table and the integral fast path."""
    system = v.system
    den = system._ambient[0] * v.den
    num = v._ints()
    parts = []
    for ci, blocks in enumerate(system.comp_blocks):
        sym = "e" + "'" * ci
        terms = []
        for b in blocks:
            block = num[b.start : b.start + b.size]
            lift = best_lift_parent(block, den) if b.kind == "rel" else None
            coords = lift if lift is not None else [over_parent(x, den) for x in block]
            names = [sym] if b.kind == "aux" else [f"{sym}{i + 1}" for i in range(b.size)]
            terms += [(x, name) for x, name in zip(coords, names) if x]
        if not terms:
            continue
        dens = {x.denominator for x, _ in terms}
        if dens == {2} or dens == {1, 2}:
            parts.append(f"({render_terms_reference([(2 * x, n) for x, n in terms])})/2")
        else:
            parts.append(render_terms_reference(terms))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += "+" + p if not p.startswith("-") else p
    return out


def scale_primitive_reference(v):
    c = v.canon()
    den = lcm(*(x.denominator for x in c))
    g = gcd(*(int(x * den) for x in c))
    if not g:
        return v
    f = Q(den, g)
    return rs.RootVector(v.system, [f * x for x in v.c], v.den)


def orthogonal_components_int_reference(sub):
    """The members partitioned by the base: the Dynkin components of
    sub.simple, each with the members that pair nonzero with one of its
    simple roots, through the int Gram matrix."""
    parent = sub.parent
    gi, ex = parent._igram, parent.expansions
    covs = [[sum(x * row[k] for x, row in zip(ex[s], gi) if x) for k in range(parent.rank)]
            for s in sub.simple]

    def partners(i):
        e = [(k, x) for k, x in enumerate(ex[i]) if x]
        return (p for p, cov in enumerate(covs) if sum(x * cov[k] for k, x in e))

    label = list(range(len(covs)))
    for p, s in enumerate(sub.simple):
        for q in partners(s):
            a, b = sorted((label[p], label[q]))
            label = [a if x == b else x for x in label]
    comps = {}
    for i in sub.members:
        comps.setdefault(label[next(partners(i))], set()).add(i)
    return [frozenset(c) for c in comps.values()]


def classify_component_reference(sub, comp):
    """The type of a component by its (rank, root count, short root count)
    signature."""
    parent = sub.parent
    r = sum(1 for i in sub.simple if i in comp)
    n = len(comp)
    lengths = parent.int_norms
    norms = sorted({lengths[i] for i in comp})
    if len(norms) > 2:
        raise rs.RootSystemError("component with more than two root lengths")
    nshort = 0 if len(norms) == 1 else sum(1 for i in comp if lengths[i] == norms[0])
    sig = (r, n, nshort)
    if sig == (r, r * (r + 1), 0):
        return ("A", r)
    if r >= 2 and sig == (r, 2 * r * r, 2 * r):
        return ("B", r)
    if r >= 3 and sig == (r, 2 * r * r, 2 * r * (r - 1)):
        return ("C", r)
    if r >= 4 and sig == (r, 2 * r * (r - 1), 0):
        return ("D", r)
    known = {(6, 72, 0): ("E", 6), (7, 126, 0): ("E", 7), (8, 240, 0): ("E", 8),
             (4, 48, 24): ("F", 4), (2, 12, 6): ("G", 2)}
    if sig in known:
        return known[sig]
    raise rs.RootSystemError(f"unrecognized subsystem signature {sig}")


def orthogonal_components_reference(sub):
    """The members joined by nonzero Fraction inner products."""
    parent = sub.parent
    remaining = set(sub.members)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp, frontier = {seed}, [seed]
        while frontier:
            i = frontier.pop()
            for j in list(remaining):
                if parent.inner(parent.roots[i], parent.roots[j]) != 0:
                    remaining.discard(j)
                    comp.add(j)
                    frontier.append(j)
        comps.append(frozenset(comp))
    return comps


# -- orderings and renderings -------------------------------------------------------


def check_vectors(vectors):
    for v in vectors:
        assert rs.format_vector(v) == format_vector_reference(v), v.canon()
        assert rs.canon_str(v) == canon_str_reference(v), v.canon()
    n = range(len(vectors))
    assert (sorted(n, key=lambda i: vectors[i].numerators())
            == sorted(n, key=lambda i: vectors[i].canon()))


@pytest.mark.parametrize("system", SYSTEMS, ids=rs.RootSystem.type_str)
def test_int_orders_and_renderings_match_fraction_paths(system):
    roots = system.roots
    assert all(type(x) is int for r in roots for x in r.numerators())
    check_vectors(roots)
    idx = range(len(roots))
    assert (sorted(idx, key=lambda i: (system.height(i), roots[i].numerators()))
            == sorted(idx, key=lambda i: (system.height(i), roots[i].canon())))


@st.composite
def span_vectors(draw):
    """1 to 6 rational vectors of the root span of one system, each with
    simple-root coordinates over a drawn denominator."""
    s = draw(st.sampled_from(SYSTEMS))
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        den = draw(st.sampled_from((1, 2, 3, 4, 6)))
        nums = draw(st.lists(st.integers(-12, 12), min_size=s.rank, max_size=s.rank))
        vectors.append(rs.RootVector(s, [x // den if not x % den else Q(x, den) for x in nums]))
    return vectors


E6, A2, F4 = rs.build("E6"), rs.build("A2"), rs.build("F4")


@given(span_vectors())
@settings(derandomize=True, max_examples=400, deadline=None)
# the (...)/2 branch with the E6 aux vector, a relation block with no
# integral lift, F4's halves
@example([E6.vector([1, 0, 0, 0, 0, 0, Q(1, 2)]), E6.vector([1, 0, 0, 0, 0, 0, 1])])
@example([rs.RootVector(A2, [Q(1, 3), 0]), rs.RootVector(A2, [Q(1, 2), Q(-1, 3)])])
@example([F4.vector([Q(1, 2), Q(-1, 2), Q(3, 2), Q(1, 2)])])
def test_int_paths_match_fraction_paths_on_the_span(vectors):
    check_vectors(vectors)
    for v in vectors:
        got, want = rs.scale_primitive(v), scale_primitive_reference(v)
        assert got == want and got.canon() == want.canon()


@pytest.mark.parametrize("s", TYPE_SYSTEMS + LATER_FACTORS, ids=rs.RootSystem.type_str)
def test_renderings_match_the_parent_int_paths(s):
    """Every root, and 40 seeded vectors with simple-root coordinates over
    2, 3, 4 or 6, and their primitive rescales."""
    rng = random.Random(s.type_str())
    vectors = list(s.roots)
    for _ in range(40):
        v = rs.RootVector(s, [Q(rng.randint(-9, 9), rng.choice((2, 3, 4, 6))) for _ in range(s.rank)])
        vectors += [v, rs.scale_primitive(v)]
    for v in vectors:
        assert rs.canon_str(v) == canon_str_parent(v), v.canon()
        assert rs.format_vector(v) == format_vector_parent(v), v.canon()


# -- components and classification ----------------------------------------------------


def check_types(sub, comps):
    """The Cartan-matrix typing of sub against the signature table on the
    member partition comps: the same simple roots and type per component."""
    want = {frozenset(sub.simple) & c: classify_component_reference(sub, c) for c in comps}
    assert {simple: (t, r) for t, r, simple in sub._components} == want
    assert sub.classify() == sorted(want.values())


def check_subsystem(sub):
    want = orthogonal_components_reference(sub)
    got = orthogonal_components_int_reference(sub)
    assert sorted(map(sorted, got)) == sorted(map(sorted, want))
    check_types(sub, want)


def golden_forms():
    """(type, ambient coordinates) of every contact form of the goldens."""
    out = []
    for name, keys in (("primitive", ("theta_source", "theta_canon")),
                       ("nonprimitive", ("theta_canon",)), ("table1", ("mu_canon",)),
                       ("table2", ("theta_canon",)), ("table3", ("theta_canon",))):
        for row in json.loads((DATA / f"{name}.json").read_text())["rows"]:
            tag = row["type"] + row["rank"] if row["type"].isalpha() else row["type"]
            out += [(tag, [Q(x) for x in row[k].split(",")]) for k in keys]
    return out


def test_components_of_golden_stabilizers():
    forms = golden_forms()
    assert len(forms) > 100
    for tag, coords in forms:
        s = rs.parse_type(tag)
        check_subsystem(contact_datum(s, s.vector(coords)).Ro)


@pytest.mark.parametrize("t,r", classify.simple_types(6))
def test_components_of_node_spans(t, r):
    s = rs.build(t, r)
    for k in range(s.rank + 1):
        for nodes in combinations(range(s.rank), k):
            check_subsystem(s.node_span(nodes))


def test_components_of_tilde_re_closures(monkeypatch):
    closures = []
    closed_span = rs.RootSystem.closed_span

    def recorded(self, seed):
        sub = closed_span(self, seed)
        closures.append(sub)
        return sub

    monkeypatch.setattr(rs.RootSystem, "closed_span", recorded)
    classify.primitive_rows(6)
    classify.nonprimitive_rows(5)
    assert len(closures) > 20
    for sub in closures:
        check_subsystem(sub)


def test_classify_works_once_per_subsystem(monkeypatch):
    """Subsystem.classify partitions each subsystem once, however many
    names are read off it."""
    monkeypatch.setattr(rs, "_CACHE", {})
    calls: dict[int, int] = {}
    seen = []  # keeps every counted subsystem alive, so no id is reused
    work = rs.Subsystem._dynkin_components

    def counted(self):
        seen.append(self)
        calls[id(self)] = calls.get(id(self), 0) + 1
        return work(self)

    monkeypatch.setattr(rs.Subsystem, "_dynkin_components", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["table1", "--format", "json"]) == 0
        argv = ["classify", "--what", "special", "--max-rank", "8", "--format", "json"]
        assert cli.main(argv) == 0
    assert calls and max(calls.values()) == 1


def type_reference_subsystems(s):
    """The node spans of s, its distinct orthogonal-root subsystems and
    the closed spans of 12 seeded sets of one to three roots."""
    subs = [s.node_span(nodes) for k in range(s.rank + 1)
            for nodes in combinations(range(s.rank), k)]
    subs += [rs.Subsystem(s, m) for m in {s.orthogonal_roots(r) for r in s.roots}]
    rng = random.Random(s.type_str())
    subs += [s.closed_span(rng.sample(s.roots, rng.randint(1, min(3, s.rank))))
             for _ in range(12)]
    return subs


@pytest.mark.parametrize("s", TYPE_SYSTEMS, ids=rs.RootSystem.type_str)
def test_cartan_typing_matches_the_signature_table(s):
    for sub in type_reference_subsystems(s):
        check_types(sub, orthogonal_components_int_reference(sub))
    assert s.dynkin_type == sorted(classify_component_reference(sub, sub.members)
                                   for sub in map(s.node_span, s.component_nodes))


def non_closed_sets(s):
    """Symmetric member sets that are no root system: every node span of
    rank >= 2 without one pair of its non-simple roots, and the simple
    roots of each factor with its highest root, an affine diagram, where
    they miss a root of the factor (all but A2)."""
    out = []
    for k in range(2, s.rank + 1):
        for nodes in combinations(range(s.rank), k):
            members = s.node_span(nodes).members
            for i in members:
                if s.positive[i] and s.height(i) > 1:
                    out.append(members - {i, s.neg_index[i]})
    for nodes in s.component_nodes:
        factor = s.node_span(nodes).members
        base = {s.root_index(s.simple_roots[k]) for k in nodes} | {max(factor, key=s.height)}
        base |= {s.neg_index[i] for i in base}
        if len(base) < len(factor):
            out.append(frozenset(base))
    return out


@pytest.mark.parametrize("s", [rs.build(t, r) for t, r in classify.simple_types(5)[1:]]
                         + [rs.parse_type("A2+A2"), rs.parse_type("B2+G2")],
                         ids=rs.RootSystem.type_str)
def test_non_closed_member_sets_raise(s):
    sets = non_closed_sets(s)
    assert sets
    for members in sets:
        with pytest.raises(rs.RootSystemError):
            rs.Subsystem(s, members).classify()


# -- root codes ---------------------------------------------------------------------------

CODE_SYSTEMS = SYSTEMS + [rs.parse_type("B3+C3")]


def sum_index_reference(s, i, j):
    """The root whose expansion is the sum of the two expansion tuples."""
    return s._by_expansion.get(tuple(x + y for x, y in zip(s.expansions[i], s.expansions[j])))


def neg_index_reference(s):
    return [s._by_expansion[tuple(-x for x in e)] for e in s.expansions]


def root_expansions_reference(cartan):
    """The alpha-string walk on expansion tuples."""
    n = len(cartan)
    layer = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    positive = list(layer)
    seen = set(layer)
    while layer:
        above = set()
        for c in layer:
            for i in range(n):
                p, down = 0, list(c)
                while True:
                    down[i] -= 1
                    if tuple(down) not in seen:
                        break
                    p += 1
                if p > sum(x * cartan[j][i] for j, x in enumerate(c) if x):
                    above.add(c[:i] + (c[i] + 1,) + c[i + 1:])
        layer = sorted(above)
        positive += layer
        seen.update(layer)
    return positive + [tuple(-x for x in e) for e in positive]


def general_reference(tab, i, j):
    """ConstantTable._general with Fraction ratios of RootSystem.norm2."""
    s = tab.system
    if not s.positive[i] and not s.positive[j]:
        return -tab.n(s.neg_index[i], s.neg_index[j])
    if not s.positive[i]:
        return -tab.n(j, i)
    k = sum_index_reference(s, i, j)
    nj, nk = s.neg_index[j], s.neg_index[k]
    if s.positive[k]:
        val = -Q(s.norm2(k), s.norm2(i)) * tab.n(nj, k)
    else:
        val = -Q(s.norm2(k), s.norm2(j)) * tab.n(i, nk)
    assert val.denominator == 1
    return int(val)


def additive_closure_reference(s, seed):
    """The pairwise closure: each root paired once with every root popped
    before it and with itself, on expansion tuples."""
    out, frontier, popped = set(seed), list(seed), []
    while frontier:
        i = frontier.pop()
        popped.append(i)
        for j in popped:
            k = sum_index_reference(s, i, j)
            if k is not None and k not in out:
                out.add(k)
                frontier.append(k)
    return frozenset(out)


@pytest.mark.parametrize("system", CODE_SYSTEMS, ids=rs.RootSystem.type_str)
def test_root_codes_match_tuple_paths(system):
    """Every ordered pair: the code sum and difference name the root of the
    tuple sum and difference, and strongly_orthogonal agrees."""
    s = system
    neg = neg_index_reference(s)
    assert s.neg_index == neg
    assert s.expansions == root_expansions_reference(s.cartan_matrix())
    codes, get = s.codes, s.by_code.get
    n = len(s.roots)
    for i in range(n):
        for j in range(n):
            total, diff = sum_index_reference(s, i, j), sum_index_reference(s, i, neg[j])
            assert s.sum_index(i, j) == total
            assert get(codes[i] - codes[j]) == diff
            assert s.strongly_orthogonal(i, j) == (
                j not in (i, neg[i]) and total is None and diff is None)


@pytest.mark.parametrize("t,r", classify.simple_types(8))
def test_built_roots_match_the_checked_constructor(t, r):
    """A build sets its roots' fields with no check; each root is the vector
    the public constructor makes from its expansion."""
    s = rs.build(t, r)
    assert len(s.roots) == len(s.expansions)
    for v, e in zip(s.roots, s.expansions):
        ref = rs.RootVector(s, e)
        assert v == ref and (v.c, v.den) == (ref.c, ref.den) == (e, 1)
        assert v.numerators() == ref.numerators() and v.covector() == ref.covector()


@pytest.mark.parametrize("tag", [f"B{r}" for r in range(2, 9)] + [f"C{r}" for r in range(3, 9)]
                         + ["F4", "G2"])
def test_int_general_matches_fraction_reference(tag):
    s = rs.build(tag)
    tab = ch.ConstantTable(s)
    n = len(s.roots)
    checked = 0
    for i in range(n):
        for j in range(n):
            if s.sum_index(i, j) is not None and not (s.positive[i] and s.positive[j]):
                assert tab._general(i, j) == general_reference(tab, i, j) == tab.n(i, j)
                checked += 1
    assert checked


@st.composite
def closure_seeds(draw):
    s = draw(st.sampled_from((E6, F4, rs.build("B4"))))
    seed = draw(st.frozensets(st.integers(0, len(s.roots) - 1), max_size=10))
    return s, seed


@given(closure_seeds())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_additive_closure_matches_pairwise_reference(case):
    s, seed = case
    assert _additive_closure(s, seed) == additive_closure_reference(s, seed)


@pytest.mark.parametrize("t,r", classify.simple_types(6))
def test_additive_closure_matches_pairwise_reference_on_seeded_sets(t, r):
    s = rs.build(t, r)
    rng = random.Random(f"{t}{r}")
    for _ in range(40):
        seed = frozenset(rng.sample(range(len(s.roots)), rng.randint(0, min(12, len(s.roots)))))
        assert _additive_closure(s, seed) == additive_closure_reference(s, seed), sorted(seed)


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_additive_closure_matches_pairwise_reference_on_digest_supports(kind):
    # the support find_crf_parabolics closes: R_o and the roots of the
    # lines at SAMPLES[0], a line of twist 0 adding its first root only
    from test_crstruct import _digest_structures

    sizes = set()
    for h in _digest_structures(kind):
        seed = set(h.datum.Ro.members)
        for w, line in h.at({p: classify.SAMPLES[0] for p in h.parameters()}).items():
            seed.update((w, line[0]) if line else (w,))
        s = h.datum.system
        closure = _additive_closure(s, frozenset(seed))
        assert closure == additive_closure_reference(s, frozenset(seed)), h.label
        sizes.add(len(closure) < len(s.roots))
    assert sizes == {True, False}


# -- the int representation ---------------------------------------------------------------

SMALL = [rs.build(t, r) for t, r in classify.simple_types(4)] + [rs.parse_type("A1+A1")]


def frac(v):
    """The simple-root coordinates of v as Fractions."""
    return [Q(x, v.den) for x in v.c]


def gram_reference(s):
    """(alpha_i, alpha_j) of the simple roots, from their Fraction ambient
    coordinates in the sum-zero gauge, where the relation blocks pair by
    the dot product; E6's auxiliary vector has (e, e) = 1/2."""
    w = [Q(1, 2) if b.kind == "aux" else 1 for b in s.blocks for _ in range(b.size)]
    amb = [r.canon() for r in s.simple_roots]
    return [[sum(x * y * z for x, y, z in zip(w, a, b)) for b in amb] for a in amb]


def covector_reference(v, gram):
    return [sum(x * row[k] for x, row in zip(frac(v), gram)) for k in range(len(gram))]


def inner_reference(u, v, gram):
    return sum(x * y for x, y in zip(frac(u), covector_reference(v, gram)))


def perp_reference(s, vectors, gram):
    rows = [covector_reference(v, gram) for v in vectors]
    return tuple(rs.RootVector(s, x) for x in nullspace(rows, s.rank))


def check_pairings(s, gram, u, v):
    """covector and inner of src against the references."""
    assert {k: Q(y, v.den * s.gden) for k, y in v.covector()} == {
        k: x for k, x in enumerate(covector_reference(v, gram)) if x}
    assert s.inner(u, v) == inner_reference(u, v, gram)


@pytest.mark.parametrize("s", SYSTEMS, ids=rs.RootSystem.type_str)
def test_int_gram_matches_fraction_gram(s):
    gram = gram_reference(s)
    assert [[Q(x, s.gden) for x in row] for row in s._igram] == gram
    assert s.gden > 0 and gcd(s.gden, *(x for row in s._igram for x in row)) == 1
    assert [s.norm2(i) for i in range(len(s.roots))] == [
        inner_reference(r, r, gram) for r in s.roots]


@pytest.mark.parametrize("s", SMALL, ids=rs.RootSystem.type_str)
def test_pairings_match_fraction_references_on_root_pairs(s):
    gram = gram_reference(s)
    for u in s.roots:
        for v in s.roots:
            check_pairings(s, gram, u, v)
            assert s.perp([u, v]) == perp_reference(s, [u, v], gram)


def test_pairings_match_fraction_references_on_golden_forms():
    """theta against itself and against each simple root, both ways, and
    the complements of theta and of theta with R_o."""
    forms = {(tag, tuple(coords)) for tag, coords in golden_forms()}
    for tag, coords in forms:
        s = rs.parse_type(tag)
        gram = gram_reference(s)
        theta = s.vector(coords)
        check_pairings(s, gram, theta, theta)
        for r in s.simple_roots:
            check_pairings(s, gram, theta, r)
            check_pairings(s, gram, r, theta)
        datum = contact_datum(s, theta)
        assert datum.theta_perp_cartan == s.perp([theta]) == perp_reference(s, [theta], gram)
        ro = [theta] + [s.roots[i] for i in datum.Ro.simple]
        assert datum.center == perp_reference(s, ro, gram)


@st.composite
def rational_vectors(draw):
    """A system of SYSTEMS, int numerators, a denominator and a nonzero
    rational scale."""
    s = draw(st.sampled_from(SYSTEMS))
    nums = draw(st.lists(st.integers(-30, 30), min_size=s.rank, max_size=s.rank))
    den = draw(st.integers(1, 12))
    scale = Q(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
    return s, nums, den, scale


@given(rational_vectors())
@settings(derandomize=True, max_examples=400, deadline=None)
@example((A2, [2, 4], 6, Q(3)))
@example((E6, [0] * 6, 5, Q(-1, 2)))
def test_every_construction_gives_one_normal_form(case):
    """Built from ints, from Fractions, with den=, by +, - and scaling, one
    vector compares and hashes equal, as ints over a positive denominator
    in lowest terms."""
    s, nums, den, scale = case
    v = rs.RootVector(s, nums, den)
    built = [
        rs.RootVector(s, [Q(x, den) for x in nums]),
        rs.RootVector(s, [3 * x for x in nums], 3 * den),
        rs.RootVector(s, [Q(x, 2) for x in nums], den) + rs.RootVector(s, nums, 2 * den),
        Q(1, den) * rs.RootVector(s, nums),
        (v + v) - v,
        -(-v),
        (1 / scale) * (scale * v),
        s.vector(v.canon()),
    ]
    if all(x % den == 0 for x in nums):
        built.append(rs.RootVector(s, [x // den for x in nums]))
    for w in built:
        assert w == v and hash(w) == hash(v)
        assert w.c == v.c and w.den == v.den
    assert all(type(x) is int for x in v.c) and v.den > 0 and gcd(v.den, *v.c) == 1
    assert v.canon() == tuple(Q(x) / den for x in rs.RootVector(s, nums).canon())


@pytest.mark.parametrize("s", SMALL, ids=rs.RootSystem.type_str)
def test_half_roots_are_no_roots(s):
    """r/2 has den 2: no root looks it up, root_along finds r, and doubling
    it gives r back."""
    for i, r in enumerate(s.roots):
        half = Q(1, 2) * r
        assert half.den == 2 and half != r
        assert s.root_index(half) is None and not s.is_root(half)
        assert s.root_along(half) == i == s.root_index(r)
        assert 2 * half == half + half == r


# -- the ambient map and its inverse ----------------------------------------------------

AMBIENT_SYSTEMS = [rs.build(t, r) for t, r in classify.simple_types(8)] + LATER_FACTORS


def embed_reference(s, comp_coords, offset):
    c = [Q(0)] * s.dim
    for i, x in enumerate(comp_coords):
        c[offset + i] = Q(x)
    return c


def gauge_reference(s, coords):
    """Ambient coordinates in the sum-zero gauge, as Fractions."""
    c = [Q(x) for x in coords]
    for b in s.blocks:
        if b.kind == "rel":
            m = sum(c[b.start : b.start + b.size]) / b.size
            for i in range(b.start, b.start + b.size):
                c[i] -= m
    return c


def int_rows_reference(rows):
    """(den, sparse int rows): rational rows scaled by their common denominator."""
    rows = list(rows)
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [[(k, int(x * den)) for k, x in enumerate(r) if x] for r in rows]


def ambient_reference(s):
    """The simple roots' rows, embedded and gauged as Fractions."""
    simples = []
    for (t, r), blocks in zip(s.components, s.comp_blocks):
        d, rows = rs._component_simples(t, r)
        simples += [gauge_reference(s, embed_reference(s, [Q(x, d) for x in row],
                                                       blocks[0].start)) for row in rows]
    return int_rows_reference(simples)


def coords_reference(s):
    """Row k: the simple-root coordinates of the gauged unit vector e_k,
    solved in the span of the simple roots."""
    span = SpanSolver([r.canon() for r in s.simple_roots])
    return int_rows_reference(span.reduce(gauge_reference(s, [int(j == k) for j in range(s.dim)]))
                              for k in range(s.dim))


def coords_span_reference(s):
    """Row k: the SpanSolver solve of the int Gram matrix for column k of
    _ambient, at twice the metric over 2 _ambient[0], as Fractions."""
    den, rows = s._ambient
    amb = [dict(r) for r in rows]
    span = SpanSolver(s._igram)
    f = Q(s.gden, 2 * den)
    return [[w * f * x for x in span.reduce({j: a[k] for j, a in enumerate(amb) if k in a})]
            for k, w in enumerate(s._weights)]


def vector_reference(s, coords):
    den, rows = coords_reference(s)
    acc = [Q(0)] * s.rank
    for x, row in zip(coords, rows):
        for j, y in row:
            acc[j] += Q(x) * y / den
    return rs.RootVector(s, acc)


@pytest.mark.parametrize("s", AMBIENT_SYSTEMS, ids=rs.RootSystem.type_str)
def test_int_ambient_map_matches_fraction_reference(s):
    """The same rows over the same lowest denominator, and the gauged
    rows they stand for."""
    assert s._ambient == ambient_reference(s)
    den, rows = s._ambient
    assert [a.canon() for a in s.simple_roots] == [
        tuple(Q(dict(row).get(k, 0), den) for k in range(s.dim)) for row in rows]


@pytest.mark.parametrize("s", AMBIENT_SYSTEMS, ids=rs.RootSystem.type_str)
def test_gram_inverse_matches_fraction_span_solve(s):
    (den, rows), (rden, rrows) = s._coords, coords_reference(s)
    assert [{j: Q(y, den) for j, y in row} for row in rows] == [
        {j: Q(y, rden) for j, y in row} for row in rrows]


@pytest.mark.parametrize("s", TYPE_SYSTEMS + LATER_FACTORS, ids=rs.RootSystem.type_str)
def test_adjugate_inverse_matches_the_span_solve(s):
    """The same rows over the lcm of their denominators, which no prime
    divides together with every entry."""
    den, rows = s._coords
    want = coords_span_reference(s)
    assert den == lcm(*(x.denominator for row in want for x in row))
    assert rows == [[(j, int(x * den)) for j, x in enumerate(row) if x] for row in want]


@st.composite
def ambient_vectors(draw):
    """A system of AMBIENT_SYSTEMS and rational ambient coordinates, in
    no particular gauge."""
    s = draw(st.sampled_from(AMBIENT_SYSTEMS))
    nums = draw(st.lists(st.integers(-20, 20), min_size=s.dim, max_size=s.dim))
    dens = draw(st.lists(st.integers(1, 6), min_size=s.dim, max_size=s.dim))
    return s, [Q(x, d) for x, d in zip(nums, dens)]


@given(ambient_vectors())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_vector_matches_fraction_reference(case):
    s, coords = case
    v = s.vector(coords)
    want = vector_reference(s, coords)
    assert (v.c, v.den) == (want.c, want.den)
    assert v.canon() == tuple(gauge_reference(s, coords))
