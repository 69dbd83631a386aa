import random
from fractions import Fraction as Q
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crlie import classify
from crlie import contact as ct
from crlie import crstruct as cs
from crlie import families as fam
from crlie import modules as md
from crlie import naming
from crlie import rootsys as rs
from crlie.chevalley import LieElement
from crlie.linalg import Row, nullspace
from crlie.painted import PaintedGraph, is_good
from crlie.scalars import ONE, P_ZERO, ZERO, Gauss, MonomialCode, Poly, as_poly
from poly_reference import weights
from test_rootsys import pairing_reference

T_HALF = Gauss(Q(1, 2))
UNIT = Gauss(Q(3, 5), Q(4, 5))  # |t| = 1


# -- LieElement forms of a subspace ------------------------------------------------
#
# crstruct reads its checks off HolomorphicSubspace.lines and .at(values).
# The references below work on the basis those lines span, as LieElements.


def root_vector(system, alpha, coeff=1):
    """E_alpha times coeff: a Poly stays a Poly, any other scalar becomes
    a Gauss."""
    i = system.root_index(alpha)
    assert i is not None, "not a root"
    return LieElement(system, {i: coeff if isinstance(coeff, (Gauss, Poly)) else Gauss(coeff)})


def basis_of(h):
    """m10's basis, one LieElement per line: E_w + c E_w', or E_w."""
    sysm = h.datum.system
    return [LieElement(sysm, {w: ONE} if line is None else {w: ONE, line[0]: line[1]})
            for w, line in h.lines.items()]


def lie_eval(el, values):
    """el with a Gaussian rational for every twist: Gauss coefficients."""
    def value(c):
        return c.eval(values) if isinstance(c, Poly) else c

    return LieElement(el.system, {i: value(c) for i, c in el.e.items()},
                      {k: value(c) for k, c in el.h.items()})


def conjugate(el):
    """Antilinear conjugation fixing the compact real form:
    conj(E_a) = -E_-a, conj(H) = -H."""
    sysm = el.system
    return LieElement(sysm, {sysm.neg_index[i]: -c.conj() for i, c in el.e.items()},
                      {k: -c.conj() for k, c in el.h.items()})


def eval_functional(el, v):
    """(v, H-part of el) via the int covector of v, over its factor."""
    cov = dict(v.covector())
    return as_poly(sum(c * cov[k] for k, c in el.h.items() if k in cov)
                   * Gauss(Q(1, v.den * v.system.gden)))


def evaluate_basis(h, values):
    vals = cs._with_conj(values)
    return [lie_eval(v, vals) for v in basis_of(h)]


def coordinate_rows(sysm, elements):
    """Sparse Gauss coordinate rows over (all roots, simple-root Cartan
    coordinates): root i is column i, Cartan coordinate k column |R| + k."""
    n = len(sysm.roots)
    rows = []
    for el in elements:
        row = Row(el.e, n + sysm.rank)
        for k, c in el.h.items():
            row[n + k] = c
        rows.append(row)
    return rows


def as_element(sysm, x):
    """The LieElement of an element as crstruct._graded_w_and_perp and
    ContactDatum.l_complex write it: {root: coefficient}, or a RootVector
    v for H(v)."""
    return LieElement.cartan(sysm, x) if isinstance(x, rs.RootVector) else LieElement(sysm, x)


def _special(s):
    """The special route's Families of s, on the highest root's datum."""
    return fam.special_su_families(ct.grade_by_highest_root(s))


def _short_root(s):
    """The short-root route's Families of s, on the dominant short root's
    datum."""
    short = min(range(len(s.roots)), key=s.norm2)
    return fam.short_root_families(ct.contact_datum(s, s.dominant(s.roots[short])))


def _two_run_units(datum):
    """The A-type special chart units read from two raw charts: u3 from
    the one constraint free of t on the chart (s, s2, t), then u4 from
    the only constraint of a second chart (s, u3 s, t)."""
    system = datum.system
    mu = system.root_index(datum.theta)
    ((hw1, n2, hw2, n1),) = (c for c in md.schur_components(datum) if len(c) == 4)
    s, t = Poly.var("s"), Poly.var("t")

    def unit(c2, var, ignore=None):
        raw = cs.HolomorphicSubspace(
            datum, pairs=(cs.TwistedPair(hw1, n2, s), cs.TwistedPair(hw2, n1, c2),
                          cs.TwistedPair(mu, system.neg_index[mu], t)))
        gens = [g for g in cs.check_integrability(raw).generators if ignore not in g.variables()]
        assert len(gens) == 1, gens
        return fam._unit_from_binomial(gens[0], var)

    u3 = unit(Poly.var("s2"), "s2", ignore="t")
    return u3, unit(s.scale(u3), "t")


@pytest.mark.parametrize("r", range(2, 13))
def test_special_chart_units_match_two_run_reading(r):
    # the special route reads u3 and u4 off one raw chart
    datum = ct.grade_by_highest_root(rs.build("A", r))
    u3, u4 = _two_run_units(datum)
    F = fam.special_su_families(datum)
    s, t = Poly.var("s"), Poly.var("t")
    # pairs[2] is the su2 line (mu, -mu)
    assert F.chart.pairs[1].coeff == s.scale(u3)
    assert F.chart.pairs[2].coeff == t.scale(u4)
    assert F.primitive.pairs[1].coeff == t.scale(u3)
    assert F.primitive.pairs[2].coeff == (t * t).scale(u4)


def _to_gauss(x) -> Gauss:
    return x if isinstance(x, Gauss) else Gauss(x)


def _named(F, label):
    """The structure of a Families record with this report label."""
    return next(h for h in F.structures if h.label == label)


def _routed(s, theta):
    """The Families record classify_datum finds for theta on s."""
    return classify.classify_datum(ct.contact_datum(s, theta))


def _special_standard(tag):
    s = rs.build(tag)
    return _routed(s, s.highest_root()).structures[0]


def _g2_short_standard():
    s = rs.build("G2")
    return _routed(s, s.roots[min(range(len(s.roots)), key=s.norm2)]).structures[0]


def vals_for(h, tv):
    out = {"t": tv}
    if "u" in h.parameters():
        out["u"] = Gauss(1) / tv
    return out


def test_su_family_integrability():
    F = _special(rs.build("A4"))
    assert cs.check_integrability(F.fibered).unconditional
    assert cs.check_integrability(_named(F, "disc family J'_t")).unconditional
    assert cs.check_integrability(F.primitive).unconditional
    gen = cs.check_integrability(F.chart)
    assert str(gen) == "t = s^2"
    for std in F.structures[:3]:
        assert cs.check_integrability(std).unconditional


def test_short_root_family_integrability():
    for tag in ("C3", "C5", "F4"):
        R = _short_root(rs.build(tag))
        assert str(cs.check_integrability(R.chart)) == "s = t^2"
        assert cs.check_integrability(R.primitive).unconditional
    R = _short_root(rs.build("B4"))
    assert R.chart is None
    assert cs.check_integrability(R.primitive).unconditional


def test_constraints_hold_at_sample_points():
    F = _special(rs.build("A3"))
    gen = cs.check_integrability(F.chart)
    for tv in classify.SAMPLES:
        good = {"t": tv * tv, "s": tv, "t~": (tv * tv).conj(), "s~": tv.conj()}
        bad = {"t": tv, "s": tv, "t~": tv.conj(), "s~": tv.conj()}
        assert gen.holds_at(good)
        if tv * tv != tv:
            assert not gen.holds_at(bad)
    R = _short_root(rs.build("C3"))
    gen = cs.check_integrability(R.chart)
    for tv in classify.SAMPLES:
        good = {"s": tv * tv, "t": tv, "s~": (tv * tv).conj(), "t~": tv.conj()}
        assert gen.holds_at(good)


def test_reciprocal_charts():
    b3 = rs.build("B3")
    P = fam.pair_family(ct.contact_datum(b3, b3.vector([1, 1, 1])))
    gen = cs.check_integrability(P.primitive)
    assert str(gen) == "1 = t*u"
    prod = rs.build_product([("A", 1), ("A", 1)])
    P2 = fam.pair_family(ct.contact_datum(prod, prod.vector([1, -1, -1, 1])))
    assert str(cs.check_integrability(P2.primitive)) == "1 = t*u"
    # sampled verification of the reciprocal locus
    for tv in classify.SAMPLES:
        vals = {"t": tv, "u": Gauss(1) / tv}
        vals.update({"t~": tv.conj(), "u~": (Gauss(1) / tv).conj()})
        assert gen.holds_at(vals)
        off = dict(vals)
        off["u"] = Gauss(2) / tv
        off["u~"] = off["u"].conj()
        assert not gen.holds_at(off)
    # the one-pair shape is unconditional at every sample
    d5 = rs.build("D5")
    PD = fam.pair_family(ct.contact_datum(d5, d5.vector([1, 0, 0, 0, 0])))
    genD = cs.check_integrability(PD.primitive)
    assert genD.unconditional
    for tv in classify.SAMPLES:
        assert genD.holds_at({"t": tv, "t~": tv.conj()})


def test_disjointness():
    F = _special(rs.build("A3"))
    d = cs.check_disjointness(F.fibered)
    assert d.excluded_abs() == ["|t| != 1"]
    assert d.holds_at(cs._with_conj({"t": T_HALF}))
    assert not d.holds_at(cs._with_conj({"t": UNIT}))
    d0 = cs.check_disjointness(F.primitive)
    assert set(d0.excluded_abs()) == {"|t| != 1"}
    assert not d0.holds_at(cs._with_conj({"t": UNIT}))
    # t = 0 always disjoint for the plain families
    assert d.holds_at(cs._with_conj({"t": Gauss(0)}))
    # conjugate-pair families degenerate exactly on the unit circle
    b3 = rs.build("B3")
    P = fam.pair_family(ct.contact_datum(b3, b3.vector([1, 1, 1])))
    dd = cs.check_disjointness(P.primitive)
    assert dd.holds_at(cs._with_conj(vals_for(P.primitive, T_HALF)))
    unit_vals = {"t": UNIT, "u": Gauss(1) / UNIT}
    assert not dd.holds_at(cs._with_conj(unit_vals))


def test_subspace_dimension_guard():
    b3 = rs.build("B3")
    datum = ct.contact_datum(b3, b3.vector([1, 0, 0]))
    mods = {m.highest for m in __import__("crlie.modules", fromlist=["decompose"]).decompose(datum)}
    h = cs.HolomorphicSubspace(datum, plains=tuple(sorted(mods)))
    with pytest.raises(cs.StructError):
        h.lines


def test_standard_normalizer_dichotomy_families():
    runs = []
    F = _special(rs.build("A3"))
    runs += [(F.fibered, False), (_named(F, "disc family J'_t"), False), (F.primitive, False)]
    runs += [(s, True) for s in F.structures[:3]]
    for tag in ("B3", "C3", "F4"):
        R = _short_root(rs.build(tag))
        runs += [(R.primitive, False), (R.structures[0], True)]
    d5 = rs.build("D5")
    P = fam.pair_family(ct.contact_datum(d5, d5.vector([1, 0, 0, 0, 0])))
    runs += [(P.primitive, False), (P.structures[0], True)]
    for h, expect_std in runs:
        vals = {} if expect_std and not h.parameters() else vals_for(h, T_HALF)
        assert cs.is_standard(h, vals) is expect_std
        assert cs.normalizer_excess(h, vals) == (1 if expect_std else 0)


def _integrable_battery():
    F = _special(rs.build("A3"))
    out = [F.fibered, _named(F, "disc family J'_t"), F.primitive, F.structures[0]]
    for tag in ("B3", "C3", "F4"):
        R = _short_root(rs.build(tag))
        out += [R.primitive, R.structures[0]]
    d5 = rs.build("D5")
    P = fam.pair_family(ct.contact_datum(d5, d5.vector([1, 0, 0, 0, 0])))
    out += [P.primitive, P.structures[0]]
    b3 = rs.build("B3")
    out.append(fam.pair_family(ct.contact_datum(b3, b3.vector([1, 1, 1]))).primitive)
    g = PaintedGraph.parse("D5:b,w,w,w,g")
    v = is_good(g)
    out.append(_routed(g.system, v.theta).fibered)
    return out


def test_bracket_closure_at_samples():
    # l^C + m10 really is a subalgebra at sampled twists, across the
    # whole classified battery
    from crlie.linalg import SpanSolver

    for h in _integrable_battery():
        vals = vals_for(h, T_HALF) if h.parameters() else {}
        sysm = h.datum.system
        basis = evaluate_basis(h, vals)
        lbasis = l_complex_basis(h.datum)
        rows = coordinate_rows(sysm, basis + lbasis)
        solver = SpanSolver(rows)
        for a in basis:
            for b in basis:
                br = a.bracket(b)
                assert solver.contains(coordinate_rows(sysm, [br])[0]), h.label


def test_m10_plus_conjugate_spans_at_samples():
    from crlie.linalg import SpanSolver

    for h in _integrable_battery():
        vals = vals_for(h, T_HALF) if h.parameters() else {}
        basis = evaluate_basis(h, vals)
        conj = [conjugate(v) for v in basis]
        sysm = h.datum.system
        rows = coordinate_rows(sysm, basis + conj)
        assert SpanSolver(rows).dim() == len(h.datum.Rprime), h.label


def test_fibration_witnesses_special():
    F1 = _special(rs.build("A1"))
    rep = cs.find_crf_parabolics(F1.fibered, {"t": T_HALF})
    assert not rep.primitive and rep.circular
    F = _special(rs.build("A4"))
    rep = cs.find_crf_parabolics(F.fibered, {"t": T_HALF})
    kinds = {(w.fiber_dim, w.fiber_type) for w in rep.witnesses}
    assert (3, "SO3 = S(S2)") in kinds  # Wolf-space reduction
    assert (1, "S1") in kinds  # twisted-circle reduction
    rep0 = cs.find_crf_parabolics(F.primitive, {"t": T_HALF})
    assert rep0.primitive and not rep0.circular
    reps = cs.find_crf_parabolics(F.structures[0], {})
    assert reps.circular and not reps.primitive


def test_fibration_witnesses_short_root_and_pairs():
    for tag in ("B3", "C3", "F4"):
        R = _short_root(rs.build(tag))
        rep = cs.find_crf_parabolics(R.primitive, {"t": T_HALF})
        assert rep.primitive, tag
        rep = cs.find_crf_parabolics(R.structures[0], {})
        assert rep.circular
    d5 = rs.build("D5")
    P = fam.pair_family(ct.contact_datum(d5, d5.vector([1, 0, 0, 0, 0])))
    assert cs.find_crf_parabolics(P.primitive, {"t": T_HALF}).primitive
    b3 = rs.build("B3")
    P3 = fam.pair_family(ct.contact_datum(b3, b3.vector([1, 1, 1])))
    assert cs.find_crf_parabolics(P3.primitive, vals_for(P3.primitive, T_HALF)).primitive


def test_fibration_witness_rejects_non_complementary_m10():
    # m10 = C E_a + C E_-a is its own conjugate, so neither b nor -b lies in
    # the support: no parabolic is least, and the search must not pick one
    s = rs.parse_type("A1+A1")
    datum = ct.contact_datum(s, s.vector([1, -1, -1, 1]))  # a - b
    a = s.root_index(s.vector([1, -1, 0, 0]))
    h = cs.HolomorphicSubspace(datum, plains=(a, s.neg_index[a]))
    with pytest.raises(cs.StructError):
        cs.find_crf_parabolics(h, {})


def _reference_closure(sysm, roots):
    out = set(roots)
    while True:
        sums = {sysm.sum_index(i, j) for i in out for j in out} - {None}
        if sums <= out:
            return frozenset(out)
        out |= sums


def _reference_parabolics(sysm, support):
    """Every proper closed P with P u -P = R containing the support, found
    by branching over the pairs {a, -a} that P does not yet meet."""
    n = len(sysm.roots)
    found, seen = set(), set()

    def branch(p):
        if p in seen or len(p) == n:
            return
        seen.add(p)
        i = next((i for i in range(n) if i not in p and sysm.neg_index[i] not in p), None)
        if i is None:
            found.add(p)
            return
        for choice in ({i}, {sysm.neg_index[i]}, {i, sysm.neg_index[i]}):
            branch(_reference_closure(sysm, p | choice))

    branch(_reference_closure(sysm, support))
    return found


def _golden_forms(max_rank):
    from crlie.cli import load_fixture

    forms = []
    for name, keys in (("primitive.json", ("theta_source", "theta_canon")),
                       ("nonprimitive.json", ("theta_canon",))):
        for row in load_fixture(name).rows:
            if int(row["rank"]) <= max_rank:
                t = row["type"]
                t = t if t[-1].isdigit() else t + row["rank"]
                forms += [(t, row[k]) for k in keys if (t, row[k]) not in forms]
    return forms


def test_fibration_witness_matches_branch_search():
    """find_crf_parabolics against the reference branch search, on every
    structure classify_datum builds for a golden form of rank <= 5, at the
    sample check --family reports.  The 70 structures are told apart by
    system, the datum's theta and label; each is compared once."""
    compared = set()
    for t, theta in _golden_forms(5):
        s = rs.parse_type(t)
        for h in classify.classify_datum(ct.contact_datum(s, s.vector(theta.split(",")))).structures:
            key = (s.type_str(), h.datum.theta.c, h.datum.theta.den, h.label)
            if key not in compared:
                compared.add(key)
                _compare_witnesses(h, classify._sample_values(h))
    assert len(compared) == 70


def _compare_witnesses(h, values):
    sysm, datum = h.datum.system, h.datum
    support = set(datum.Ro.members)
    for v in evaluate_basis(h, values):
        support.update(v.e)
    want = []
    for p in _reference_parabolics(sysm, frozenset(support)):
        sym = frozenset(i for i in p if sysm.neg_index[i] in p)
        fiber_dim = len(sym) - len(datum.Ro.members) + 1
        want.append(cs.ParabolicWitness(sym, fiber_dim, naming.fiber_type(datum, sym)))
    s1 = cs._rotated_s1_witness(h, values)
    want += [s1] if s1 is not None else []
    want.sort(key=lambda w: (w.fiber_dim, sorted(w.sym_roots)))
    assert cs.find_crf_parabolics(h, values).witnesses == tuple(want), h.label


COMPOSITE_GRAPHS = [
    ("A2:g,b", "I", "SO3 = S(S2)"),
    ("A1+A2:g|g,b", "II", "SO4/SO2 = S(S3)"),
    ("A4:w,g,w,b", "III", "SO6/SO4 = S(S5)"),
    ("D5:b,w,w,w,g", "IV", "SO8/SO6 = S(S7)"),
    ("E6:g,w,w,w,b,w", "V", "SO10/SO8 = S(S9)"),
]


@pytest.mark.parametrize("text,cr_type,fiber", COMPOSITE_GRAPHS)
def test_composite_rows_minimal_rank(text, cr_type, fiber):
    g = PaintedGraph.parse(text)
    v = is_good(g)
    assert v.good and v.cr_type == cr_type
    if cr_type == "I":
        F = _special(g.system)
        h, hstd = F.fibered, F.structures[1]
    else:
        P = _routed(g.system, v.theta)
        h, hstd = P.fibered, P.structures[0]
    cons = cs.check_integrability(h)
    vals = vals_for(h, T_HALF)
    assert cons.holds_at(cs._with_conj(vals))
    # non-standard exactly when the fiber part is twisted
    assert not cs.is_standard(h, vals)
    assert cs.normalizer_excess(h, vals) == 0
    assert cs.is_standard(hstd, {})
    assert cs.normalizer_excess(hstd, {}) == 1
    rep = cs.find_crf_parabolics(h, vals)
    assert not rep.primitive
    assert fiber in {w.fiber_type for w in rep.witnesses}
    rep0 = cs.find_crf_parabolics(hstd, {})
    assert rep0.circular


def test_non_a_special_standard():
    # the unique structure of a non-A special contact manifold
    for tag in ("B3", "C3", "G2", "F4", "D4"):
        h = _special_standard(tag)
        assert cs.check_integrability(h).unconditional, tag
        assert cs.is_standard(h, {}), tag
        assert cs.normalizer_excess(h, {}) == 1, tag


def test_g2_short_standard():
    h = _g2_short_standard()
    assert cs.check_integrability(h).unconditional
    assert cs.is_standard(h, {})
    assert cs.normalizer_excess(h, {}) == 1
    # m10 = levels 1, 2, 3 of the seven-level gradation: the roots that
    # pair 1, 2 or 3 with theta
    d = h.datum
    assert set(h.lines) == {i for i, r in enumerate(d.system.roots)
                            if pairing_reference(d.system, r, d.theta) in (1, 2, 3)}


def _brute_normalizer_excess(h, values):
    """Reference computation: solve [X, W] in W over the full algebra."""
    from crlie.linalg import SpanSolver, nullspace_gauss
    from crlie.chevalley import LieElement

    sysm = h.datum.system
    m01 = [conjugate(v) for v in evaluate_basis(h, values)]
    wbasis = l_complex_basis(h.datum) + m01
    wspan = SpanSolver(coordinate_rows(sysm, wbasis))
    gens = [root_vector(sysm, r) for r in sysm.roots]
    gens += [LieElement.cartan(sysm, a) for a in sysm.simple_roots]
    constraints = []
    residuals = []
    for w in wbasis:
        per_w = []
        for x in gens:
            _, rem = wspan.remainder(coordinate_rows(sysm, [x.bracket(w)])[0])
            per_w.append(rem)
        m = len(per_w[0])
        for k in range(m):
            if any(per_w[j][k] for j in range(len(gens))):
                constraints.append([_to_gauss(per_w[j][k]) for j in range(len(gens))])
    kernel = nullspace_gauss(constraints, len(gens), Gauss(0), Gauss(1))
    sols = []
    for coeffs in kernel:
        el = LieElement(sysm)
        for c, x in zip(coeffs, gens):
            if c:
                el = el + x.scale(c)
        sols.append(el)
    nrows = coordinate_rows(sysm, sols)
    crows = coordinate_rows(sysm, [conjugate(v) for v in sols])
    dim_n = SpanSolver(nrows).dim()
    dim_c = SpanSolver(crows).dim()
    dim_sum = SpanSolver(nrows + crows).dim()
    dim_l = len(h.datum.Ro.members) + len(h.datum.theta_perp_cartan)
    return dim_n + dim_c - dim_sum - dim_l


def _golden_primitive_families(max_rank):
    """The disc family of every golden primitive form up to max_rank."""
    from crlie.cli import load_fixture

    out = []
    for row in load_fixture("primitive.json").rows:
        if int(row["rank"]) > max_rank:
            continue
        t = row["type"]
        s = rs.parse_type(t if t[-1].isdigit() else t + row["rank"])
        theta = s.vector([Q(x) for x in row["theta_canon"].split(",")])
        v = classify.classify_datum(ct.contact_datum(s, theta))
        out.append(v.primitive)
    return out


def test_normalizer_excess_matches_brute_force():
    F1 = _special(rs.build("A1"))
    F2 = _special(rs.build("A2"))
    R = _short_root(rs.build("B2"))
    cases = [
        (F1.fibered, {"t": T_HALF}),
        (F1.structures[0], {}),
        (F2.fibered, {"t": T_HALF}),
        (F2.primitive, {"t": T_HALF}),
        (F2.structures[0], {}),
        (R.primitive, {"t": T_HALF}),
        (R.structures[0], {}),
        (_special_standard("B4"), {}),
        (_special_standard("G2"), {}),
        (_g2_short_standard(), {}),
    ]
    families = _golden_primitive_families(4)
    assert len(families) == 13
    cases += [(h, classify._sample_values(h, j)) for h in families for j in (0, 1)]
    for h, vals in cases:
        assert cs.normalizer_excess(h, vals) == _brute_normalizer_excess(h, vals), h.label
    # l^C + m01 is not l-stable here, so the excess is negative: the graded
    # solver must still return the integer the full-algebra solve gives
    a5 = rs.build("A5")
    F = _routed(a5, a5.vector([1, -1, 1, 0, 0, -1]))
    for h, want in ((F.fibered, -2), (F.structures[0], -1)):
        vals = classify._sample_values(h)
        assert cs.normalizer_excess(h, vals) == _brute_normalizer_excess(h, vals) == want


def _reference_roles(h):
    """The role of every root of m10 and the reducer of every twisted
    first root, derived part by part from the subspace's fields; an su2
    line is the pair (mu, -mu)."""
    roles = {}

    def put(i, role):
        if i in roles:
            raise cs.StructError("a root carries two roles in the subspace")
        roles[i] = role

    reducers = {}
    for pair in h.pairs:
        for w, (wp, k) in cs._propagate(h.datum, pair.hw, pair.partner).items():
            put(w, "pair_first")
            put(wp, "pair_second")
            reducers[w] = (wp, pair.coeff.scale(k))
    for hw in h.plains:
        for w in h.datum.modules[hw].weights:
            put(w, "plain")
    for r in h.rj_plus:
        put(r, "rj")
    return roles, reducers


def _reference_basis(h):
    """m10's basis in part order: the twisted pairs' propagated vectors,
    the su2 line among them, then the plain modules and R_J+."""
    from crlie.chevalley import LieElement

    sysm = h.datum.system
    out = []
    for pair in h.pairs:
        kappa = cs._propagate(h.datum, pair.hw, pair.partner)
        for w in sorted(kappa):
            wp, k = kappa[w]
            out.append(root_vector(sysm, sysm.roots[w])
                       + root_vector(sysm, sysm.roots[wp], pair.coeff.scale(k)))
    for hw in h.plains:
        out += [root_vector(sysm, sysm.roots[w])
                for w in sorted(h.datum.modules[hw].weights)]
    out += [root_vector(sysm, sysm.roots[r]) for r in sorted(h.rj_plus)]
    return out


def _golden_form_structures(max_rank):
    """Every structure classify_datum builds on the golden contact forms
    up to max_rank, charts included."""
    from crlie.cli import load_fixture

    out = []
    for name, keys in (("primitive.json", ("theta_source", "theta_canon")),
                       ("nonprimitive.json", ("theta_canon",))):
        for row in load_fixture(name).rows:
            if int(row["rank"]) > max_rank:
                continue
            t = row["type"]
            s = rs.parse_type(t + row["rank"] if t.isalpha() else t)
            for key in keys:
                theta = s.vector([Q(x) for x in row[key].split(",")])
                F = classify.classify_datum(ct.contact_datum(s, theta))
                out += [h for h in F.structures + (F.chart,) if h is not None]
    return out


def _readme_subspace():
    """The README's A4 --m10 user subspace."""
    from crlie.cli import build_subspace

    a4 = rs.build("A4")
    return build_subspace(ct.contact_datum(a4, a4.vector([1, 0, 0, 0, -1])), {
        "pairs": [["1,0,0,-1,0", "0,0,0,-1,1", "s"], ["0,1,0,0,-1", "-1,1,0,0,0", "s"]],
        "su2": ["1,0,0,0,-1", "t"],
    })


def test_lines_match_reference_roles():
    cases = _golden_form_structures(5) + [_readme_subspace()]
    assert len(cases) > 100
    for h in cases:
        roles, reducers = _reference_roles(h)
        want = {w: reducers.get(w) for w, r in roles.items() if not r.endswith("_second")}
        assert h.lines == want, h.label
        # one basis vector per line, in the order of the lines
        assert basis_of(h) == _reference_basis(h), h.label


def _standard_by_span(h, values):
    """Reference for is_standard: ad_Z-invariance of the evaluated subspace
    by a span solve over its basis."""
    from crlie.chevalley import LieElement
    from crlie.linalg import SpanSolver

    sysm = h.datum.system
    basis = evaluate_basis(h, values)
    hz = LieElement.cartan(sysm, h.datum.theta)
    solver = SpanSolver(coordinate_rows(sysm, basis))
    return all(solver.contains(coordinate_rows(sysm, [hz.bracket(v)])[0]) for v in basis)


def test_is_standard_matches_span_reference():
    verdicts = []
    for h in _golden_form_structures(5) + [_readme_subspace()]:
        for j in (0, 1):
            vals = classify._sample_values(h, j)
            verdicts.append(cs.is_standard(h, vals))
            assert verdicts[-1] == _standard_by_span(h, vals), (h.label, j)
    assert len(verdicts) > 200 and True in verdicts and False in verdicts


def _full_pair_integrability(h):
    """Reference for check_integrability: every pair of basis elements is
    bracketed, with no weight test."""
    basis = basis_of(h)
    roles, reducers = _reference_roles(h)
    gens = {}

    def note(p):
        p = as_poly(p).primitive()
        if not p.is_zero():
            gens.setdefault(p.key(), p)

    ro = frozenset(h.datum.Ro.members)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            br = basis[a].bracket(basis[b])
            res = dict(br.e)
            for w in list(res):
                role = roles.get(w)
                if role == "pair_first":
                    c = res.pop(w)
                    wp, twist = reducers[w]
                    res[wp] = res.get(wp, P_ZERO) - c * twist
                elif role in ("plain", "rj"):
                    res.pop(w)
            for w, c in res.items():
                if not c.is_zero() and w not in ro:
                    note(c)
            note(eval_functional(br, h.datum.theta))
    return tuple(cs._minimize(sorted(gens.values(), key=lambda p: p.key())))


def test_integrability_matches_full_pair_reference():
    cases = _golden_primitive_families(5)
    cases += [_special_standard("B4"),
              _special_standard("G2"),
              _g2_short_standard(),
              _special(rs.build("A4")).chart,
              _short_root(rs.build("C3")).chart]
    for h in cases:
        assert cs.check_integrability(h).generators == _full_pair_integrability(h), h.label


def form_row(x):
    """The sparse covector of <x, .> for the invariant form, on the
    coordinate columns of coordinate_rows: root i is column i,
    simple-root Cartan coordinate k column |R| + k.

    <E_a, E_-a> = 2/(a, a) and <H(u), H(v)> = (u, v); every other pair
    of basis elements pairs to 0.  With [E_a, E_-a] = H(2a/(a, a)) and
    the cyclic identity of the constants this form is invariant,
    <[x, y], z> = <x, [y, z]>, and nondegenerate (tests/test_chevalley.py).
    """
    sysm = x.system
    n = len(sysm.roots)
    row = {sysm.neg_index[i]: c * Gauss(Q(2) / sysm.norm2(i)) for i, c in x.e.items()}
    for k, g in enumerate(sysm._igram):
        val = sum(c * g[j] for j, c in x.h.items() if g[j])
        if val:
            row[n + k] = val * Gauss(Q(1, sysm.gden))
    return row


def l_complex_basis(datum):
    """E_d for the roots d of R_o, then H(v) for the basis of t'."""
    from crlie.chevalley import LieElement

    sysm = datum.system
    out = [root_vector(sysm, sysm.roots[i]) for i in sorted(datum.Ro.members)]
    out.extend(LieElement.cartan(sysm, v) for v in datum.theta_perp_cartan)
    return out


def _weight(datum, el):
    """The weight code of a homogeneous element (the Cartan has weight 0),
    None for an inhomogeneous one."""
    ws = {datum.weight_codes[i] for i in el.e}
    if el.h:
        ws.add(0)
    return ws.pop() if len(ws) == 1 else None


def _reference_w_and_perp(h, values):
    """Reference for crstruct._graded_w_and_perp: the elements of
    W = l^C + m01 bucketed by their weight, and W'_tau as the kernel
    inside g_tau of the form rows of W_-tau, by one solve per weight."""
    from crlie.chevalley import LieElement
    from crlie.linalg import nullspace_gauss
    from crlie.scalars import ONE, ZERO

    datum = h.datum
    sysm = datum.system
    n = len(sysm.roots)
    wblocks = {}
    for w in l_complex_basis(datum) + [conjugate(v) for v in evaluate_basis(h, values)]:
        tau = _weight(datum, w)
        if tau is None:
            raise cs.StructError("l^C + m01 has an element of mixed theta-transverse weight")
        wblocks.setdefault(tau, []).append(w)
    perp = {}
    for tau, roots in datum.weight_blocks.items():
        cols = list(roots) + ([n + k for k in range(sysm.rank)] if tau == 0 else [])
        at = {c: j for j, c in enumerate(cols)}
        rows = [{at[c]: x for c, x in form_row(w).items()} for w in wblocks.get(-tau, ())]
        kernel = nullspace_gauss(rows, len(cols), ZERO, ONE)
        if kernel:
            perp[tau] = [LieElement(sysm, {cols[j]: x for j, x in enumerate(v) if cols[j] < n},
                                    {cols[j] - n: x for j, x in enumerate(v) if cols[j] >= n})
                         for v in kernel]
    return wblocks, perp


def _dims_stop_normalizer_excess(h, values, w_and_perp=None):
    """Reference for the standardness rule and the line-built W': the
    normalizer excess from the reference W and W' (_reference_w_and_perp,
    or w_and_perp), every block stopped only at its full rank dim g_rho,
    whatever l_stable says."""
    from crlie.linalg import Echelon

    datum = h.datum
    sysm = datum.system
    n = len(sysm.roots)
    wblocks, perp = (w_and_perp or _reference_w_and_perp)(h, values)
    dims = {tau: len(roots) + (sysm.rank if tau == 0 else 0)
            for tau, roots in datum.weight_blocks.items()}
    blocks = {}
    for sigma, ws in wblocks.items():
        for tau, us in perp.items():
            rho = sigma + tau
            if rho not in dims:
                continue
            key = max(rho, -rho)
            ech = blocks.setdefault(key, Echelon())
            for w in ws:
                for u in us:
                    if len(ech.rows) == dims[key]:
                        break
                    row = coordinate_rows(sysm, [w.bracket(u)])[0]
                    if rho >= 0:
                        ech.add(row)
                    if rho <= 0:
                        ech.add({sysm.neg_index[c] if c < n else c: -x.conj()
                                 for c, x in row.items()})
    rank = sum(len(e.rows) * (1 if tau == 0 else 2) for tau, e in blocks.items())
    return n + sysm.rank - rank - len(datum.Ro.members) - len(datum.theta_perp_cartan)


def _assert_line_built_perp(h, values):
    """The line-built W' of crstruct._graded_w_and_perp is annihilated by
    W under the form, is independent and has dimension dim g - dim W, and
    W is the reference's, weight by weight."""
    from crlie.linalg import SpanSolver

    sysm = h.datum.system
    n = len(sysm.roots)
    wblocks, perp = cs._graded_w_and_perp(h, values)
    wblocks = {tau: [as_element(sysm, x) for x in xs] for tau, xs in wblocks.items()}
    perp = {tau: [as_element(sysm, x) for x in xs] for tau, xs in perp.items()}
    ref_w, _ = _reference_w_and_perp(h, values)
    assert wblocks.keys() == ref_w.keys(), h.label
    for tau, ws in wblocks.items():
        assert len(ws) == len(ref_w[tau]), h.label
        assert SpanSolver(coordinate_rows(sysm, ws + ref_w[tau])).dim() == len(ws), h.label
    w_all = [w for ws in wblocks.values() for w in ws]
    u_all = [u for us in perp.values() for u in us]
    for w in w_all:
        row = form_row(w)
        for u in u_all:
            coords = [*u.e.items(), *((n + k, c) for k, c in u.h.items())]
            assert not sum((row[c] * x for c, x in coords if c in row), Gauss(0)), h.label
    dim_w = SpanSolver(coordinate_rows(sysm, w_all)).dim()
    assert SpanSolver(coordinate_rows(sysm, u_all)).dim() == len(u_all) \
        == n + sysm.rank - dim_w, h.label


def _weight_pair_integrability(h, blocks=None):
    """Reference for the absorbed-block skip and the line brackets:
    check_integrability on the LieElement basis, each bracket's
    theta-component read by eval_functional, skipping only the pairs whose
    weight sum is not in blocks, by default no weight of g."""
    blocks = h.datum.weight_blocks if blocks is None else blocks
    basis = basis_of(h)
    lines = h.lines
    gens = {}

    def note(p):
        p = as_poly(p).primitive()
        if not p.is_zero():
            gens.setdefault(p.key(), p)

    ro = frozenset(h.datum.Ro.members)
    weights = [_weight(h.datum, v) for v in basis]
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            wa, wb = weights[a], weights[b]
            if wa is not None and wb is not None and wa + wb not in blocks:
                continue
            br = basis[a].bracket(basis[b])
            res = dict(br.e)
            for w in [w for w in res if w in lines]:
                c = res.pop(w)
                if lines[w] is not None:
                    wp, twist = lines[w]
                    res[wp] = res.get(wp, P_ZERO) - c * twist
            for w, c in res.items():
                if not c.is_zero() and w not in ro:
                    note(c)
            note(eval_functional(br, h.datum.theta))
    return tuple(cs._minimize(sorted(gens.values(), key=lambda p: p.key())))


def _sum_forms(tag, dominant):
    """Every nonzero contact form a + b and a - b for roots a, b of the
    type: the dominant representative of each class over all roots when
    dominant, otherwise the unreduced forms with a and b positive."""
    sysm = rs.parse_type(tag)
    n = len(sysm.roots)
    idx = range(n) if dominant else [i for i in range(n) if sysm.positive[i]]
    out = {}
    for i in idx:
        for j in idx:
            for theta in (sysm.roots[i] + sysm.roots[j], sysm.roots[i] - sysm.roots[j]):
                if not theta.is_zero():
                    theta = sysm.dominant(theta) if dominant else theta
                    out.setdefault((theta.c, theta.den), theta)
    return sysm, list(out.values())


SUM_FORM_TYPES = [(t, True) for t in ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
                                      "D4", "D5", "G2", "F4", "A1+A1", "A2+A2")]
SUM_FORM_TYPES += [(t, False) for t in ("A3", "A4", "A5", "B3", "C3", "D4")]


@pytest.mark.parametrize("tag,dominant", SUM_FORM_TYPES)
def test_pruned_brackets_match_unpruned_references(tag, dominant):
    # the standardness rule, the absorbed-block skip and the line-built W' change
    # no result; the certificate is true where it is given, and a negative
    # excess, which an l-stable W cannot have, comes only without it
    from crlie.chevalley import LieElement
    from crlie.linalg import SpanSolver

    sysm, forms = _sum_forms(tag, dominant)
    stable = unstable = 0
    for theta in forms:
        F = classify.classify_datum(ct.contact_datum(sysm, theta))
        for h in F.structures:
            assert cs.check_integrability(h).generators == _weight_pair_integrability(h), h.label
            for j in (0, 1):
                vals = classify._sample_values(h, j)
                exc = cs.normalizer_excess(h, vals)
                assert exc == _dims_stop_normalizer_excess(h, vals), (h.label, theta.c)
                assert exc >= 0 or not h.l_stable, (h.label, theta.c)
                _assert_line_built_perp(h, vals)
            if not h.l_stable:
                unstable += 1
                continue
            stable += 1
            basis = evaluate_basis(h, classify._sample_values(h))
            solver = SpanSolver(coordinate_rows(sysm, basis))
            for d in h.datum.Ro.members:
                ed = root_vector(sysm, sysm.roots[d])
                for v in basis:
                    assert solver.contains(coordinate_rows(sysm, [ed.bracket(v)])[0]), h.label
    # no a +- b form of A2+A2 is classified, so it has no structures
    assert stable > 0 or tag == "A2+A2"


def _live_blocks(h):
    """The weights check_integrability brackets into: 0, and every other
    weight of g with a root off R_o and off the lone lines E_w."""
    ro = frozenset(h.datum.Ro.members)
    return {rho for rho, roots in h.datum.weight_blocks.items()
            if rho == 0 or any(r not in ro and h.lines.get(r, 0) is not None for r in roots)}


def _basis_disjointness(h):
    """check_disjointness on the LieElement basis and its conjugates."""
    basis = basis_of(h)
    class_of = h.datum.class_of
    per_block = {}
    for v in basis + [conjugate(v) for v in basis]:
        support = sorted(v.e)
        block = class_of[support[0]]
        if any(class_of[w] != block for w in support):
            raise cs.StructError("vector support crosses congruence blocks")
        per_block.setdefault(block, []).append(v)
    factors = {}
    for block, vs in per_block.items():
        if len(vs) != len(block):
            raise cs.StructError("congruence block is not square")
        det = as_poly(cs._det_poly([[v.e.get(w, P_ZERO) for w in block] for v in vs]))
        if det.is_zero():
            raise cs.StructError("identically degenerate block")
        det = det.primitive()
        if not det.is_constant():
            factors.setdefault(det.key(), det)
    return tuple(sorted(factors.values(), key=lambda p: p.key()))


def _basis_w_and_perp(h, values):
    """W = l^C + m01 and W' as LieElements, bucketed by weight, from the
    conjugates of the evaluated basis: W' is H(theta), E_r for the roots
    of R' on no evaluated vector, and conj(c) E_w - ((w', w')/(w, w)) E_w'
    for each evaluated E_w + c E_w' with c nonzero."""
    datum = h.datum
    sysm = datum.system
    wt = datum.weight_codes
    wblocks = {}
    for x in l_complex_basis(datum):
        wblocks.setdefault(_weight(datum, x), []).append(x)
    perp = {0: [LieElement.cartan(sysm, datum.theta)]}
    free = set(datum.Rprime)
    for w, v in zip(h.lines, evaluate_basis(h, values)):
        free.difference_update(v.e)
        wblocks.setdefault(-wt[w], []).append(conjugate(v))
        for wp, c in v.e.items():
            if wp == w:
                continue
            if wt[wp] != wt[w]:
                raise cs.StructError("l^C + m01 has an element of mixed theta-transverse weight")
            perp.setdefault(wt[w], []).append(
                LieElement(sysm, {w: c.conj(), wp: Gauss(-sysm.norm2(wp) / sysm.norm2(w))}))
    for r in sorted(free):
        perp.setdefault(wt[r], []).append(root_vector(sysm, sysm.roots[r]))
    return wblocks, perp


def _basis_eigen_sign(x, v):
    """The sign of the eigenvalue of ad_x on the eigenline v, read off the
    coefficient on v's first root (the denominator is positive)."""
    w = next(iter(v.e))
    ratio = x.bracket(v).e.get(w, ZERO) / v.e[w]
    if ratio.is_zero():
        return 0
    return 1 if (ratio.a or ratio.b) > 0 else -1


def _basis_s1_witness(h, values):
    """crstruct._rotated_s1_witness on the evaluated LieElement basis; the
    su2 line is the pair (mu, -mu)."""
    sysm, datum = h.datum.system, h.datum
    su2 = [p for p in h.pairs if p.partner == sysm.neg_index[p.hw]]
    if not su2 or su2[0].coeff.eval(cs._with_conj(values)).is_zero():
        return None
    mu = su2[0].hw
    basis = evaluate_basis(h, values)
    x = next(v for v in basis if mu in v.e and sysm.neg_index[mu] in v.e)
    constraints, covered = [], set()
    for v in basis:
        if v is x:
            continue
        support = frozenset(v.e)
        br = x.bracket(v)
        if set(br.e) - set(v.e):
            for sgn in (1, -1):
                covered.add((frozenset(support | set(br.e)), sgn))
                constraints.append((cs._zeta_value(datum, min(support)), Q(sgn)))
        else:
            lam = _basis_eigen_sign(x, v)
            covered.add((support, lam))
            constraints.append((cs._zeta_value(datum, min(support)), Q(lam)))
    for block, sgn in covered:
        if (frozenset(sysm.neg_index[i] for i in block), -sgn) in covered:
            return None
    if not cs._cone_feasible(constraints):
        return None
    return cs.ParabolicWitness(frozenset(datum.Ro.members), 1, "S1")


def _basis_parabolics(h, values):
    """find_crf_parabolics' witnesses from the support of the evaluated
    LieElement basis, closed pairwise (_reference_closure)."""
    sysm, datum = h.datum.system, h.datum
    support = set(datum.Ro.members)
    for v in evaluate_basis(h, values):
        support.update(v.e)
    p = _reference_closure(sysm, support)
    if any(i not in p and sysm.neg_index[i] not in p for i in range(len(sysm.roots))):
        raise cs.StructError("m10 and its conjugate do not span m at these values")
    want = []
    if len(p) < len(sysm.roots):
        sym = frozenset(i for i in p if sysm.neg_index[i] in p)
        want.append(cs.ParabolicWitness(sym, len(sym) - len(datum.Ro.members) + 1,
                                        naming.fiber_type(datum, sym)))
    s1 = _basis_s1_witness(h, values)
    want += [s1] if s1 is not None else []
    return tuple(sorted(want, key=lambda w: (w.fiber_dim, sorted(w.sym_roots))))


def _outcome(f, *args):
    """f's result, or the StructError it raises."""
    try:
        return f(*args)
    except cs.StructError as e:
        return ("StructError", str(e))


def _cli_digest():
    """tools/cli_digest.py as a module: its contact forms and --m10 specs."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest_structures(kind):
    """The structures tools/cli_digest.py checks: every structure
    classify_datum builds on its golden forms of rank <= 6 ("golden") or on
    its a + b and a - b forms ("sums"), charts included, or the --m10
    subspaces that build, of M10_CHECKS and M10_MORE ("m10") or of every
    spec list ("specs")."""
    from crlie.cli import build_subspace

    digest = _cli_digest()
    out = []
    if kind in ("m10", "specs"):
        specs = digest.M10_CHECKS + digest.M10_MORE
        if kind == "specs":
            specs += digest.M10_TWINS + digest.M10_EDGES + digest.M10_UNROUTED
        for t, theta, spec in specs:
            s = rs.parse_type(t)
            h = build_subspace(ct.contact_datum(s, s.vector(theta.split(","))), spec)
            if isinstance(_outcome(lambda: h.lines), dict):  # not a StructError
                out.append(h)
        return out
    if kind == "golden":
        forms = digest.golden_forms(Path(classify.__file__).resolve().parent / "data")
    else:
        forms = digest.sum_forms(rs) + digest.sum_forms(rs, digest.RANK2_SUM_FORM_TYPES)
    for t, theta in forms:
        s = rs.parse_type(t)
        F = classify.classify_datum(ct.contact_datum(s, s.vector(theta.split(","))))
        out += [h for h in F.structures + (F.chart,) if h is not None]
    return out


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_line_checks_match_basis_references(kind):
    # the checks read off the lines and at(values) give what the LieElement
    # basis gave: generators in order, factors, verdicts and witnesses
    cases = _digest_structures(kind)
    assert len(cases) >= {"golden": 139, "sums": 1107, "m10": 9}[kind]
    for h in cases:
        assert cs.check_integrability(h).generators \
            == _weight_pair_integrability(h, _live_blocks(h)), h.label
        assert _outcome(lambda: cs.check_disjointness(h).factors) \
            == _outcome(_basis_disjointness, h), h.label
        for j in (0, 1):
            vals = classify._sample_values(h, j)
            assert cs.is_standard(h, vals) == _standard_by_span(h, vals), (h.label, j)
            assert _outcome(cs.normalizer_excess, h, vals) \
                == _outcome(_dims_stop_normalizer_excess, h, vals, _basis_w_and_perp), (h.label, j)
            assert _outcome(lambda: cs.find_crf_parabolics(h, vals).witnesses) \
                == _outcome(_basis_parabolics, h, vals), (h.label, j)


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_root_set_paths_cover_the_untwisted_digest_cases(kind, monkeypatch):
    # the cases of test_line_checks_match_basis_references that
    # integrability decides on root sets, the structures without pairs,
    # and of those the ones whose one generator is 1
    closed = cs._lone_lines_closed
    seen = 0

    def counted(*args):
        nonlocal seen
        seen += 1
        return closed(*args)

    monkeypatch.setattr(cs, "_lone_lines_closed", counted)
    bad = 0
    for h in _digest_structures(kind):
        before = seen
        cons = cs.check_integrability(h)
        if seen > before and not cons.unconditional:
            assert str(cons) == "1 = 0", h.label
            bad += 1
    want = {"golden": (62, 0), "sums": (542, 43), "m10": (1, 1)}[kind]
    assert seen >= want[0] and bad >= want[1]


def test_l_stable_untwisted_excess_is_one():
    """An l-stable m10 with no twisted line at the sample, whose line
    roots S hold mu or -mu for every root mu parallel to theta, has
    normalizer excess exactly 1.  Where m10 and m01 are disjoint, S and -S
    partition R', which holds every such mu.

    Proof.  W = t' + sum of the g_b for b in B = R_o u -S, which the
    Cartan h keeps, so N_g(W) = h + sum of the g_a over a root set A, conj
    maps g_a onto g_-a, and the excess is 1 + |A n -A| - |R_o|.  l_stable
    puts l^C in N and in conj(N), so R_o = -R_o lies in A n -A,
    and every other root of A n -A is parallel to theta.  Let mu be one,
    with mu in S say (else swap mu and -mu).  Then -mu lies in -S, inside
    B, and [E_mu, E_-mu] = H_mu lies off t' as mu lies off R_o, so mu is
    not in A, and neither mu nor -mu lies in A n -A.  So A n -A = R_o and
    the excess is 1.

    The subspaces that are not l-stable are observed, not proved, to have
    a negative excess; their R_J+ splits a module
    (HolomorphicSubspace.l_stable)."""
    stable, unstable = 0, []
    cases = [(h, classify._sample_values(h, j)) for kind in ("golden", "sums", "m10")
             for h in _digest_structures(kind) for j in (0, 1)]
    for h, vals in cases:
        neg, s = h.datum.system.neg_index, h.at(vals)
        if any(s.values()):
            continue
        if not h.l_stable:
            unstable.append(cs.normalizer_excess(h, vals))
        elif all(mu in s or neg[mu] in s for mu in h.datum.weight_blocks[0]):
            assert cs.normalizer_excess(h, vals) == 1, h.label
            stable += 1
    assert stable >= 1054
    assert len(unstable) >= 156 and set(unstable) == {-1, -3, -5}


def _seed_echelon_normalizer_excess(h, values):
    """normalizer_excess with an Echelon for every weight block: the seeds
    of each nonzero block, then the brackets of every block left under its
    bound, dim g_rho or, where l_stable certifies that l^C lies in N and
    conj(N), dim g_rho less dim(l^C n g_-rho).  The reference for
    normalizer_excess, whose standardness rule takes no block at all."""
    datum = h.datum
    sysm = datum.system
    wblocks, perp = cs._graded_w_and_perp(h, values)
    room = {tau: len(roots) for tau, roots in datum.weight_blocks.items()}
    room[0] += sysm.rank
    if h.l_stable:
        for d in datum.Ro.members:
            room[datum.weight_codes[d]] -= 1
        room[0] -= len(datum.theta_perp_cartan)
    blocks = {}
    for tau, us in perp.items():
        if tau and room[tau] > 0:
            cs._bracket_into(sysm, blocks, room, tau, us)
    for rho in [rho for rho, r in room.items() if r > 0]:
        for sigma, ws in wblocks.items():
            us = perp.get(rho - sigma)
            if us and room[rho] > 0:
                cs._bracket_into(sysm, blocks, room, rho, (cs._bracket_row(datum, w, u)
                                                           for w in ws if type(w) is dict
                                                           for u in us))
    rank = sum(len(ech.rows) * (1 if tau == 0 else 2) for tau, ech in blocks.items())
    dim_l = len(datum.Ro.members) + len(datum.theta_perp_cartan)
    return len(sysm.roots) + sysm.rank - rank - dim_l


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_seed_minors_match_the_seed_echelon(kind):
    # every digest structure at SAMPLES[0] and SAMPLES[1], l-stable or not
    unstable = 0
    for h in _digest_structures(kind):
        for j in (0, 1):
            vals = classify._sample_values(h, j)
            assert _outcome(cs.normalizer_excess, h, vals) \
                == _outcome(_seed_echelon_normalizer_excess, h, vals), (h.label, j)
            unstable += not h.l_stable
    assert unstable >= {"golden": 0, "sums": 312, "m10": 0}[kind]


def test_seed_minors_fall_back_on_short_classes():
    # points where m10 meets m01, which take the counted excess: the B3
    # --m10 spec of tools/cli_digest.py at t = 1/2, whose su2 line
    # E_mu + 2t E_-mu of weight 0 meets m01 there, the l-stable golden
    # structures at |t| = 1, and the G2 --m10 edge spec, whose class of
    # four roots has a twisted line on each of its modules
    b3 = [h for h in _digest_structures("m10") if h.datum.system.type_str() == "B3"
          and h.parameters() == {"t"} and len(h.pairs) == 1 and h.rj_plus]
    assert len(b3) == 1 and b3[0].l_stable
    vals = {"t": T_HALF}
    assert b3[0].at(vals)[b3[0].datum.system.root_index(b3[0].datum.theta)][1] == ONE
    assert cs.normalizer_excess(b3[0], vals) == _seed_echelon_normalizer_excess(b3[0], vals) == 0
    cases = [h for h in _digest_structures("golden") if h.l_stable and h.parameters() == {"t"}]
    for h in cases:
        for t in (Gauss(1), Gauss(-1), Gauss(0, 1), UNIT):
            vals = {"t": t}
            assert cs.normalizer_excess(h, vals) == _seed_echelon_normalizer_excess(h, vals), \
                (h.label, t)
    assert len(cases) >= 52
    from crlie.cli import build_subspace

    for t, theta, spec in _cli_digest().M10_EDGES:
        s = rs.parse_type(t)
        h = build_subspace(ct.contact_datum(s, s.vector(theta.split(","))), spec)
        for j in (0, 1):
            vals = classify._sample_values(h, j)
            assert cs.normalizer_excess(h, vals) == _seed_echelon_normalizer_excess(h, vals), t


# the twists at which the standardness rule is checked: the samples, and
# points of modulus 1, where the golden disc families meet m01
RULE_POINTS = classify.SAMPLES + (Gauss(1), Gauss(-1), Gauss(0, 1), Gauss(0, -1), UNIT, UNIT.conj())


def _forbidden(*args):
    raise AssertionError("the standardness rule takes no bracket and builds no Echelon")


def _check_standardness_rule(h, monkeypatch):
    """normalizer_excess on h at each point of RULE_POINTS, its twists
    rotated through the points (one point when it has none).  Where h is
    l-stable and m10 n m01 = 0 there, it is int(is_standard), with no
    bracket and no Echelon, and equals the all-Echelon reference;
    elsewhere it equals the reference.  Returns how many points took the
    rule and how many did not."""
    params, n = sorted(h.parameters()), len(RULE_POINTS)
    ruled = counted = 0
    for j in range(n if params else 1):
        vals = {p: RULE_POINTS[(j + k) % n] for k, p in enumerate(params)}
        want = _outcome(_seed_echelon_normalizer_excess, h, vals)
        if h.l_stable and _outcome(lambda: cs.check_disjointness(h).holds_at(vals)) is True:
            with monkeypatch.context() as m:
                m.setattr(cs, "Echelon", _forbidden)
                m.setattr(cs, "_bracket_row", _forbidden)
                got = cs.normalizer_excess(h, vals)
            assert got == int(cs.is_standard(h, vals)) == want, (h.label, vals)
            ruled += 1
        else:
            assert _outcome(cs.normalizer_excess, h, vals) == want, (h.label, vals)
            counted += 1
    return ruled, counted


@pytest.mark.parametrize("kind", ["golden", "sums", "specs"])
def test_standardness_rule_on_digest_structures(kind, monkeypatch):
    # README, "How the normalizer excess is computed": on an l-stable m10
    # at a point where m10 n m01 = 0 the excess is 1 when the structure
    # is standard and 0 otherwise
    ruled = counted = 0
    for h in _digest_structures(kind):
        r, c = _check_standardness_rule(h, monkeypatch)
        ruled, counted = ruled + r, counted + c
    want = {"golden": (472, 437), "sums": (2864, 3893), "specs": (101, 78)}[kind]
    assert ruled >= want[0] and counted >= want[1]


def test_standardness_rule_needs_a_cr_point():
    # the golden F4 disc family at t = 1, where m10 meets m01: its excess
    # is 15, and the structure is not standard; on every l-stable golden
    # structure with the one twist t, at |t| = 1, the two differ
    cases = [h for h in _digest_structures("golden") if h.l_stable and h.parameters() == {"t"}]
    f4 = [h for h in cases if h.datum.system.type_str() == "F4" and h.label == "disc family"]
    assert len(f4) == 1
    vals = {"t": Gauss(1)}
    assert not cs.check_disjointness(f4[0]).holds_at(vals) and not cs.is_standard(f4[0], vals)
    assert cs.normalizer_excess(f4[0], vals) == _seed_echelon_normalizer_excess(f4[0], vals) == 15
    differ = [(h.label, t) for h in cases for t in RULE_POINTS[5:]
              if cs.normalizer_excess(h, {"t": t}) != int(cs.is_standard(h, {"t": t}))]
    assert len(differ) == 6 * len(cases) >= 6 * 52


def test_line_built_normalizer_on_readme_subspace():
    h = _readme_subspace()
    for j in (0, 1):
        vals = classify._sample_values(h, j)
        assert cs.normalizer_excess(h, vals) == _dims_stop_normalizer_excess(h, vals)
        _assert_line_built_perp(h, vals)


def test_line_across_two_weights():
    # no part builds a line E_w + c E_w' whose roots differ in weight:
    # _propagate refuses the pair (e1-e2, e2-e1) of A2 at theta = e1-e3
    from crlie.cli import build_subspace

    a2 = rs.build("A2")
    datum = ct.contact_datum(a2, a2.vector([1, 0, -1]))
    spec = {"su2": ["1,-1,0", "t"], "rj_plus": ["1,0,-1", "0,1,-1"]}
    with pytest.raises(cs.StructError, match="non-congruent"):
        build_subspace(datum, spec).lines


def test_negative_excess_has_no_l_certificate():
    a5 = rs.build("A5")
    F = _routed(a5, a5.vector([1, -1, 1, 0, 0, -1]))
    for h, want in ((F.fibered, -2), (F.structures[0], -1)):
        assert not h.l_stable
        assert cs.normalizer_excess(h, classify._sample_values(h)) == want


def _t_prime_seed_claims(h, j, monkeypatch):
    """The t' seeds of normalizer_excess on h at sample j, checked on
    LieElements: (a) each v in t' brackets each u of W'_tau into a
    multiple of u, nonzero for some v when tau != 0 and 0 when tau = 0;
    (b) where m10 and m01 are disjoint at the sample, W'_tau and
    conj(W'_-tau) span m^C_tau for every tau != 0, so each nonzero block
    has rank |R'_tau| from the seeds alone; (c) where h is l-stable too,
    normalizer_excess takes no bracket, and the excess is 0 or 1, as h is
    standard.  No element of t' is ever bracketed.  Returns which of (b)
    and (c) applied."""
    from crlie.linalg import Echelon

    datum = h.datum
    sysm = datum.system
    neg = sysm.neg_index
    vals = classify._sample_values(h, j)
    _, perp = cs._graded_w_and_perp(h, vals)
    tprime = [LieElement.cartan(sysm, v) for v in datum.theta_perp_cartan]
    for tau, us in perp.items():
        for u in us:
            el = as_element(sysm, u)
            brs = [v.bracket(el) for v in tprime]
            for br in brs:
                support = {r for r, c in br.e.items() if not c.is_zero()}
                assert all(c.is_zero() for c in br.h.values()), h.label
                assert support <= set(el.e), h.label
                assert len({br.e.get(r, Gauss(0)) / c for r, c in el.e.items()}) <= 1, h.label
            assert any(not br.is_zero() for br in brs) == (tau != 0), (h.label, tau)
    disjoint = _outcome(lambda: cs.check_disjointness(h).holds_at(vals)) is True
    if not disjoint:
        return False, False
    for tau, roots in datum.weight_blocks.items():
        if tau <= 0:
            continue
        ech = Echelon()
        for u in perp.get(tau, ()):
            ech.add(dict(u))
        for u in perp.get(-tau, ()):
            ech.add({neg[r]: -c.conj() for r, c in u.items()})
        assert len(ech.rows) == sum(r in datum.Rprime for r in roots), (h.label, tau)
    if not h.l_stable:
        return True, False
    assert _bracket_weights(h, vals, monkeypatch) == set(), h.label
    assert cs.normalizer_excess(h, vals) == int(cs.is_standard(h, vals)), h.label
    return True, True


def _bracket_weights(h, vals, monkeypatch):
    """The weights of the brackets normalizer_excess takes on h at vals,
    each checked to have no element of t' (a RootVector other than
    theta, which stands for H(theta))."""
    wt = h.datum.weight_codes
    rhos = set()
    bracket_row = cs._bracket_row

    def record(datum, x, y):
        assert isinstance(x, dict) and (isinstance(y, dict) or y is datum.theta), h.label
        rhos.add(wt[next(iter(x))] + (wt[next(iter(y))] if isinstance(y, dict) else 0))
        return bracket_row(datum, x, y)

    with monkeypatch.context() as m:
        m.setattr(cs, "_bracket_row", record)
        cs.normalizer_excess(h, vals)
    return rhos


@pytest.mark.parametrize("tag,dominant", SUM_FORM_TYPES)
def test_t_prime_seeds_on_sum_forms(tag, dominant, monkeypatch):
    sysm, forms = _sum_forms(tag, dominant)
    applied = set()
    for theta in forms:
        for h in classify.classify_datum(ct.contact_datum(sysm, theta)).structures:
            for j in (0, 1):
                applied.add(_t_prime_seed_claims(h, j, monkeypatch))
    # no a +- b form of A2+A2 is classified, so it has no structures
    assert (True, True) in applied or tag == "A2+A2"


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_t_prime_seeds_on_digest_structures(kind, monkeypatch):
    applied = {_t_prime_seed_claims(h, j, monkeypatch)
               for h in _digest_structures(kind) for j in (0, 1)}
    assert (True, True) in applied


def test_no_t_prime_bracket_without_the_l_certificate(monkeypatch):
    # the A5 subspaces of negative excess: the fibered one, with a twisted
    # line, still brackets no element of t'; the standard one has no
    # twisted line and keeps the reference excess
    a5 = rs.build("A5")
    F = _routed(a5, a5.vector([1, -1, 1, 0, 0, -1]))
    assert _bracket_weights(F.fibered, classify._sample_values(F.fibered), monkeypatch)
    h = F.structures[0]
    vals = classify._sample_values(h)
    assert not any(h.at(vals).values())
    assert cs.normalizer_excess(h, vals) == _dims_stop_normalizer_excess(h, vals) == -1


def test_theta_and_center_pairings_are_positive_multiples():
    # theta_pairings and _zeta_value carry one positive factor per datum
    for tag, theta in (("A5", [1, -1, 1, 0, 0, -1]), ("B3", [1, 1, 0]), ("C3", [2, 0, 0]),
                       ("G2", [1, 0, -1]), ("E6", [1, 0, 0, 0, 0, -1, 2])):
        sysm = rs.build(tag)
        datum = ct.contact_datum(sysm, sysm.vector(theta))
        for table, v in ((datum.theta_pairings, datum.theta),
                         ([cs._zeta_value(datum, r) for r in range(len(sysm.roots))],
                          datum.center[0] if datum.center else None)):
            exact = [sysm.inner(r, v) if v is not None else Q(0) for r in sysm.roots]
            assert all(type(x) is int for x in table), tag
            factors = {x / y for x, y in zip(table, exact) if y}
            assert len(factors) <= 1 and all(f > 0 for f in factors), tag
            assert all((x == 0) == (y == 0) for x, y in zip(table, exact)), tag


def test_ro_generators_are_the_simple_roots_of_ro():
    from crlie.linalg import SpanSolver

    for tag, theta in (("A5", [1, -1, 1, 0, 0, -1]), ("D5", [1, 0, 0, 0, 0]), ("F4", [1, 0, 0, 0]),
                       ("G2", [1, 0, -1])):
        sysm = rs.build(tag)
        datum = ct.contact_datum(sysm, sysm.vector(theta))
        gens = datum.ro_generators
        simple = gens[:len(gens) // 2]
        assert gens[len(gens) // 2:] == tuple(sysm.neg_index[i] for i in simple)
        # a base: independent, as many as R_o's rank, and every positive
        # root of R_o a nonnegative int combination of them
        span = SpanSolver([[Q(x) for x in sysm.expansions[i]] for i in simple])
        assert span.dim() == len(simple) > 0
        assert SpanSolver([[Q(x) for x in sysm.expansions[i]] for i in datum.Ro.members]).dim() \
            == len(simple)
        for i in (i for i in datum.Ro.members if sysm.positive[i]):
            coeffs = span.reduce([Q(x) for x in sysm.expansions[i]])
            assert all(c >= 0 and c.denominator == 1 for c in coeffs), (tag, i)


def _center_reference(datum):
    """The center of l in the Cartan as the nullspace of the covectors of
    theta and of every root of R_o."""
    sysm = datum.system
    rows = [{k: Q(y, v.den * sysm.gden) for k, y in v.covector()}
            for v in [datum.theta] + [sysm.roots[i] for i in datum.Ro.members]]
    return tuple(rs.RootVector(sysm, v) for v in nullspace(rows, sysm.rank))


def test_su2_pair_propagates_exactly_on_special_roots():
    # the su2 line (mu, -mu) of the dominant root mu of each length is a
    # twisted pair of the one-root modules {mu} and {-mu} exactly where
    # contact.classify_special lists mu: theta along mu, and mu strongly
    # orthogonal to every root of R_o
    seen = {True: 0, False: 0}
    for t, r in classify.simple_types(8):
        sysm = rs.build(t, r)
        special = {sysm.root_index(d.theta) for d, _ in ct.classify_special(sysm)}
        for rep in sysm.length_representatives.values():
            datum = ct.contact_datum(sysm, rep)
            mu = sysm.root_index(rep)
            neg = sysm.neg_index[mu]
            seen[mu in special] += 1
            if mu in special:
                assert cs._propagate(datum, mu, neg) == {mu: (neg, ONE)}, (t, r)
            else:
                with pytest.raises(cs.StructError):
                    cs._propagate(datum, mu, neg)
    assert seen == {True: 32, False: 14}  # the short roots of B, C and F4 are not special


def test_center_is_one_direction_on_root_parallel_data():
    """The S1 cone (_rotated_s1_witness) reads only the first central
    direction.  Its su2 line E_r + c E_-r lies in one congruence block only
    when r is parallel to theta (check_disjointness refuses it otherwise),
    and on every such datum, on the simple types of rank <= 8 and on
    A_p + A_q, the center of l has at most one direction, so that one is
    exact.  Scaling theta or conjugating it keeps the dimension, so the
    dominant root of each Weyl orbit of roots stands for its data."""
    systems = [rs.build(t, r) for t, r in classify.simple_types(8)]
    systems += [rs.build_product([("A", p), ("A", q)]) for p, q in classify.product_types(8)]
    for sysm in systems:
        for theta in {sysm.dominant(r) for r in sysm.roots}:
            datum = ct.contact_datum(sysm, theta)
            assert datum.center == _center_reference(datum)
            assert len(datum.center) <= 1, (sysm.type_str(), theta)


def _roots_vanishing_on_t_prime(datum):
    """The roots that vanish on t' = h ∩ theta^perp, with t' spanned by
    a_j - ((a_j, theta) / (a_k, theta)) a_k over the simple roots a_j, j != k,
    for one k with (a_k, theta) != 0."""
    sysm = datum.system
    row = [sysm.inner(a, datum.theta) for a in sysm.simple_roots]
    k = next(i for i, x in enumerate(row) if x)
    t_prime = [sysm.simple_roots[j] - (row[j] / row[k]) * sysm.simple_roots[k]
               for j in range(sysm.rank) if j != k]
    return frozenset(i for i, r in enumerate(sysm.roots)
                     if all(sysm.inner(r, t) == 0 for t in t_prime))


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_parabolics_meet_t_prime_as_the_witness_search_assumes(kind, monkeypatch):
    """Baseline's lemma behind find_crf_parabolics (README, "How fibration
    witnesses are found"): a parabolic holding l^C holds t', so a Cartan c
    with t' ⊂ c ⊂ z_g(t').  On every digest datum the roots vanishing on t'
    are those parallel to theta (equality in Cauchy–Schwarz), at most ±mu,
    so z_g(t') is h or t' + sl2(mu); each su2 line stands on that mu, and
    wherever its twist is nonzero the witness search consults
    _rotated_s1_witness, the one case where c need not be h."""
    consulted, rotated = [], cs._rotated_s1_witness

    def spy(h, values):
        consulted.append((h, tuple(sorted(values.items()))))
        return rotated(h, values)

    monkeypatch.setattr(cs, "_rotated_s1_witness", spy)
    twisted = 0
    cases = _digest_structures(kind)
    for datum in {h.datum for h in cases}:
        sysm, theta = datum.system, datum.theta
        parallel = frozenset(
            i for i, r in enumerate(sysm.roots)
            if sysm.inner(r, theta) ** 2 == sysm.inner(r, r) * sysm.inner(theta, theta))
        assert _roots_vanishing_on_t_prime(datum) == parallel, (sysm.type_str(), theta)
        assert len(parallel) in (0, 2), (sysm.type_str(), theta)
        assert {sysm.neg_index[i] for i in parallel} == parallel
    for h in cases:
        sysm = h.datum.system
        su2 = [p.hw for p in h.pairs if p.partner == sysm.neg_index[p.hw]]
        assert len(su2) <= 1, h.label
        if not su2:
            continue
        assert sysm.inner(sysm.roots[su2[0]], h.datum.theta) ** 2 \
            == sysm.norm2(su2[0]) * sysm.inner(h.datum.theta, h.datum.theta), h.label
        for j in (0, 1):
            values = classify._sample_values(h, j)
            if h.at(values)[su2[0]] is None:
                continue
            consulted.clear()
            if isinstance(_outcome(cs.find_crf_parabolics, h, values), cs.FibrationReport):
                twisted += 1
                assert consulted == [(h, tuple(sorted(values.items())))], h.label
    assert twisted >= {"golden": 80, "sums": 720, "m10": 8}[kind]


def test_structure_rows_dispatch():
    b4 = rs.build("B4")
    rows = classify.structure_rows_for_datum(ct.contact_datum(b4, b4.vector([1, 0, 0, 0])))
    fams = {r["family"]: r for r in rows}
    assert fams["disc family"]["standard"] == "no"
    assert fams["disc family"]["primitive"] == "yes"
    assert fams["standard"]["normalizer_excess"] == "1"
    g2 = rs.build("G2")
    rows = classify.structure_rows_for_datum(ct.contact_datum(g2, g2.vector([1, 0, 0])))
    assert len(rows) == 1 and rows[0]["standard"] == "yes"
    a3 = rs.build("A3")
    rows = classify.structure_rows_for_datum(ct.contact_datum(a3, a3.highest_root()))
    assert len(rows) == 6  # three standard + three families
    prim = [r for r in rows if r.get("primitive") == "yes"]
    assert len(prim) == 1 and "note" in prim[0]


def _strict_witness(constraints, u, v):
    return v != 0 and all(a * u + b * v > 0 for a, b in constraints)


def _seeded_search(constraints):
    """The candidate search _cone_feasible used to run: the axes, every
    normal and its two quarter turns, then two rounds of pairwise sums
    (the second skipped past 4000 points).  The quarter turns of the two
    extreme normals bound any nonempty cone and the first round adds their
    sum, so the search is complete; it serves as the reference here."""
    cands = {(Q(0), Q(1)), (Q(0), Q(-1)), (Q(1), Q(0)), (Q(-1), Q(0))}
    for a, b in constraints:
        cands.update([(a, b), (-b, a), (b, -a)])
    seeds = set(cands)
    for _ in range(2):
        base = list(cands)
        cands.update((p[0] + q[0], p[1] + q[1]) for p in base for q in base)
        if len(cands) > 4000:
            break
    return seeds, any(_strict_witness(constraints, u, v) for u, v in cands)


def test_cone_feasible_thin_cone_outside_the_seeds():
    # a*u + b*v > 0 for both normals means -100v < u < -99v with v > 0:
    # no axis, normal or quarter turn of a normal is a witness, only
    # points strictly between the two boundary rays such as (-199, 2)
    cons = [(Q(1), Q(100)), (Q(-1), Q(-99))]
    seeds, _ = _seeded_search(cons)
    assert not any(_strict_witness(cons, u, v) for u, v in seeds)
    assert _strict_witness(cons, Q(-199), Q(2))
    assert cs._cone_feasible(cons)


def test_cone_feasible_exact_cases():
    assert cs._cone_feasible([])
    assert cs._cone_feasible([(Q(1), Q(0))])  # u > 0 still leaves v free
    assert cs._cone_feasible([(Q(1), Q(0)), (Q(2), Q(0))])
    assert not cs._cone_feasible([(Q(0), Q(0))])
    assert not cs._cone_feasible([(Q(1), Q(2)), (Q(-1), Q(-2))])
    assert not cs._cone_feasible([(Q(1), Q(0)), (Q(-1), Q(1)), (Q(-1), Q(-1))])
    assert cs._cone_feasible([(Q(1), Q(0)), (Q(-1), Q(1)), (Q(1), Q(1, 1000))])


def test_cone_feasible_matches_seeded_search():
    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(0, 4)
        lo = rng.choice([1, 3, 20])
        cons = [(Q(rng.randint(-lo, lo), rng.randint(1, 3)),
                 Q(rng.randint(-lo, lo), rng.randint(1, 3))) for _ in range(k)]
        assert cs._cone_feasible(cons) == _seeded_search(cons)[1], cons


def test_abs_locus_root_outside_a_bounded_search():
    r = Poly.var("t") * Poly.var("t~")
    assert cs._abs_locus(r - Poly.const(41)) == "|t|^2 != 41"
    assert cs._abs_locus(r.scale(13) - Poly.const(1)) == "|t|^2 != 1/13"


def test_abs_locus_reports_every_root():
    r = Poly.var("t") * Poly.var("t~")
    f = (r - Poly.const(1)) * (r - Poly.const(2))
    assert cs._abs_locus(f) == "|t| != 1 and |t|^2 != 2"


# -- the line algebra against the references it replaced -----------------------------


def _in_lines(lines, second, image):
    """Whether sum x E_r over image, whose values are nonzero, lies in the
    span of the lines: the coefficient of a line's first root w fixes the
    line's multiple, so E_w + c E_w' asks for c times it on w', and a root
    on no line for 0.  second maps each w' to its w.  l_stable's membership
    test before crstruct._reduce."""
    for r, x in image.items():
        if r in lines:
            line = lines[r]
            if line is not None and image.get(line[0], 0) != line[1] * x:
                return False
        elif second.get(r) not in image:
            return False
    return True


def _l_stable_reference(h):
    """HolomorphicSubspace.l_stable on _in_lines, with the weights of a
    line's two roots compared as vectors."""
    datum = h.datum
    sysm = datum.system
    lines = h.lines
    second = {line[0]: w for w, line in lines.items() if line}
    wts = weights(datum)
    if any(wts[w] != wts[wp] for wp, w in second.items()):
        return False
    for d in datum.ro_generators:
        for w, line in lines.items():
            image = {}
            for r, c in ((w, 1),) + ((line,) if line else ()):
                if r == sysm.neg_index[d]:
                    return False
                k = sysm.sum_index(d, r)
                if k is not None and c:
                    image[k] = c * sysm.constants.n(d, r)
            if not _in_lines(lines, second, image):
                return False
    return True


def test_l_stable_matches_in_lines_reference():
    # the certificate on _reduce is neither weaker nor stronger
    seen = set()
    for tag, dominant in SUM_FORM_TYPES:
        sysm, forms = _sum_forms(tag, dominant)
        for theta in forms:
            for h in classify.classify_datum(ct.contact_datum(sysm, theta)).structures:
                assert h.l_stable == _l_stable_reference(h), (h.label, theta.c)
                seen.add(h.l_stable)
    assert seen == {True, False}


T, S = Poly.var("t"), Poly.var("s")
# line twists, the zero twist P_ZERO of an su2 spec ["1,0,-1", "0"] among them
TWISTS = [P_ZERO, Poly.const(1), Poly.const(Gauss(0, 2)), T, T * S - Poly.const(1), Poly.var("t~", 2)]
# line multiples and perturbations: ints, as l_stable's images carry, and Polys
MULTIPLES = [0, 1, -2, Poly.const(Gauss(1, 1)), S, T - Poly.const(3)]


@st.composite
def lines_and_image(draw):
    """Lines on distinct roots of 0..9, and a nonzero image: a combination
    of the lines, sometimes moved off their span."""
    roots = draw(st.permutations(range(10)))
    lines = {}
    for _ in range(draw(st.integers(0, 4))):
        w, roots = roots[0], roots[1:]
        if draw(st.booleans()):
            lines[w] = (roots[0], draw(st.sampled_from(TWISTS)))
            roots = roots[1:]
        else:
            lines[w] = None
    image = {}
    for v in cs._line_vectors(lines):
        a = draw(st.sampled_from(MULTIPLES))
        for r, c in v.items():
            image[r] = image.get(r, 0) + a * c
    for r in draw(st.lists(st.sampled_from(range(10)), max_size=2)):
        image[r] = image.get(r, 0) + draw(st.sampled_from(MULTIPLES[1:]))
    return lines, {r: x for r, x in image.items() if x}


@given(lines_and_image())
@settings(derandomize=True, max_examples=400, deadline=None)
# a zero-twist line: its multiple leaves nothing on w', in the span or off it
@example(({0: (1, P_ZERO)}, {0: 1}))
@example(({0: (1, P_ZERO)}, {0: 1, 1: T}))
@example(({0: (1, T), 2: None}, {1: T}))
def test_reduce_membership_matches_in_lines(case):
    # _reduce works on coded twists and coefficients (scalars.MonomialCode)
    lines, image = case
    second = {line[0]: w for w, line in lines.items() if line}
    image_polys = {r: as_poly(x) for r, x in image.items()}
    code = MonomialCode([line[1] for line in lines.values() if line] + list(image_polys.values()))
    coded = {w: line and (line[0], code.encode(line[1])) for w, line in lines.items()}
    res = cs._reduce(coded, {r: code.encode(p) for r, p in image_polys.items()})
    assert (not any(any(t.values()) for t in res.values())) == _in_lines(lines, second, image)


def test_conj_matches_the_conjugate_on_rows_with_cartan_columns():
    # [x, y] with y holding -a for roots a of x has Cartan columns; conj is
    # the reference conjugate and an automorphism, conj [x, y] = [conj x, conj y]
    rng = random.Random(29)
    cartan_rows = 0
    for tag in ("A2", "B3", "G2", "A1+A2"):
        sysm = rs.parse_type(tag)
        n = len(sysm.roots)
        for _ in range(20):
            roots = rng.sample(range(n), 3)
            x = LieElement(sysm, {r: Gauss(rng.randint(-3, 3), rng.randint(1, 3)) for r in roots})
            y = LieElement(sysm, {sysm.neg_index[r]: Gauss(rng.randint(1, 3), rng.randint(-3, 3))
                                  for r in roots[:2]})
            br = x.bracket(y)
            (row,) = coordinate_rows(sysm, [br])
            cartan_rows += any(c >= n for c in row)
            got = cs._conj(row, sysm.neg_index)
            assert got == coordinate_rows(sysm, [conjugate(br)])[0], tag
            assert got == coordinate_rows(sysm, [conjugate(x).bracket(conjugate(y))])[0], tag
    assert cartan_rows > 0


def test_theta_coroots_match_the_fraction_pairing():
    # check_integrability's (theta, H_r): theta_pairings[r] * (L // int_norms[r])
    # with L the lcm of the norms is pairing(theta, r) times one positive int
    for t, theta in _golden_forms(6) + [("G2", "1,0,-1"), ("C3", "2,0,0"), ("A2+G2", "1,0,-1,1,0,-1")]:
        sysm = rs.parse_type(t)
        datum = ct.contact_datum(sysm, sysm.vector(theta.split(",")))
        big = lcm(*sysm.int_norms)
        got = [p * (big // m) for p, m in zip(datum.theta_pairings, sysm.int_norms)]
        exact = [pairing_reference(sysm, datum.theta, r) for r in sysm.roots]
        factors = {x / y for x, y in zip(got, exact) if y}
        assert len(factors) == 1 and factors.pop() > 0, (t, theta)
        assert all((x == 0) == (y == 0) for x, y in zip(got, exact)), (t, theta)


def _fraction_kappa(datum, hw, partner, steps):
    """crstruct._propagate's twist coefficients as products of Fractions
    n2/n1, from a walk over the roots steps of R_o, each step asserted
    consistent with every path before it; returned as Gauss values."""
    sysm = datum.system
    weights = datum.modules[hw].weights
    kappa = {hw: (partner, Q(1))}
    frontier = [hw]
    while frontier:
        w = frontier.pop()
        wp, kw = kappa[w]
        for d in steps:
            w2 = sysm.sum_index(w, d)
            if w2 is None or w2 not in weights:
                continue
            step = (sysm.sum_index(wp, d), kw * Q(sysm.constants.n(d, wp), sysm.constants.n(d, w)))
            assert step[0] is not None
            if w2 not in kappa:
                frontier.append(w2)
            assert kappa.setdefault(w2, step) == step
    assert set(kappa) == weights
    return {w: (wp, Gauss(k)) for w, (wp, k) in kappa.items()}


def _route_pairs():
    """(tag, theta, datum, pair) for every twisted pair the routes build
    over the dominant sum forms of rank <= 6."""
    from test_congruence import _dominant_sum_forms

    tags = [f"{t}{r}" for t, r in classify.simple_types(6)]
    tags += [f"A{p}+A{q}" for p, q in classify.product_types(6)]
    for tag in tags:
        sysm = rs.parse_type(tag)
        for theta in _dominant_sum_forms(tag):
            F = classify.classify_datum(ct.contact_datum(sysm, theta))
            for h in F.structures + tuple(x for x in (F.chart, F.fibered) if x is not None):
                for pair in h.pairs:
                    yield tag, theta.c, h.datum, pair


def test_propagation_by_generators_matches_all_of_ro():
    # the simple steps of R_o give kappa of the walk over all of R_o on every
    # twisted pair the routes build over the sum forms of rank <= 6
    count = 0
    for tag, theta, datum, pair in _route_pairs():
        assert cs._propagate(datum, pair.hw, pair.partner) \
            == _fraction_kappa(datum, pair.hw, pair.partner, datum.Ro.members), (tag, theta)
        count += 1
    assert count > 0


def test_propagate_matches_the_fraction_kappa():
    # kappa stepped in Gauss values from ONE equals the Fraction products
    # Fraction(n2, n1) of the same walk over ro_generators, value for value
    pairs = list(_route_pairs())
    for tag, theta, datum, pair in pairs:
        got = cs._propagate(datum, pair.hw, pair.partner)
        assert all(type(k) is Gauss for _, k in got.values())
        assert got == _fraction_kappa(datum, pair.hw, pair.partner, datum.ro_generators), (tag, theta)
    assert len({(tag, theta) for tag, theta, _, _ in pairs}) > 20


def _at_with_conj(h, values):
    """The lines at values as evaluated at values completed by formal
    conjugates (_with_conj), to None where a twist is 0."""
    vals = cs._with_conj(values)
    lines = {w: line and (line[0], line[1].eval(vals)) for w, line in h.lines.items()}
    return {w: line if line and line[1] else None for w, line in lines.items()}


@pytest.mark.parametrize("tag", [f"{t}{r}" for t, r in classify.simple_types(5)])
def test_line_twists_are_holomorphic(tag):
    # on every subspace the routes build over the dominant classes of
    # R u (R +- R), no twist names a conjugate, so evaluating the lines
    # needs no conjugate values, and disjointness completes its own
    from test_congruence import _dominant_sum_forms

    sysm = rs.parse_type(tag)
    subspaces = set()
    for theta in _dominant_sum_forms(tag) + list({sysm.dominant(x) for x in sysm.roots}):
        F = classify.classify_datum(ct.contact_datum(sysm, theta))
        subspaces.update(F.structures)
        subspaces.update(x for x in (F.primitive, F.fibered, F.chart) if x is not None)
    for h in subspaces:
        assert not any(p.endswith("~") for p in h.parameters()), h.label
        for j in (0, 1):
            vals = classify._sample_values(h, j)
            assert h.at(vals) == _at_with_conj(h, vals), (h.label, j)
            disjoint = _outcome(lambda: cs.check_disjointness(h).holds_at(vals))
            assert disjoint == _outcome(
                lambda: cs.check_disjointness(h).holds_at(cs._with_conj(vals))), (h.label, j)
    assert any(h.parameters() for h in subspaces) or tag == "G2"
