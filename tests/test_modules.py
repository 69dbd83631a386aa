from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from crlie import contact as ct
from crlie import modules as md
from crlie import rootsys as rs
from crlie.rootsys import format_vector
from test_congruence import theta_congruent


def datum(tag, theta):
    s = rs.parse_type(tag)
    return ct.contact_datum(s, s.vector(theta))


def hw_names(groups, system):
    return sorted(
        tuple(sorted(format_vector(system.roots[m.highest]) for m in g)) for g in groups
    )


# Helpers only these tests use: the shape of a dual pair, and the paper's
# R_Q / R_P partition with its closure flags.


def is_closed(sys, members) -> bool:
    """Every sum of two members that is a root is a member."""
    return all(sys.sum_index(i, j) in members | {None} for i in members for j in members)


def dual_pair_shape(datum, pair) -> str:
    """Type of the rank-2 subsystem spanned by a dual pair."""
    sys = datum.system
    a, b = pair
    return sys.closed_span([sys.roots[a], sys.roots[b]]).type_str()


@dataclass(frozen=True)
class PartitionResult:
    RQ: frozenset
    RP: frozenset
    RJ_plus: frozenset
    RJ_minus: frozenset
    tilde_Ro: frozenset
    Rprime_o: frozenset
    rq_closed: bool
    rp_closed: bool
    rp_parabolic: bool
    orthogonal_split: bool


def partition_sets(datum, re_roots) -> PartitionResult:
    """The R_Q / R_P partition of a candidate with its closure flags.

    R_J is split into positive and negative halves by the ambient ordering,
    which agrees with a nilradical-compatible ordering for all classified
    configurations.
    """
    sys = datum.system
    rj = frozenset(datum.Rprime) - re_roots
    rj_plus = frozenset(i for i in rj if sys.positive[i])
    rj_minus = rj - rj_plus
    ro = frozenset(datum.Ro.members)
    rq = ro | re_roots
    rp = rq | rj_plus
    closure = (sys.closed_span([sys.roots[i] for i in re_roots]) if re_roots
               else rs.Subsystem(sys, frozenset()))
    tilde_ro = frozenset(closure.members) & ro
    rprime_o = ro - tilde_ro
    orth = all(
        sys.inner(sys.roots[i], sys.roots[j]) == 0
        for i in rprime_o
        for j in closure.members
    )
    return PartitionResult(
        RQ=rq,
        RP=rp,
        RJ_plus=rj_plus,
        RJ_minus=rj_minus,
        tilde_Ro=tilde_ro,
        Rprime_o=rprime_o,
        rq_closed=is_closed(sys, rq),
        rp_closed=is_closed(sys, rp),
        rp_parabolic=all(
            i in rp or sys.neg_index[i] in rp for i in range(len(sys.roots))
        ),
        orthogonal_split=orth,
    )


def s_set(datum, pair, rj_plus) -> frozenset:
    """R_o together with the R_o-strings through alpha and -alpha' and R_J+."""
    sys = datum.system
    a, b = pair
    ro = frozenset(datum.Ro.members)
    out = set(ro) | set(rj_plus)
    for seed in (a, sys.neg_index[b]):
        out.add(seed)
        for d in ro:
            k = sys.sum_index(seed, d)
            if k is not None:
                out.add(k)
    return frozenset(out)


def test_decompose_b_series():
    d = datum("B4", [1, 0, 0, 0])
    mods = md.decompose(d)
    assert len(mods) == 2
    assert {format_vector(d.system.roots[m.highest]) for m in mods} == {"e1+e2", "-e1+e2"}
    assert all(len(m) == 7 for m in mods)  # 2(l-1)+1 weights at l = 4
    # modules partition R'
    union = set()
    for m in mods:
        assert not (union & m.weights)
        union |= m.weights
    assert union == set(d.Rprime)


def test_decompose_f4_and_groups():
    d = datum("F4", [1, 0, 0, 0])
    groups = hw_names(md.congruence_groups(d), d.system)
    assert groups == [
        ("(-e1+e2+e3+e4)/2", "(e1+e2+e3+e4)/2"),
        ("-e1+e2", "e1+e2"),
    ]


def test_decompose_table3_rows():
    d = datum("B3", [1, 1, 1])
    groups = hw_names(md.congruence_groups(d), d.system)
    assert groups == [("-e2-e3", "e1"), ("-e3", "e1+e2")]
    d = datum("D5", [1, 0, 0, 0, 0])
    groups = hw_names(md.congruence_groups(d), d.system)
    assert groups == [("-e1+e2", "e1+e2")]


def test_g2_multiplicity_four():
    d = datum("G2", [1, 0, 0])
    groups = md.congruence_groups(d)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [2, 4]
    with pytest.raises(md.CongruenceError):
        md.dual_pairs(d)


def test_theta_congruent():
    d = datum("B4", [1, 0, 0, 0])
    s = d.system
    lam = theta_congruent(d, s.vector([1, 1, 0, 0]), s.vector([-1, 1, 0, 0]))
    assert lam == -2
    assert theta_congruent(d, s.vector([1, 1, 0, 0]), s.vector([1, 1, 0, 0])) is None
    assert theta_congruent(d, s.vector([1, 1, 0, 0]), s.vector([1, 0, 1, 0])) is None
    dc = datum("C4", [1, 1, 0, 0])
    lam = theta_congruent(dc, dc.system.vector([2, 0, 0, 0]), dc.system.vector([0, -2, 0, 0]))
    assert lam == -2


def test_dual_pairs_b3():
    d = datum("B3", [1, 1, 1])
    cd = md.dual_pairs(d)
    s = d.system
    pos_pairs = {
        tuple(sorted((format_vector(s.roots[a]), format_vector(s.roots[b]))))
        for a, b in cd.pairs
    }
    for pair in [("-e3", "e1+e2"), ("-e1", "e2+e3"), ("-e2", "e1+e3")]:
        assert tuple(sorted(pair)) in pos_pairs
    # uniqueness: every root is in at most one pair
    seen = {}
    for a, b in cd.pairs:
        for x in (a, b):
            assert x not in seen
            seen[x] = True
    # symmetry under negation
    rootpairs = {frozenset(p) for p in cd.pairs}
    for a, b in cd.pairs:
        assert frozenset((s.neg_index[a], s.neg_index[b])) in rootpairs


def test_dual_pairs_d_series_and_product():
    d = datum("D5", [2, 0, 0, 0, 0])
    cd = md.dual_pairs(d)
    s = d.system
    for a, b in cd.pairs:
        diff = s.roots[a] - s.roots[b]
        assert diff == s.vector([2, 0, 0, 0, 0]) or diff == s.vector([-2, 0, 0, 0, 0])
    assert len(cd.pairs) == 8  # (e1+-e_i, e1-+e_i), i = 2..5, both signs
    prod = rs.build_product([("A", 2), ("A", 2)])
    theta = prod.vector([1, -1, 0, -1, 1, 0])
    dp = ct.contact_datum(prod, theta)
    cd = md.dual_pairs(dp)
    assert len(cd.pairs) == 2  # (mu1, mu2-shifted) and its negative


def test_dual_pairs_uniqueness_all_table_rows():
    rows = [
        ("B2", [1, 0]), ("B3", [1, 0, 0]), ("B5", [1, 0, 0, 0, 0]),
        ("C3", [1, 1, 0]), ("C5", [1, 1, 0, 0, 0]), ("F4", [1, 0, 0, 0]),
        ("B3", [1, 1, 1]), ("D4", [1, 0, 0, 0]), ("D6", [1, 0, 0, 0, 0, 0]),
    ]
    for tag, theta in rows:
        d = datum(tag, theta)
        cd = md.dual_pairs(d)
        seen = set()
        for a, b in cd.pairs:
            assert a not in seen and b not in seen
            seen.update((a, b))


def test_dual_pair_shape():
    d = datum("D4", [2, 0, 0, 0])
    s = d.system
    pair = (s.root_index(s.vector([1, 1, 0, 0])), s.root_index(s.vector([1, -1, 0, 0])))
    assert dual_pair_shape(d, pair) == "A1+A1"
    # the excluded rank-2 shapes
    b2 = rs.build("B2")
    db = ct.contact_datum(b2, b2.vector([1, 1]))  # theta = e1 - (-e1+e2) + ... ad hoc
    db = ct.contact_datum(b2, b2.vector([2, -1]))
    pair = (b2.root_index(b2.vector([1, 0])), b2.root_index(b2.vector([-1, 1])))
    assert dual_pair_shape(db, pair) == "B2"
    a2 = rs.build("A2")
    da = ct.contact_datum(a2, a2.vector([1, -2, 1]))
    pair = (a2.root_index(a2.vector([1, 0, -1])), a2.root_index(a2.vector([0, 1, -1])))
    assert dual_pair_shape(da, pair) == "A2"


def test_tilde_re_accepts_d_and_b3():
    d = datum("D5", [1, 0, 0, 0, 0])
    cd = md.dual_pairs(d)
    v = md.tilde_Re_type(cd, cd.paired_roots)
    assert v.accepted and v.re_type == "D5"
    d = datum("B3", [1, 1, 1])
    cd = md.dual_pairs(d)
    v = md.tilde_Re_type(cd, cd.paired_roots)
    assert v.accepted and v.re_type == "B3"
    prod = rs.build_product([("A", 1), ("A", 1)])
    dp = ct.contact_datum(prod, prod.vector([1, -1, -1, 1]))
    cd = md.dual_pairs(dp)
    v = md.tilde_Re_type(cd, cd.paired_roots)
    assert v.accepted and v.re_type == "A1+A1"


def test_tilde_re_rejects_c_series():
    # candidate pair (e1+e2, -(e3+e4)) inside C4: closure has type C4
    for tag in ("C4", "C5", "C6"):
        d = datum(tag, [1, 1, 1, 1] + [0] * (int(tag[1]) - 4))
        cd = md.dual_pairs(d)
        v = md.tilde_Re_type(cd, cd.paired_roots)
        assert not v.accepted
    # candidate pair (e1+e2, -2e3): the paired set is not string closed
    d = datum("C4", [1, 1, 2, 0])
    cd = md.dual_pairs(d)
    v = md.tilde_Re_type(cd, cd.paired_roots)
    assert not v.accepted


def test_tilde_re_rejects_f4():
    d = datum("F4", [1, 1, 1, 0])
    cd = md.dual_pairs(d)
    v = md.tilde_Re_type(cd, cd.paired_roots)
    assert not v.accepted
    # non-orthogonal half-root pairs are part of the obstruction
    s = d.system
    half = s.vector([Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2)])
    partner = s.vector([Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)])
    assert theta_congruent(d, half, partner) is not None
    assert s.inner(half, partner) != 0


def test_tilde_re_rejects_e_type_wholesale():
    # a candidate set whose span closure is all of E6 cannot match
    e6 = rs.build("E6")
    d = ct.contact_datum(e6, e6.vector([1, -1, 0, 0, 0, 0, 1]))
    all_roots = frozenset(range(len(e6.roots)))
    v = md.tilde_Re_type(md.dual_pairs(d), frozenset(d.Rprime))
    assert not v.accepted


def test_e_series_candidates_never_close_to_e_type():
    # The orthogonal-pair contact forms inside the E series either span a
    # proper D-type subsystem (E6, E7: the candidates survive to the graph
    # stage) or, in E8, alias through the relation basis so that the pairs
    # span the full rank and the closure computes to type E8, which the
    # matcher rejects.
    from crlie.linalg import SpanSolver

    cases = [
        ("E6", [-1, 1, 0, 1, 1, 1, 1], 5, True, "D5"),
        ("E6", [0, 0, 0, 1, 0, 2, 1], 5, True, "D5"),
        ("E7", [-1, 1, 0, 0, 1, 1, 1, 1], 6, True, "D6"),
        ("E7", [0, 0, 0, 0, 1, 0, 2, 1], 6, True, "D6"),
        ("E8", [-1, 1, 0, 0, 0, 1, 1, 1, 0], 8, False, "E8"),
        ("E8", [0, 0, 0, 0, 0, 1, 0, 2, 0], 8, False, "E8"),
    ]
    for tag, theta, expected_dim, accepted, re_type in cases:
        d = datum(tag, theta)
        cd = md.dual_pairs(d)
        vecs = [d.system.roots[i].canon() for i in cd.paired_roots]
        assert SpanSolver(vecs).dim() == expected_dim
        v = md.tilde_Re_type(cd, cd.paired_roots)
        assert v.accepted is accepted
        assert v.re_type == re_type


def test_tilde_re_string_closure_by_generators_matches_all_of_ro():
    # the closure test walks the simple steps of R_o; the verdict is the one
    # a walk over all of R_o gives, on every dominant class of R u (R +- R)
    # of rank <= 8, for the paired roots and for each dual pair alone
    from crlie.classify import simple_types
    from test_congruence import _dominant_sum_forms

    early = {"no paired roots", "candidate contains unpaired roots", "dual pair does not span A1+A1"}
    seen = set()
    for t, r in simple_types(8):
        s = rs.build(t, r)
        for theta in _dominant_sum_forms(f"{t}{r}") + list({s.dominant(x) for x in s.roots}):
            d = ct.contact_datum(s, theta)
            try:
                cd = md.dual_pairs(d)
            except md.CongruenceError:
                continue
            for re in [cd.paired_roots] + [frozenset(p) for p in cd.pairs]:
                v = md.tilde_Re_type(cd, re)
                if v.reason in early:
                    continue  # decided before the closure test
                closed = all(s.sum_index(i, j) in re | {None} for i in re for j in d.Ro.members)
                assert (v.reason != "paired set is not closed under R_o strings") == closed
                seen.add(closed)
    assert seen == {True, False}


def test_partition_sets_lemma_closures():
    d = datum("D5", [2, 0, 0, 0, 0])
    cd = md.dual_pairs(d)
    part = partition_sets(d, cd.paired_roots)
    assert part.rq_closed and part.rp_closed and part.rp_parabolic
    assert part.orthogonal_split
    assert part.RJ_plus == frozenset() and part.RJ_minus == frozenset()
    # composite case: the type IV contact form on D5
    d = datum("D5", [0, 1, 1, 1, 1])
    cd = md.dual_pairs(d)
    part = partition_sets(d, cd.paired_roots)
    assert part.rq_closed and part.rp_closed and part.rp_parabolic
    assert part.orthogonal_split
    assert len(part.RJ_plus) == len(part.RJ_minus) > 0
    s = d.system
    # closure of the half-sided sets against the symmetric parts
    ro = frozenset(d.Ro.members)
    re = cd.paired_roots
    for i in part.RJ_plus:
        for j in ro:
            k = s.sum_index(i, j)
            if k is not None:
                assert k in part.RJ_plus
        for j in re:
            k = s.sum_index(i, j)
            if k is not None:
                assert k in part.RJ_plus or k in re or k in ro
    # S(alpha, alpha') is closed and parabolic
    pair = next(p for p in cd.pairs if s.positive[p[0]] or s.positive[p[1]])
    sset = s_set(d, pair, part.RJ_plus)
    assert is_closed(s, sset)
    assert all(i in sset or s.neg_index[i] in sset for i in range(len(s.roots)))


def test_decompose_partitions_all_table_rows():
    rows = [("B", r, [1] + [0] * (r - 1)) for r in range(2, 9)]
    rows += [("C", r, [1, 1] + [0] * (r - 2)) for r in range(3, 9)]
    rows += [("F", 4, [1, 0, 0, 0]), ("G", 2, [1, 0, 0]), ("B", 3, [1, 1, 1])]
    rows += [("D", r, [1] + [0] * (r - 1)) for r in range(3, 9)]
    for t, r, theta in rows:
        s = rs.build(t, r)
        d = ct.contact_datum(s, s.vector(theta))
        mods = md.decompose(d)
        union = set()
        highs = set()
        for m in mods:
            assert not (union & m.weights)
            union |= m.weights
            assert m.highest not in highs
            highs.add(m.highest)
        assert union == set(d.Rprime)


CLASSIFIED_DATA = [
    ("B4", [1, 0, 0, 0]),
    ("C4", [1, 1, 0, 0]),
    ("F4", [1, 0, 0, 0]),
    ("B3", [1, 1, 1]),
    ("D5", [1, 0, 0, 0, 0]),
    ("D5", [0, 1, 1, 1, 1]),          # type IV composite
    ("A4", [1, 1, -1, -1, 0]),        # type III composite
    ("E6", [2, 0, 0, 0, 0, 1, 1]),    # type V composite
]


@pytest.mark.parametrize("tag,theta", CLASSIFIED_DATA)
def test_classified_closure_properties(tag, theta):
    # for every classified configuration: the one-sided part is string
    # closed against R_o, and sums with the paired part never leave
    # (one-sided) + (paired) + R_o
    d = datum(tag, theta)
    s = d.system
    cd = md.dual_pairs(d)
    re = cd.paired_roots
    part = partition_sets(d, re)
    assert part.rq_closed and part.rp_closed and part.rp_parabolic
    assert part.orthogonal_split
    ro = frozenset(d.Ro.members)
    for sign_set in (part.RJ_plus, part.RJ_minus):
        for i in sign_set:
            for j in ro:
                k = s.sum_index(i, j)
                if k is not None:
                    assert k in sign_set
            for j in re:
                k = s.sum_index(i, j)
                if k is not None:
                    assert k in sign_set or k in re or k in ro
    # paired part closed under R_o strings
    for i in re:
        for j in ro:
            k = s.sum_index(i, j)
            if k is not None:
                assert k in re


def test_twist_propagation_is_path_independent():
    from crlie.crstruct import _propagate

    cases = [
        ("B4", [1, 0, 0, 0], [1, 1, 0, 0], [-1, 1, 0, 0]),
        ("F4", [1, 0, 0, 0], [1, 1, 0, 0], [-1, 1, 0, 0]),
        ("D5", [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [-1, 1, 0, 0, 0]),
    ]
    for tag, theta, hw, partner in cases:
        d = datum(tag, theta)
        s = d.system
        kappa = _propagate(d, s.root_index(s.vector(hw)), s.root_index(s.vector(partner)))
        mods = {m.highest: m for m in md.decompose(d)}
        assert set(kappa) == set(mods[s.root_index(s.vector(hw))].weights)
        # full edge consistency, not just the spanning tree
        tab = s.constants
        for w, (wp, kw) in kappa.items():
            for dlt in d.Ro.members:
                w2 = s.sum_index(w, dlt)
                if w2 is None or w2 not in kappa:
                    continue
                wp2, kw2 = kappa[w2]
                n1, n2 = tab.n(dlt, w), tab.n(dlt, wp)
                assert s.sum_index(wp, dlt) == wp2
                assert kw2 * n1 == kw * n2
