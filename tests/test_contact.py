from fractions import Fraction as Q

import pytest

from crlie import contact as ct
from crlie import families as fam
from crlie import rootsys as rs
from crlie.classify import simple_types
from crlie.rootsys import format_vector
from test_rootsys import pairing_reference


def levels(d) -> dict[int, frozenset[int]]:
    """The roots of a datum by level: level k holds the roots that pair k
    with theta, 2 (r, theta) / (theta, theta)."""
    s = d.system
    out: dict[int, set[int]] = {}
    for i, r in enumerate(s.roots):
        v = pairing_reference(s, r, d.theta)
        assert v.denominator == 1
        out.setdefault(int(v), set()).add(i)
    return {k: frozenset(v) for k, v in out.items()}


def bracket_compatible(s, lv) -> bool:
    """Levels add: the sum of roots at levels k and l, if a root, is at k + l."""
    level_of = {i: k for k, members in lv.items() for i in members}
    for i in level_of:
        for j in level_of:
            k = s.sum_index(i, j)
            if k is not None and level_of[k] != level_of[i] + level_of[j]:
                return False
    return True


def level_one_summands(d, lv) -> list[frozenset[int]]:
    """The modules of the datum whose highest weight is at level 1."""
    return [m.weights for hw, m in d.modules.items() if hw in lv[1]]


def test_contact_datum_validation():
    b3 = rs.build("B3")
    with pytest.raises(ct.ContactError):
        ct.contact_datum(b3, b3.vector([0, 0, 0]))
    e6 = rs.build("E6")
    # the auxiliary direction alone lies in the root span (it is mu/2)
    d = ct.contact_datum(e6, e6.vector([0] * 6 + [1]))
    assert d.Ro.type_str() == "A5"


def test_centralizer_types():
    cases = [
        ("B4", [1, 0, 0, 0], "B3"),
        ("C4", [1, 1, 0, 0], "A1+B2"),
        ("C5", [1, 1, 0, 0, 0], "A1+C3"),
        ("F4", [1, 0, 0, 0], "B3"),
        ("G2", [1, 0, 0], "A1"),
        ("B3", [1, 1, 1], "A2"),
        ("D5", [1, 0, 0, 0, 0], "D4"),
    ]
    for tag, theta, expect in cases:
        s = rs.parse_type(tag)
        d = ct.contact_datum(s, s.vector(theta))
        assert d.Ro.type_str() == expect, tag
    a1 = rs.build("A1")
    d = ct.contact_datum(a1, a1.vector([1, -1]))
    assert len(d.Ro) == 0


GRADATION_TABLE = {
    # type: (Ro type, |R1|, summands)
    "A5": ("A3", 8, 2),
    "B5": ("A1+B3", 14, 1),
    "C5": ("C4", 8, 1),
    "D5": ("A1+A3", 12, 1),
    "E6": ("A5", 20, 1),
    "E7": ("D6", 32, 1),
    "E8": ("E7", 56, 1),
    "F4": ("C3", 14, 1),
    "G2": ("A1", 4, 1),
}


@pytest.mark.parametrize("tag", sorted(GRADATION_TABLE))
def test_highest_root_gradation(tag):
    s = rs.parse_type(tag)
    d = ct.grade_by_highest_root(s)
    assert d.theta == s.highest_root()
    lv = levels(d)
    ro_type, r1, summands = GRADATION_TABLE[tag]
    assert lv[0] == d.Ro.members
    assert rs.Subsystem(s, lv[0]).type_str() == ro_type
    assert len(lv[1]) == r1
    assert len(lv[2]) == 1
    assert len(level_one_summands(d, lv)) == summands
    assert frozenset().union(*level_one_summands(d, lv)) == lv[1]
    assert bracket_compatible(s, lv)
    # conjugation symmetry of levels
    for k in lv:
        assert lv[-k] == frozenset(s.neg_index[i] for i in lv[k])


def test_a_type_half_level_relations():
    # the two level-one pieces: [g1_i, g1_i] = 0 and [g1_1, g1_2] = g2
    for tag in ("A3", "A4", "A5"):
        s = rs.parse_type(tag)
        d = ct.grade_by_highest_root(s)
        c1, c2 = level_one_summands(d, levels(d))
        mu_idx = s.root_index(d.theta)
        for comp in (c1, c2):
            for i in comp:
                for j in comp:
                    assert s.sum_index(i, j) is None
        sums = {s.sum_index(i, j) for i in c1 for j in c2} - {None}
        assert sums == {mu_idx}
        # [g1_i, g_-2] lands in the mirror piece
        neg_mu = s.neg_index[mu_idx]
        img = {s.sum_index(i, neg_mu) for i in c1} - {None}
        assert img and img <= {s.neg_index[j] for j in c2}


def test_g2_short_root_gradation():
    # the datum of G2's short-root route, graded by its dominant short root
    g2 = rs.build("G2")
    short = min(range(len(g2.roots)), key=g2.norm2)
    d = fam.short_root_families(ct.contact_datum(g2, g2.dominant(g2.roots[short]))).datum
    assert format_vector(d.theta) == "e1"
    lv = levels(d)
    dims = {k: len(v) for k, v in lv.items()}
    assert dims == {-3: 2, -2: 1, -1: 2, 0: 2, 1: 2, 2: 1, 3: 2}
    assert bracket_compatible(g2, lv)
    # level-0 strings form the A1 part
    assert lv[0] == d.Ro.members
    assert rs.Subsystem(g2, lv[0]).type_str() == "A1"
    # total dimension check: 12 roots + 2 Cartan = dim G2
    assert sum(dims.values()) + 2 == 14


@pytest.mark.parametrize("tag", ["A2", "A4", "B3", "B4", "C3", "C4", "D4", "D5",
                                 "E6", "E7", "E8", "F4"])
def test_special_roots_long_only(tag):
    s = rs.parse_type(tag)
    special = ct.classify_special(s)
    norms = sorted({s.norm2(i) for i in range(len(s.roots))})
    assert [length for _, length in special] == ["long"]
    sp = [d.theta for d, _ in special]
    assert s.inner(sp[0], sp[0]) == norms[-1]


def test_special_roots_g2_both():
    g2 = rs.build("G2")
    special = ct.classify_special(g2)
    assert [length for _, length in special] == ["long", "short"]
    assert [g2.inner(d.theta, d.theta) for d, _ in special] == [Q(2), Q(2, 3)]


def _special_roots_reference(system):
    """The dominant root of each length whose orthogonal roots are all
    strongly orthogonal to it, long first, tested on the first root of
    that length against every root."""
    reps, ok = {}, {}
    for i, alpha in enumerate(system.roots):
        n = system.norm2(i)
        if n in ok:
            continue
        ok[n] = all(system.strongly_orthogonal(i, j) for j, beta in enumerate(system.roots)
                    if system.inner(alpha, beta) == 0)
        if ok[n]:
            reps[n] = system.dominant(alpha)
    return [reps[n] for n in sorted(reps, reverse=True)]


@pytest.mark.parametrize("t,r", simple_types(8))
def test_classify_special_matches_reference(t, r):
    """classify_special reads the special roots and their stabilizers off
    each datum's R_o; the reference scans every root, and the stabilizer
    is the set of roots strongly orthogonal to alpha."""
    s = rs.build(t, r)
    special = ct.classify_special(s)
    assert [d.theta for d, _ in special] == _special_roots_reference(s)
    for d, _ in special:
        i = s.root_index(d.theta)
        assert d.Ro.members == {j for j in range(len(s.roots)) if s.strongly_orthogonal(i, j)}


def test_classify_special_stabilizers():
    cases = {
        "A2": ["0"],
        "A4": ["A2"],
        "B3": ["A1+A1"],
        "C3": ["B2"],
        "D4": ["A1+A1+A1"],
        "F4": ["C3"],
        "G2": ["A1", "A1"],
    }
    for tag, expect in cases.items():
        s = rs.parse_type(tag)
        assert [d.Ro.type_str() for d, _ in ct.classify_special(s)] == expect
    # condition (4): no orthogonal root adds to a special root
    b3 = rs.build("B3")
    alpha = ct.classify_special(b3)[0][0].theta
    for beta in b3.roots:
        if b3.inner(alpha, beta) == 0:
            assert not b3.is_root(alpha + beta)
            assert not b3.is_root(alpha - beta)
