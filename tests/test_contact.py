from fractions import Fraction as Q

import pytest

from crlie import contact as ct
from crlie import rootsys as rs
from crlie.rootsys import format_vector


def bracket_compatible(g) -> bool:
    """Levels add: the sum of roots at levels k and l, if a root, is at k + l."""
    lv = {i: k for k, members in g.levels.items() for i in members}
    for i in lv:
        for j in lv:
            k = g.system.sum_index(i, j)
            if k is not None and lv[k] != lv[i] + lv[j]:
                return False
    return True


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
    g = ct.grade_by_highest_root(s)
    ro_type, r1, summands = GRADATION_TABLE[tag]
    sub = rs.Subsystem(s, g.level(0))
    assert sub.type_str() == ro_type
    assert len(g.level(1)) == r1
    assert len(g.level(2)) == 1
    assert len(g.summands(1)) == summands
    assert bracket_compatible(g)
    # conjugation symmetry of levels
    for k in g.levels:
        assert g.level(-k) == frozenset(s.neg_index[i] for i in g.level(k))


def test_a_type_half_level_relations():
    # the two level-one pieces: [g1_i, g1_i] = 0 and [g1_1, g1_2] = g2
    for tag in ("A3", "A4", "A5"):
        s = rs.parse_type(tag)
        g = ct.grade_by_highest_root(s)
        c1, c2 = g.summands(1)
        mu_idx = s.root_index(g.center)
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
    g2 = rs.build("G2")
    g = ct.grade_by_short_root_g2(g2)
    assert format_vector(g.center) == "e1"
    dims = {k: len(v) for k, v in g.levels.items()}
    assert dims == {-3: 2, -2: 1, -1: 2, 0: 2, 1: 2, 2: 1, 3: 2}
    assert bracket_compatible(g)
    # level-0 strings form the A1 part
    assert rs.Subsystem(g2, g.level(0)).type_str() == "A1"
    # total dimension check: 12 roots + 2 Cartan = dim G2
    assert sum(dims.values()) + 2 == 14
    with pytest.raises(ct.ContactError):
        ct.grade_by_short_root_g2(rs.build("B2"))


@pytest.mark.parametrize("tag", ["A2", "A4", "B3", "B4", "C3", "C4", "D4", "D5",
                                 "E6", "E7", "E8", "F4"])
def test_special_roots_long_only(tag):
    s = rs.parse_type(tag)
    sp = ct.special_roots(s)
    norms = sorted({s.norm2(i) for i in range(len(s.roots))})
    assert len(sp) == 1
    assert s.inner(sp[0], sp[0]) == norms[-1]


def test_special_roots_g2_both():
    g2 = rs.build("G2")
    sp = ct.special_roots(g2)
    assert len(sp) == 2
    assert {g2.inner(a, a) for a in sp} == {Q(2), Q(2, 3)}


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
        assert [r.stabilizer_type() for r in ct.classify_special(s)] == expect
    # condition (4): no orthogonal root adds to a special root
    b3 = rs.build("B3")
    alpha = ct.special_roots(b3)[0]
    for beta in b3.roots:
        if b3.inner(alpha, beta) == 0:
            assert not b3.is_root(alpha + beta)
            assert not b3.is_root(alpha - beta)
