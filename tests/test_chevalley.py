import itertools
from fractions import Fraction as Q
from math import lcm

import pytest

from crlie import chevalley as ch
from crlie import rootsys as rs
from crlie.classify import simple_types
from crlie.linalg import SpanSolver
from crlie.scalars import Gauss, Poly
from test_crstruct import conjugate, form_row, lie_eval, root_vector

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D3", "D4",
             "G2", "F4"]


def test_root_string_examples():
    a2 = rs.build("A2")
    assert ch.root_string(a2, a2.vector([1, -1, 0]), a2.vector([0, 1, -1])) == (0, 1)
    prod = rs.build_product([("A", 1), ("A", 1)])
    assert ch.root_string(prod, prod.simple_roots[0], prod.simple_roots[1]) == (0, 0)
    g2 = rs.build("G2")
    assert ch.root_string(g2, g2.vector([0, -1, 0]), g2.vector([0, 1, -1])) == (0, 3)
    with pytest.raises(ch.ChevalleyError):
        ch.root_string(a2, a2.roots[0], a2.roots[0])


@pytest.mark.parametrize("tag", RANK_LE_4)
def test_magnitude_and_antisymmetry(tag):
    s = rs.parse_type(tag)
    tab = s.constants
    n = len(s.roots)
    for i in range(n):
        for j in range(n):
            k = s.sum_index(i, j)
            if k is None:
                if j != s.neg_index[i]:
                    assert tab.n(i, j) == 0
                continue
            N = tab.n(i, j)
            p, _ = ch.root_string(s, s.roots[i], s.roots[j])
            assert abs(N) == p + 1
            assert tab.n(j, i) == -N


@pytest.mark.parametrize("tag", RANK_LE_4)
def test_jacobi_exhaustive(tag):
    s = rs.parse_type(tag)
    basis = [root_vector(s, r) for r in s.roots]
    basis += [ch.LieElement.coroot(s, a) for a in s.simple_roots]
    for x, y, z in itertools.combinations(basis, 3):
        j = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
        assert j.is_zero()


def test_coroot_action():
    b2 = rs.build("B2")
    a = b2.vector([1, 0])
    Ha = ch.LieElement.coroot(b2, a)
    Ea = root_vector(b2, a)
    assert Ha.bracket(Ea) == Ea.scale(2)
    Eb = root_vector(b2, b2.vector([1, 1]))
    assert Ha.bracket(Eb) == Eb.scale(2)
    # orthogonal root commutes with the coroot
    prod = rs.build_product([("A", 1), ("A", 1)])
    H1 = ch.LieElement.coroot(prod, prod.simple_roots[0])
    E2 = root_vector(prod, prod.simple_roots[1])
    assert H1.bracket(E2).is_zero()


def fraction_coroot(s, i):
    """The coroot H_a = 2a/(a, a) of root i = a, as (simple index, Fraction
    coordinate) for its nonzero coordinates."""
    return [(k, 2 * x / s.norm2(i)) for k, x in enumerate(s.expansions[i]) if x]


@pytest.mark.parametrize("tag", RANK_LE_4 + ["A1+A1"])
def test_coroot_terms_are_the_scaled_fraction_coroot(tag):
    # coroot_terms is H_a in ints, times the one constant M/(2 gden) of the
    # system; LieElement.bracket divides it out again
    s = rs.parse_type(tag)
    tab = s.constants
    scale = Q(tab.coroot_scale, 2 * s.gden)
    assert tab.coroot_scale == lcm(*s.int_norms)
    for i, a in enumerate(s.roots):
        got = tab.coroot_terms(i)
        assert all(type(t) is int for _, t in got)
        assert [(k, Q(t)) for k, t in got] == [(k, x * scale) for k, x in fraction_coroot(s, i)]
        ea, e_a = root_vector(s, a), root_vector(s, s.roots[s.neg_index[i]])
        assert ea.bracket(e_a).h == {k: Gauss(x) for k, x in fraction_coroot(s, i)}


def structure_const(system, alpha, beta):
    """N(alpha, beta) for two roots whose sum is a root."""
    ia, ib = system.root_index(alpha), system.root_index(beta)
    if ia is None or ib is None:
        raise ch.ChevalleyError("structure_const arguments must be roots")
    if system.sum_index(ia, ib) is None:
        raise ch.ChevalleyError("alpha + beta is not a root")
    return system.constants.n(ia, ib)


def test_structure_const_magnitudes():
    b2 = rs.build("B2")
    # short + short = long passes through a two-step string: |N| = 2
    assert abs(structure_const(b2, b2.vector([1, 0]), b2.vector([0, 1]))) == 2
    assert abs(structure_const(b2, b2.vector([0, 1]), b2.vector([1, -1]))) == 1
    g2 = rs.build("G2")
    # dual-pair bracket through the long direction: three-step string
    assert abs(structure_const(g2, g2.vector([0, 1, 0]), g2.vector([-1, 0, 0]))) == 3
    a2 = rs.build("A2")
    assert abs(structure_const(a2, a2.vector([1, -1, 0]), a2.vector([0, 1, -1]))) == 1
    with pytest.raises(ch.ChevalleyError):
        structure_const(a2, a2.vector([1, -1, 0]), a2.vector([-1, 1, 0]))


def test_twisted_bracket():
    a2 = rs.build("A2")
    mu = a2.highest_root()
    t, s = Poly.var("t"), Poly.var("s")
    x = root_vector(a2, mu) + root_vector(a2, -mu, t)
    y = root_vector(a2, -mu) + root_vector(a2, mu, s)
    hmu = ch.LieElement.coroot(a2, mu)
    assert x.bracket(y) == hmu - hmu.scale(t * s)
    assert x.bracket(x).is_zero()


def test_bracket_bilinearity_and_mixed_systems():
    b3 = rs.build("B3")
    x = root_vector(b3, b3.roots[0])
    y = root_vector(b3, b3.roots[1])
    z = root_vector(b3, b3.roots[2])
    assert (x + y).bracket(z) == x.bracket(z) + y.bracket(z)
    a2 = rs.build("A2")
    with pytest.raises(ch.ChevalleyError):
        x.bracket(root_vector(a2, a2.roots[0]))


def test_conjugation():
    b2 = rs.build("B2")
    a = b2.vector([1, 0])
    t = Poly.var("t")
    x = root_vector(b2, a) + root_vector(b2, b2.vector([1, 1]), t)
    assert conjugate(conjugate(x)) == x
    Ea = root_vector(b2, a)
    assert conjugate(Ea) == root_vector(b2, -a).scale(-1)
    # compact-form elements are fixed by conjugation
    Ena = root_vector(b2, -a)
    Ha = ch.LieElement.coroot(b2, a)
    i = Gauss(0, 1)
    for v in (Ha.scale(i), Ea - Ena, (Ea + Ena).scale(i)):
        assert conjugate(v) == v
    # and their brackets stay in the compact form
    u = Ea - Ena
    w = (Ea + Ena).scale(i)
    assert conjugate(u.bracket(w)) == u.bracket(w)


def test_conjugate_pm_eigenspace_disjointness():
    # span{conj(E_a + t E_b)} matches span{E_{-a} + conj(t) E_{-b}}
    b2 = rs.build("B2")
    a, b = b2.vector([1, 1]), b2.vector([-1, 1])
    t = Gauss(1, 2)  # some fixed complex value
    x = root_vector(b2, a) + root_vector(b2, b, Poly.const(t))
    c = conjugate(x)
    y = root_vector(b2, -a) + root_vector(b2, -b, Poly.const(t.conj()))
    assert c == y.scale(-1)


def test_evaluated_elements_have_gauss_coefficients():
    a2 = rs.build("A2")
    mu = a2.highest_root()
    t = Poly.var("t")
    x = root_vector(a2, mu) + root_vector(a2, -mu, t)
    y = root_vector(a2, -mu) + root_vector(a2, mu, t.conj())
    vals = {"t": Gauss(2, 1), "t~": Gauss(2, -1)}
    xe, ye = lie_eval(x, vals), lie_eval(y, vals)
    br = xe.bracket(ye)
    for el in (xe, ye, br):
        assert all(type(c) is Gauss for c in [*el.e.values(), *el.h.values()])
    assert br == lie_eval(x.bracket(y), vals)
    # the Cartan part is kept in simple-root coordinates: the all-ones
    # direction of a relation block is zero, and H_mu has the coordinates
    # of mu = alpha_1 + alpha_2
    assert ch.LieElement.cartan(a2, a2.vector([1, 1, 1])).is_zero()
    assert ch.LieElement.coroot(a2, mu).h == {0: Gauss(1), 1: Gauss(1)}


# -- the invariant form ------------------------------------------------------------

FORM_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
              "A1+A2"]


def _form_basis(s):
    """E_a for every root, then H(alpha_k) for every simple root: basis
    element c has the unit coordinate row at column c."""
    basis = [root_vector(s, r) for r in s.roots]
    return basis + [ch.LieElement.cartan(s, a) for a in s.simple_roots]


def _form(x, y):
    """<x, y> from x's form row and y's coordinates."""
    row, n = form_row(x), len(x.system.roots)
    coords = [*y.e.items(), *((n + k, c) for k, c in y.h.items())]
    return sum((row[c] * v for c, v in coords if c in row), Gauss(0))


@pytest.mark.parametrize("tag", FORM_TYPES)
def test_invariant_form_on_basis_triples(tag):
    s = rs.parse_type(tag)
    basis = _form_basis(s)
    rows = [form_row(x) for x in basis]
    br = [[x.bracket(y) for y in basis] for x in basis]
    br_rows = [[form_row(b) for b in bs] for bs in br]
    for i, j, k in itertools.product(range(len(basis)), repeat=3):
        # <[x_i, x_j], x_k> against <x_i, [x_j, x_k]>
        lhs = br_rows[i][j].get(k, 0)
        assert lhs == _form(basis[i], br[j][k]), (i, j, k)
    # nondegenerate: the Gram matrix of the basis has full rank
    assert SpanSolver(rows).dim() == len(basis)


@pytest.mark.parametrize("tag", FORM_TYPES)
def test_invariant_form_commutes_with_conjugation(tag):
    s = rs.parse_type(tag)
    basis = _form_basis(s)
    scalars = [Gauss(Q(1, 2), 1), Gauss(-2, Q(3, 5)), Gauss(0, Q(-1, 3)), Gauss(Q(7, 4))]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            x1 = x.scale(scalars[i % len(scalars)])
            y1 = y.scale(scalars[(i + j + 1) % len(scalars)])
            assert _form(conjugate(x1), conjugate(y1)) == _form(x1, y1).conj(), (i, j)


class _ReferenceTable:
    """The constant table as it stood before the lookups went through n:
    its own N(-a, x) by the cyclic identity (_mixed) and its own lookup of
    positive pairs (_lookup_pos)."""

    def __init__(self, system):
        self.system = system
        self._n = {}
        self._pos_order = sorted(
            (i for i in range(len(system.roots)) if system.positive[i]),
            key=lambda i: (system.height(i), system.roots[i].canon()),
        )
        self._pos_rank = {i: k for k, i in enumerate(self._pos_order)}
        sys = system
        for k in self._pos_order:
            if sys.height(k) < 2:
                continue
            pairs = []
            for a in self._pos_order:
                b = sys.sum_index(k, sys.neg_index[a])
                if b is not None and sys.positive[b] and self._pos_rank[a] < self._pos_rank[b]:
                    pairs.append((a, b))
            pairs.sort(key=lambda ab: self._pos_rank[ab[0]])
            a, b = pairs[0]
            p, _ = ch.root_string(sys, sys.roots[a], sys.roots[b])
            self._n[(a, b)] = p + 1
            self._n[(b, a)] = -(p + 1)
            for x, y in pairs[1:]:
                val = self._derive(a, b, k, x, y)
                self._n[(x, y)] = val
                self._n[(y, x)] = -val

    def n(self, i, j):
        try:
            return self._n[i, j]
        except KeyError:
            val = self._n[i, j] = (
                0 if self.system.sum_index(i, j) is None else self._general(i, j))
            return val

    def _derive(self, a, b, k, x, y):
        sys = self.system
        na = sys.neg_index[a]
        lhs_c = self._mixed(na, k)
        total = 0
        xa = sys.sum_index(na, x)
        if xa is not None:
            total += self._mixed(na, x) * self._lookup_pos(xa, y)
        ya = sys.sum_index(na, y)
        if ya is not None:
            total += self._mixed(na, y) * self._lookup_pos(x, ya)
        val, rem = divmod(total, lhs_c)
        assert rem == 0
        return val

    def _lookup_pos(self, i, j):
        if self.system.sum_index(i, j) is None:
            return 0
        return self._n[(i, j)]

    def _mixed(self, ni, j):
        sys = self.system
        a = sys.neg_index[ni]
        d = sys.sum_index(ni, j)
        if d is None:
            return 0
        if sys.positive[d]:
            val = Q(sys.norm2(d), sys.norm2(j)) * self._lookup_pos(a, d)
        else:
            val = Q(sys.norm2(d), sys.norm2(a)) * self._lookup_pos(j, sys.neg_index[d])
        assert val.denominator == 1
        return int(val)

    def _general(self, i, j):
        sys = self.system
        pi, pj = sys.positive[i], sys.positive[j]
        if pi and pj:
            return self._lookup_pos(i, j)
        if not pi and not pj:
            return -self.n(sys.neg_index[i], sys.neg_index[j])
        if not pi:
            return -self.n(j, i)
        k = sys.sum_index(i, j)
        nj, nk = sys.neg_index[j], sys.neg_index[k]
        if sys.positive[k]:
            val = -Q(sys.norm2(k), sys.norm2(i)) * self._lookup_pos(nj, k)
        else:
            val = -Q(sys.norm2(k), sys.norm2(j)) * self._lookup_pos(i, nk)
        assert val.denominator == 1
        return int(val)


@pytest.mark.parametrize("t,r", simple_types(8) + [("D", 3)])
def test_constants_match_reference_table(t, r):
    s = rs.build(t, r)
    ref = _ReferenceTable(s)
    n = len(s.roots)
    got = [[s.constants.n(i, j) for j in range(n)] for i in range(n)]
    want = [[ref.n(i, j) for j in range(n)] for i in range(n)]
    assert got == want
    assert all(type(x) is int for row in got for x in row)


def test_missing_positive_pair_raises():
    s = rs.build("A3")
    tab = ch.ConstantTable(s)
    i, j = next((i, j) for i in range(len(s.roots)) for j in range(len(s.roots))
                if s.positive[i] and s.positive[j] and s.sum_index(i, j) is not None)
    del tab._n[i, j]
    with pytest.raises(ch.ChevalleyError, match="positive pair"):
        tab.n(i, j)
