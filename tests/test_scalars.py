import operator
import time
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from crlie.scalars import Gauss, MonomialCode, Poly, add_product


class RefGauss:
    """Reference Gaussian rational: a pair of Fractions, every operation
    written out on the parts.  Gauss must agree with it on every value,
    every printed form and every hash."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Q(re), Q(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, RefGauss) else RefGauss(x)

    def __add__(self, other):
        o = RefGauss.of(other)
        return RefGauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = RefGauss.of(other)
        return RefGauss(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return RefGauss.of(other) - self

    def __mul__(self, other):
        o = RefGauss.of(other)
        return RefGauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RefGauss.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError
        return RefGauss((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return RefGauss.of(other) / self

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def conj(self):
        return RefGauss(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if isinstance(other, int):
            other = RefGauss(other)
        if not isinstance(other, RefGauss):
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self):
        # a real integral value hashes as its int; any other as its triple
        # (a, b, d) over the lcm d
        if self.im == 0 and self.re.denominator == 1:
            return hash(self.re.numerator)
        d = lcm(self.re.denominator, self.im.denominator)
        return hash((int(self.re * d), int(self.im * d), d))

    def __repr__(self):
        return f"Gauss({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def same(g, ref) -> bool:
    """g is the reference's value, in lowest terms, printed and hashed alike."""
    if not isinstance(g, Gauss):
        return g == ref and type(g) is type(ref)
    a, b, d = g.a, g.b, g.d
    return (
        all(type(x) is int for x in (a, b, d)) and d > 0 and gcd(a, b, d) == 1
        and (g.re, g.im) == (ref.re, ref.im)
        and str(g) == str(ref) and repr(g) == repr(ref) and hash(g) == hash(ref)
    )


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_ints = st.integers(min_value=-10**6, max_value=10**6)
# (operand, its reference): an int or a Gauss, some of them real rationals
operands = st.one_of(
    small_ints.map(lambda n: (n, n)),
    rationals.map(lambda q: (Gauss(q), RefGauss(q))),
    st.tuples(st.one_of(rationals, small_ints), st.one_of(rationals, small_ints)).map(
        lambda p: (Gauss(*p), RefGauss(*p))),
)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq)


def _outcome(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError


@given(operands, operands)
def test_gauss_matches_fraction_pair_reference(left, right):
    (x, rx), (y, ry) = left, right
    if not isinstance(x, Gauss) and not isinstance(y, Gauss):
        x, rx = Gauss(x), RefGauss(rx)
    for xs, ys in (((x, rx), (y, ry)), ((y, ry), (x, rx))):
        for op in BINARY:
            got, want = _outcome(op, xs[0], ys[0]), _outcome(op, xs[1], ys[1])
            assert got is want if want is ZeroDivisionError else same(got, want), op
    g, ref = (x, rx) if isinstance(x, Gauss) else (y, ry)
    assert same(-g, -ref) and same(g.conj(), ref.conj())
    assert same(g.abs2(), ref.abs2())
    assert same(Gauss(ref.re, ref.im), ref)
    assert g.is_zero() == (ref == 0) and bool(g) == (ref != 0)


def gauss_str(g: Gauss) -> str:
    """Render a Gaussian rational as ``a/b+c/d*i`` (exact wire form)."""
    if g.im == 0:
        return str(g.re)
    sign = "+" if g.im >= 0 else "-"
    return f"{g.re}{sign}{abs(g.im)}*i"


def parse_gauss(s: str) -> Gauss:
    """Parse the wire form produced by gauss_str."""
    s = s.strip().replace(" ", "")
    if s.endswith("*i"):
        body = s[:-2]
        # split at the sign separating real and imaginary parts
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                return Gauss(Q(body[:k]), Q(body[k:] or "1"))
        return Gauss(0, Q(body or "1"))
    return Gauss(Q(s))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(Gauss, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_gauss_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == Gauss(0)


@given(gaussians)
def test_gauss_conj_and_modulus(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).re == a.abs2()
    assert (a * a.conj()).im == 0


@given(gaussians, gaussians)
def test_gauss_division(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@given(gaussians)
def test_gauss_wire_roundtrip(a):
    assert parse_gauss(gauss_str(a)) == a


def subs(p: Poly, values) -> Poly:
    """Substitute Gaussian rationals for some parameters of p."""
    out = Poly()
    for m, c in p.terms.items():
        coeff = c
        rest = []
        for v, e in m:
            if v in values:
                for _ in range(e):
                    coeff = coeff * values[v]
            else:
                rest.append((v, e))
        out = out + Poly({tuple(sorted(rest)): coeff})
    return out


def test_poly_basic():
    t = Poly.var("t")
    s = Poly.var("s")
    p = (t + s) * (t - s)
    assert p == t * t - s * s
    assert subs(p, {"t": Gauss(2)}) == Poly.const(4) - s * s
    assert (t * t).eval({"t": Gauss(0, 1)}) == Gauss(-1)
    with pytest.raises(ValueError, match=r"unresolved parameters \['s'\]"):
        p.eval({"t": Gauss(2)})


def power_reference(x, e):
    """x ** e as the repeated product."""
    out = Gauss(1)
    for _ in range(e):
        out = out * x
    return out


@pytest.mark.parametrize("x", [Gauss(Q(1, 2), Q(1, 3)), Gauss(0, 1), Gauss(-3),
                               Gauss(Q(-2, 7)), Gauss(0), Gauss(1, -1)])
def test_power_by_squaring_matches_the_repeated_product(x):
    for e in range(41):
        assert x ** e == power_reference(x, e), e
        assert Poly.var("t", e + 1).eval({"t": x}) == power_reference(x, e + 1), e


def test_poly_eval_of_a_large_power_is_fast():
    x = Gauss(Q(1, 2), Q(1, 3))
    start = time.perf_counter()
    value = Poly.var("t", 10**4).eval({"t": x})
    assert time.perf_counter() - start < 1.0
    assert value == x ** 5000 * x ** 5000 and value.d == 6**10**4


# monomials in s and t, exponents 1 to 3: sorted (name, exponent) tuples
monomials = st.lists(st.tuples(st.sampled_from("st"), st.integers(1, 3)), max_size=2,
                     unique_by=lambda p: p[0]).map(lambda m: tuple(sorted(m)))
polys = st.dictionaries(monomials, gaussians, max_size=3).map(Poly)
samples = st.fixed_dictionaries({"t": gaussians, "s": gaussians})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polys, samples)
def test_poly_eval_matches_substitution(p, values):
    # eval multiplies each term's powers directly; subs builds a Poly per term
    assert p.eval(values) == subs(p, values).terms.get((), Gauss(0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rationals, polys)
def test_equal_values_hash_equal(q, p):
    # int, Gauss and constant Poly of one value are == and hash alike
    forms = [Gauss(q), Poly.const(Gauss(q))] + ([q.numerator] if q.denominator == 1 else [])
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y), (x, y)
    assert len(set(forms)) == 1
    # a Poly equal to another Poly hashes alike, however it was built
    assert hash(p) == hash(p + Poly.var("t") - Poly.var("t")) == hash(Poly(dict(p.terms)))
    if p.is_constant():
        assert hash(p) == hash(p.terms.get((), Gauss(0)))


def test_gauss_hash_matches_eq():
    assert len({Gauss(1), 1}) == 1
    assert len({Poly.const(1), Gauss(1), 1}) == 1
    assert len({Gauss(Q(1, 2)), Poly.const(Gauss(Q(1, 2)))}) == 1
    assert len({Gauss(1, 2), Poly.const(Gauss(1, 2))}) == 1
    assert hash(Poly()) == hash(0)


FRACTION_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("x", [Gauss(Q(1, 2), Q(1, 3)), Gauss(3), Gauss(0),
                               Poly.var("t"), Poly.const(2), Poly()])
@pytest.mark.parametrize("q", [Q(1, 2), Q(1), Q(0)])
def test_fraction_operands_raise_type_error(x, q):
    # a Fraction enters only through Gauss(re, im): arithmetic with one
    # raises, in both orders, and a Gauss or Poly never equals one
    for op in FRACTION_OPS:
        for args in ((x, q), (q, x)):
            with pytest.raises(TypeError):
                op(*args)
    assert x != q and q != x


def test_fractions_build_through_the_constructor_only():
    with pytest.raises(TypeError):
        Poly.const(Q(1, 2))
    g = Gauss(Q(1, 2), Q(1, 3))
    assert (g.a, g.b, g.d) == (3, 2, 6) and (g.re, g.im) == (Q(1, 2), Q(1, 3))
    assert (Gauss(Q(4, 2)).a, Gauss(Q(4, 2)).d) == (2, 1) and Gauss(Q(4, 2)) == 2


def test_poly_conj_swaps_partners():
    t = Poly.var("t")
    p = t.scale(Gauss(0, 1))  # i*t
    q = p.conj()
    assert q == Poly.var("t~").scale(Gauss(0, -1))
    assert q.conj() == p


def test_poly_primitive_and_str():
    t = Poly.var("t")
    s = Poly.var("s")
    g = (s - t * t).scale(Gauss(3))
    assert g.primitive() == s - t * t or g.primitive() == (s - t * t).scale(-1)
    assert str(Poly.const(1) - t * Poly.var("t~")) in ("1 - t*t~", "1 - t~*t")


@given(operands)
def test_gauss_defers_to_poly(operand):
    # Gauss op Poly falls through to the Poly's reflected method
    x, t = operand[0], Poly.var("t")
    g = x if isinstance(x, Gauss) else Gauss(x)
    for value, expected in ((g + t, t + g), (g - t, -(t - g)), (g * t, t.scale(g))):
        assert isinstance(value, Poly) and value == expected
    assert g == Poly.const(g) and (g == t) is False
    with pytest.raises(TypeError):
        g + "t"


# monomials in s, s~ and t of exponents up to 7, so that fields are wide
coded_monomials = st.lists(st.tuples(st.sampled_from(["s", "s~", "t"]), st.integers(1, 7)),
                           max_size=3, unique_by=lambda p: p[0]).map(lambda m: tuple(sorted(m)))
coded_polys = st.dictionaries(coded_monomials, gaussians, max_size=4).map(Poly)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coded_polys, coded_polys, coded_polys, st.sampled_from([1, -3, Gauss(Q(1, 2), 2)]))
def test_coded_products_match_poly_products(p, q, r, f):
    # a product of three coded polynomials adds codes with no carry
    code = MonomialCode([p, q, r])
    assert code.decode(code.encode(p)).terms == p.terms
    pq = {}
    add_product(pq, code.encode(p), code.encode(q), f)
    assert code.decode(pq).terms == (p * q * f).terms
    pqr = dict(pq)
    add_product(pqr, pq, code.encode(r), -1)
    assert code.decode(pqr).terms == (p * q * f - p * q * r * f).terms
