from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from crlie.scalars import Gauss, Poly



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


def test_poly_basic():
    t = Poly.var("t")
    s = Poly.var("s")
    p = (t + s) * (t - s)
    assert p == t * t - s * s
    assert p.subs({"t": Gauss(2)}) == Poly.const(4) - s * s
    assert (t * t).eval({"t": Gauss(0, 1)}) == Gauss(-1)


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


def test_gauss_defers_to_poly():
    # Gauss op Poly falls through to the Poly's reflected method
    g, t = Gauss(1, 2), Poly.var("t")
    for value, expected in ((g + t, t + g), (g - t, -(t - g)), (g * t, t.scale(g))):
        assert isinstance(value, Poly) and value == expected
    with pytest.raises(TypeError):
        g + "t"
