"""Exact scalar arithmetic: Gaussian rationals and sparse polynomials.

All quantities in the classification are rational in the chosen bases, so
every computation runs over Q(i) extended by formal twist parameters.  A
parameter ``x`` has a formal conjugate partner written ``x~``; conjugation
of a polynomial swaps the two and conjugates coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union


class Gauss:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # Operands other than int, Fraction and Gauss get NotImplemented, so
    # that Gauss op Poly falls through to the Poly's reflected method.

    def __add__(self, other) -> "Gauss":
        if type(other) is Gauss:
            return _mk(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _mk(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Gauss":
        return _mk(-self.re, -self.im)

    def __sub__(self, other) -> "Gauss":
        if type(other) is Gauss:
            return _mk(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _mk(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other) -> "Gauss":
        if isinstance(other, (int, Fraction)):
            return _mk(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other) -> "Gauss":
        if type(other) is not Gauss:
            if isinstance(other, (int, Fraction)):
                return _mk(self.re * other, self.im * other)
            return NotImplemented
        sim, oim = self.im, other.im
        if not sim and not oim:
            return _mk(self.re * other.re, sim)
        return _mk(
            self.re * other.re - sim * oim,
            self.re * oim + sim * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Gauss") -> "Gauss":
        other = _as_gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _mk(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "Gauss":
        return _as_gauss(other) / self

    def conj(self) -> "Gauss":
        return _mk(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Gauss(other)
        if not isinstance(other, Gauss):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Gauss({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _mk(re: Fraction, im: Fraction) -> "Gauss":
    """Internal fast constructor; components must already be Fractions."""
    g = Gauss.__new__(Gauss)
    g.re = re
    g.im = im
    return g


ZERO = Gauss(0)
ONE = Gauss(1)
I = Gauss(0, 1)

Scalarish = Union[int, Fraction, Gauss, "Poly"]


def _as_gauss(x) -> Gauss:
    if isinstance(x, Gauss):
        return x
    if isinstance(x, (int, Fraction)):
        return Gauss(x)
    raise TypeError(f"cannot coerce {x!r} to Gauss")


def conj_var(name: str) -> str:
    """Formal conjugate partner of a parameter name."""
    return name[:-1] if name.endswith("~") else name + "~"


# A monomial is a sorted tuple of (variable, exponent) pairs; () is 1.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class Poly:
    """Sparse multivariate polynomial over the Gaussian rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Gauss] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def const(c) -> "Poly":
        g = _as_gauss(c)
        return Poly({(): g} if not g.is_zero() else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        return Poly({((name, exp),): ONE})

    def __add__(self, other) -> "Poly":
        other = as_poly(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, ZERO) + c
        return Poly(t)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        t: dict[Monomial, Gauss] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                t[m] = t.get(m, ZERO) + c1 * c2
        return Poly(t)

    __rmul__ = __mul__

    def scale(self, g) -> "Poly":
        g = _as_gauss(g)
        return Poly({m: c * g for m, c in self.terms.items()})

    def divide_scalar(self, g) -> "Poly":
        g = _as_gauss(g)
        return Poly({m: c / g for m, c in self.terms.items()})

    def conj(self) -> "Poly":
        """Conjugate coefficients and swap each parameter with its partner."""
        t: dict[Monomial, Gauss] = {}
        for m, c in self.terms.items():
            mm = tuple(sorted((conj_var(v), e) for v, e in m))
            t[mm] = t.get(mm, ZERO) + c.conj()
        return Poly(t)

    def subs(self, values: Mapping[str, Gauss]) -> "Poly":
        """Substitute Gaussian rationals for some parameters."""
        out = Poly()
        for m, c in self.terms.items():
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

    def eval(self, values: Mapping[str, Gauss]) -> Gauss:
        p = self.subs(values)
        if any(m for m in p.terms):
            missing = sorted({v for m in p.terms for v, _ in m})
            raise ValueError(f"unresolved parameters {missing}")
        return p.terms.get((), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def primitive(self) -> "Poly":
        """Normalize so the leading (lexicographically largest) term is 1."""
        if self.is_zero():
            return self
        lead = max(self.terms)
        return self.divide_scalar(self.terms[lead])

    def key(self):
        return tuple(sorted((m, (c.re, c.im)) for m, c in self.terms.items()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        try:
            other = as_poly(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            if not mono:
                parts.append(str(c))
            elif c == ONE:
                parts.append(mono)
            elif c == -ONE:
                parts.append(f"-{mono}")
            else:
                cs = str(c)
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


P_ZERO = Poly()


def as_poly(x: Scalarish) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(_as_gauss(x))
