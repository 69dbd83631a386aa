"""Exact scalar arithmetic: Gaussian rationals and sparse polynomials.

All quantities in the classification are rational in the chosen bases, so
every computation runs over Q(i) extended by formal twist parameters.  A
parameter ``x`` has a formal conjugate partner written ``x~``; conjugation
of a polynomial swaps the two and conjugates coefficients.

A Gaussian rational is the int triple (a, b, d) meaning (a + b*i)/d, with
d > 0 and gcd(a, b, d) == 1, so that equal values have equal triples.  An
operation works on ints and divides out one three-way gcd, which it skips
where the invariant already holds (a shared denominator of 1, an int
addend).  Arithmetic takes int, Gauss and Poly operands: a Fraction enters
only through Gauss(re, im) and leaves through ``re``, ``im`` and ``abs2``,
derived on demand for printing and the sort keys of reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union


class Gauss:
    """Gaussian rational (a + b*i) / d in lowest terms: a, b and d are ints
    with d > 0 and gcd(a, b, d) == 1, so every value has one representation
    (zero is (0, 0, 1))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, idn = re.denominator, im.denominator
        # both parts are in lowest terms, so over the lcm of their
        # denominators the triple is too
        d = rd * idn // gcd(rd, idn)
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // idn)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # Operands other than int and Gauss get NotImplemented, so that Gauss
    # op Poly falls through to the Poly's reflected method.

    def __add__(self, other) -> "Gauss":
        d = self.d
        if type(other) is Gauss:
            od = other.d
            if d == od:
                a, b = self.a + other.a, self.b + other.b
                if d == 1:
                    return _mk(a, b, 1)
            else:
                a, b, d = self.a * od + other.a * d, self.b * od + other.b * d, d * od
            return _reduce(a, b, d)
        if isinstance(other, int):
            # gcd(a + n*d, b, d) = gcd(a, b, d) = 1
            return _mk(self.a + other * d, self.b, d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Gauss":
        return _mk(-self.a, -self.b, self.d)

    def __pow__(self, e) -> "Gauss":
        """self ** e for an int e >= 0, by repeated squaring."""
        if type(e) is not int or e < 0:
            return NotImplemented
        out, x = ONE, self
        while e:
            if e & 1:
                out = out * x
            e >>= 1
            if e:
                x = x * x
        return out

    def __sub__(self, other) -> "Gauss":
        d = self.d
        if type(other) is Gauss:
            od = other.d
            if d == od:
                a, b = self.a - other.a, self.b - other.b
                if d == 1:
                    return _mk(a, b, 1)
            else:
                a, b, d = self.a * od - other.a * d, self.b * od - other.b * d, d * od
            return _reduce(a, b, d)
        if isinstance(other, int):
            # gcd(a - n*d, b, d) = gcd(a, b, d) = 1
            return _mk(self.a - other * d, self.b, d)
        return NotImplemented

    def __rsub__(self, other) -> "Gauss":
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other) -> "Gauss":
        if type(other) is Gauss:
            a, b, oa, ob = self.a, self.b, other.a, other.b
            if not b and not ob:
                a, b = a * oa, 0
            else:
                a, b = a * oa - b * ob, a * ob + b * oa
            d = self.d * other.d
            if d == 1:
                return _mk(a, b, 1)
            return _reduce(a, b, d)
        if isinstance(other, int):
            # gcd(n*a, n*b, d) = gcd(n, d), since gcd(a, b, d) = 1
            g = gcd(other, self.d)
            n = other // g
            return _mk(self.a * n, self.b * n, self.d // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Gauss":
        if type(other) is not Gauss:
            other = _as_gauss(other)
        oa, ob = other.a, other.b
        n = oa * oa + ob * ob
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i)/d / ((oa + ob i)/od) = od (a + b i)(oa - ob i) / (d n)
        a, b, od = self.a, self.b, other.d
        return _reduce(od * (a * oa + b * ob), od * (b * oa - a * ob), self.d * n)

    def __rtruediv__(self, other) -> "Gauss":
        return _as_gauss(other) / self

    def conj(self) -> "Gauss":
        return _mk(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if type(other) is Gauss:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        return NotImplemented

    def __hash__(self):
        # a real integral value hashes as its int, which it equals
        if not self.b and self.d == 1:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"Gauss({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"


def _mk(a: int, b: int, d: int) -> "Gauss":
    """Internal fast constructor; (a, b, d) must already be in lowest terms."""
    g = Gauss.__new__(Gauss)
    g.a, g.b, g.d = a, b, d
    return g


def _reduce(a: int, b: int, d: int) -> "Gauss":
    """(a + b*i) / d in lowest terms, for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _mk(a, b, d)


ZERO = Gauss(0)
ONE = Gauss(1)
I = Gauss(0, 1)

Scalarish = Union[int, Gauss, "Poly"]


def _as_gauss(x) -> Gauss:
    if isinstance(x, Gauss):
        return x
    if isinstance(x, int):
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
        if exp < 1:
            raise ValueError(f"exponent of {name} must be positive, got {exp}")
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
            # a unit factor leaves the polynomial as it is (Polys are never mutated)
            other = _as_gauss(other)
            return self if other == ONE else self.scale(other)
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

    def eval(self, values: Mapping[str, Gauss]) -> Gauss:
        """The value with a Gaussian rational for every parameter: each
        term's coefficient times its powers, summed."""
        total = ZERO
        try:
            for m, c in self.terms.items():
                for v, e in m:
                    c = c * values[v] ** e
                total = total + c
        except KeyError:
            missing = sorted(self.variables().difference(values))
            raise ValueError(f"unresolved parameters {missing}") from None
        return total

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
        # Fraction (re, im), not the triple: this key sorts constraint sets
        # and disjointness factors, so its order is printed output.
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
        # a constant hashes as its value (Gauss.__hash__), as __eq__ wants
        if self.is_constant():
            return hash(self.terms.get((), ZERO))
        return hash(frozenset((m, c.a, c.b, c.d) for m, c in self.terms.items()))

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


class MonomialCode:
    """The monomials of some polynomials as ints: the exponent of the k-th
    variable (sorted) fills the bits from k * width, and width holds each
    exponent of a product of three of them, the most one bracket term of
    crlie.crstruct multiplies, so a product of monomials is the sum of
    their codes.  A coded polynomial is {code: int or Gauss}."""

    def __init__(self, polys):
        top = max([e for p in polys for m in p.terms for _, e in m], default=0)
        self.width = (3 * top).bit_length()
        names = sorted(set().union(*(p.variables() for p in polys)))
        self.shifts = {v: k * self.width for k, v in enumerate(names)}

    def encode(self, p: Poly) -> dict:
        """The coded p, an integral coefficient as an int."""
        return {sum(e << self.shifts[v] for v, e in m): c.a if not c.b and c.d == 1 else c
                for m, c in p.terms.items()}

    def decode(self, t: dict) -> Poly:
        """The Poly of a coded polynomial, its zero terms dropped."""
        mask = (1 << self.width) - 1
        return Poly({tuple((v, e) for v, k in self.shifts.items() if (e := m >> k & mask)):
                     _as_gauss(c) for m, c in t.items()})


def add_product(acc: dict, x: dict, y: dict, f) -> None:
    """acc += f * x * y in place, for coded polynomials x and y (MonomialCode)
    and an int or Gauss f."""
    for m1, c1 in x.items():
        c1 = c1 * f
        for m2, c2 in y.items():
            m, c = m1 + m2, c1 * c2
            acc[m] = acc[m] + c if m in acc else c
