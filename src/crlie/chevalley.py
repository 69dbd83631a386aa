"""Chevalley basis: integer structure constants, root strings, exact brackets.

Structure-constant signs are fixed by the extraspecial-pair construction
over the positive roots ordered by height, ties broken by their ambient
coordinates (RootVector.numerators); the magnitudes |N(a,b)| = p+1 are
convention-independent.  Lie algebra elements are formal combinations of
root vectors E_a and Cartan elements whose coefficients are exact scalars
of one of two rings: Gaussian rationals (Gauss) once the twists are
sampled, or polynomials in the twists (Poly) where they stay symbolic;
every bracket is exact in either.  A Cartan element H(v) is sparse in the
simple-root coordinates v_k of v, and acts on E_b through the int
covector of b: (b, v) = sum_k v_k (b, alpha_k).  [E_a, E_-a] is kept in
ints, the coroot H_a times one positive constant of the system
(ConstantTable.coroot_terms), so the structure checks meet no Fraction.

The compact real form is span_R{ i*H, E_a - E_{-a}, i(E_a + E_{-a}) } and
conjugation is taken relative to it: conj(E_a) = -E_{-a}, conj(H) = -H
antilinearly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .rootsys import RootSystem, RootVector
from .scalars import Gauss, Poly

Q = Fraction


class ChevalleyError(ValueError):
    pass


def root_string(system: RootSystem, alpha: RootVector, beta: RootVector) -> tuple[int, int]:
    """(p_down, p_up): maximal k with beta -/+ k*alpha still a root."""
    ia, ib = system.root_index(alpha), system.root_index(beta)
    if ia is None or ib is None:
        raise ChevalleyError("root_string arguments must be roots")
    if ib == ia or ib == system.neg_index[ia]:
        raise ChevalleyError("root string through +/-alpha is undefined")
    lengths = []
    for step in (-system.codes[ia], system.codes[ia]):
        k, c = 0, system.codes[ib] + step
        while c in system.by_code:
            k, c = k + 1, c + step
        lengths.append(k)
    return lengths[0], lengths[1]


class ConstantTable:
    """All Chevalley constants N(a, b) for one root system, in one dict:
    the positive pairs at construction, every other pair on its first
    lookup, all in int arithmetic; and each coroot's int terms on first use."""

    def __init__(self, system: RootSystem):
        self.system = system
        n = len(system.roots)
        self._n: dict[tuple[int, int], int] = {}
        self._coroots: dict[int, tuple[tuple[int, int], ...]] = {}
        self.coroot_scale = lcm(*set(system.int_norms))
        self.coroot_factors = tuple(self.coroot_scale // m for m in system.int_norms)
        self._pos_order = sorted(
            (i for i in range(n) if system.positive[i]),
            key=lambda i: (system.height(i), system.roots[i].numerators()),
        )
        self._pos_rank = {i: k for k, i in enumerate(self._pos_order)}
        self._build_positive()

    # -- public API ------------------------------------------------------------

    def n(self, i: int, j: int) -> int:
        """N(root_i, root_j); zero when the sum is not a root."""
        try:
            return self._n[i, j]
        except KeyError:
            val = self._n[i, j] = (
                0 if self.system.sum_index(i, j) is None else self._general(i, j))
            return val

    def coroot_terms(self, i: int) -> tuple[tuple[int, int], ...]:
        """(k, x_k * coroot_factors[i]) for the nonzero simple-root
        coordinates x_k of root i = a: the Cartan part of [E_a, E_-a], the
        coroot 2a/(a, a) times M/(2 gden), with M = coroot_scale the lcm of
        the int norms and coroot_factors[i] = M // int_norms[i]."""
        if i not in self._coroots:
            f = self.coroot_factors[i]
            self._coroots[i] = tuple((k, f * x) for k, x in enumerate(self.system.expansions[i]) if x)
        return self._coroots[i]

    # -- construction ------------------------------------------------------------

    def _build_positive(self):
        sys = self.system
        for k in self._pos_order:
            if sys.height(k) < 2:
                continue
            pairs = self._special_pairs(k)
            a, b = pairs[0]
            p, _ = root_string(sys, sys.roots[a], sys.roots[b])
            self._n[(a, b)] = p + 1
            self._n[(b, a)] = -(p + 1)
            for x, y in pairs[1:]:
                val = self._derive(a, b, k, x, y)
                self._n[(x, y)] = val
                self._n[(y, x)] = -val

    def _special_pairs(self, k: int) -> list[tuple[int, int]]:
        """Positive pairs (a, b) summing to root k, a before b, the
        extraspecial one first; each a precedes k in _pos_order."""
        sys = self.system
        codes, get, positive, rank = sys.codes, sys.by_code.get, sys.positive, self._pos_rank
        pairs = []
        for a in self._pos_order[: rank[k]]:
            b = get(codes[k] - codes[a])
            if b is not None and positive[b] and rank[a] < rank[b]:
                pairs.append((a, b))
        return pairs

    def _derive(self, a: int, b: int, k: int, x: int, y: int) -> int:
        """Constant for the special pair (x, y) from the extraspecial (a, b).

        Jacobi identity for (E_{-a}, E_x, E_y), using x + y = a + b = root_k;
        every constant it reads belongs to a root of smaller height.
        """
        sys = self.system
        na = sys.neg_index[a]
        lhs_c = self.n(na, k)
        if not lhs_c:
            raise ChevalleyError("zero structure constant on a root sum")
        total = 0
        xa = sys.sum_index(na, x)
        if xa is not None:
            total += self.n(na, x) * self.n(xa, y)
        ya = sys.sum_index(na, y)
        if ya is not None:
            total += self.n(na, y) * self.n(x, ya)
        val, rem = divmod(total, lhs_c)
        if rem:
            raise ChevalleyError("non-integral derived structure constant")
        return val

    def _general(self, i: int, j: int) -> int:
        """Reduce arbitrary signs to positive pairs via the cyclic identity
        N(x, y)/|z|^2 = N(y, z)/|x|^2 = N(z, x)/|y|^2 for x + y + z = 0."""
        sys = self.system
        pi, pj = sys.positive[i], sys.positive[j]
        if pi and pj:
            raise ChevalleyError("positive pair with a root sum missing from the table")
        if not pi and not pj:
            return -self.n(sys.neg_index[i], sys.neg_index[j])
        if not pi:
            return -self.n(j, i)
        # i positive, j negative, k = i + j a root
        k = sys.sum_index(i, j)
        norms = sys.int_norms
        if sys.positive[k]:
            val, rem = divmod(-norms[k] * self.n(sys.neg_index[j], k), norms[i])
        else:
            val, rem = divmod(-norms[k] * self.n(i, sys.neg_index[k]), norms[j])
        if rem:
            raise ChevalleyError("non-integral structure constant")
        return val


class LieElement:
    """Formal combination sum c_a E_a + H(v) with exact scalar coefficients.

    A coefficient is a Gauss or a Poly, as given; ints and Fractions become
    Gauss.  The Cartan part is the vector v as a sparse dict {simple index:
    coefficient} of its simple-root coordinates; the element
    H(v) acts on a root vector E_b by (b, v) E_b, so the coroot H_a
    corresponds to v = 2a/(a, a) (bracket divides out coroot_terms' scale).
    """

    __slots__ = ("system", "e", "h")

    def __init__(self, system: RootSystem, e: Mapping | None = None,
                 h: Mapping | None = None):
        self.system = system
        self.e = {i: c for i, c in (e or {}).items() if c}
        self.h = {k: c for k, c in (h or {}).items() if c}

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def cartan(system: RootSystem, v: RootVector, coeff=1) -> "LieElement":
        c = _coeff(coeff) * Gauss(Q(1, v.den))
        return LieElement(system, {}, {k: c * x for k, x in enumerate(v.c) if x})

    @staticmethod
    def coroot(system: RootSystem, alpha: RootVector) -> "LieElement":
        i = system.root_index(alpha)
        if i is None:
            raise ChevalleyError("coroot of a non-root")
        return LieElement.cartan(system, (Q(2) / system.norm2(i)) * alpha)

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        e = dict(self.e)
        for i, c in other.e.items():
            _accumulate(e, i, c)
        h = dict(self.h)
        for k, c in other.h.items():
            _accumulate(h, k, c)
        return LieElement(self.system, e, h)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def __neg__(self) -> "LieElement":
        return self.scale(-1)

    def scale(self, c) -> "LieElement":
        c = _coeff(c)
        return LieElement(
            self.system,
            {i: c * x for i, x in self.e.items()},
            {k: c * x for k, x in self.h.items()},
        )

    def _check(self, other: "LieElement"):
        if other.system is not self.system:
            raise ChevalleyError("elements over different root systems")

    def is_zero(self) -> bool:
        return not self.e and not self.h

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("LieElement is unhashable")

    # -- structure ---------------------------------------------------------------

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check(other)
        sys = self.system
        e, h = {}, {}
        root_bracket(sys, self.e, other.e, e, h)
        s = Gauss(Q(2 * sys.gden, sys.constants.coroot_scale))
        h = {k: c * s for k, c in h.items()}
        if self.h:
            for j, cj in other.e.items():
                val = _pair_vec(sys, j, self.h)
                if val:
                    _accumulate(e, j, val * cj)
        if other.h:
            for i, ci in self.e.items():
                val = _pair_vec(sys, i, other.h)
                if val:
                    _accumulate(e, i, -(val * ci))
        return LieElement(sys, e, h)

    def __repr__(self):
        from .rootsys import format_vector

        parts = []
        for i in sorted(self.e):
            parts.append(f"({self.e[i]})E[{format_vector(self.system.roots[i])}]")
        if self.h:
            parts.append("H(" + ",".join(f"{k}:{self.h[k]}" for k in sorted(self.h)) + ")")
        return " + ".join(parts) if parts else "0"


def root_bracket(system: RootSystem, x: Mapping, y: Mapping, e: dict, h: dict) -> None:
    """Add [x, y] for x and y sums of root vectors, each {root: coefficient},
    into e, by root, and h, by simple-root Cartan coordinate: N(a, b) E_(a+b)
    for a root sum, and [E_a, E_-a] = H_a times M/(2 gden), in the int terms
    of ConstantTable.coroot_terms."""
    tab = system.constants
    n, codes, get, neg = tab.n, system.codes, system.by_code.get, system.neg_index
    for i, ci in x.items():
        ni, code = neg[i], codes[i]
        for j, cj in y.items():
            if j == ni:
                prod = ci * cj
                for k, t in tab.coroot_terms(i):
                    _accumulate(h, k, prod * t)
            elif (k := get(code + codes[j])) is not None:
                _accumulate(e, k, n(i, j) * ci * cj)


def _coeff(c):
    """A Poly stays a Poly; any other scalar becomes a Gauss."""
    return c if isinstance(c, (Gauss, Poly)) else Gauss(c)


def _accumulate(d: dict, k: int, c) -> None:
    d[k] = d[k] + c if k in d else c


def _pair_vec(system: RootSystem, i: int, h: Mapping):
    """(root_i, v) for v given by its sparse coordinates h: h against the
    root's int covector, over gden."""
    return sum(h[k] * y for k, y in system.roots[i].covector() if k in h) * Gauss(Q(1, system.gden))
