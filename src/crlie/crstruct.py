"""Candidate invariant CR structures as holomorphic subspaces.

A holomorphic subspace is assembled from three kinds of part: twisted module
pairs (highest-weight vector E_a + c E_b for congruent a, b), whole modules,
and a one-sided nilpotent block.  A twisted rank-one line
C(E_mu + c E_{-mu}) is the pair of the one-root modules {mu} and {-mu},
which exist where theta lies along mu and mu is strongly orthogonal to R_o;
with c = 0 it is the whole module {mu}.  Each part contributes lines to one
map, HolomorphicSubspace.lines: root w maps to (w', c) for the basis vector
E_w + c E_w', or to None for E_w alone.  Every check reads that map, or
HolomorphicSubspace.at(values), the lines with their twists evaluated once
per sample; none builds a basis of Lie algebra elements.  l-stability is
decided on the roots of R_J+ alone, with no twist arithmetic
(HolomorphicSubspace.l_stable).  Integrability and disjointness are
polynomial in the twists and decided symbolically: integrability brackets
the lines' roots through the structure constants on int-coded monomials
(HolomorphicSubspace._coded), and disjointness takes a determinant only
over the twisted lines of each congruence class, the lone lines being unit
rows (check_disjointness).  On an l-stable m10 both are decided from
highest weights: integrability brackets each module's highest line only,
and disjointness takes the determinants of the classes of module highest
weights only.  Standardness, the normalizer dimension and the
parabolic fibration witnesses are decided at sampled Gaussian-rational
values, all exactly.  The normalizer excess of an l-stable m10, at a point
where m10 and m01 are disjoint, is 1 for a standard structure and 0
otherwise; anywhere else it is counted, with no linear system of its own:
by the invariant form of the Chevalley basis the normalizer is the
annihilator of the brackets of l^C + m01 with its orthogonal complement,
and both spaces are read off the lines, since their form rows have
disjoint supports once every line root lies in R' (normalizer_excess).
The bracket checks are graded by the theta-transverse weight of
ContactDatum.weight_codes: integrability skips the pairs whose sum is no
weight of g or a block that reduction modulo m10 + l^C empties, and the
normalizer ranks its rows one weight block at a time, each up to its
dimension; the theta-orthogonal Cartan t' scales every weight space of
W', so those enter the normalizer's blocks as they are and t' is never
bracketed.  Pairings with theta and with the center of l are read off ints
(ContactDatum.theta_pairings, RootVector.covector), each up to one
positive factor.  The twists are holomorphic: formal conjugates x~ appear
only in the disjointness factors.  An m10 with no twisted line is decided
for integrability on root sets with no bracket, no elimination and no
polynomial: its lines bracket into root vectors and coroots
(_lone_lines_closed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import isqrt, lcm
from typing import Mapping, Optional

from .chevalley import root_bracket
from .contact import ContactDatum
from .linalg import Echelon
from .naming import fiber_type
from .rootsys import RootSystem, RootVector, format_vector
from .scalars import (ONE, ZERO, Gauss, MonomialCode, P_ZERO, Poly, _mono_mul, add_product,
                      as_poly, conj_var)

Q = Fraction


class StructError(ValueError):
    pass


class TwistedPair:
    """Module m(hw) twisted into m(hw) + c * m(partner); equal and hashed
    by value, as a part of HolomorphicSubspace's value."""

    __slots__ = ("hw", "partner", "coeff")

    def __init__(self, hw: int, partner: int, coeff: Poly):
        self.hw = hw
        self.partner = partner
        self.coeff = coeff

    def __eq__(self, other):
        if other.__class__ is not TwistedPair:
            return NotImplemented
        return (self.hw, self.partner, self.coeff) == (other.hw, other.partner, other.coeff)

    def __hash__(self):
        return hash((self.hw, self.partner, self.coeff))


class HolomorphicSubspace:
    """A candidate m10: twisted pairs, plain modules and the one-sided
    block R_J+.  An su2 line C(E_mu + c E_{-mu}) is the pair (mu, -mu, c).
    The twist parameters, every check and the lines at a sample of the
    twists (at) all read one map, lines.  Two subspaces are equal when
    their five fields are, and hash alike."""

    def __init__(self, datum: ContactDatum, pairs: tuple[TwistedPair, ...] = (),
                 plains: tuple[int, ...] = (), rj_plus: frozenset[int] = frozenset(),
                 label: str = ""):
        self.datum = datum
        self.pairs = pairs
        self.plains = plains
        self.rj_plus = rj_plus
        self.label = label

    def _key(self) -> tuple:
        return self.datum, self.pairs, self.plains, self.rj_plus, self.label

    def __eq__(self, other):
        if other.__class__ is not HolomorphicSubspace:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def lines(self) -> dict[int, Optional[tuple[int, Poly]]]:
        """The lines of m10 in basis order: root w maps to (w', c) when
        E_w + c E_w' is a basis vector and to None when E_w alone is.

        Every twist c is holomorphic, naming no formal conjugate x~
        (cli._parse_coeff refuses one; the routes name t, s, s2 and u):
        conjugates enter only through m01 = conj(m10), in check_disjointness.

        Raises when a root of a pair lies in R_o (m10 lies in m^C, the
        span of the E_r for r in R'), when a pair does not propagate or a
        plain is no module, then when the dimension is not half of |R'|,
        then when a root lies on two lines, then when a root of R_J+ lies
        in R_o."""
        datum = self.datum
        lines: list[tuple[int, Optional[tuple[int, Poly]]]] = []
        for pair in self.pairs:
            _in_rprime(datum, (pair.hw, pair.partner))
            kappa = _propagate(datum, pair.hw, pair.partner)
            lines += [(w, (wp, pair.coeff * k)) for w, (wp, k) in sorted(kappa.items())]
        for hw in self.plains:
            if hw not in datum.modules:
                raise StructError("not a module highest weight")
            lines += [(w, None) for w in sorted(datum.modules[hw].weights)]
        lines += [(r, None) for r in sorted(self.rj_plus)]
        if 2 * len(lines) != len(datum.Rprime):
            raise StructError(
                f"subspace dimension {len(lines)} is not half of |R'| = {len(datum.Rprime)}"
            )
        roots = [w for w, _ in lines] + [line[0] for _, line in lines if line is not None]
        if len(set(roots)) != len(roots):
            raise StructError("a root carries two roles in the subspace")
        _in_rprime(datum, sorted(self.rj_plus))  # modules partition R'
        return dict(lines)

    def at(self, values: Mapping[str, Gauss]) -> dict[int, Optional[tuple[int, Gauss]]]:
        """The lines at one sample of the twists: each twist evaluated at
        values, to None where it is 0, once and kept with the subspace, as
        ContactDatum.propagations is with the datum."""
        key = tuple(sorted(values.items()))
        if key not in self._samples:
            ev = {w: line and (line[0], line[1].eval(values)) for w, line in self.lines.items()}
            self._samples[key] = {w: line if line and line[1] else None for w, line in ev.items()}
        return self._samples[key]

    @cached_property
    def _samples(self) -> dict:
        """at's samples, by the sorted items of their values."""
        return {}

    def parameters(self) -> set[str]:
        return set().union(*(line[1].variables() for line in self.lines.values() if line))

    @cached_property
    def l_stable(self) -> bool:
        """True when [E_d, m10] lies in m10 for every d of
        ContactDatum.ro_generators: exactly when R_J+ is closed under the
        steps d, decided on root sets with no twist read and no bracket.

        d lies in R_o and every root of a line in R', so r + d is never 0
        and N(d, r) is nonzero wherever r + d is a root.  Each isotropy
        module is an l-module, closed under the steps d and -d, so a plain
        maps into itself.  A pair's line E_w + c E_w' maps to N(d, w)
        times the line of w + d when w + d is a root (_propagate matched
        the pair on that edge), and to 0 otherwise: the pair's modules
        are congruent, so isomorphic (Humphreys §20), the roots w' fill
        the partner module, and a root w' + d of it is the partner of
        w + d.  A root r of R_J+ maps to a multiple of E_(r+d), and a
        root r + d lies in no pair's or plain's module, which would then
        hold r too (lines raises on a root in two parts): it lies in m10
        exactly when it lies in R_J+.

        The E_d generate the semisimple part of l^C, and t' acts on each
        line by one scalar, since its two roots share a theta-transverse
        weight (_propagate).  Then [l^C, m10] lies in m10, and since
        conj fixes l^C, l^C normalizes W = l^C + m01 and lies in N and in
        conj(N) (normalizer_excess).  False says only that this certificate
        does not hold."""
        self.lines  # raises, as every check does, on a subspace that is no m10
        codes, get = self.datum.system.codes, self.datum.system.by_code.get
        for d in self.datum.ro_generators:
            for r in self.rj_plus:
                k = get(codes[r] + codes[d])
                if k is not None and k not in self.rj_plus:
                    return False
        return True

    @cached_property
    def _coded(self) -> tuple[dict, list[dict], MonomialCode]:
        """(lines, their vectors, the code): each twist coded once, wide enough
        for a product of three (scalars.MonomialCode); 1 is coded {0: 1}."""
        code = MonomialCode([line[1] for line in self.lines.values() if line])
        lines = {w: line and (line[0], code.encode(line[1])) for w, line in self.lines.items()}
        return lines, _line_vectors(lines, {0: 1}), code


def _in_rprime(datum: ContactDatum, roots) -> None:
    """Raises, naming the first root of R_o among roots: m10 lies in m^C,
    the span of the E_r for r in R'."""
    for r in roots:
        if r not in datum.Rprime:
            raise StructError(f"root {format_vector(datum.system.roots[r])} lies in R_o, "
                              "but m10 lies in m^C, spanned by R'")


def _line_vectors(lines: Mapping, one=1) -> list[dict]:
    """Each line as a sum of root vectors {root: coefficient}, in line
    order: {w: one} for E_w and {w: one, w': c} for E_w + c E_w'."""
    return [{w: one} if line is None else {w: one, line[0]: line[1]} for w, line in lines.items()]


def _reduce(lines: Mapping, res: dict) -> dict:
    """res, a sum of root vectors {root: coded polynomial}, reduced in place
    modulo the coded lines: each line E_w + c E_w' takes E_w's coefficient
    x off w and subtracts c x on w', and a lone E_w takes it off w.  What is
    left is 0 exactly when res lies in the span of the lines."""
    for w in [w for w in res if w in lines]:
        x = res.pop(w)
        if lines[w] is not None:
            wp, c = lines[w]
            add_product(res.setdefault(wp, {}), x, c, -1)
    return res


def _conj(row: Mapping, neg) -> dict:
    """The conjugate of a sparse coordinate row {column: coefficient}
    under the compact real form: conj(E_a) = -E_-a and conj(H) = -H,
    antilinearly (chevalley).  Column a < |R| is the root a, with negative
    neg[a]; a column past the roots is a Cartan coordinate."""
    return {neg[c] if c < len(neg) else c: -x.conj() for c, x in row.items()}


def _propagate(datum: ContactDatum, hw: int, partner: int) -> dict[int, tuple[int, Gauss]]:
    """Equivariant twist coefficients: weight w of m(hw) maps to
    (w', kappa_w) with the twisted vectors E_w + c*kappa_w E_w'.

    Verified to be path independent; raises when the two modules are not
    equivalent under the stabilizer.  Only ContactDatum.ro_generators are
    walked: a module is connected under the simple steps from any of its
    weights, and a map that commutes with the simple E_d and E_-d commutes
    with all of l^C, by Jacobi.
    """
    memo = datum.propagations
    if (hw, partner) in memo:
        return memo[(hw, partner)]
    sys = datum.system
    mods = datum.modules
    if hw not in mods or partner not in mods:
        raise StructError("twisted pair components must be module highest weights")
    # congruent: distinct roots of one theta-transverse weight, which differ
    # by a nonzero multiple of theta
    if hw == partner or datum.weight_codes[hw] != datum.weight_codes[partner]:
        raise StructError("twisted pair of non-congruent modules")
    tab = sys.constants
    codes, get = sys.codes, sys.by_code.get
    kappa: dict[int, tuple[int, Gauss]] = {hw: (partner, ONE)}
    frontier = [hw]
    weights = mods[hw].weights
    while frontier:
        w = frontier.pop()
        wp, kw = kappa[w]
        for d in datum.ro_generators:
            w2 = get(codes[w] + codes[d])
            if w2 is None or w2 not in weights:
                continue
            wp2 = get(codes[wp] + codes[d])
            n1 = tab.n(d, w)
            if wp2 is None:
                raise StructError("modules are not equivariantly matched")
            n2 = tab.n(d, wp)
            val = kw * n2 / n1
            if w2 in kappa:
                if kappa[w2] != (wp2, val):
                    raise StructError("twist propagation is path dependent")
            else:
                kappa[w2] = (wp2, val)
                frontier.append(w2)
    if set(kappa) != set(weights):
        raise StructError("twist propagation did not reach the whole module")
    memo[(hw, partner)] = kappa
    return kappa


# -- integrability -------------------------------------------------------------------


class ConstraintSet:
    """Polynomial conditions on the twist parameters."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[Poly, ...]):
        self.generators = generators

    @property
    def unconditional(self) -> bool:
        return not self.generators

    def holds_at(self, values: Mapping[str, Gauss]) -> bool:
        return all(g.eval(values).is_zero() for g in self.generators)

    def __str__(self) -> str:
        if self.unconditional:
            return "unconditional"
        return " and ".join(render_constraint(g) for g in self.generators)


def render_constraint(g: Poly) -> str:
    """Binomial constraints render as "a = b", otherwise "... = 0"."""
    terms = sorted(g.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
    if len(terms) == 2:
        (m1, c1), (m2, c2) = terms
        if (c1 + c2).is_zero():
            return f"{Poly({m1: Gauss(1)})} = {Poly({m2: Gauss(1)})}"
    return f"{g} = 0"


def check_integrability(h: HolomorphicSubspace) -> ConstraintSet:
    """Conditions on the twists for [m10, m10] to lie in m10 + l^C.

    A subspace without pairs, every line a lone E_s for s in the line
    roots S, is decided on root sets (_lone_lines_closed): [E_r, E_s] is
    N(r, s) E_(r+s), nonzero, for a root sum, and H_r, which lies off t'
    as r lies in R', for s = -r.  So it is unconditional when no two
    roots of S are opposite and every root sum of two lies in S or R_o,
    and otherwise its one generator is 1, printed "1 = 0".

    Each bracket of two lines is read off their at most four root pairs:
    N(r, s) E_(r+s) for a root sum, and for s = -r the coroot H_r, of
    theta-component (theta, H_r) = 2 (theta, r)/(r, r), read off
    ContactDatum.theta_pairings times ConstantTable.coroot_factors, up to
    one positive factor, which primitive() divides out.  The bracket is
    reduced modulo m10 + l^C, and every coefficient left, with its
    theta-component, is a condition.  Every pair of lines is bracketed,
    or, where HolomorphicSubspace.l_stable, each module's highest line
    with the other lines of its own and the later modules: the bracket
    modulo m10 + l^C is l^C-equivariant, so it vanishes on two modules
    exactly when it does on one's highest line and the other (README, "How
    the normalizer excess is computed").  A pair is skipped when its
    weight sum names no live block: a sum that is no weight of g leaves
    nothing, and neither does an absorbed block, one of nonzero weight
    whose roots all lie in R_o or on lone lines E_w, since a bracket into
    it has no Cartan part and reduces to 0."""
    datum = h.datum
    if not any(h.lines.values()):
        return ConstraintSet(() if _lone_lines_closed(datum, h.lines) else (as_poly(ONE),))
    sys = datum.system
    n, codes, get, neg = sys.constants.n, sys.codes, sys.by_code.get, sys.neg_index
    tp, factor = datum.theta_pairings, sys.constants.coroot_factors
    lines, vecs, code = h._coded
    gens: dict[frozenset, Poly] = {}

    def note(t):
        if any(t.values()):  # deduplicated on the int triples of its coefficients
            p = code.decode(t).primitive()
            gens.setdefault(frozenset((m, c.a, c.b, c.d) for m, c in p.terms.items()), p)

    ro = frozenset(datum.Ro.members)
    # the live blocks: g_0, and every other weight of g with a root off R_o
    # and off the lone lines
    live = {rho for rho, roots in datum.weight_blocks.items()
            if rho == 0 or any(r not in ro and lines.get(r, 0) is not None for r in roots)}
    # the weight code of each line, which its two roots share (_propagate)
    weights = [datum.weight_codes[w] for w in lines]
    pairs = combinations(range(len(vecs)), 2)
    if h.l_stable:
        mod, order = datum.module_of, {hw: k for k, hw in enumerate(datum.modules)}
        at = [order[mod[w]] for w in lines]
        pairs = [(a, b) for a, w in enumerate(lines) if mod[w] == w
                 for b in range(len(vecs)) if b != a and at[b] >= at[a]]
    for a, b in pairs:
        if weights[a] + weights[b] not in live:
            continue
        res: dict[int, dict] = {}
        cartan: dict = {}
        for r, x in vecs[a].items():
            cr, nr = codes[r], neg[r]
            for s, y in vecs[b].items():
                if s == nr:
                    add_product(cartan, x, y, tp[r] * factor[r])
                elif (k := get(cr + codes[s])) is not None:
                    add_product(res.setdefault(k, {}), x, y, n(r, s))
        for w, t in _reduce(lines, res).items():
            if w not in ro:
                note(t)
        note(cartan)
    return ConstraintSet(tuple(_minimize(sorted(gens.values(), key=lambda p: p.key()))))


def _lone_lines_closed(datum: ContactDatum, s) -> bool:
    """True when the root set s holds no two opposite roots and every root
    sum of two of its roots lies in s or R_o."""
    codes, get, neg = datum.system.codes, datum.system.by_code.get, datum.system.neg_index
    ro = datum.Ro.members
    for r in s:
        if neg[r] in s:
            return False
        cr = codes[r]
        for t in s:
            k = get(cr + codes[t])
            if k is not None and k not in s and k not in ro:
                return False
    return True


def _minimize(gens: list[Poly]) -> list[Poly]:
    """Drop generators that are monomial multiples of another generator."""
    keep: list[Poly] = []
    for g in sorted(gens, key=lambda p: (len(p.terms), min(sum(e for _, e in m) for m in p.terms))):
        if any(_is_monomial_multiple(g, h) for h in keep):
            continue
        keep.append(g)
    return keep


def _is_monomial_multiple(g: Poly, h: Poly) -> bool:
    """True when g = scalar * (monomial) * h."""
    if len(g.terms) != len(h.terms) or h.is_zero():
        return False
    mg0, cg0 = next(iter(sorted(g.terms.items())))
    for mh0, ch0 in h.terms.items():
        dg, dh = dict(mg0), dict(mh0)
        if any(dg.get(v, 0) < e for v, e in dh.items()):
            continue
        delta = {v: e - dh.get(v, 0) for v, e in dg.items() if e != dh.get(v, 0)}
        if any(e < 0 for e in delta.values()):
            continue
        shift = tuple(sorted(delta.items()))
        ratio = cg0 / ch0
        shifted = {_mono_mul(m, shift): c * ratio for m, c in h.terms.items()}
        if shifted == g.terms:
            return True
    return False


# -- disjointness ----------------------------------------------------------------------


class DisjointnessResult:
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Poly, ...]):
        self.factors = factors

    def excluded_abs(self) -> list[str]:
        """Human forms of the excluded parameter loci."""
        return [_abs_locus(f) or f"{f} = 0" for f in self.factors]

    def holds_at(self, values: Mapping[str, Gauss]) -> bool:
        """No factor vanishes at values, completed by x~ = conj(x)."""
        vals = _with_conj(values)
        return all(not f.eval(vals).is_zero() for f in self.factors)


def _with_conj(values: Mapping[str, Gauss]) -> dict[str, Gauss]:
    out = dict(values)
    for k, v in values.items():
        out.setdefault(conj_var(k), v.conj())
    return out


def _abs_locus(f: Poly) -> Optional[str]:
    """Render factors that only involve x*conj(x) as modulus conditions."""
    by_r: dict[int, Gauss] = {}
    var = None
    for m, c in f.terms.items():
        d = dict(m)
        bases = {v.rstrip("~") for v in d}
        if len(bases) > 1:
            return None
        if not bases:
            by_r[0] = c
            continue
        (b,) = bases
        if var is None:
            var = b
        elif var != b:
            return None
        if d.get(b, 0) != d.get(b + "~", 0):
            return None
        by_r[d.get(b, 0)] = c
    if var is None or any(c.b for c in by_r.values()):
        return None
    # f as a polynomial in r = |var|^2 with integer coefficients; by the
    # rational root theorem its positive roots are among the p/q with p
    # dividing the lowest coefficient and q the leading one
    den = lcm(*(c.d for c in by_r.values()))
    coeffs = {e: c.a * (den // c.d) for e, c in by_r.items()}
    lowest, leading = coeffs[min(coeffs)], coeffs[max(coeffs)]
    roots = sorted({
        Q(p, q) for p in _divisors(lowest) for q in _divisors(leading)
        if sum(c * Q(p, q) ** e for e, c in coeffs.items()) == 0
    })
    if not roots:
        return None
    return " and ".join(
        f"|{var}| != 1" if r == 1 else f"|{var}|^2 != {r}" for r in roots
    )


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def check_disjointness(h: HolomorphicSubspace) -> DisjointnessResult:
    """Determinant factors whose nonvanishing gives m10 and conj(m10) disjoint,
    one per congruence class, read off the lines and their conjugates.

    The two roots of a line share a theta-transverse weight (_propagate),
    so each line and each conjugate -E_-w - conj(c) E_-w' lies in one
    class, and m10 + m01 is the sum over the classes of their rows, taken
    in the order of the lines, then of their conjugates.  A class with
    other than one row per root raises.  A lone line E_w, a line whose
    twist is 0 included, and its conjugate -E_-w are unit rows, pivots
    on one column each: two on one column make the determinant 0 and
    raise, and the others expand it to +-1 times the determinant of the
    twisted lines and their conjugates on the columns left.  primitive()
    drops that sign, so only those rows take a determinant, and a class
    without a twist has none: its determinant is +-1, no factor.  Where
    HolomorphicSubspace.l_stable, only the classes of module highest
    weights take one: m10 n m01 is then l^C-stable, and a highest vector
    of it lies in such a class (README)."""
    neg, class_of = h.datum.system.neg_index, h.datum.class_of
    decided = set(map(class_of.get, h.datum.modules if h.l_stable else class_of))
    # each class's rows: a pivot's column, or a twisted row {column: entry},
    # or None where no determinant is taken
    rows: dict[tuple[int, ...], list] = {}
    for w, line in h.lines.items():
        rows.setdefault(class_of[w], []).append({w: ONE, line[0]: line[1]}
                                                if line and line[1] else w)
    for w, line in h.lines.items():
        block = class_of[neg[w]]
        rows.setdefault(block, []).append(
            neg[w] if not (line and line[1]) else None if block not in decided
            else {neg[w]: -ONE, neg[line[0]]: -line[1].conj()})
    factors: dict[tuple, Poly] = {}
    for block, vs in rows.items():
        if len(vs) != len(block):
            raise StructError("congruence block is not square")
        pivots = {v for v in vs if type(v) is int}
        twisted = [v for v in vs if type(v) is not int]
        if len(pivots) + len(twisted) != len(vs):
            raise StructError("identically degenerate block")
        if not twisted or block not in decided:
            continue
        cols = [c for c in block if c not in pivots]
        det = as_poly(_det_poly([[v.get(c, P_ZERO) for c in cols] for v in twisted]))
        if det.is_zero():
            raise StructError("identically degenerate block")
        det = det.primitive()
        if not det.is_constant():
            factors.setdefault(det.key(), det)
    return DisjointnessResult(tuple(sorted(factors.values(), key=lambda p: p.key())))


def _det_poly(mat: list[list]):
    """The determinant by cofactors along the first row."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = P_ZERO
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det_poly(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# -- evaluation-based checks ---------------------------------------------------------


def is_standard(h: HolomorphicSubspace, values: Mapping[str, Gauss]) -> bool:
    """Ad_Z-invariance of the subspace evaluated at values, read off its
    lines (HolomorphicSubspace.lines).

    ad_Z scales E_w by (w, theta), and no root lies on two lines, so the
    image of E_w + c E_w' lies in the subspace exactly when it is a multiple
    of that vector: when (w, theta) = (w', theta) or c is 0 at values
    (HolomorphicSubspace.at).  The pairings are compared as
    ContactDatum.theta_pairings holds them, times one positive int."""
    p = h.datum.theta_pairings
    return all(line is None or p[w] == p[line[0]] for w, line in h.at(values).items())


def normalizer_excess(h: HolomorphicSubspace, values: Mapping[str, Gauss]) -> int:
    """dim over R of N_g(l^C + m01) modulo l.

    Where HolomorphicSubspace.l_stable holds and m10 and m01 are disjoint
    at values (DisjointnessResult.holds_at; where check_disjointness
    raises they meet at every value), the excess is 1 when h is standard
    at values and 0 otherwise, with no bracket taken (README, "How the
    normalizer excess is computed"): l^C lies in N and in conj(N), the t'
    seeds below leave N n conj(N) no more than l^C in every weight block
    rho != 0, and in block 0 the normalizers of the lines of m10 and m01
    in sl2(mu), or C H(theta) when no root mu is parallel to theta, meet
    in C H(theta) or in 0; H(theta) normalizes W = l^C + m01 exactly when
    ad_Z keeps m10 (is_standard).

    Everywhere else the excess is counted.  With the invariant form
    <.,.> of the Chevalley basis (<E_a, E_-a> = 2/(a, a),
    <H(u), H(v)> = (u, v), every other pair of basis elements 0), X
    normalizes W exactly when <X, [w, u]> = 0 for every w in W and u in
    the orthogonal complement W', since W = W'' and
    <[X, w], u> = <X, [w, u]>.  So the complex normalizer N is the
    annihilator of S = [W, W'], and conj(N) that of conj(S), because
    <conj x, conj y> = conj <x, y>.  The real points of N, complexified,
    are N intersect conj(N), of dimension dim g - rank(S + conj(S)); the
    excess subtracts dim_C l^C.  W and W' are read off the lines
    (_graded_w_and_perp), no linear system solved.

    Everything is graded by the theta-transverse weight of
    ContactDatum.weight_codes: the form pairs g_tau only with g_-tau and conj
    maps g_tau onto g_-tau, so [W_sigma, W'_tau] lies in g_(sigma + tau),
    and S + conj(S) is the sum over rho of the blocks S_rho + conj(S_-rho).
    The block of -rho is the conjugate of the block of rho, so one block
    of each pair is ranked and counted twice.

    t' = h intersect theta-perp lies in W and is never bracketed.  A root
    r of weight tau pairs with v in t' as (r, v) = (tau, v)/(theta, theta),
    since v is orthogonal to theta, so t' acts on W'_tau by scalars, not
    all 0 when tau != 0 (t' is all of theta-perp), and kills W'_0 (H(theta)
    and the roots parallel to theta).  So [t', W'] is the sum of the W'_tau
    with tau != 0, and each of their basis vectors enters S as it is, a
    seed of its block.  Only the other elements of W are bracketed.  A
    pair (W_sigma, W'_tau) is skipped when its sum is no weight of g, and
    a row of weight rho once its block reaches dim g_rho, which no rank
    can pass.  The count assumes nothing of W, so a W that is not
    l-stable gets its exact, possibly negative, excess."""
    if h.l_stable:
        try:
            cr = check_disjointness(h).holds_at(values)
        except StructError:  # m10 meets m01 at every value
            cr = False
        if cr:
            return int(is_standard(h, values))
    datum = h.datum
    sys = datum.system
    wblocks, perp = _graded_w_and_perp(h, values)
    # the room left under each block's bound, dim g_tau
    room = {tau: len(roots) for tau, roots in datum.weight_blocks.items()}
    room[0] += sys.rank
    blocks: dict[int, Echelon] = {}
    for tau, us in perp.items():
        if tau and room[tau] > 0:
            _bracket_into(sys, blocks, room, tau, us)
    for rho in [rho for rho, r in room.items() if r > 0]:
        for sigma, ws in wblocks.items():
            us = perp.get(rho - sigma)
            if us and room[rho] > 0:
                # t', the RootVectors of W_0, only scales the seeds
                _bracket_into(sys, blocks, room, rho, (_bracket_row(datum, w, u)
                                                       for w in ws if type(w) is dict for u in us))
    # the block of -rho is the conjugate of the block of rho: same rank
    rank = sum(len(ech.rows) * (1 if tau == 0 else 2) for tau, ech in blocks.items())
    dim_l = len(datum.Ro.members) + len(datum.theta_perp_cartan)
    return len(sys.roots) + sys.rank - rank - dim_l


def _graded_w_and_perp(h: HolomorphicSubspace, values: Mapping[str, Gauss]):
    """Bases of W = l^C + m01 and of its form complement W' at values,
    each as lists by theta-transverse weight.  An element is {root:
    coefficient} for a sum of root vectors, or a RootVector v for H(v).

    W is l^C (ContactDatum.l_complex) and the conjugate -E_-w - conj(c) E_-w'
    of each line E_w + c E_w' of HolomorphicSubspace.at(values).  Every root
    of a line lies in R' (HolomorphicSubspace.lines), so the form rows of
    these elements have pairwise disjoint supports: column -d for E_d, the
    Cartan for t', and the roots of its line for a line's conjugate.  So W'
    is spanned by H(theta), which pairs to 0 with t' = theta-perp; by E_r
    for each root r of R' on no line whose coefficient is nonzero at values;
    and by conj(c) |w|^2 E_w - |w'|^2 E_w' for each line with c nonzero, in
    the int norms, which pairs to 0 with that line's conjugate.  Those are
    |R'|/2 + 1 = dim g - dim W independent vectors, graded, since the two
    roots of a line share their weight (_propagate).
    """
    datum = h.datum
    sys = datum.system
    wt, neg, norms = datum.weight_codes, sys.neg_index, sys.int_norms
    wblocks = {tau: list(els) for tau, els in datum.l_complex.items()}
    perp: dict[int, list] = {0: [datum.theta]}
    free = set(datum.Rprime)
    for w, line in h.at(values).items():
        free.discard(w)
        v = {w: ONE}
        if line is not None:
            wp, c = line
            free.discard(wp)
            v[wp] = c
            perp.setdefault(wt[w], []).append({w: c.conj() * norms[w], wp: Gauss(-norms[wp])})
        wblocks.setdefault(-wt[w], []).append(_conj(v, neg))
    for r in sorted(free):
        perp.setdefault(wt[r], []).append({r: ONE})
    return wblocks, perp


def _bracket_into(sys: RootSystem, blocks: dict, room: dict, rho: int, rows):
    """Rank rows of weight rho, the seeds of W'_rho or the brackets of a
    pair (W_sigma, W'_tau), into the block of |rho|, made on its first
    nonzero row, until no room is left under its bound, which no rank can
    pass; a generator of rows is not read past that point.

    The blocks rho and -rho hold S_rho + conj(S_-rho) and its conjugate,
    so only the one of the positive code is kept: a row enters it as
    itself when rho is positive, as its conjugate when -rho is, and as
    both when rho = 0.  Their bounds are equal, and so is their room."""
    ech = blocks.get(abs(rho))
    for row in rows:
        if not row:
            continue
        if ech is None:
            ech = blocks[abs(rho)] = Echelon()
        rank = len(ech.rows)
        if rho >= 0:
            ech.add(row)
        if rho <= 0:
            ech.add(_conj(row, sys.neg_index))
        room[rho] = room[-rho] = room[rho] - (len(ech.rows) - rank)
        if room[rho] <= 0:
            return


def _bracket_row(datum: ContactDatum, x: dict, y) -> dict:
    """The sparse coordinate row of [x, y] for x a sum of root vectors and
    y one too, or H(theta), written datum.theta (_graded_w_and_perp): root
    i is column i, simple-root Cartan coordinate k column |R| + k.
    [E_r, H(theta)] = -(r, theta) E_r, read off
    ContactDatum.theta_pairings, whose positive factor scales the row and
    leaves its span; [E_a, E_-a] is the int coroot of
    ConstantTable.coroot_terms, whose positive constant scales the Cartan
    columns of every row alike."""
    if isinstance(y, RootVector):
        p = datum.theta_pairings
        return {r: -c * p[r] for r, c in x.items() if p[r]}
    e, h = {}, {}
    root_bracket(datum.system, x, y, e, h)
    n = len(datum.system.roots)
    return {**{k: c for k, c in e.items() if c}, **{n + k: c for k, c in h.items() if c}}


# -- parabolic fibration witnesses ------------------------------------------------------


class ParabolicWitness:
    """A parabolic witness: its symmetric roots P and -P share, and its
    fiber's dimension and type.  Equal and hashed by value."""

    __slots__ = ("sym_roots", "fiber_dim", "fiber_type")

    def __init__(self, sym_roots: frozenset[int], fiber_dim: int, fiber_type: str):
        self.sym_roots = sym_roots
        self.fiber_dim = fiber_dim
        self.fiber_type = fiber_type

    def __eq__(self, other):
        if other.__class__ is not ParabolicWitness:
            return NotImplemented
        return ((self.sym_roots, self.fiber_dim, self.fiber_type)
                == (other.sym_roots, other.fiber_dim, other.fiber_type))

    def __hash__(self):
        return hash((self.sym_roots, self.fiber_dim, self.fiber_type))


class FibrationReport:
    __slots__ = ("witnesses",)

    def __init__(self, witnesses: tuple[ParabolicWitness, ...]):
        self.witnesses = witnesses

    @property
    def primitive(self) -> bool:
        return not self.witnesses

    @property
    def circular(self) -> bool:
        return any(w.fiber_dim == 1 for w in self.witnesses)


def find_crf_parabolics(h: HolomorphicSubspace, values: Mapping[str, Gauss]) -> FibrationReport:
    """Proper parabolic subalgebras containing l^C + m10.

    The support S of l^C + m10 (R_o and the roots of the lines of
    HolomorphicSubspace.at(values), a line whose twist is 0 there adding
    only its first root)
    meets every pair {a, -a}: l^C holds R_o, and m10 + m01 = m^C with
    m01 = conj(m10) supported on -S.  A closed root set P with
    P u -P = R is parabolic (Bourbaki, Lie VI 1.7, Prop. 20), and every
    parabolic is closed, so the additive closure of S is the least
    parabolic containing S: the one root-subset witness when it is proper,
    none when it is R.  A pair that the closure leaves undecided means m10
    is not complementary to its conjugate at these values; that raises.

    Root sets miss only the rotated case.  A parabolic containing l^C holds
    t' = h n theta^perp, so a Cartan c with t' < c < z_g(t') (Borel and
    Tits).  The roots vanishing on t' are those parallel to theta, at most
    +-mu.  Without them c = h, and the closure above finds the parabolic.
    With them c may pass through the su2 line when its twist is nonzero:
    the parabolic reduction adapted to that rotated Cartan (S^1 fibers) is
    added.  Otherwise exp ad E_+-mu, which fixes t', carries c to h.
    """
    sys = h.datum.system
    datum = h.datum
    support = set(datum.Ro.members)
    for w, line in h.at(values).items():
        support.update((w, line[0]) if line else (w,))
    p = _additive_closure(sys, frozenset(support))
    if any(i not in p and sys.neg_index[i] not in p for i in range(len(sys.roots))):
        raise StructError("m10 and its conjugate do not span m at these values")
    witnesses: list[ParabolicWitness] = []
    if len(p) < len(sys.roots):
        sym = frozenset(i for i in p if sys.neg_index[i] in p)
        fiber_dim = len(sym) - len(datum.Ro.members) + 1
        witnesses.append(ParabolicWitness(sym, fiber_dim, fiber_type(datum, sym)))
    s1 = _rotated_s1_witness(h, values)
    if s1 is not None:
        witnesses.append(s1)
    witnesses.sort(key=lambda w: (w.fiber_dim, sorted(w.sym_roots)))
    return FibrationReport(tuple(witnesses))


def _additive_closure(sys: RootSystem, seed: frozenset[int]) -> frozenset[int]:
    """The least set of roots containing seed and closed under root sums.

    Sweeps the roots missing from the set until one sweep adds none: a
    root r joins when r - a lies in the set for some member a, one code
    difference and one lookup per test.  A seed holds most of its closure,
    so this tests far fewer pairs than pairing every two members."""
    codes, get = sys.codes, sys.by_code.get
    out = set(seed)
    grew = True
    while grew:
        grew = False
        for r, cr in enumerate(codes):
            if r not in out and any(get(cr - codes[a]) in out for a in out):
                out.add(r)
                grew = True
    return frozenset(out)


def _rotated_s1_witness(h: HolomorphicSubspace, values: Mapping[str, Gauss]) -> Optional[ParabolicWitness]:
    """S^1-fiber reduction adapted to the twisted su2 line, the pair whose
    partner is the negative of its highest weight, when one exists (no
    root lies on two lines, so there is at most one): requires a nonzero
    twist at values and no pair of mutually negative eigenlines inside the
    subspace."""
    sys, datum = h.datum.system, h.datum
    mu = next((p.hw for p in h.pairs if p.partner == sys.neg_index[p.hw]), None)
    lines = dict(h.at(values))
    if mu is None or lines[mu] is None:
        return None
    partner, twist = lines.pop(mu)
    x = {mu: ONE, partner: twist}
    constraints: list[tuple[int, Q]] = []
    covered: set[tuple[frozenset[int], int]] = set()
    for v in _line_vectors(lines):
        w = next(iter(v))  # the line's first root, of coefficient 1
        support, br = frozenset(v), {}
        root_bracket(sys, x, v, br, {})
        image = {k for k, c in br.items() if c}
        zeta = _zeta_value(datum, min(support))
        if image - support:
            # whole module blocks: ad_X mixes the two halves; both eigen
            # lines of each block are covered
            covered |= {(support | image, 1), (support | image, -1)}
            constraints += [(zeta, Q(1)), (zeta, Q(-1))]
        else:
            # an eigenline: ad_X scales it by its coefficient on w, whose
            # sign (the denominator is positive) is all the cone reads
            c = br.get(w, ZERO)
            key = c.a or c.b
            lam = (key > 0) - (key < 0)
            covered.add((support, lam))
            constraints.append((zeta, Q(lam)))
    # forced symmetric pair: a covered eigenline whose negative is covered
    for block, sgn in covered:
        negblock = frozenset(sys.neg_index[i] for i in block)
        if (negblock, -sgn) in covered:
            return None
    # strict feasibility of f = (u, v) with v entering through the su2 block
    if not _cone_feasible(constraints):
        return None
    return ParabolicWitness(frozenset(datum.Ro.members), 1, "S1")


def _zeta_value(datum: ContactDatum, root_idx: int) -> int:
    """The pairing of a root with the center of l, which is one direction or
    none wherever an su2 line stands (theta parallel to a root), times one
    positive int (RootVector.covector): _cone_feasible's verdict is
    the same for every positive multiple of the center."""
    if not datum.center:
        return 0
    e = datum.system.expansions[root_idx]
    return sum(e[k] * y for k, y in datum.center[0].covector())


def _cone_feasible(constraints: list[tuple[Q, Q]]) -> bool:
    """Strict feasibility of a*u + b*v > 0 (plus v != 0) in two variables.

    The solutions form an open cone, which meets v != 0 as soon as it is
    nonempty, and then meets u = 1 or u = -1 after scaling.  Fourier-Motzkin
    elimination of v decides each: a constraint with b > 0 bounds v below,
    one with b < 0 above, each by -(a/b)u, and one with b = 0 asks a*u > 0.
    Every comparison is exact.
    """
    for u in (1, -1):
        lower = [-a * u / b for a, b in constraints if b > 0]
        upper = [-a * u / b for a, b in constraints if b < 0]
        if (all(a * u > 0 for a, b in constraints if b == 0)
                and (not lower or not upper or max(lower) < min(upper))):
            return True
    return False
