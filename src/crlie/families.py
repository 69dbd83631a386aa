"""The classified holomorphic-subspace families, one Families record per
contact datum.

Each route of classify.classify_datum calls one constructor here: the
special route special_su_families, the g2-short and short-root routes
short_root_families, the pair route pair_family.  Every constructor
takes the datum classify_datum routed (the special and short-root routes
conjugate theta to its dominant root first) and returns a Families
record: the route, the structures in report order, each labelled with
its report row's family name, the disc family the primitive scan
verifies with the paper's number of its family, and the one a CR graph's
verification checks.  pair_family runs the whole pair route, from the
dual pairs and the shape of their closure to R_J+, and raises
FamilyError where the route classifies nothing.

All three read their twisted pairs, the two modules of one class, off
the isotypic components of modules.schur_components; _standard builds
the standard structure, the theta-positive modules, of every root
route.  An su2 line is the pair (mu, -mu) of the one-root modules of
theta's root mu.

Twist charts are unit-normalized: the highest-weight pair coefficients are
multiplied by fixed signs (computed once from the structure constants) so
that the integrability constraints take the reference forms, e.g. s = t^2
for the two-parameter symplectic and F4 families.  The normalizing units
have modulus one, so disc parameterizations are unaffected; _chart_unit
reads each unit off a constraint of a raw chart.
"""

from __future__ import annotations

from typing import Optional

from .contact import ContactDatum
from .crstruct import (
    ConstraintSet,
    HolomorphicSubspace,
    TwistedPair,
    check_integrability,
)
from .modules import CongruenceError, dual_pairs, schur_components, tilde_Re_type
from .scalars import Gauss, Poly


class FamilyError(ValueError):
    pass


class Families:
    """Where classify_datum sent a contact datum, and the invariant
    structures found there.

    route is "special" (theta along a long root), "g2-short",
    "short-root", "pair" (theta along no root) or "unclassified", with the
    reason in ``reason``.  structures holds the subspaces in report order,
    each labelled with its report row's family name.  primitive is the
    disc family the primitive scan verifies, family the paper's number of
    its primitive family, and fibered the disc family a CR graph's
    verification checks; each is None where it does not apply.  chart is
    the two-parameter chart whose constraint takes the form t = s^2 or
    s = t^2, where there is one.
    """

    __slots__ = ("datum", "route", "structures", "family", "primitive", "fibered", "chart",
                 "reason")

    def __init__(self, datum: ContactDatum, route: str,
                 structures: tuple[HolomorphicSubspace, ...] = (), family: Optional[int] = None,
                 primitive: Optional[HolomorphicSubspace] = None,
                 fibered: Optional[HolomorphicSubspace] = None,
                 chart: Optional[HolomorphicSubspace] = None, reason: str = ""):
        self.datum = datum
        self.route = route
        self.structures = structures
        self.family = family
        self.primitive = primitive
        self.fibered = fibered
        self.chart = chart
        self.reason = reason


def _unit_from_binomial(g: Poly, lead_var: str) -> Gauss:
    """For a binomial c1*m1 + c2*m2 with m1 containing lead_var, the unit
    -c2/c1; asserts modulus one."""
    terms = sorted(g.terms.items(), key=lambda kv: kv[0])
    if len(terms) != 2:
        raise FamilyError(f"expected a binomial constraint, got {g}")
    (m1, c1), (m2, c2) = terms
    if not any(v == lead_var for v, _ in m1):
        (m1, c1), (m2, c2) = (m2, c2), (m1, c1)
    if not any(v == lead_var for v, _ in m1):
        raise FamilyError(f"constraint {g} does not involve {lead_var}")
    u = (-c2) / c1
    if u.abs2() != 1:
        raise FamilyError(f"non-unimodular chart normalization {u}")
    return u


def _chart_unit(cs: ConstraintSet, var: str, among: Optional[set[str]] = None) -> Gauss:
    """The unit that brings an integrability constraint of a raw chart to
    its reference form (_unit_from_binomial, led by var): the one
    constraint whose variables are exactly among, or the only one."""
    gens = [g for g in cs.generators if among is None or g.variables() == among]
    if len(gens) != 1:
        raise FamilyError(f"unexpected constraint structure {cs}")
    return _unit_from_binomial(gens[0], var)


def _standard(datum: ContactDatum, label: str = "standard") -> HolomorphicSubspace:
    """The standard structure of a root route: the theta-positive modules
    (R_o is orthogonal to theta, so a module's weights pair alike)."""
    plains = tuple(hw for hw in datum.modules if datum.theta_pairings[hw] > 0)
    return HolomorphicSubspace(datum, plains=plains, label=label)


# -- special contact manifolds (theta parallel to a root) -------------------------------


def special_su_families(datum: ContactDatum) -> Families:
    """Invariant CR structures on the special contact manifold of a simple
    group, given by the datum of its highest root.  Off type A there is
    one, the standard structure.  On an A-type group: one rank-one twisted
    line plus the two half-level components; the twisted line J_t fibers,
    the doubly twisted J0_t is primitive."""
    system = datum.system
    if system.dynkin_type[0][0] != "A":
        return Families(datum, "special", (_standard(datum),))
    mu = system.root_index(datum.theta)
    t = Poly.var("t")
    s = Poly.var("s")

    def su2(c):
        return TwistedPair(mu, system.neg_index[mu], c)

    if system.rank == 1:
        j = HolomorphicSubspace(datum, pairs=(su2(t),), label="disc family J_t")
        return Families(datum, "special", (_standard(datum), j), fibered=j)

    # the two level-1 modules, one conjugate pair of multiplicity 2
    ((hw1, n2, hw2, n1),) = (c for c in schur_components(datum) if len(c) == 4)

    def twisted(c1, c2, c_mu, label=""):
        return HolomorphicSubspace(
            datum, pairs=(TwistedPair(hw1, n2, c1), TwistedPair(hw2, n1, c2), su2(c_mu)),
            label=label,
        )

    # unit-normalize the doubly twisted chart so that s2 = s and t = s^2
    raw = check_integrability(twisted(s, Poly.var("s2"), t))
    u3 = _chart_unit(raw, "s2", among={"s", "s2"})
    u4 = _chart_unit(raw, "t", among={"s", "t"})
    chart = twisted(s, s * u3, t * u4, "two-parameter chart")
    j0 = twisted(t, t * u3, t * t * u4, "disc family J0_t")
    j = HolomorphicSubspace(datum, pairs=(su2(t),), plains=(hw1, n2), label="disc family J_t")
    jp = HolomorphicSubspace(datum, pairs=(su2(t),), plains=(hw2, n1), label="disc family J'_t")
    standard = (
        _standard(datum, "standard (nilradical)"),
        HolomorphicSubspace(datum, plains=(hw1, n2, mu), label="standard (mixed)"),
        HolomorphicSubspace(datum, plains=(hw2, n1, mu), label="standard (mixed, mirror)"),
    )
    # the doubly twisted family of the A series
    return Families(datum, "special", standard + (j, jp, j0), family=6, primitive=j0,
                    fibered=j, chart=chart)


# -- short-root families (SO_{2n+1}, Sp_n, F4) -------------------------------------------


def short_root_families(datum: ContactDatum) -> Families:
    """Structures on the non-special short-root contact manifolds, given by
    the datum of the dominant short root: on B, C and F4 the standard
    structure and a primitive disc family, on G2 the standard structure
    alone."""
    system = datum.system
    kind = system.dynkin_type[0][0]
    if kind == "G":
        return Families(datum, "g2-short", (_standard(datum),))
    family = {"B": 4, "C": 7, "F": 3}[kind]
    # self-conjugate components, long first
    comps = sorted(schur_components(datum), key=lambda c: -system.int_norms[c[0]])
    t, s = Poly.var("t"), Poly.var("s")

    standard = _standard(datum)
    if len(comps) == 1:
        fam = HolomorphicSubspace(datum, pairs=(TwistedPair(*comps[0], t),), label="disc family")
        return Families(datum, "short-root", (standard, fam), family=family, primitive=fam)
    # the long pair carries s, the short pair t; normalize so that s = t^2
    long_pair, short_pair = comps

    def twisted(c_long, label=""):
        pairs = (TwistedPair(*long_pair, c_long), TwistedPair(*short_pair, t))
        return HolomorphicSubspace(datum, pairs=pairs, label=label)

    u = _chart_unit(check_integrability(twisted(s)), "s")
    chart = twisted(s * u, "two-parameter chart")
    fam = twisted(t * t * u, "disc family")
    return Families(datum, "short-root", (standard, fam), family=family, primitive=fam,
                    chart=chart)


# -- twisted pair families for theta not parallel to a root ------------------------------


def pair_family(datum: ContactDatum) -> Families:
    """The pair route: the standard structure and the disc family of a
    candidate with paired isotropy roots.

    The dual pairs must exist (a CongruenceError is the excluded
    multiplicity configuration) and their closure must take an accepted
    shape (modules.tilde_Re_type); FamilyError says which test failed.
    For a D-type candidate the subspace is one twisted pair plus R_J+, the
    positive one-sided block; for the split and B3 shapes the mirrored
    pair enters with the reciprocal coefficient (chart: t * u = 1).  The
    disc family fibers when it verifies as non-primitive; a nonempty R_J+
    rules out primitivity.  The primitive family is the paper's 1 on
    A1+A1, 2 on B3 and 5 on the D series, which includes A3 = D3 and the
    triality forms."""
    try:
        cd = dual_pairs(datum)
    except CongruenceError:
        raise FamilyError("excluded multiplicity configuration") from None
    re_roots = cd.paired_roots
    shape = tilde_Re_type(cd, re_roots)
    if not shape.accepted:
        raise FamilyError(f"eliminated: {shape.reason}")
    rj_plus = cd.rj_plus
    # the classes of two modules, each as (top, its partner)
    tops = [p for c in schur_components(datum) for p in zip(c[::2], c[1::2])
            if datum.modules[p[0]].weights <= re_roots]
    t, u = Poly.var("t"), Poly.var("u")
    if len(tops) == 1:
        pairs = (TwistedPair(*tops[0], t),)
    elif len(tops) == 2:
        # the mirror pair leads with its theta-negative module
        first, (a2, b2) = TwistedPair(*tops[0], t), tops[1]
        raw = HolomorphicSubspace(datum, pairs=(first, TwistedPair(b2, a2, u)), rj_plus=rj_plus)
        pairs = (first, TwistedPair(b2, a2, u * _chart_unit(check_integrability(raw), "u")))
    else:
        raise FamilyError(f"unexpected number of module pairs: {len(tops)}")
    fam = HolomorphicSubspace(datum, pairs=pairs, rj_plus=rj_plus, label="disc family")
    std = HolomorphicSubspace(datum, plains=tuple(sorted(a for a, _ in tops)), rj_plus=rj_plus,
                              label="standard")
    if rj_plus:
        return Families(datum, "pair", (std, fam), fibered=fam)
    family = {"A1+A1": 1, "B3": 2}.get(shape.re_type, 5)
    return Families(datum, "pair", (std, fam), family=family, primitive=fam, fibered=fam)
