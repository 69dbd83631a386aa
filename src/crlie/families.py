"""Constructors for the classified holomorphic-subspace families.

Twist charts are unit-normalized: the highest-weight pair coefficients are
multiplied by fixed signs (computed once from the structure constants) so
that the integrability constraints take the reference forms, e.g. s = t^2
for the two-parameter symplectic and F4 families.  The normalizing units
have modulus one, so disc parameterizations are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .contact import ContactDatum, contact_datum, grade_by_highest_root, grade_by_short_root_g2
from .crstruct import (
    HolomorphicSubspace,
    SU2Line,
    TwistedPair,
    check_integrability,
)
from .modules import dual_pairs
from .rootsys import RootSystem, RootVector
from .scalars import Gauss, P_ZERO, Poly

Q = Fraction


class FamilyError(ValueError):
    pass


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


# -- special contact manifolds (theta parallel to the highest root) ---------------------


@dataclass(frozen=True)
class SpecialFamilies:
    """The classified structures of a special contact manifold of type A."""

    datum: ContactDatum
    mu: RootVector
    standard: list[HolomorphicSubspace]
    j_family: Optional[HolomorphicSubspace]  # plain twisted-line family
    j_prime_family: Optional[HolomorphicSubspace]
    j0_family: Optional[HolomorphicSubspace]  # the doubly twisted family
    generic_two_param: Optional[HolomorphicSubspace]  # constraint t = s^2


def special_su_families(system: RootSystem) -> SpecialFamilies:
    """Invariant CR structures on the special contact manifold of an A-type
    group: one rank-one twisted line plus the two half-level components."""
    if system.components[0][0] != "A" or not system.is_simple:
        raise FamilyError("the twisted special families live on A-type systems")
    grad = grade_by_highest_root(system)
    mu = grad.center
    datum = contact_datum(system, mu)
    mu_idx = system.root_index(mu)
    t = Poly.var("t")
    s = Poly.var("s")

    if system.rank == 1:
        su2 = HolomorphicSubspace(datum, su2=SU2Line(mu_idx, t), label="disc family")
        std = HolomorphicSubspace(datum, su2=SU2Line(mu_idx, P_ZERO), label="standard")
        return SpecialFamilies(datum, mu, [std], su2, None, None, None)

    # the level-1 summands and their negatives are modules of the datum
    hw_of = {m.weights: hw for hw, m in datum.modules.items()}
    c1, c2 = grad.summands(1)
    hw1, hw2 = hw_of[c1], hw_of[c2]
    n1 = hw_of[frozenset(system.neg_index[i] for i in c1)]
    n2 = hw_of[frozenset(system.neg_index[i] for i in c2)]

    def plain_family(a, b, label):
        return HolomorphicSubspace(
            datum, plains=(a, b), su2=SU2Line(mu_idx, t), label=label
        )

    j = plain_family(hw1, n2, "twisted line + split halves")
    jp = plain_family(hw2, n1, "twisted line + split halves (mirror)")

    # unit-normalize the doubly twisted chart so that t = s^2
    raw = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, s), TwistedPair(hw2, n1, Poly.var("s2"))),
        su2=SU2Line(mu_idx, t),
    )
    cs = check_integrability(raw)
    pair_rel = next((g for g in cs.generators if "s2" in g.variables() and "t" not in g.variables()), None)
    u3 = Gauss(1)
    if pair_rel is not None:
        u3 = _unit_from_binomial(pair_rel, "s2")
    step = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, s), TwistedPair(hw2, n1, s.scale(u3))),
        su2=SU2Line(mu_idx, t),
    )
    cs2 = check_integrability(step)
    su_rel = next((g for g in cs2.generators if "t" in g.variables()), None)
    u4 = Gauss(1)
    if su_rel is not None:
        u4 = _unit_from_binomial(su_rel, "t")
    generic = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, s), TwistedPair(hw2, n1, s.scale(u3))),
        su2=SU2Line(mu_idx, t.scale(u4)),
        label="doubly twisted, two-parameter chart",
    )
    j0 = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, t), TwistedPair(hw2, n1, t.scale(u3))),
        su2=SU2Line(mu_idx, (t * t).scale(u4)),
        label="doubly twisted family",
    )
    standard = [
        HolomorphicSubspace(datum, plains=(hw1, hw2), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (nilradical)"),
        HolomorphicSubspace(datum, plains=(hw1, n2), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (mixed)"),
        HolomorphicSubspace(datum, plains=(hw2, n1), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (mixed, mirror)"),
    ]
    return SpecialFamilies(datum, mu, standard, j, jp, j0, generic)


def special_standard_subspace(system: RootSystem) -> HolomorphicSubspace:
    """The unique standard structure of a non-A special contact manifold:
    the positive levels of the highest-root gradation."""
    grad = grade_by_highest_root(system)
    mu = grad.center
    datum = contact_datum(system, mu)
    rj = frozenset(grad.level(1))
    return HolomorphicSubspace(
        datum,
        rj_plus=rj,
        su2=SU2Line(system.root_index(mu), P_ZERO),
        label="standard",
    )


def g2_short_standard_subspace() -> HolomorphicSubspace:
    """The unique structure of the short-root G2 contact manifold:
    positive levels of the seven-level gradation."""
    from .rootsys import build

    system = build("G2")
    grad = grade_by_short_root_g2(system)
    nu = grad.center
    datum = contact_datum(system, nu)
    rj = frozenset(grad.level(1) | grad.level(3))
    return HolomorphicSubspace(
        datum,
        rj_plus=rj,
        su2=SU2Line(system.root_index(nu), P_ZERO),
        label="standard",
    )


# -- short-root families (SO_{2n+1}, Sp_n, F4) -------------------------------------------


@dataclass(frozen=True)
class ShortRootFamilies:
    datum: ContactDatum
    standard: HolomorphicSubspace
    family: HolomorphicSubspace  # one-parameter disc family
    generic_two_param: Optional[HolomorphicSubspace]  # constraint s = t^2


def short_root_families(system: RootSystem) -> ShortRootFamilies:
    """Disc families on the non-special short-root contact manifolds."""
    (ttag, rank) = system.components[0]
    if ttag not in ("B", "C", "F") or not system.is_simple:
        raise FamilyError("short-root families exist for B, C and F4 only")
    short_norm = min(system.norm2(i) for i in range(len(system.roots)))
    short = next(i for i in range(len(system.roots)) if system.norm2(i) == short_norm)
    theta = system.dominant(system.roots[short])
    datum = contact_datum(system, theta)
    mods = datum.modules
    pos = [m for m in mods.values() if system.inner(system.roots[m.highest], theta) > 0]
    t = Poly.var("t")
    s = Poly.var("s")

    def partner_of(m):
        for hw in mods:
            if hw != m.highest and hw in datum.class_of[m.highest]:
                return hw
        raise FamilyError("unpaired module in a short-root datum")

    standard = HolomorphicSubspace(
        datum, plains=tuple(m.highest for m in pos), label="standard"
    )
    if len(pos) == 1:
        fam = HolomorphicSubspace(
            datum,
            pairs=(TwistedPair(pos[0].highest, partner_of(pos[0]), t),),
            label="disc family",
        )
        return ShortRootFamilies(datum, standard, fam, None)
    if len(pos) != 2:
        raise FamilyError("unexpected module structure for a short-root datum")
    # the long pair carries s, the short pair t; normalize so that s = t^2
    long_m, short_m = sorted(
        pos, key=lambda m: -system.norm2(m.highest)
    )
    raw = HolomorphicSubspace(
        datum,
        pairs=(
            TwistedPair(long_m.highest, partner_of(long_m), s),
            TwistedPair(short_m.highest, partner_of(short_m), t),
        ),
    )
    cs = check_integrability(raw)
    if len(cs.generators) != 1:
        raise FamilyError(f"unexpected constraint structure {cs}")
    u = _unit_from_binomial(cs.generators[0], "s")
    generic = HolomorphicSubspace(
        datum,
        pairs=(
            TwistedPair(long_m.highest, partner_of(long_m), s.scale(u)),
            TwistedPair(short_m.highest, partner_of(short_m), t),
        ),
        label="two-parameter chart",
    )
    fam = HolomorphicSubspace(
        datum,
        pairs=(
            TwistedPair(long_m.highest, partner_of(long_m), (t * t).scale(u)),
            TwistedPair(short_m.highest, partner_of(short_m), t),
        ),
        label="disc family",
    )
    return ShortRootFamilies(datum, standard, fam, generic)


# -- twisted pair families for theta not parallel to a root ------------------------------


@dataclass(frozen=True)
class PairFamilies:
    datum: ContactDatum
    standard: HolomorphicSubspace
    family: HolomorphicSubspace


def pair_family(datum: ContactDatum, rj_plus: frozenset[int] = frozenset()) -> PairFamilies:
    """The disc family of a candidate with paired isotropy roots.

    For a D-type candidate the subspace is one twisted pair plus the
    one-sided block; for the split and B3 shapes the mirrored pair enters
    with the reciprocal coefficient (chart: t * u = 1)."""
    sys = datum.system
    cd = dual_pairs(datum)
    re_roots = cd.paired_roots
    mods = datum.modules
    hw_pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for hw, m in sorted(mods.items()):
        if hw in seen or not m.weights <= re_roots:
            continue
        partner = next(h2 for h2 in mods if h2 != hw and h2 in datum.class_of[hw])
        seen.update({hw, partner})
        hw_pairs.append((hw, partner))
    t = Poly.var("t")
    u = Poly.var("u")

    def orient(a: int, b: int) -> tuple[int, int]:
        """Put the theta-positive highest weight first."""
        if sys.inner(sys.roots[a], datum.theta) > 0:
            return a, b
        return b, a

    if len(hw_pairs) == 1:
        a, b = orient(*hw_pairs[0])
        fam = HolomorphicSubspace(
            datum, pairs=(TwistedPair(a, b, t),), rj_plus=rj_plus, label="disc family"
        )
        std = HolomorphicSubspace(
            datum, plains=(a,), rj_plus=rj_plus, label="standard"
        )
        return PairFamilies(datum, std, fam)
    if len(hw_pairs) == 2:
        a, b = orient(*hw_pairs[0])
        # the mirror pair leads with the module conjugate to m(a)
        (a2_raw, b2_raw) = hw_pairs[1]
        neg_weights = frozenset(sys.neg_index[i] for i in mods[a].weights)
        a2, b2 = (a2_raw, b2_raw) if mods[a2_raw].weights == neg_weights else (b2_raw, a2_raw)
        raw = HolomorphicSubspace(
            datum,
            pairs=(TwistedPair(a, b, t), TwistedPair(a2, b2, u)),
            rj_plus=rj_plus,
        )
        cs = check_integrability(raw)
        if len(cs.generators) != 1:
            raise FamilyError(f"unexpected constraint structure {cs}")
        unit = _unit_from_binomial(cs.generators[0], "u")
        fam = HolomorphicSubspace(
            datum,
            pairs=(TwistedPair(a, b, t), TwistedPair(a2, b2, u.scale(unit))),
            rj_plus=rj_plus,
            label="disc family (reciprocal chart)",
        )
        theta_pos = [
            hw
            for hw, m in mods.items()
            if m.weights <= re_roots and sys.inner(sys.roots[hw], datum.theta) > 0
        ]
        std = HolomorphicSubspace(
            datum, plains=tuple(sorted(theta_pos)), rj_plus=rj_plus, label="standard"
        )
        return PairFamilies(datum, std, fam)
    raise FamilyError(f"unexpected number of module pairs: {len(hw_pairs)}")
