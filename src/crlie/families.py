"""The classified holomorphic-subspace families, one Families record per
contact datum.

Each route of classify.classify_datum calls one constructor here: the
special route special_su_families, the g2-short and short-root routes
short_root_families, the pair route pair_family.  Every constructor
returns a Families record: the structures in report order,
each labelled with its report row's family name, plus the disc family the
primitive scan verifies and the one a CR graph's verification checks.

Twist charts are unit-normalized: the highest-weight pair coefficients are
multiplied by fixed signs (computed once from the structure constants) so
that the integrability constraints take the reference forms, e.g. s = t^2
for the two-parameter symplectic and F4 families.  The normalizing units
have modulus one, so disc parameterizations are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .contact import (ContactDatum, Gradation, contact_datum, grade_by_highest_root,
                      grade_by_short_root_g2)
from .crstruct import (
    HolomorphicSubspace,
    SU2Line,
    TwistedPair,
    check_integrability,
)
from .modules import dual_pairs
from .rootsys import RootSystem
from .scalars import Gauss, P_ZERO, Poly


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class Families:
    """The invariant structures found on one contact datum.

    structures holds the subspaces in report order, each labelled with its
    report row's family name.  primitive is the disc family the primitive
    scan verifies and fibered the one a CR graph's verification checks;
    either is None where that check does not apply.  chart is the
    two-parameter chart whose constraint takes the form t = s^2 or
    s = t^2, where there is one.
    """

    datum: ContactDatum
    structures: tuple[HolomorphicSubspace, ...]
    primitive: Optional[HolomorphicSubspace] = None
    fibered: Optional[HolomorphicSubspace] = None
    chart: Optional[HolomorphicSubspace] = None


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


# -- special contact manifolds (theta parallel to a root) -------------------------------


def special_su_families(system: RootSystem) -> Families:
    """Invariant CR structures on the special contact manifold of a simple
    group.  Off type A there is one, the standard structure.  On an A-type
    group: one rank-one twisted line plus the two half-level components;
    the twisted line J_t fibers, the doubly twisted J0_t is primitive."""
    if not system.is_simple:
        raise FamilyError("the special families live on simple systems")
    grad = grade_by_highest_root(system)
    if system.components[0][0] != "A":
        return _standard_family(grad, (1,))
    mu = grad.center
    datum = contact_datum(system, mu)
    mu_idx = system.root_index(mu)
    t = Poly.var("t")
    s = Poly.var("s")

    if system.rank == 1:
        std = HolomorphicSubspace(datum, su2=SU2Line(mu_idx, P_ZERO), label="standard")
        su2 = HolomorphicSubspace(datum, su2=SU2Line(mu_idx, t), label="disc family J_t")
        return Families(datum, (std, su2), fibered=su2)

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

    j = plain_family(hw1, n2, "disc family J_t")
    jp = plain_family(hw2, n1, "disc family J'_t")

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
    chart = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, s), TwistedPair(hw2, n1, s.scale(u3))),
        su2=SU2Line(mu_idx, t.scale(u4)),
        label="two-parameter chart",
    )
    j0 = HolomorphicSubspace(
        datum,
        pairs=(TwistedPair(hw1, n2, t), TwistedPair(hw2, n1, t.scale(u3))),
        su2=SU2Line(mu_idx, (t * t).scale(u4)),
        label="disc family J0_t",
    )
    standard = (
        HolomorphicSubspace(datum, plains=(hw1, hw2), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (nilradical)"),
        HolomorphicSubspace(datum, plains=(hw1, n2), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (mixed)"),
        HolomorphicSubspace(datum, plains=(hw2, n1), su2=SU2Line(mu_idx, P_ZERO),
                            label="standard (mixed, mirror)"),
    )
    return Families(datum, standard + (j, jp, j0), primitive=j0, fibered=j, chart=chart)


def _standard_family(grad: Gradation, levels: tuple[int, ...]) -> Families:
    """The unique structure of a non-A special contact manifold (levels 1
    of the highest-root gradation) or of the short-root G2 one (levels 1
    and 3 of its seven-level gradation): the positive levels, standard."""
    system = grad.system
    datum = contact_datum(system, grad.center)
    h = HolomorphicSubspace(
        datum,
        rj_plus=frozenset().union(*(grad.level(k) for k in levels)),
        su2=SU2Line(system.root_index(grad.center), P_ZERO),
        label="standard",
    )
    return Families(datum, (h,))


# -- short-root families (SO_{2n+1}, Sp_n, F4) -------------------------------------------


def short_root_families(system: RootSystem) -> Families:
    """Structures on the non-special short-root contact manifolds: on B, C
    and F4 the standard structure and a primitive disc family, on G2 the
    standard structure alone."""
    (ttag, rank) = system.components[0]
    if ttag not in ("B", "C", "F", "G") or not system.is_simple:
        raise FamilyError("short-root families exist for B, C, F4 and G2 only")
    if ttag == "G":
        return _standard_family(grade_by_short_root_g2(system), (1, 3))
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
        return Families(datum, (standard, fam), primitive=fam)
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
    chart = HolomorphicSubspace(
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
    return Families(datum, (standard, fam), primitive=fam, chart=chart)


# -- twisted pair families for theta not parallel to a root ------------------------------


def pair_family(datum: ContactDatum, rj_plus: frozenset[int] = frozenset()) -> Families:
    """The standard structure and the disc family of a candidate with
    paired isotropy roots.

    For a D-type candidate the subspace is one twisted pair plus the
    one-sided block; for the split and B3 shapes the mirrored pair enters
    with the reciprocal coefficient (chart: t * u = 1).  The disc family
    fibers when it verifies as non-primitive; a one-sided block (R_J+)
    rules out primitivity."""
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
        pairs = (TwistedPair(a, b, t),)
        plains = (a,)
    elif len(hw_pairs) == 2:
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
        pairs = (TwistedPair(a, b, t), TwistedPair(a2, b2, u.scale(unit)))
        plains = tuple(sorted(
            hw
            for hw, m in mods.items()
            if m.weights <= re_roots and sys.inner(sys.roots[hw], datum.theta) > 0
        ))
    else:
        raise FamilyError(f"unexpected number of module pairs: {len(hw_pairs)}")
    fam = HolomorphicSubspace(datum, pairs=pairs, rj_plus=rj_plus, label="disc family")
    std = HolomorphicSubspace(datum, plains=plains, rj_plus=rj_plus, label="standard")
    return Families(datum, (std, fam), primitive=None if rj_plus else fam, fibered=fam)
