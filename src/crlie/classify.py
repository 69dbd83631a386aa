"""Classification pipelines: table reconstruction and the finite scans.

Every pipeline recomputes its result from first principles (root systems,
module decompositions, integrability and fibration checks at sampled
Gaussian-rational twists) and emits canonically sorted report rows that are
diffed against the golden fixtures.

classify_datum is the one path from a contact datum to its structures: it
picks the case of the classification and returns that case's Families
record, which names the route, the paper's number of the primitive
family and, for an unclassified datum, the reason.  The primitive scan,
the CR-graph verification and the structure reports of ``check --family``
all read their subspaces and numbers from that record.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from . import naming
from .contact import (
    ContactDatum,
    classify_special,
    contact_datum,
    grade_by_highest_root,
)
from .crstruct import (
    HolomorphicSubspace,
    check_disjointness,
    check_integrability,
    find_crf_parabolics,
    is_standard,
    normalizer_excess,
)
from .families import (
    Families,
    FamilyError,
    pair_family,
    short_root_families,
    special_su_families,
)
from .modules import congruence_groups
from .painted import CRGraph, enumerate_cr_graphs, flag_pair
from .report import Report
from .rootsys import (
    RootSystem,
    RootVector,
    build,
    build_product,
    canon_str,
    format_vector,
)
from .scalars import Gauss

Q = Fraction

DEFAULT_MAX_RANK = 8

# sampled twists: |t| is neither 0 nor 1
SAMPLES = (
    Gauss(Q(1, 2)),
    Gauss(Q(1, 3), Q(1, 3)),
    Gauss(Q(2, 5)),
    Gauss(0, Q(1, 2)),
    Gauss(Q(3, 7), Q(-1, 7)),
)


def simple_types(max_rank: int) -> list[tuple[str, int]]:
    """Canonical scan order; isomorphic duplicates (C2, D3) are skipped."""
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(3, max_rank + 1)]
    out += [("D", r) for r in range(4, max_rank + 1)]
    out += [("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(("F", 4))
    if max_rank >= 2:
        out.append(("G", 2))
    return out


def root_set_str(system: RootSystem, indices: Iterable[int]) -> str:
    return ";".join(sorted(canon_str(system.roots[i]) for i in indices))


def root_set_display(system: RootSystem, indices: Iterable[int]) -> str:
    items = sorted((system.roots[i] for i in indices), key=RootVector.numerators)
    return ";".join(format_vector(r) for r in items)


# -- Table 1: the highest-root gradation --------------------------------------------------


def table1_rows(ranks: Iterable[int] = range(3, 9)) -> list[dict]:
    rows = []
    cells: list[tuple[str, int]] = []
    for r in ranks:
        cells += [("A", r), ("B", r), ("C", r), ("D", r)]
    cells += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for t, r in cells:
        system = build(t, r)
        datum = grade_by_highest_root(system)
        mu = datum.theta
        top = system.root_index(mu)
        # level 1: the theta-positive modules but mu's, which is mu alone
        summands = [hw for hw in datum.modules if datum.theta_pairings[hw] > 0 and hw != top]
        level1 = frozenset().union(*(datum.modules[hw].weights for hw in summands))
        rows.append(
            {
                "type": t,
                "rank": str(r),
                "mu": format_vector(mu),
                "mu_canon": canon_str(mu),
                "Ro": root_set_str(system, datum.Ro.members),
                "Ro_display": root_set_display(system, datum.Ro.members),
                "Ro_type": datum.Ro.type_str(),
                "R1": root_set_str(system, level1),
                "R1_display": root_set_display(system, level1),
                "g1_summands": str(len(summands)),
            }
        )
    return rows


# -- Tables 2 and 3: module decompositions ------------------------------------------------


def _module_table_row(system: RootSystem, theta: RootVector) -> dict:
    datum = contact_datum(system, theta)
    groups = congruence_groups(datum)
    groups_key = sorted(
        ";".join(sorted(canon_str(system.roots[m.highest]) for m in g)) for g in groups
    )
    groups_disp = sorted(
        "{"
        + ", ".join(
            format_vector(system.roots[m.highest])
            for m in sorted(g, key=lambda m: system.roots[m.highest].numerators())
        )
        + "}"
        for g in groups
    )
    t, r = system.components[0]
    return {
        "type": t,
        "rank": str(r),
        "theta": format_vector(theta),
        "theta_canon": canon_str(theta),
        "l_type": datum.Ro.type_str(),
        "Ro": root_set_str(system, datum.Ro.members),
        "groups": "|".join(groups_key),
        "groups_display": "|".join(groups_disp),
    }


def table2_rows(max_rank: int = DEFAULT_MAX_RANK) -> list[dict]:
    """Module decompositions at the dominant short root of each two-length type."""
    systems = [build("B", r) for r in range(2, max_rank + 1)]
    systems += [build("C", r) for r in range(3, max_rank + 1)]
    if max_rank >= 4:
        systems.append(build("F4"))
    if max_rank >= 2:
        systems.append(build("G2"))
    rows = []
    for s in systems:
        reps = s.length_representatives
        rows.append(_module_table_row(s, reps[min(reps)]))
    return rows


def table3_rows(max_rank: int = DEFAULT_MAX_RANK) -> list[dict]:
    rows = []
    if max_rank >= 3:
        s = build("B3")
        rows.append(_module_table_row(s, s.vector([1, 1, 1])))
    for r in range(3, max_rank + 1):
        s = build("D", r)
        rows.append(_module_table_row(s, s.vector([1] + [0] * (r - 1))))
    return rows


# -- special contact manifolds -------------------------------------------------------------


def special_rows(max_rank: int = DEFAULT_MAX_RANK) -> list[dict]:
    rows = []
    for t, r in simple_types(max_rank):
        system = build(t, r)
        for datum, length in classify_special(system):
            manifold = (
                "SU2"
                if (t, r) == ("A", 1)
                else f"{naming.group_name(t, r)}/"
                + naming.subgroup_name(system, datum.Ro, corank_drop=1)
            )
            rows.append(
                {
                    "type": t,
                    "rank": str(r),
                    "G": naming.group_name(t, r),
                    "alpha": format_vector(datum.theta),
                    "theta_canon": canon_str(datum.theta),
                    "length": length,
                    "stabilizer": datum.Ro.type_str(),
                    "M": manifold,
                }
            )
    return rows


# -- sampled checks, shared by the scans and the structure reports ---------------------------


def _sample_values(h: HolomorphicSubspace, j: int = 0) -> dict[str, Gauss]:
    """Twist values at sample j: t = SAMPLES[j], u = 1/t on a reciprocal
    chart (t*u = 1), any other parameter the following samples."""
    params = h.parameters()
    if not params:
        return {}
    vals = {"t": SAMPLES[j]}
    if "u" in params:
        vals["u"] = Gauss(1) / SAMPLES[j]
    for k, p in enumerate(sorted(params - {"t", "u"})):
        vals[p] = SAMPLES[(j + k + 1) % len(SAMPLES)]
    return vals


def _verify(h: HolomorphicSubspace, samples: int) -> Optional[bool]:
    """The sampled checks every scanned family must pass: at each of the
    first `samples` sample twists, integrable, not standard and normalizer
    excess 0.  None when a check fails, otherwise whether no fibration
    witness was found at any of the samples (primitive)."""
    cons = check_integrability(h)
    primitive = True
    for j in range(samples):
        vals = _sample_values(h, j)
        if (not cons.holds_at(vals) or is_standard(h, vals)
                or normalizer_excess(h, vals) != 0):
            return None
        primitive = primitive and find_crf_parabolics(h, vals).primitive
    return primitive


# -- the primitive scan --------------------------------------------------------------------


_CROSS_NAMES = {
    1: "S3 = SO4/SO3",
    2: "S7 = Spin7/G2",
    3: "OP2 = F4/Spin9",
}


def _cross_name(family: int, rank: int) -> str:
    if family == 4:
        return f"S{2*rank} = SO{2*rank+1}/SO{2*rank}"
    if family == 5:
        return f"S{2*rank-1} = SO{2*rank}/SO{2*rank-1}"
    if family == 6:
        return f"CP{rank} = SU{rank+1}/U{rank}"
    if family == 7:
        return f"HP{rank-1} = Sp{rank}/Sp1·Sp{rank-1}"
    return _CROSS_NAMES[family]


def primitive_rows(max_rank: int = DEFAULT_MAX_RANK) -> list[dict]:
    rows = []
    for t, r in simple_types(max_rank):
        system = build(t, r)
        rows.extend(_primitive_rows_for(system, t, r))
    prod = build_product([("A", 1), ("A", 1)])
    rows.extend(_primitive_rows_for(prod, "A1+A1", 2))
    return rows


def _primitive_rows_for(system: RootSystem, ttag, rank) -> list[dict]:
    """The primitive families of one system: each candidate contact form
    goes through classify_datum, and a row is emitted where the route's
    primitive disc family verifies."""
    rows = []
    for theta in _primitive_candidates(system):
        F = classify_datum(contact_datum(system, theta))
        if F.primitive is None or _verify(F.primitive, 2) is not True:
            continue
        tcanon = system.canonical_form(theta)
        rows.append(
            {
                "type": str(ttag),
                "rank": str(rank),
                "family": str(F.family),
                "G": naming.system_name(system),
                "K": naming.subgroup_name(system, F.datum.Ro, corank_drop=0),
                "theta": format_vector(tcanon),
                "theta_canon": canon_str(tcanon),
                "N": _cross_name(F.family, rank),
            }
        )
    return rows


def _primitive_candidates(system: RootSystem) -> list[RootVector]:
    """The dominant root of each length of a simple system, then one
    contact form a - b per class of strongly orthogonal root pairs, with a
    the dominant root of a length (exhaustive up to the Weyl action).  The
    class of a - b is the diagram_orbit of its primitive expansion, which
    holds -(a - b)'s too; the Weyl group keeps the gcd.  A class is kept
    the first time it is met, unless it lies along a root: the diagram
    symmetries permute the roots, so then every member is one.

    The stabilizer W_a of a keeps the roots b strongly orthogonal to a
    and maps a - b to a - w b, so one W_a-orbit of them is one class:
    only the first member of each orbit (RootSystem.stabilizer_orbits),
    the first of its class to be met, is walked to its diagram_orbit."""
    reps = list(system.length_representatives.values())
    roots = set(system.expansions)
    out = reps[:] if system.is_simple else []
    seen: set[frozenset] = set()
    for a in reps:
        ia = system.root_index(a)
        strong = [j for j in range(len(system.roots)) if system.strongly_orthogonal(ia, j)]
        for j, *_ in system.stabilizer_orbits(a, strong):
            d = [x - y for x, y in zip(a.c, system.expansions[j])]
            g = gcd(*d)
            key = system.diagram_orbit([x // g for x in d])
            if key not in seen:
                seen.add(key)
                if key.isdisjoint(roots):
                    out.append(a - system.roots[j])
    return out


# -- one contact datum to its verdict -------------------------------------------------------


def _root_length(datum: ContactDatum) -> Optional[Q]:
    """The squared length of the root that theta lies along, on a simple
    system; None off the root routes of classify_datum."""
    sys = datum.system
    along = sys.root_along(datum.theta) if sys.is_simple else None
    return None if along is None else sys.norm2(along)


def classify_datum(datum: ContactDatum) -> Families:
    """Send a contact datum down its case of the classification and
    return that route's Families record: the one path from a contact
    datum to its structures.  A datum the pair route cannot classify
    gets an unclassified record with the reason."""
    sys = datum.system
    n = _root_length(datum)
    if n is not None:
        # the roots of one length form one Weyl orbit
        reps = sys.length_representatives
        root_datum = datum if datum.theta == reps[n] else contact_datum(sys, reps[n])
        if n == max(reps):
            return special_su_families(root_datum)
        return short_root_families(root_datum)
    try:
        return pair_family(datum)
    except FamilyError as e:
        return Families(datum, "unclassified", reason=str(e))


# -- the CR-graph (non-primitive) scan ------------------------------------------------------


def product_types(max_rank: int) -> list[tuple[int, int]]:
    out = []
    for p in range(1, max_rank):
        for q in range(p, max_rank):
            if p + q <= max_rank and p + q > 1:
                out.append((p, q))
    return out


def crgraph_rows(max_rank: int = DEFAULT_MAX_RANK, verify: bool = False) -> list[dict]:
    rows = []
    for t, r in simple_types(max_rank):
        system = build(t, r)
        for g in enumerate_cr_graphs(system):
            rows.append(_crgraph_row(g, verify))
    for p, q in product_types(max_rank):
        system = build_product([("A", p), ("A", q)])
        for g in enumerate_cr_graphs(system):
            rows.append(_crgraph_row(g, verify))
    return rows


def _crgraph_row(g: CRGraph, verify: bool) -> dict:
    system = g.graph.system
    k, q = flag_pair(g.graph)
    datum = contact_datum(system, g.theta)
    row = {
        "type": system.type_str(),
        "rank": str(system.rank),
        "graph": g.graph.serialize(),
        "cr_type": g.cr_type,
        "theta": format_vector(g.theta),
        "theta_canon": canon_str(g.theta),
        "K_type": naming.subgroup_name(system, k, corank_drop=0),
        "Q_type": naming.subgroup_name(system, q, corank_drop=0),
        "L": _display_L(g),
        "fiber": naming.fiber_type(datum, q.members),
        "base": _display_base(g),
    }
    if verify:
        row["verified"] = "yes" if _verify_composite(datum) else "no"
    return row


def _display_L(g: CRGraph) -> str:
    system = g.graph.system
    n = system.rank + 1
    if g.cr_type == "I":
        return f"T1·SU{n - 2}"
    if g.cr_type == "II":
        p = system.components[0][1] + 1
        q = system.components[1][1] + 1
        parts = ["T1"]
        if p > 2:
            parts.append(f"U{p - 2}")
        if q > 2:
            parts.append(f"U{q - 2}")
        return naming.SEP.join(parts)
    if g.cr_type == "III":
        return f"T1·SU2·SU2·SU{n - 4}" if n > 5 else "T1·SU2·SU2"
    if g.cr_type == "IV":
        return "T1·SO6"
    if g.cr_type == "V":
        return "T1·SO8"
    return "?"


def _display_base(g: CRGraph) -> str:
    system = g.graph.system
    n = system.rank + 1
    if g.cr_type == "I":
        return f"SU{n}/S(U2·U{n - 2})"
    if g.cr_type == "II":
        p = system.components[0][1] + 1
        q = system.components[1][1] + 1
        return f"SU{p}/S(U2·U{p - 2}) x SU{q}/S(U2·U{q - 2})"
    if g.cr_type == "III":
        return f"SU{n}/S(U4·U{n - 4})"
    if g.cr_type == "IV":
        return "SO10/T1·SO8"
    if g.cr_type == "V":
        return "E6/T1·SO10"
    return "?"


def _verify_composite(datum: ContactDatum) -> bool:
    """The route's fibered disc family (the twisted line of type I, the
    pair family of types II to V) must verify as non-primitive."""
    h = classify_datum(datum).fibered
    return h is not None and _verify(h, 1) is False


def nonprimitive_rows(max_rank: int = DEFAULT_MAX_RANK) -> list[dict]:
    return crgraph_rows(max_rank, verify=True)


# -- structure reports for one datum ---------------------------------------------------------


def _structure_row(h: HolomorphicSubspace, label: str) -> dict:
    cons = check_integrability(h)
    disj = check_disjointness(h)
    vals = _sample_values(h)
    std = is_standard(h, vals)
    exc = normalizer_excess(h, vals)
    rep = find_crf_parabolics(h, vals)
    sys = h.datum.system
    return {
        "type": sys.type_str(),
        "rank": str(sys.rank),
        "family": label,
        "theta": format_vector(h.datum.theta),
        "constraint": str(cons),
        "disjoint": "; ".join(disj.excluded_abs()) if disj.factors else "always",
        "standard": "yes" if std else "no",
        "normalizer_excess": str(exc),
        "primitive": "yes" if rep.primitive else "no",
        "circular": "yes" if rep.circular else "no",
        "fibers": ";".join(
            sorted({f"{w.fiber_type}" for w in rep.witnesses})
        ),
    }


def structure_rows_for_datum(datum: ContactDatum) -> list[dict]:
    """One report row per structure that classify_datum finds for a datum.

    classify_datum sends a root theta to the dominant root of its length,
    so those rows depend on the system and the length alone: the first
    call for a length computes them into RootSystem.root_structure_rows,
    and every call returns fresh copies of that entry."""
    n = _root_length(datum)
    if n is None:
        return _structure_rows(datum)
    table = datum.system.root_structure_rows
    if n not in table:
        table[n] = _structure_rows(datum)
    return [dict(row) for row in table[n]]


def _structure_rows(datum: ContactDatum) -> list[dict]:
    F = classify_datum(datum)
    if F.route == "unclassified":
        return [_unclassified_row(datum, F.reason)]
    rows = [_structure_row(h, h.label) for h in F.structures]
    for row in rows:
        if row["family"] == "disc family J0_t":
            row["note"] = (
                "no fibration witness under the adapted-parabolic search; "
                "the finite-covering verdict (normalizer 0) is reported alongside"
            )
    return rows


def _unclassified_row(datum: ContactDatum, reason: str) -> dict:
    return {
        "type": datum.system.type_str(),
        "rank": str(datum.system.rank),
        "family": "not classified by this artifact",
        "theta": format_vector(datum.theta),
        "constraint": reason,
    }


# -- report entry points ----------------------------------------------------------------------


def report_table2(max_rank: int = DEFAULT_MAX_RANK) -> Report:
    return Report("table2", tuple(table2_rows(max_rank)), ("fixtures/table2.json",)).sorted()


def report_table3(max_rank: int = DEFAULT_MAX_RANK) -> Report:
    return Report("table3", tuple(table3_rows(max_rank)), ("fixtures/table3.json",)).sorted()


def report_classify(what: str, max_rank: int = DEFAULT_MAX_RANK) -> Report:
    if what == "special":
        return Report("special", tuple(special_rows(max_rank))).sorted()
    if what == "primitive":
        return Report(
            "primitive", tuple(primitive_rows(max_rank)), ("fixtures/primitive.json",)
        ).sorted()
    if what == "crgraphs":
        return Report(
            "crgraphs", tuple(crgraph_rows(max_rank)), ("fixtures/nonprimitive.json",)
        ).sorted()
    if what == "nonprimitive":
        return Report(
            "crgraphs", tuple(nonprimitive_rows(max_rank)), ("fixtures/nonprimitive.json",)
        ).sorted()
    raise ValueError(f"unknown classification target {what}")
