"""Isotropy-module decomposition and theta-congruence combinatorics.

The complexified tangent space decomposes into irreducible modules of the
centralizer l; combinatorially these are the string-connected components
of R' under R_o.  Two modules are equivalent for the stabilizer exactly
when their highest weights differ by a multiple of theta.  That drives the
isotypic components of m^C, on which every l-stable m10 is a free choice
(schur_components), the dual pair machinery and the case eliminations for
the candidate subsystem generated by the paired roots.
"""

from __future__ import annotations

from .contact import ContactDatum
from .rootsys import Subsystem


class CongruenceError(ValueError):
    pass


class IrredModule:
    """Irreducible centralizer module spanned by root vectors."""

    __slots__ = ("highest", "weights")

    def __init__(self, highest: int, weights: frozenset[int]):
        self.highest = highest
        self.weights = weights

    def __len__(self):
        return len(self.weights)


def decompose(datum: ContactDatum) -> list[IrredModule]:
    """Partition R' into the irreducible R_o-modules, in the order of their
    highest weights' ambient coordinates.

    Only ContactDatum.ro_generators, the simple roots of R_o and their
    negatives, are walked.  A highest weight is a root of R' that no
    simple raising step moves: the simple E_d generate the positive part
    of R_o, so they kill its root vector exactly when every positive root
    of R_o does.  An irreducible module is spanned from its highest
    weight by the simple lowering operators, and each root space is a
    line, so every step of that chain is a root: the simple lowering
    strings from the highest weight reach the whole module, and every
    root of R' lies below some highest weight, so the modules cover R'
    and overlap only where one would have two highest weights."""
    sys = datum.system
    codes, by_code = sys.codes, sys.by_code
    gens = [codes[d] for d in datum.ro_generators]
    raising, lowering = gens[: len(gens) // 2], gens[len(gens) // 2 :]
    out = []
    for hw in datum.Rprime:
        if any(codes[hw] + d in by_code for d in raising):
            continue
        weights = {hw}
        frontier = [hw]
        while frontier:
            i = frontier.pop()
            for d in lowering:
                j = by_code.get(codes[i] + d)
                if j is not None and j not in weights:
                    weights.add(j)
                    frontier.append(j)
        out.append(IrredModule(hw, frozenset(weights)))
    if sum(map(len, out)) != len(datum.Rprime):
        raise CongruenceError("module without a unique highest weight")
    return sorted(out, key=lambda m: sys.roots[m.highest].numerators())


def congruence_groups(datum: ContactDatum) -> list[list[IrredModule]]:
    """Modules grouped into stabilizer-equivalence classes.

    Equivalence of irreducible modules is decided by theta-congruence of the
    highest weights (the restriction to the stabilizer Cartan).
    """
    groups: dict[tuple[int, ...], list[IrredModule]] = {}
    for m in datum.modules.values():
        groups.setdefault(datum.class_of[m.highest], []).append(m)
    return list(groups.values())


def schur_components(datum: ContactDatum) -> list[tuple[int, ...]]:
    """The isotypic components of m^C under l (Humphreys §6.1), each as
    its modules' highest weights, theta-positive first, in module order.
    abar is conj M(a), the module that holds -a, of the other theta sign;
    conj maps classes to classes.  A component is (a, abar), of
    multiplicity 1 in two classes or one class of multiplicity 2, or
    (a, b, bbar, abar) with {a, b} one class and {bbar, abar} another.
    Raises on a class of more than two modules, as on G2's short form."""
    mods, neg = datum.modules, datum.system.neg_index
    cls = {m.highest: [n.highest for n in g] for g in congruence_groups(datum) for m in g}
    if any(len(c) > 2 for c in cls.values()):
        raise CongruenceError("a class of more than two modules (excluded short-root G2)")
    out: list[tuple[int, ...]] = []
    for a in mods:
        if datum.theta_pairings[a] > 0 and not any(a in c for c in out):
            abar = next(h for h in mods if neg[a] in mods[h].weights)
            b = next((h for h in cls[a] if h != a), abar)
            bbar = next((h for h in cls[abar] if h != abar), a)
            out.append((a, abar) if b == abar else (a, b, bbar, abar))
    return out


class CongruenceDatum:
    """All theta-dual pairs of a contact datum."""

    __slots__ = ("datum", "pairs")

    def __init__(self, datum: ContactDatum, pairs: tuple[tuple[int, int], ...]):
        self.datum = datum
        self.pairs = pairs  # unordered pairs, stored sorted

    @property
    def paired_roots(self) -> frozenset[int]:
        return frozenset(i for p in self.pairs for i in p)

    @property
    def rj_plus(self) -> frozenset[int]:
        """R_J+: the positive isotropy roots without a theta-dual partner."""
        sys = self.datum.system
        return frozenset(i for i in self.datum.Rprime - self.paired_roots if sys.positive[i])


def dual_pairs(datum: ContactDatum) -> CongruenceDatum:
    """Match every isotropy root with its theta-congruent partner.

    Partners are the roots of one theta-congruence class.  Raises when
    some root has two or more partners, which happens exactly in the
    excluded case of a G2 contact form proportional to a short root.
    """
    classes = set(datum.class_of.values())
    if any(len(group) > 2 for group in classes):
        raise CongruenceError(
            "a root has multiple theta-congruent partners "
            "(excluded short-root G2 configuration)"
        )
    return CongruenceDatum(datum, tuple(sorted(g for g in classes if len(g) == 2)))


class ReVerdict:
    """Outcome of matching a candidate paired-root set against the allowed
    D-type / B3 shapes and canonical contact forms."""

    __slots__ = ("accepted", "reason", "re_type")

    def __init__(self, accepted: bool, reason: str, re_type: str):
        self.accepted = accepted
        self.reason = reason
        self.re_type = re_type


def tilde_Re_type(cd: CongruenceDatum, re_roots: frozenset[int]) -> ReVerdict:
    """Classify [R_e] and match theta against the canonical forms, with
    the dual pairs cd of the contact datum.

    Accepts only D_l (including A1+A1 = D2 and A3 = D3) or B3 shapes with
    the matching contact form; everything else is reported as eliminated.
    """
    datum = cd.datum
    sys = datum.system
    if not re_roots:
        return ReVerdict(False, "no paired roots", "0")
    if not re_roots <= cd.paired_roots:
        return ReVerdict(False, "candidate contains unpaired roots", "?")
    # every dual pair inside the candidate must span an orthogonal A1 pair
    for a, b in cd.pairs:
        if a in re_roots and b in re_roots:
            if not sys.strongly_orthogonal(a, b):
                return ReVerdict(False, "dual pair does not span A1+A1", "?")
    # closure under R_o strings, by the simple steps of ContactDatum.ro_generators:
    # a set closed under them is a union of modules (decompose), which R_o keeps
    codes, get = sys.codes, sys.by_code.get
    for i in re_roots:
        for d in datum.ro_generators:
            k = get(codes[i] + codes[d])
            if k is not None and k not in re_roots:
                return ReVerdict(False, "paired set is not closed under R_o strings", "?")
    closure = sys.closed_span([sys.roots[i] for i in re_roots])
    comps = closure.classify()
    tstr = closure.type_str()
    if len(comps) == 1:
        t, r = comps[0]
        ok = (t, r) in (("A", 3), ("B", 3)) or (t == "D" and r >= 4)
    else:
        ok = comps == [("A", 1), ("A", 1)]
    if not ok:
        return ReVerdict(False, f"type {tstr} is not D-series or B3", tstr)
    if not _theta_form(datum, closure, comps):
        return ReVerdict(False, "contact form does not match the canonical shape", tstr)
    return ReVerdict(True, "ok", tstr)


def _theta_form(datum: ContactDatum, closure: Subsystem, comps) -> bool:
    """Whether theta takes the canonical form on an accepted candidate
    subsystem: alpha - alpha' across the two factors of A1+A1, the sum of
    three on B3, twice a weight on the D series (triality variants
    included), each read off the roots of R_o in the closure."""
    tilde_ro = datum.Ro.members & closure.members
    if comps == [("A", 1), ("A", 1)]:
        return not tilde_ro
    (t, r) = comps[0]
    want = {("A", 3): [("A", 1), ("A", 1)], ("B", 3): [("A", 2)]}.get(
        (t, r), [("D", r - 1)] if r >= 5 else [("A", 3)]
    )
    return Subsystem(datum.system, tilde_ro).classify() == want
