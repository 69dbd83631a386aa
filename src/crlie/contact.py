"""Contact elements, centralizer decompositions and special contact manifolds.

A contact element is encoded by its dual form on the Cartan subalgebra: a
nonzero vector theta in the rational span of the roots.  The centralizer
root system is R_o = R intersect theta-perp and the isotropy roots are
R' = R \\ R_o.  The per-root tables of a datum that are linear in the
root, its pairings with theta and its theta-transverse weight codes, are
tree sums of one int step per simple root (RootSystem.tree_sums), one
addition per root.
"""

from __future__ import annotations

from functools import cached_property

from .rootsys import RootSystem, RootVector, Subsystem
from .scalars import ONE


class ContactError(ValueError):
    pass


class ContactDatum:
    """A homogeneous contact manifold, as root data.

    The tables derived from it (its modules, the theta-transverse weights
    that grade g and its theta-congruence classes, t' and the center of l,
    a basis of l^C and its twist propagations) are built on first use and
    live as long as the datum does.  Two data are equal when their five
    fields are, and hash alike: a HolomorphicSubspace's value reaches its
    datum.
    """

    def __init__(self, system: RootSystem, theta: RootVector, Ro: Subsystem,
                 Rprime: frozenset[int], theta_pairings: tuple[int, ...]):
        self.system = system
        self.theta = theta
        self.Ro = Ro
        self.Rprime = Rprime
        # (a, theta) for each root a, by root index, times one positive int:
        # RootSystem.pairings, a tree sum of theta's int covector
        self.theta_pairings = theta_pairings

    def _key(self) -> tuple:
        return self.system, self.theta, self.Ro, self.Rprime, self.theta_pairings

    def __eq__(self, other):
        if other.__class__ is not ContactDatum:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def ro_generators(self) -> tuple[int, ...]:
        """The simple roots of R_o (Subsystem.simple), then their negatives:
        the E_d that generate the semisimple part of l^C."""
        simple = self.Ro.simple
        return simple + tuple(self.system.neg_index[i] for i in simple)

    @cached_property
    def modules(self) -> dict:
        """The irreducible isotropy modules by highest weight, in the order
        of modules.decompose."""
        from .modules import decompose

        return {m.highest: m for m in decompose(self)}

    @cached_property
    def module_of(self) -> dict[int, int]:
        """The highest weight of the module of each root of R'."""
        return {w: hw for hw, m in self.modules.items() for w in m.weights}

    @cached_property
    def weight_codes(self) -> tuple[int, ...]:
        """The theta-transverse weight of each root as one int, by root
        index, which tells apart the weights of g and the sums of two of
        them.

        The weight of a is (theta, theta) a - (a, theta) theta in
        simple-root coordinates, scaled to ints by one positive constant:
        theta's int coordinates carry theta.den, and (a, theta) is read off
        theta_pairings, which carries theta.den * gden.  It is linear, it
        is the weight of a under the theta-orthogonal Cartan
        t' = h intersect theta-perp, and it vanishes exactly on the roots
        parallel to theta.  Its entries are at most
        M = (theta, theta) top + max |(a, theta)| max |theta_k| in size, top
        the system's largest root coefficient (RootSystem.top_coefficient).
        Its code is sum_k w_k B^k with B = 4M + 1: two sums of two weights
        differ by less than B in every entry, so they share a code only
        when they are equal.  The code is linear too: the tree sum of the
        steps (theta, theta) B^k - (alpha_k, theta) T, T the code of theta.
        """
        sys, tc = self.system, self.theta.c
        cov = self.theta.covector()
        tt = sum(tc[k] * y for k, y in cov)
        m = tt * sys.top_coefficient + max(map(abs, self.theta_pairings)) * max(map(abs, tc))
        powers = [(4 * m + 1) ** k for k in range(sys.rank)]
        t = sum(x * b for x, b in zip(tc, powers))
        steps = [tt * b for b in powers]
        for k, y in cov:
            steps[k] -= y * t
        return tuple(sys.tree_sums(steps))

    @cached_property
    def weight_blocks(self) -> dict[int, tuple[int, ...]]:
        """The roots of each weight of g, in index order, by weight code.
        The zero weight is always a key: the Cartan lies in g_0 with the
        roots parallel to theta."""
        blocks: dict[int, list[int]] = {0: []}
        for i, w in enumerate(self.weight_codes):
            blocks.setdefault(w, []).append(i)
        return {w: tuple(b) for w, b in blocks.items()}

    @cached_property
    def l_complex(self) -> dict[int, tuple]:
        """A basis of l^C by weight code, as crstruct._graded_w_and_perp
        writes elements: {d: 1} for E_d, d a root of R_o, in index order,
        then the vector v of H(v) for the basis of t' (theta_perp_cartan),
        of weight 0."""
        out: dict[int, list] = {}
        for d in sorted(self.Ro.members):
            out.setdefault(self.weight_codes[d], []).append({d: ONE})
        out.setdefault(0, []).extend(self.theta_perp_cartan)
        return {tau: tuple(els) for tau, els in out.items()}

    @cached_property
    def theta_perp_cartan(self) -> tuple[RootVector, ...]:
        """Rational basis of t' = h intersect theta-perp."""
        return self.system.perp([self.theta])

    @cached_property
    def center(self) -> tuple[RootVector, ...]:
        """Rational basis of the center of l in the Cartan: the vectors of
        t' orthogonal to R_o, so to theta and to R_o's simple roots, which
        span R_o."""
        sys = self.system
        return sys.perp([self.theta, *(sys.roots[i] for i in self.Ro.simple)])

    @cached_property
    def class_of(self) -> dict[int, tuple[int, ...]]:
        """The theta-congruence class of each root of R', the roots of R'
        that differ from it by a multiple of theta, in index order.

        Two roots differ by a multiple of theta exactly when they have the
        same weight, so a class is the R' part of a weight block."""
        out = {}
        for block in self.weight_blocks.values():
            c = tuple(i for i in block if i in self.Rprime)
            out.update((i, c) for i in c)
        return out

    @cached_property
    def propagations(self) -> dict:
        """crstruct._propagate's twist coefficients, by (hw, partner)."""
        return {}


def contact_datum(system: RootSystem, theta: RootVector) -> ContactDatum:
    if theta.is_zero():
        raise ContactError("contact form must be nonzero")
    pairings = tuple(system.pairings(theta))
    ortho = frozenset(i for i, p in enumerate(pairings) if not p)
    rprime = frozenset(i for i, p in enumerate(pairings) if p)
    return ContactDatum(system, theta, Subsystem(system, ortho), rprime, pairings)


def grade_by_highest_root(system: RootSystem) -> ContactDatum:
    """The contact datum of the highest root mu, which grades g in five
    levels by the pairing with mu: level 0 is R_o, level 2 is mu alone and
    level 1 is the rest of the theta-positive part of R'.  The level-1
    summands are the modules of the datum whose highest weight is at
    level 1."""
    if not system.is_simple:
        raise ContactError("highest-root gradation needs a simple system")
    return contact_datum(system, system.highest_root())


def classify_special(system: RootSystem) -> list[tuple[ContactDatum, str]]:
    """The special contact manifolds of a simple system, long root first:
    (datum, "long" or "short") for each special dominant root alpha
    (RootSystem.length_representatives).  alpha is special when every root
    of R_o is strongly orthogonal to it; R_o is then exactly the root set
    of the centralizer of alpha's three-dimensional subalgebra."""
    if not system.is_simple:
        raise ContactError("special roots are classified for simple systems")
    reps = system.length_representatives
    out = []
    for n in sorted(reps, reverse=True):
        datum = contact_datum(system, reps[n])
        i = system.root_index(datum.theta)
        if all(system.strongly_orthogonal(i, j) for j in datum.Ro.members):
            out.append((datum, "long" if n == max(reps) else "short"))
    return out
