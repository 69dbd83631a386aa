"""The datum's theta-congruence partition against the pairwise oracle.

The reference groups R' by pairwise theta_congruent tests, the quadratic
algorithm the partition replaced (kept here as the definition of
theta-congruence, which tests/test_modules.py also imports); congruence_groups and dual_pairs are
checked against references built on it.  The integer theta-transverse
weights that the partition is read from are checked against the rational
transverse projection.  decompose, which walks only the simple roots of
R_o, is checked against the string components under all of R_o.
"""

import json
from fractions import Fraction as Q
from importlib import resources
from operator import add

import pytest

from crlie.classify import simple_types
from crlie.contact import contact_datum
from crlie.modules import CongruenceError, congruence_groups, decompose, dual_pairs
from crlie.rootsys import parse_type
from poly_reference import weights

MAX_RANK = 5


def frac(v):
    """The simple-root coordinates of v as Fractions."""
    return tuple(Q(x, v.den) for x in v.c)


def theta_congruent(datum, gamma, gamma2):
    """The nonzero lambda with gamma2 = gamma + lambda*theta, if it exists."""
    diff = gamma2 - gamma
    if diff.is_zero():
        return None
    dc, tc = frac(diff), frac(datum.theta)
    lam = None
    for d, t in zip(dc, tc):
        if t != 0:
            lam = d / t
            break
    if lam is None or lam == 0:
        return None
    if all(d == lam * t for d, t in zip(dc, tc)):
        return lam
    return None


def _golden_forms(max_rank: int) -> list[tuple[str, str]]:
    forms = set()
    for name in ("primitive.json", "nonprimitive.json", "table2.json", "table3.json"):
        rows = json.loads(resources.files("crlie.data").joinpath(name).read_text())["rows"]
        for row in rows:
            if int(row["rank"]) > max_rank:
                continue
            t = row["type"]
            tag = t if any(c.isdigit() for c in t) else t + row["rank"]
            for key in ("theta_source", "theta_canon"):
                if key in row:
                    forms.add((tag, row[key]))
    return sorted(forms)


def _pairwise_classes(datum) -> tuple[tuple[int, ...], ...]:
    roots = datum.system.roots
    items = sorted(datum.Rprime)
    assigned: set[int] = set()
    classes = []
    for i in items:
        if i in assigned:
            continue
        cls = [i] + [j for j in items if j != i and j not in assigned
                     and theta_congruent(datum, roots[i], roots[j]) is not None]
        assigned.update(cls)
        classes.append(tuple(cls))
    return tuple(classes)


def _pairwise_groups(datum) -> list[list[int]]:
    roots = datum.system.roots
    groups: list[list[int]] = []
    for m in decompose(datum):
        for g in groups:
            if theta_congruent(datum, roots[g[0]], roots[m.highest]) is not None:
                g.append(m.highest)
                break
        else:
            groups.append([m.highest])
    return groups


def _reference_pairs(classes):
    pairs = set()
    for cls in classes:
        if len(cls) > 2:
            return None  # dual_pairs must raise
        pairs.update(zip(cls, cls[1:]))
    return tuple(sorted(pairs))


FORMS = _golden_forms(MAX_RANK)


@pytest.mark.parametrize("tag,theta", FORMS)
def test_partition_matches_pairwise_oracle(tag, theta):
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    classes = _pairwise_classes(datum)
    assert set(datum.class_of) == datum.Rprime
    assert all(datum.class_of[i] == c for c in classes for i in c)
    got = [[m.highest for m in g] for g in congruence_groups(datum)]
    assert got == _pairwise_groups(datum)
    want = _reference_pairs(classes)
    if want is None:
        with pytest.raises(CongruenceError):
            dual_pairs(datum)
    else:
        assert dual_pairs(datum).pairs == want


@pytest.mark.parametrize("tag,theta", _golden_forms(6))
def test_weights_grade_the_roots(tag, theta):
    """The weights (poly_reference.weights) are additive on root sums, odd,
    zero exactly on the roots parallel to theta, and a positive multiple of
    the transverse projection a - (a, theta)/(theta, theta) theta."""
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    w, n, t = weights(datum), len(system.roots), datum.theta
    zero = (0,) * system.rank
    for i in range(n):
        assert w[system.neg_index[i]] == tuple(-x for x in w[i])
        for j in range(n):
            k = system.sum_index(i, j)
            if k is not None:
                assert w[k] == tuple(map(add, w[i], w[j])), (i, j)
    parallel = {i for i, r in enumerate(system.roots)
                if all(x * y == u * v for x, v in zip(r.c, t.c) for u, y in zip(r.c, t.c))}
    assert {i for i in range(n) if w[i] == zero} == parallel
    tt = system.inner(t, t)
    scale = None
    for i, r in enumerate(system.roots):
        proj = frac(r - (system.inner(r, t) / tt) * t)
        for x, y in zip(w[i], proj):
            if y:
                scale = scale or Q(x) / y
                assert scale > 0 and x == scale * y
            else:
                assert x == 0


@pytest.mark.parametrize("tag,theta", _golden_forms(6))
def test_weight_codes_tell_the_weights_apart(tag, theta):
    """ContactDatum.weight_codes codes each weight by one int: every sum of
    at most two weights of g (zero included) gets the code of the sum, and
    two such sums share a code only when they are equal."""
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    w, code = weights(datum), datum.weight_codes
    pool = {(0,) * system.rank: 0}
    pool.update(zip(w, code))
    sums = {}
    for a, ca in pool.items():
        for b, cb in pool.items():
            assert sums.setdefault(tuple(map(add, a, b)), ca + cb) == ca + cb
    assert len(set(sums.values())) == len(sums)
    assert set(datum.weight_blocks) == set(code) | {0}


def _decompose_reference(datum) -> list[tuple[int, frozenset[int]]]:
    """(highest weight, weights) of each module: the components of R' under
    the strings of every root of R_o, each with the one root that no
    positive root of R_o raises, ordered by that root's coordinates."""
    sys = datum.system
    remaining = set(datum.Rprime)
    out = []
    while remaining:
        comp = {remaining.pop()}
        frontier = list(comp)
        while frontier:
            i = frontier.pop()
            for d in datum.Ro.members:
                j = sys.sum_index(i, d)
                if j in remaining:
                    remaining.discard(j)
                    comp.add(j)
                    frontier.append(j)
        (top,) = [i for i in comp if all(sys.sum_index(i, d) is None
                                         for d in datum.Ro.members if sys.positive[d])]
        out.append((top, frozenset(comp)))
    return sorted(out, key=lambda m: sys.roots[m[0]].canon())


def _dominant_sum_forms(tag: str) -> list:
    """The dominant classes of a + b and a - b, a and b roots: a runs over
    the dominant root of each length, which the Weyl group makes enough."""
    system = parse_type(tag)
    reps = {system.norm2(i): system.dominant(r) for i, r in enumerate(system.roots)}
    forms = {system.dominant(a + sgn * b) for a in reps.values() for b in system.roots
             for sgn in (1, -1)}
    return sorted((f for f in forms if not f.is_zero()), key=lambda f: f.c)


@pytest.mark.parametrize("tag,theta", _golden_forms(8))
def test_decompose_matches_reference_on_goldens(tag, theta):
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    assert [(m.highest, m.weights) for m in decompose(datum)] == _decompose_reference(datum)


@pytest.mark.parametrize("tag", [f"{t}{r}" for t, r in simple_types(6)])
def test_decompose_matches_reference_on_dominant_sums(tag):
    system = parse_type(tag)
    for theta in _dominant_sum_forms(tag):
        datum = contact_datum(system, theta)
        got = [(m.highest, m.weights) for m in decompose(datum)]
        assert got == _decompose_reference(datum), theta.canon()
