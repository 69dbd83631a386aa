"""The datum's theta-congruence partition against the pairwise oracle.

The reference groups R' by pairwise theta_congruent tests, the quadratic
algorithm the partition replaced; congruence_groups and dual_pairs are
checked against references built on it.  The integer theta-transverse
weights that the partition is read from are checked against the rational
transverse projection.
"""

import json
from fractions import Fraction as Q
from importlib import resources
from operator import add

import pytest

from crlie.contact import contact_datum
from crlie.modules import CongruenceError, congruence_groups, decompose, dual_pairs, theta_congruent
from crlie.rootsys import parse_type

MAX_RANK = 5


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
    assert datum.congruence_classes == classes
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
    """ContactDatum.weights is additive on root sums, odd, zero exactly on
    the roots parallel to theta, and a positive multiple of the transverse
    projection a - (a, theta)/(theta, theta) theta."""
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    w, n, t = datum.weights, len(system.roots), datum.theta
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
        proj = (r - (system.inner(r, t) / tt) * t).c
        for x, y in zip(w[i], proj):
            if y:
                scale = scale or Q(x) / y
                assert scale > 0 and x == scale * y
            else:
                assert x == 0
