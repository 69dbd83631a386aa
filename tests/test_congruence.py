"""The datum's theta-congruence partition against the pairwise oracle.

The reference groups R' by pairwise theta_congruent tests, the quadratic
algorithm the partition replaced; congruence_groups and dual_pairs are
checked against references built on it.
"""

import json
from importlib import resources

import pytest

from crlie.contact import contact_datum
from crlie.modules import CongruenceError, congruence_groups, decompose, dual_pairs, theta_congruent
from crlie.rootsys import parse_type

MAX_RANK = 5


def _golden_forms() -> list[tuple[str, str]]:
    forms = set()
    for name in ("primitive.json", "nonprimitive.json", "table2.json", "table3.json"):
        rows = json.loads(resources.files("crlie.data").joinpath(name).read_text())["rows"]
        for row in rows:
            if int(row["rank"]) > MAX_RANK:
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


def _reference_pairs(classes, allow_g2_short: bool):
    pairs = set()
    for cls in classes:
        if len(cls) > 2 and not allow_g2_short:
            return None  # dual_pairs must raise
        pairs.update(zip(cls, cls[1:]))
        if len(cls) > 2:
            pairs.add((cls[0], cls[-1]))
    return tuple(sorted(pairs))


FORMS = _golden_forms()


@pytest.mark.parametrize("tag,theta", FORMS)
def test_partition_matches_pairwise_oracle(tag, theta):
    system = parse_type(tag)
    datum = contact_datum(system, system.vector(theta.split(",")))
    classes = _pairwise_classes(datum)
    assert datum.congruence_classes == classes
    assert all(datum.class_of[i] == c for c in classes for i in c)
    got = [[m.highest for m in g] for g in congruence_groups(datum)]
    assert got == _pairwise_groups(datum)
    for allow in (False, True):
        want = _reference_pairs(classes, allow)
        if want is None:
            with pytest.raises(CongruenceError):
                dual_pairs(datum, allow_g2_short=allow)
        else:
            assert dual_pairs(datum, allow_g2_short=allow).pairs == want
