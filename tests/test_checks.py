"""The consistency checks of the Chevalley table raise ChevalleyError, so
python -O keeps them.

Each corruption below breaks one table entry of a freshly built root
system through mp, pytest's monkeypatch or the plain item operations, and
names the check that must catch it.  The last test runs
them all in an interpreter started with -O, where an assert would have
vanished.
"""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crlie import chevalley as ch
from crlie.rootsys import RootSystem

SRC = Path(__file__).resolve().parents[1] / "src"


def _derive_case():
    """A fresh A3 table, the first root k with two positive pairs, its
    extraspecial pair's first root a (ConstantTable._extraspecial) and the
    other pair (x, y), x before y, whose constant the Jacobi step derives."""
    s = RootSystem([("A", 3)])
    tab = ch.ConstantTable(s)
    rank = tab._pos_rank
    k, x, y = next((k, x, y) for k in tab._pos_order for x in tab._pos_order
                   if (y := s.sum_index(k, s.neg_index[x])) is not None and s.positive[y]
                   and rank[x] < rank[y] and x != tab._extraspecial(k)[0])
    return s, tab, (tab._extraspecial(k)[0], k, x, y)


def derive_with_zero_lhs(mp):
    s, tab, (a, k, x, y) = _derive_case()
    mp.setitem(tab._n, (s.neg_index[a], k), 0)
    return lambda: tab.n(x, y)


def derive_non_integral(mp):
    # every constant of A3 is +-1, so the Jacobi total is too and 2 divides it not
    s, tab, (a, k, x, y) = _derive_case()
    mp.setitem(tab._n, (s.neg_index[a], k), 2)
    return lambda: tab.n(x, y)


def general_non_integral(mp):
    """G2: a long positive i and a negative j with i + j = k short and
    positive, so N(i, j) = -(|k|^2/|i|^2) N(-j, k) = -N(-j, k)/3, which 1
    makes non-integral."""
    s = RootSystem([("G", 2)])
    tab = ch.ConstantTable(s)
    norms = s.int_norms
    i, j, k = next((i, j, k) for i in range(len(s.roots)) for j in range(len(s.roots))
                   if s.positive[i] and not s.positive[j]
                   and (k := s.sum_index(i, j)) is not None and s.positive[k]
                   and norms[k] < norms[i])
    mp.setitem(tab._n, (s.neg_index[j], k), 1)
    return lambda: tab.n(i, j)


CORRUPTIONS = {
    "derive_with_zero_lhs": (derive_with_zero_lhs, ch.ChevalleyError, "zero structure constant"),
    "derive_non_integral": (derive_non_integral, ch.ChevalleyError, "non-integral derived"),
    "general_non_integral": (general_non_integral, ch.ChevalleyError, "non-integral structure"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corruption_raises(name, monkeypatch):
    corrupt, error, match = CORRUPTIONS[name]
    call = corrupt(monkeypatch)
    with pytest.raises(error, match=match):
        call()


class ItemOps:
    """monkeypatch's item operations without the undo: every corrupted
    object is built for the one call."""

    setitem = staticmethod(operator.setitem)
    delitem = staticmethod(operator.delitem)


_UNDER_O = r"""
import sys
if not sys.flags.optimize:
    raise SystemExit("not running under -O")
sys.path.insert(0, sys.argv[1])
import test_checks
for name, (corrupt, error, _match) in sorted(test_checks.CORRUPTIONS.items()):
    try:
        corrupt(test_checks.ItemOps)()
    except error:
        print(name, "raised")
    else:
        print(name, "passed")
"""


def test_corruptions_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:-1] == [f"{name} raised" for name in sorted(CORRUPTIONS)]
