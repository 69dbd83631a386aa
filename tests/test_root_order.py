"""Outputs do not depend on the order of a system's root indices.

Each system is rebuilt, in a system cache of its own, with a seeded
shuffle of the roots that rootsys._root_expansions generates, its height
tree relabelled to match.  A reduced CLI battery must then print exactly
the bytes of the unshuffled build: the scans and tables at rank <= 6, and
``check --family`` on every golden contact form of rank <= 5, which
covers the index order of pair_family's highest-weight pairs and of the
parabolic search.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from crlie import cli
from crlie import rootsys as rs
from test_root_tables import shuffle_walk

DATA = Path(rs.__file__).parent / "data"
CHECK_MAX_RANK = 5


def _golden_forms() -> list[tuple[str, str]]:
    """(type, theta) of every distinct golden contact form of rank <= 5."""
    out = []
    for name, keys in (("primitive.json", ("theta_source", "theta_canon")),
                       ("nonprimitive.json", ("theta_canon",))):
        for row in json.loads((DATA / name).read_text())["rows"]:
            if int(row["rank"]) <= CHECK_MAX_RANK:
                t = row["type"] + row["rank"] if row["type"].isalpha() else row["type"]
                out += [(t, row[k]) for k in keys if (t, row[k]) not in out]
    return out


def _battery() -> list[list[str]]:
    json_fmt = ["--format", "json"]
    cmds = [["classify", "--what", what, "--max-rank", "6", *json_fmt]
            for what in ("primitive", "nonprimitive", "special")]
    cmds += [[f"table{n}", "--max-rank", "6", *json_fmt] for n in (2, 3)]
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", *json_fmt]
             for t, theta in _golden_forms()]
    return cmds


def _outputs(monkeypatch, seed) -> list[str]:
    """The battery's stdout, each system built in a fresh cache with its
    roots shuffled by the seed (None: in generated order)."""
    monkeypatch.setattr(rs, "_CACHE", {})
    if seed is not None:
        generate = rs._root_expansions
        rng = random.Random(seed)

        def shuffled(cartan):
            return shuffle_walk(generate(cartan), rng)

        monkeypatch.setattr(rs, "_root_expansions", shuffled)
    out = []
    for argv in _battery():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        out.append(buf.getvalue())
    return out


@pytest.fixture(scope="module")
def reference():
    with pytest.MonkeyPatch.context() as mp:
        return _outputs(mp, None)


@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_do_not_depend_on_root_order(monkeypatch, reference, seed):
    got = _outputs(monkeypatch, seed)
    for argv, want, have in zip(_battery(), reference, got):
        assert have == want, " ".join(argv)
