"""Every trace target of perfbench/spans.py names an attribute of crlie.

The tracer raises "bound nowhere" at run time when a target is missing;
this test reads its LAYERS table without importing perfbench, so that a
rename fails here first.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no LAYERS table")


def test_every_trace_target_resolves():
    layers = _layers()
    assert layers
    for layer, targets in layers.items():
        if isinstance(targets, str):  # every public function of a module
            importlib.import_module(targets)
            continue
        for modname, qualname in targets:
            owner = importlib.import_module(modname)
            for part in qualname.split("."):
                assert hasattr(owner, part), f"{layer}: {modname}.{qualname} is missing"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: {modname}.{qualname} is not callable"
