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


def test_classify_datum_calls_only_traced_family_constructors():
    """Every crlie.families function that classify_datum calls is traced
    under families.families, so a traced run books that work there."""
    classify_src = Path(importlib.import_module("crlie.classify").__file__).read_text()
    tree = ast.parse(classify_src)
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "families" and node.level == 1
        for alias in node.names
    }
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "classify_datum")
    called = {node.func.id for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in imported}
    families = importlib.import_module("crlie.families")
    called = {name for name in called if callable(getattr(families, name))
              and not isinstance(getattr(families, name), type)}
    assert called
    traced = {qualname for modname, qualname in _layers()["families.families"]
              if modname == "crlie.families"}
    assert called <= traced, f"untraced: {sorted(called - traced)}"
