"""Every module-level function of the package has a caller in the package
or is documented API: a helper only the tests call lives in the tests."""

import ast
from pathlib import Path

import crlie

PACKAGE = Path(crlie.__file__).resolve().parent


def _names(node) -> set[str]:
    """Identifiers read anywhere under node, as names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_function_has_a_caller_or_is_exported():
    defs = []  # (module, function name, index of its statement)
    statements = []  # (module, statement)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, stmt.name, len(statements)))
            statements.append((path.stem, stmt))
    referenced = [_names(stmt) for _, stmt in statements]
    orphans = [
        f"{module}.{name}"
        for module, name, own in defs
        if name not in crlie.__all__
        and not any(name in refs for k, refs in enumerate(referenced) if k != own)
    ]
    assert orphans == []
