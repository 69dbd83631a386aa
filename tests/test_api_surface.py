"""Every module-level function and every public method of the package has a
caller in the package or is documented API: a helper only the tests call
lives in the tests."""

import ast
from pathlib import Path

import crlie

PACKAGE = Path(crlie.__file__).resolve().parent

# Public methods kept without a caller in src/crlie, each with its reason.
KEPT_METHODS = {
    # the coroot H_a of the Chevalley basis, beside cartan; the Jacobi tests
    # build the full basis with it
    "chevalley.LieElement.coroot",
    # perfbench/workloads.py draws Weyl-conjugate contact forms with it
    "rootsys.RootSystem.reflect",
    # the Fraction inner product of the public API; perfbench/workloads.py
    # picks strongly orthogonal root pairs with it
    "rootsys.RootSystem.inner",
    # traced by perfbench/spans.py, resolved by tests/test_trace_targets.py
    "linalg.SpanSolver.contains",
    # traced by perfbench/spans.py, resolved by tests/test_trace_targets.py;
    # the tests' span-solve reference for RootSystem._coords
    "linalg.SpanSolver.reduce",
    # the tests' bracket reference; perfbench/spans.py traces it as
    # chevalley.bracket
    "chevalley.LieElement.bracket",
    # the Fraction ambient coordinates of the public API; tools/cli_digest.py
    # prints them, and an older checkout's copy of that tool calls canon()
    # on this source tree
    "rootsys.RootVector.canon",
}


def _names(node, attributes_only: bool = False) -> set[str]:
    """Identifiers read anywhere under node, as attributes and, unless
    attributes_only, as names.  A method is reached only through an
    attribute (obj.name), so a parameter or a local of the same name is no
    caller of it."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _units():
    """(qualified name or None, name, node) for each module-level statement
    and each statement of a class body, so that a definition's own body
    never counts as its caller."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not sub.name.startswith("_")):
                        out.append((f"{path.stem}.{stmt.name}.{sub.name}", sub.name, sub))
                    else:
                        out.append((None, None, sub))
            else:
                out.append((None, None, stmt))
    return out


def _orphans(kind: int) -> list[str]:
    """Definitions whose qualified name has `kind` dots and whose name no
    other unit reads; methods (two dots) count only attribute reads."""
    units = _units()
    referenced = [_names(node, attributes_only=kind == 2) for _, _, node in units]
    return [
        qual
        for own, (qual, name, _) in enumerate(units)
        if qual is not None and qual.count(".") == kind
        and not any(name in refs for k, refs in enumerate(referenced) if k != own)
    ]


def test_every_function_has_a_caller_or_is_exported():
    assert [q for q in _orphans(1) if q.split(".")[1] not in crlie.__all__] == []


def test_every_public_method_has_a_caller_or_a_reason():
    orphans = _orphans(2)
    assert sorted(set(orphans) - KEPT_METHODS) == []
    # a reason for a method that has a caller again is stale
    assert sorted(KEPT_METHODS - set(orphans)) == []
