"""Outside-in tracing of crlie's public functions.

The tracer never edits crlie.  It replaces each target function by a
wrapper, everywhere a loaded ``crlie.*`` module holds it: a name bound by
``from .crstruct import normalizer_excess`` in ``classify`` is a different
binding from ``crstruct.normalizer_excess``, and patching only the
defining module would miss the scan's calls.  Methods are patched once, on
their class.

Every wrapped call is a span.  Spans nest on a stack; a span's self time
is its duration minus the time its child spans cover.  Spans are folded in
memory into one record per (layer, parent layer) edge, because the hot
layers are called hundreds of thousands of times in one scan, and are
written out when the process ends.
"""

from __future__ import annotations

import sys
import time

# Layer name -> the (module, qualified name) targets it covers.  ``scalars``
# stays unwrapped: it is called millions of times per scan, and its cost
# shows inside the linalg and chevalley self times.
LAYERS = {
    "rootsys.build": [("crlie.rootsys", "build"), ("crlie.rootsys", "build_product")],
    "rootsys.dominant": [("crlie.rootsys", "RootSystem.dominant")],
    "rootsys.canonical_form": [("crlie.rootsys", "RootSystem.canonical_form")],
    "chevalley.ConstantTable": [("crlie.chevalley", "ConstantTable.__init__")],
    "chevalley.bracket": [("crlie.chevalley", "LieElement.bracket")],
    "linalg.SpanSolver": [
        ("crlie.linalg", "SpanSolver.__init__"),
        ("crlie.linalg", "SpanSolver.reduce"),
        ("crlie.linalg", "SpanSolver.contains"),
    ],
    "linalg.remainder": [("crlie.linalg", "SpanSolver.remainder")],
    "linalg.rref": [("crlie.linalg", "rref")],
    "linalg.nullspace": [("crlie.linalg", "nullspace"), ("crlie.linalg", "nullspace_gauss")],
    "contact.contact_datum": [("crlie.contact", "contact_datum")],
    "contact.classify_special": [("crlie.contact", "classify_special")],
    "contact.grade_by_highest_root": [("crlie.contact", "grade_by_highest_root")],
    "modules.decompose": [("crlie.modules", "decompose")],
    "modules.congruence_groups": [("crlie.modules", "congruence_groups")],
    "modules.dual_pairs": [("crlie.modules", "dual_pairs")],
    "modules.tilde_Re_type": [("crlie.modules", "tilde_Re_type")],
    "families.families": [
        ("crlie.families", "special_su_families"),
        ("crlie.families", "short_root_families"),
        ("crlie.families", "pair_family"),
    ],
    "crstruct.check_integrability": [("crlie.crstruct", "check_integrability")],
    "crstruct.check_disjointness": [("crlie.crstruct", "check_disjointness")],
    "crstruct.is_standard": [("crlie.crstruct", "is_standard")],
    "crstruct.normalizer_excess": [("crlie.crstruct", "normalizer_excess")],
    "crstruct.find_crf_parabolics": [("crlie.crstruct", "find_crf_parabolics")],
    "painted.enumerate_cr_graphs": [("crlie.painted", "enumerate_cr_graphs")],
    "painted.is_good": [("crlie.painted", "is_good")],
    "naming.subgroup_name": [("crlie.naming", "subgroup_name")],
    "report.render": [("crlie.report", "Report.render")],
    "cli": [("crlie.cli", "main")],
    # every public function of classify, which the layers above nest inside
    "classify": "crlie.classify",
}

# Layers whose call counts are reported; a count repeats exactly between
# runs of the same inputs, so it can show a change in work done.
COUNTED = (
    "rootsys.build",
    "rootsys.dominant",
    "chevalley.bracket",
    "linalg.remainder",
    "crstruct.normalizer_excess",
    "crstruct.find_crf_parabolics",
    "painted.is_good",
)


class Tracer:
    """Span stack plus per-edge totals, kept in memory until ``summary``."""

    def __init__(self):
        self._stack: list[list] = []  # [layer, start, child seconds]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total s, self s]
        self.graphs_returned = 0

    def wrap(self, layer: str, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[1]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += elapsed
                rec = edges.get((layer, parent))
                if rec is None:
                    rec = edges[(layer, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[2]
            if layer == "painted.enumerate_cr_graphs":
                self.graphs_returned += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded crlie module, for the rest of
        the process's life."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "crlie" or n.startswith("crlie.")) and m is not None]
        for layer, targets in LAYERS.items():
            if isinstance(targets, str):
                mod = sys.modules[targets]
                targets = [(targets, n) for n, v in sorted(vars(mod).items())
                           if callable(v) and not isinstance(v, type) and not n.startswith("_")
                           and getattr(v, "__module__", None) == targets]
            for modname, qualname in targets:
                owner = sys.modules[modname]
                *path, attr = qualname.split(".")
                for p in path:
                    owner = getattr(owner, p)
                orig = vars(owner)[attr]
                wrapper = self.wrap(layer, orig)
                if path:  # a method: its class is the one binding
                    setattr(owner, attr, wrapper)
                    continue
                bound = 0
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"trace target {modname}.{qualname} is bound nowhere")

    def summary(self) -> dict:
        """Per-layer self seconds and call counts, plus the raw edges."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for (layer, _parent), (n, _total, own) in self.edges.items():
            self_s[layer] += own
            calls[layer] += n
        return {
            "self_s": self_s,
            "calls": calls,
            "graphs_returned": self.graphs_returned,
            "edges": [[layer, parent, n, total, own]
                      for (layer, parent), (n, total, own) in sorted(self.edges.items())],
        }
