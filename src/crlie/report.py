"""Classification reports with byte-stable text, JSON and CSV renderings."""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring as _string

KINDS = (
    "roots",
    "table1",
    "table2",
    "table3",
    "special",
    "primitive",
    "crgraphs",
    "structures",
    "check",
)


class Report:
    __slots__ = ("kind", "rows", "provenance")

    def __init__(self, kind: str, rows: tuple[dict, ...], provenance: tuple[str, ...] = ()):
        if kind not in KINDS:
            raise ValueError(f"unknown report kind {kind}")
        self.kind = kind
        self.rows = rows
        self.provenance = provenance

    def sorted(self) -> "Report":
        return Report(self.kind, tuple(sorted(self.rows, key=_row_key)), self.provenance)

    def to_json(self) -> str:
        """json.dumps(data, indent=2, ensure_ascii=False) + "\\n" of data =
        {"kind", "rows" with sorted keys, "provenance"}, byte for byte.  Rows
        map strings to strings, so the fixed layout is written here around
        json's C string encoder: with an indent, json.dumps would encode
        through its pure-Python encoder."""
        rows = ",\n".join(_object(r) for r in self.sorted().rows)
        provenance = ",\n".join(f"    {_string(p)}" for p in self.provenance)
        return (f'{{\n  "kind": {_string(self.kind)},\n  "rows": {_list(rows)},\n'
                f'  "provenance": {_list(provenance)}\n}}\n')

    @staticmethod
    def from_json(text: str) -> "Report":
        data = json.loads(text)
        return Report(
            data["kind"],
            tuple(dict(r) for r in data["rows"]),
            tuple(data.get("provenance", ())),
        )

    def to_csv(self) -> str:
        import csv

        rows = self.sorted().rows
        keys = _columns(rows)
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in keys})
        return buf.getvalue()

    def to_text(self) -> str:
        rows = self.sorted().rows
        if not rows:
            return f"[{self.kind}] empty\n"
        keys = _columns(rows)
        widths = {k: max(len(k), max(len(str(r.get(k, ""))) for r in rows)) for k in keys}
        lines = [f"[{self.kind}]"]
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        lines.append("  ".join("-" * widths[k] for k in keys))
        for r in rows:
            lines.append("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt}")


def _object(row: dict) -> str:
    """A row as a JSON object at depth 2, its keys sorted; "{}" when empty."""
    items = ",\n".join(f"      {_string(k)}: {_string(v)}" for k, v in sorted(row.items()))
    return f"    {{\n{items}\n    }}" if items else "    {}"


def _list(items: str) -> str:
    """A JSON list at depth 1 around its joined items; "[]" when empty."""
    return f"[\n{items}\n  ]" if items else "[]"


def _columns(rows) -> list[str]:
    """The keys of the rows in order of first appearance."""
    return list(dict.fromkeys(k for r in rows for k in r))


_WHAT_ORDER = {"root": 0, "simple_root": 1, "highest_root": 2, "cartan_row": 3}


def _row_key(row: dict):
    return (
        str(row.get("type", "")),
        int(row.get("rank", 0) or 0),
        str(row.get("theta_canon", row.get("theta", ""))),
        _WHAT_ORDER.get(row.get("what"), 0),
        int(row.get("index", 0) or 0),
        tuple(sorted((k, str(v)) for k, v in row.items())),
    )
