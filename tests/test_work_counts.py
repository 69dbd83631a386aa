"""tools/work_counts.py on the primitive scan at rank 6: the integrability
check of an l-stable subspace brackets each module's highest line only,
so of the 1,415 line pairs of the scan's 33 twisted checks it brackets at
most 130 (547 when every live pair was bracketed); and every subspace the
scan reads is l-stable and read at a point where m10 and m01 are
disjoint, so its normalizer excess is read off standardness, with no
bracket row (72 before that rule) and no call of the general path.  The
disjointness check of each subspace is taken once and kept with it, so
the scan takes 38 determinants (76 when each of its two samples took
them again), and the Chevalley tables compute only the constants the
scan reads, 1,465 (2,618 when every positive pair was computed at
construction)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_primitive_scan_brackets_the_highest_lines_only():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "work_counts.py"),
                          "--workload", "primitive"],
                         capture_output=True, text=True, check=True).stdout
    counts = dict(line.split(" = ") for line in out.splitlines())
    assert counts["primitive: twisted integrability checks"] == "33"
    assert counts["primitive: line pairs of those checks"] == "1415"
    assert int(counts["primitive: line pairs bracketed"]) <= 130
    assert counts["primitive: normalizer bracket rows"] == "0"
    assert counts["primitive: normalizer general-path calls"] == "0"
    assert counts["primitive: disjointness determinants"] == "38"
    assert counts["primitive: structure constants computed"] == "1465"
