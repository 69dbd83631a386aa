"""Cosmetic group and manifold names for the classification reports.

Names are derived from root-system types through a fixed lookup; isogeny
distinctions (Spin vs SO, SU vs PSU) follow the usual presentation of each
classified family and carry no mathematical weight.
"""

from __future__ import annotations

from .rootsys import RootSystem, Subsystem

SEP = "·"


def group_name(t: str, r: int) -> str:
    if t == "A":
        return f"SU{r + 1}"
    if t == "B":
        return f"SO{2 * r + 1}"
    if t == "C":
        return f"Sp{r}"
    if t == "D":
        return f"SO{2 * r}"
    return f"{t}{r}"


def system_name(system: RootSystem) -> str:
    return "x".join(group_name(t, r) for t, r in system.components)


def subgroup_name(parent: RootSystem, sub: Subsystem, corank_drop: int = 0) -> str:
    """T^k times the semisimple factors of a closed subsystem."""
    comps = sub.classify() if len(sub) else []
    # orthogonal components span a direct sum, so their ranks add up
    torus = parent.rank - sum(r for _, r in comps) - corank_drop
    parts = []
    if torus > 0:
        parts.append(f"T{torus}")
    parts.extend(group_name(t, r) for t, r in comps)
    return SEP.join(parts) if parts else "T0"
