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


def fiber_type(datum, sym: frozenset[int]) -> str:
    """The effective fiber of the fibration of a contact datum whose
    reductive root set is sym: S1 when sym is R_o, otherwise the
    components of sym off the closed R_o (sphere_bundle_name)."""
    if sym == frozenset(datum.Ro.members):
        return "S1"
    # a component lies in the closed R_o exactly when its simple roots do
    ro = datum.Ro.members
    return sphere_bundle_name([(t, r) for t, r, simple in Subsystem(datum.system, sym)._components
                               if not simple <= ro])


def sphere_bundle_name(comps: list[tuple[str, int]]) -> str:
    """A fiber by its components (type, rank): the sphere bundles by their
    homogeneous names, any other as the sum of its types."""
    if comps == [("A", 1)]:
        return "SO3 = S(S2)"
    if comps == [("A", 1), ("A", 1)]:
        return "SO4/SO2 = S(S3)"
    if comps == [("A", 3)]:
        return "SO6/SO4 = S(S5)"
    if comps == [("B", 3)]:
        return "Spin7/SU3 = S(S7)"
    if len(comps) == 1 and comps[0][0] == "D":
        r = comps[0][1]
        return f"SO{2*r}/SO{2*r-2} = S(S{2*r-1})"
    return "+".join(f"{t}{r}" for t, r in comps)
