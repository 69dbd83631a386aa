"""Exact computational Lie theory for invariant contact and CR structures
on compact homogeneous manifolds."""

from .classify import classify_datum
from .contact import contact_datum, grade_by_highest_root
from .crstruct import (
    HolomorphicSubspace,
    check_disjointness,
    check_integrability,
    find_crf_parabolics,
    is_standard,
    normalizer_excess,
)
from .modules import decompose, dual_pairs
from .painted import PaintedGraph, enumerate_cr_graphs, is_good
from .rootsys import RootSystem, RootVector, build, build_product, parse_type

__version__ = "0.1.0"

__all__ = [
    "HolomorphicSubspace",
    "PaintedGraph",
    "RootSystem",
    "RootVector",
    "build",
    "build_product",
    "check_disjointness",
    "check_integrability",
    "classify_datum",
    "contact_datum",
    "decompose",
    "dual_pairs",
    "enumerate_cr_graphs",
    "find_crf_parabolics",
    "grade_by_highest_root",
    "is_good",
    "is_standard",
    "normalizer_excess",
    "parse_type",
]
