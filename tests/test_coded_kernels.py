"""The coded integrability and l-stability kernels of crlie.crstruct
against the Poly-based checks they replaced (poly_reference): the same
generators, in the same order and printed alike, and the same l-stability
verdict, on every structure of the digest and a +- b batteries.  There
check_disjointness, which takes an l-stable subspace's determinants on
the classes of module highest weights alone, gives the factors of the
every-class reference, in the same order."""

import pytest

import poly_reference as ref
from crlie import classify
from crlie import contact as ct
from crlie import crstruct as cs
from test_crstruct import SUM_FORM_TYPES, _digest_structures, _sum_forms


def _assert_kernels_agree(h):
    """Both checks agree on h; returns (unconditional, l-stable)."""
    got, want = cs.check_integrability(h), ref.check_integrability(h)
    assert [p.key() for p in got.generators] == [p.key() for p in want.generators], h.label
    assert str(got) == str(want), h.label
    assert h.l_stable == ref.l_stable(h), h.label
    _assert_factors_agree(h)
    return got.unconditional, h.l_stable


def _assert_factors_agree(h):
    """check_disjointness and its every-class reference give the same
    factors in the same order, or raise the same StructError."""
    outcomes = []
    for check in (cs.check_disjointness, ref.check_disjointness):
        try:
            outcomes.append([f.key() for f in check(h).factors])
        except cs.StructError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1], h.label


@pytest.mark.parametrize("kind", ["golden", "sums", "m10"])
def test_coded_kernels_match_poly_references_on_digest_structures(kind):
    seen = {_assert_kernels_agree(h) for h in _digest_structures(kind)}
    # conditional and unconditional integrability; only the a +- b forms
    # have structures that are not l-stable
    assert {u for u, _ in seen} == {True, False}
    assert {s for _, s in seen} == ({True, False} if kind == "sums" else {True})


@pytest.mark.parametrize("tag,dominant", SUM_FORM_TYPES)
def test_coded_kernels_match_poly_references_on_sum_forms(tag, dominant):
    sysm, forms = _sum_forms(tag, dominant)
    for theta in forms:
        F = classify.classify_datum(ct.contact_datum(sysm, theta))
        for h in F.structures + (F.chart,):
            if h is not None:
                _assert_kernels_agree(h)
