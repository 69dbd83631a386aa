"""The Levi form: an oracle for check_disjointness by another route.

Take a line X_w = E_w + c E_w' of m10.  Its conjugate is -E_-w - conj(c)
E_-w', and [X_w, conj X_v] has a Cartan part only when v = w, as no root
lies on two lines.  So the Levi form L(X, Y) = theta([X, conj Y]) (Tanaka,
J. Math. Soc. Japan 14 (1962)) is diagonal in the line basis, with entries
theta(H_w) + |c|^2 theta(H_w'), theta(H_r) a positive multiple of
theta_pairings[r] * coroot_factors[r].  Where l^C + m10 is a subalgebra,
theta vanishes on [m10, m10], and L is degenerate exactly where m10 and
conj(m10) meet.

On every structure that tools/cli_digest.py checks (tests/test_crstruct.py's
_digest_structures), the nonconstant entries must be check_disjointness's
factors, or agree with them on the structure's constraint locus.
"""

from collections import Counter
from fractions import Fraction as Q

from crlie import crstruct as cs
from crlie.classify import SAMPLES
from crlie.scalars import ONE, ZERO, Gauss, Poly
from test_crstruct import _digest_structures

# t * u = 1, the constraint of a reciprocal disc family
RECIPROCAL = Poly.var("t") * Poly.var("u") - 1
# twists on the unit circle, then the sampled ones, off it
CIRCLE = (ONE, Gauss(0, 1), Gauss(Q(3, 5), Q(4, 5)))


def levi_factors(h) -> cs.DisjointnessResult:
    """The nonconstant entries of the Levi diagonal, each primitive: a lone
    line, a zero twist included, gives a constant."""
    tp, f = h.datum.theta_pairings, h.datum.system.constants.coroot_factors
    out: dict[tuple, Poly] = {}
    for w, line in h.lines.items():
        if line and line[1]:
            v, c = line
            entry = (tp[w] * f[w] + tp[v] * f[v] * c * c.conj()).primitive()
            if not entry.is_constant():
                out.setdefault(entry.key(), entry)
    return cs.DisjointnessResult(tuple(out.values()))


def test_levi_form_matches_disjointness():
    counts: Counter = Counter()
    for h in (h for kind in ("golden", "sums", "m10") for h in _digest_structures(kind)):
        try:
            got = cs.check_disjointness(h)
        except cs.StructError as e:
            assert str(e) == "identically degenerate block", h.label
            counts["degenerate"] += 1
            continue
        levi = levi_factors(h)
        if {p.key() for p in levi.factors} == {p.key() for p in got.factors}:
            counts["exact"] += 1
            continue
        constraint = cs.check_integrability(h).generators
        if constraint == (RECIPROCAL,):
            # both sets vanish at u = 1/t exactly when |t| = 1
            for t in CIRCLE + SAMPLES:
                vals = {"t": t, "u": ONE / t}
                assert got.holds_at(vals) == levi.holds_at(vals) == (t.abs2() != 1), (h.label, t)
            counts["reciprocal"] += 1
        else:
            # the constraint leaves only the zero twists, where both hold
            zero = {p: ZERO for g in constraint for p in g.variables()}
            assert cs.ConstraintSet(constraint).holds_at(zero), h.label
            for t in SAMPLES:
                assert not cs.ConstraintSet(constraint).holds_at(dict.fromkeys(zero, t)), h.label
            assert got.holds_at(zero) and levi.holds_at(zero), h.label
            counts["zero"] += 1
    assert counts == {"exact": 1224, "reciprocal": 29, "zero": 1, "degenerate": 1}
