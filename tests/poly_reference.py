"""The Poly-based integrability and l-stability checks that the coded
kernels of crlie.crstruct replaced, kept as references, with the
every-class disjointness check, and the weight tuples that
ContactDatum.weight_codes codes.

Each line's twist is a Poly here, every bracket term n(r, s) * x * y is a
Poly product and every reduction modulo the lines a Poly sum, exactly as
the checks ran before their twists were coded as {monomial code: Gauss}.
The mixed-weight guards stay in: no part builds such a line, so they
never fire, and the references keep the code they compare against whole.
Both structure checks here read every pair of lines and every congruence
class, where crlie.crstruct reads an l-stable subspace's highest weights
only.
"""

from crlie.crstruct import ConstraintSet, DisjointnessResult, StructError, _det_poly, _minimize
from crlie.scalars import ONE, P_ZERO, as_poly


def weights(datum):
    """The theta-transverse weight of each root, by root index.

    The weight of a is (theta, theta) a - (a, theta) theta in simple-root
    coordinates, scaled to ints by one positive constant: theta's int
    coordinates carry theta.den, and (a, theta) is read off
    theta_pairings, which carries theta.den * gden.  The map is linear, so
    the weight of a sum is the sum of the weights, and it is the weight of
    a under the theta-orthogonal Cartan t' = h intersect theta-perp.  It
    vanishes exactly on the roots parallel to theta.
    """
    tc = datum.theta.c
    tt = sum(tc[k] * y for k, y in datum.theta.covector())
    return tuple(tuple(tt * x - p * t for x, t in zip(e, tc))
                 for e, p in zip(datum.system.expansions, datum.theta_pairings))


def line_vectors(lines):
    """Each line as {root: coefficient}: {w: 1} or {w: 1, w': c}."""
    return [{w: 1} if line is None else {w: 1, line[0]: line[1]} for w, line in lines.items()]


def reduce_lines(lines, res):
    """res reduced in place modulo the lines, Poly and int coefficients."""
    for w in [w for w in res if w in lines]:
        x = res.pop(w)
        if lines[w] is not None:
            wp, c = lines[w]
            res[wp] = res.get(wp, 0) - x * c
    return res


def l_stable(h):
    """HolomorphicSubspace.l_stable on Poly twists."""
    datum = h.datum
    sys = datum.system
    n, codes, get = sys.constants.n, sys.codes, sys.by_code.get
    lines, wt = h.lines, datum.weight_codes
    if any(line and wt[w] != wt[line[0]] for w, line in lines.items()):
        return False
    for d in datum.ro_generators:
        nd, cd = sys.neg_index[d], codes[d]
        for v in line_vectors(lines):
            image = {}
            for r, c in v.items():
                if r == nd:
                    return False
                k = get(cd + codes[r])
                if k is not None and c:
                    image[k] = c * n(d, r)
            if any(reduce_lines(lines, image).values()):
                return False
    return True


def check_integrability(h):
    """check_integrability on Poly twists: the same generators in the same
    order."""
    datum = h.datum
    sys = datum.system
    n, codes, get, neg = sys.constants.n, sys.codes, sys.by_code.get, sys.neg_index
    lines, tp, factor = h.lines, datum.theta_pairings, sys.constants.coroot_factors
    gens = {}

    def note(p):
        if p:
            p = as_poly(p).primitive()
            gens.setdefault(frozenset((m, c.a, c.b, c.d) for m, c in p.terms.items()), p)

    ro = frozenset(datum.Ro.members)
    live = {rho for rho, roots in datum.weight_blocks.items()
            if rho == 0 or any(r not in ro and lines.get(r, 0) is not None for r in roots)}
    wt = datum.weight_codes
    vecs = line_vectors(lines)
    weights = [wt[w] if line is None or wt[line[0]] == wt[w] else None
               for w, line in lines.items()]
    for a, va in enumerate(vecs):
        for b in range(a + 1, len(vecs)):
            wa, wb = weights[a], weights[b]
            if wa is not None and wb is not None and wa + wb not in live:
                continue
            res = {}
            cartan = 0
            for r, x in va.items():
                cr, nr = codes[r], neg[r]
                for s, y in vecs[b].items():
                    if s == nr:
                        cartan = cartan + x * y * (tp[r] * factor[r])
                    elif (k := get(cr + codes[s])) is not None:
                        c = n(r, s) * x * y
                        res[k] = res[k] + c if k in res else c
            for w, c in reduce_lines(lines, res).items():
                if w not in ro:
                    note(c)
            note(cartan)
    return ConstraintSet(tuple(_minimize(sorted(gens.values(), key=lambda p: p.key()))))


def check_disjointness(h):
    """check_disjointness with a determinant on every congruence class:
    the same factors in the same order."""
    neg, class_of = h.datum.system.neg_index, h.datum.class_of
    rows = {}
    for w, line in h.lines.items():
        rows.setdefault(class_of[w], []).append({w: ONE, line[0]: line[1]}
                                                if line and line[1] else w)
    for w, line in h.lines.items():
        rows.setdefault(class_of[neg[w]], []).append(
            {neg[w]: -ONE, neg[line[0]]: -line[1].conj()} if line and line[1] else neg[w])
    factors = {}
    for block, vs in rows.items():
        if len(vs) != len(block):
            raise StructError("congruence block is not square")
        pivots = {v for v in vs if type(v) is int}
        twisted = [v for v in vs if type(v) is dict]
        if len(pivots) + len(twisted) != len(vs):
            raise StructError("identically degenerate block")
        if twisted:
            cols = [c for c in block if c not in pivots]
            det = as_poly(_det_poly([[v.get(c, P_ZERO) for c in cols] for v in twisted]))
            if det.is_zero():
                raise StructError("identically degenerate block")
            det = det.primitive()
            if not det.is_constant():
                factors.setdefault(det.key(), det)
    return DisjointnessResult(tuple(sorted(factors.values(), key=lambda p: p.key())))
