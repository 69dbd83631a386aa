"""The sparse elimination kernel against a dense reference, and the
normalizer dimensions against sympy.

The dense loops below are the column-by-column Gauss-Jordan elimination
that ``crlie.linalg`` used before it moved to sparse rows.  The RREF of a
row space is unique, so both must give the same rows, pivots, residuals and
kernel bases; coefficients of a solve are unique only when the spanning
vectors are independent, and otherwise must still reproduce the vector.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from crlie.linalg import Row, SpanSolver, nullspace, nullspace_gauss, rref
from crlie.scalars import Gauss
from test_crstruct import conjugate, coordinate_rows, evaluate_basis, form_row, l_complex_basis

Q = Fraction


# -- the dense reference ---------------------------------------------------------


def dense_rref(rows, ncols=None):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    n = ncols if ncols is not None else len(m[0])
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv if x else x for x in m[r]]
        row_r = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_remainder(vectors, v):
    """(coefficients, residual) of v against the span of vectors."""
    n, k = len(v), len(vectors)
    aug = [list(u) + [int(i == j) for j in range(k)] for i, u in enumerate(vectors)]
    red, pivots = dense_rref(aug, ncols=n) if vectors else ([], [])
    w = list(v)
    coeffs = [0] * k
    for row, c in zip(red, pivots):
        f = w[c]
        if f:
            for j in range(n):
                if row[j]:
                    w[j] = w[j] - f * row[j]
            for j in range(k):
                if row[n + j]:
                    coeffs[j] = coeffs[j] + f * row[n + j]
    return coeffs, w


def dense_nullspace(rows, ncols, zero, one):
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = zero - row[fc]
        basis.append(v)
    return basis


# -- seeded matrices ---------------------------------------------------------------


def _entry(rng, field, density):
    if rng.random() > density:
        return Q(0) if field == "Q" else Gauss(0)
    q = Q(rng.randint(-4, 4), rng.randint(1, 3))
    if field == "Q":
        return q
    return Gauss(q, Q(rng.randint(-2, 2), rng.randint(1, 2)))


def _matrix(rng, field, nrows, ncols, density, rank=None):
    """Random rows; with rank, the rows past the first `rank` are
    combinations of those, and one row is zero."""
    rows = [[_entry(rng, field, density) for _ in range(ncols)] for _ in range(nrows)]
    if rank is not None and nrows > rank:
        for i in range(rank, nrows):
            row = [x * 0 for x in rows[0]]
            for j in range(rank):
                f = _entry(rng, field, 0.7)
                row = [a + f * b for a, b in zip(row, rows[j])]
            rows[i] = row
        rows[-1] = [x * 0 for x in rows[-1]]
        rng.shuffle(rows)
    return rows


SHAPES = [
    # (rows, columns, density, rank of the row space or None)
    (4, 4, 0.8, None),
    (3, 9, 0.3, None),   # wide
    (9, 3, 0.6, None),   # tall
    (6, 6, 0.5, 3),      # rank deficient, with a zero row
    (8, 12, 0.2, 5),
    (5, 7, 0.1, None),   # mostly zeros
    (1, 5, 0.0, None),   # a zero row only
]


def _cases():
    rng = random.Random(20260418)
    for field in ("Q", "G"):
        for shape in SHAPES:
            for _ in range(6):
                nrows, ncols, density, rank = shape
                yield field, _matrix(rng, field, nrows, ncols, density, rank), rng


def _dense(row: dict, ncols: int) -> list:
    return [row.get(c, 0) for c in range(ncols)]


def _as_dicts(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


# -- the kernel against the reference ------------------------------------------------


def test_rref_matches_dense():
    for _, rows, _ in _cases():
        ncols = len(rows[0])
        want_rows, want_piv = dense_rref(rows)
        for given in (rows, _as_dicts(rows)):
            got_rows, got_piv = rref(given)
            assert got_piv == want_piv
            assert [_dense(r, ncols) for r in got_rows] == want_rows


def test_remainder_and_reduce_match_dense():
    for field, rows, rng in _cases():
        ncols = len(rows[0])
        independent = len(dense_rref(rows)[1]) == len(rows)
        probes = [_entry_row(rng, field, ncols) for _ in range(3)]
        probes.append(_combination(rng, field, rows))
        for given in (rows, _as_dicts(rows), [Row(r, ncols) for r in _as_dicts(rows)]):
            solver = SpanSolver(given)
            assert solver.dim() == len(dense_rref(rows)[1])
            for v in probes:
                want_coeffs, want_res = dense_remainder(rows, v)
                for probe in (v, Row(_as_dicts([v])[0], ncols)):
                    coeffs, res = solver.remainder(probe)
                    assert res == want_res
                    assert solver.contains(probe) == (not any(want_res))
                    reduced = solver.reduce(probe)
                    if any(want_res):
                        assert reduced is None
                        continue
                    assert reduced == coeffs
                    if independent:
                        assert coeffs == want_coeffs
                    # the coefficients reproduce v in any case
                    total = [x * 0 for x in v]
                    for c, r in zip(coeffs, rows):
                        total = [a + c * b for a, b in zip(total, r)]
                    assert total == list(v)


def _entry_row(rng, field, ncols):
    return [_entry(rng, field, 0.5) for _ in range(ncols)]


def _combination(rng, field, rows):
    out = [x * 0 for x in rows[0]]
    for r in rows:
        f = _entry(rng, field, 0.6)
        out = [a + f * b for a, b in zip(out, r)]
    return out


def test_kernels_match_dense():
    for field, rows, _ in _cases():
        ncols = len(rows[0])
        zero, one = (Q(0), Q(1)) if field == "Q" else (Gauss(0), Gauss(1))
        want = dense_nullspace(rows, ncols, zero, one)
        for given in (rows, _as_dicts(rows)):
            assert nullspace_gauss(given, ncols, zero, one) == want
            if field == "Q":
                assert nullspace(given, ncols) == want
            # every kernel vector is annihilated by every row
            for v in nullspace_gauss(given, ncols, zero, one):
                for r in rows:
                    assert not sum((a * b for a, b in zip(r, v)), zero)


def test_int_rows_give_fractions_never_floats():
    """rref and nullspace on int rows divide as Fractions: the same results
    as on the rows made Fractions first, and no float anywhere."""
    for field, rows, _ in _cases():
        if field != "Q":
            continue
        ncols = len(rows[0])
        scale = lcm(*(x.denominator for r in rows for x in r))
        ints = [[int(x * scale) for x in r] for r in rows]
        for given in (ints, _as_dicts(ints)):
            got_rows, got_piv = rref(given)
            assert [_dense(r, ncols) for r in got_rows] == dense_rref(rows)[0]
            kernel = nullspace(given, ncols)
            assert kernel == nullspace(rows, ncols)
            assert all(type(x) is Q for r in got_rows for x in r.values())
            assert all(type(x) is Q for v in kernel for x in v)


def test_nullspace_over_z_matches_fraction_elimination():
    """Seeded rank-deficient matrices: int rows, eliminated over Z, and the
    same rows scaled by Fractions, which go through nullspace_gauss, give
    the kernel of the dense Fraction elimination."""
    rng = random.Random(33)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols) - 1)
        gens = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rank)]
        coeffs = [[rng.randint(-3, 3) for _ in gens] for _ in range(nrows)]
        ints = [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(ncols)] for cs in coeffs]
        scales = [Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for _ in ints]
        fracs = [[x * q for x in r] for r, q in zip(ints, scales)]
        want = dense_nullspace([[Q(x) for x in r] for r in ints], ncols, Q(0), Q(1))
        assert len(want) >= ncols - rank
        for given in (ints, _as_dicts(ints), fracs, _as_dicts(fracs)):
            kernel = nullspace(given, ncols)
            assert kernel == want
            assert all(type(x) is Q for v in kernel for x in v)


def test_empty_inputs():
    assert rref([]) == ([], [])
    assert nullspace([], 2) == [[Q(1), Q(0)], [Q(0), Q(1)]]
    s = SpanSolver([])
    assert s.dim() == 0
    assert s.remainder([Q(1), Q(0)]) == ([], [Q(1), Q(0)])
    assert not s.contains([Q(1), Q(0)]) and s.contains([Q(0), Q(0)])


# -- normalizer dimensions against sympy ------------------------------------------------


def test_normalizer_dims_match_sympy_rank():
    """The ranks of S = [W, W'], conj(S) and their union, built ungraded
    over the whole algebra, at every call the rank <= 4 primitive scan
    makes, against sympy's rank over QQ(I); the graded normalizer_excess
    must read the same rank of S + conj(S)."""
    sympy = pytest.importorskip("sympy")
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    from crlie import classify
    from crlie import crstruct as cs

    calls = []
    orig = classify.normalizer_excess

    def record(h, vals):
        calls.append((h, vals))
        return orig(h, vals)

    classify.normalizer_excess = record
    try:
        rows = classify.primitive_rows(4)
    finally:
        classify.normalizer_excess = orig
    assert {(r["type"], r["rank"]) for r in rows} >= {("A", "4"), ("B", "4"), ("F", "4")}

    def gauss(x):
        return (sympy.Rational(x.re.numerator, x.re.denominator)
                + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))

    def rank(rs, ncols):
        entries = [[gauss(r[c]) if c in r else 0 for c in range(ncols)] for r in rs]
        return DomainMatrix.from_list_sympy(len(rs), ncols, entries).convert_to(QQ_I).rank()

    assert calls
    for h, vals in calls:
        srows, conj_rows = _form_bracket_rows(h, vals)
        system = h.datum.system
        ncols = len(system.roots) + system.rank
        dims = [SpanSolver(r).dim() for r in (srows, conj_rows, srows + conj_rows)]
        assert dims == [rank(r, ncols) for r in (srows, conj_rows, srows + conj_rows)]
        dim_l = len(h.datum.Ro.members) + len(h.datum.theta_perp_cartan)
        assert cs.normalizer_excess(h, vals) == ncols - dims[2] - dim_l


def _form_bracket_rows(h, vals):
    """Coordinate rows of every nonzero bracket [w, u], w in a basis of
    W = l^C + m01 and u in a basis of its orthogonal complement in the
    whole algebra, and of their conjugates: S and conj S, ungraded."""
    from crlie.chevalley import LieElement
    from crlie.scalars import ONE, ZERO

    system = h.datum.system
    n = len(system.roots)
    wbasis = l_complex_basis(h.datum) + [conjugate(v) for v in evaluate_basis(h, vals)]
    perp = [LieElement(system, dict(enumerate(v[:n])), dict(enumerate(v[n:])))
            for v in nullspace_gauss([form_row(w) for w in wbasis], n + system.rank, ZERO, ONE)]
    brackets = [b for w in wbasis for u in perp if not (b := w.bracket(u)).is_zero()]
    return (coordinate_rows(system, brackets),
            coordinate_rows(system, [conjugate(b) for b in brackets]))
