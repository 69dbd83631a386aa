"""Exact linear algebra over any exact field, on sparse rows: Fractions, or
Gauss values, which hold (a + b*i)/d as ints (see :mod:`crlie.scalars`).

A row is a dict ``{column: entry}`` that holds only the nonzero entries.
Dense lists are accepted wherever a row is, and converted on entry; the
normalizer rows of :mod:`crlie.crstruct` are 99% zeros, so only the dict
form pays for what is there.  :class:`Row` is a dict that also knows its
width, for the one view that hands back dense lists.

One elimination core, :class:`Echelon`, keeps a basis of a row space in
reduced row echelon form: each basis row has entry 1 at its pivot column
and 0 in the pivot column of every other basis row.  That makes reducing a
vector a single pass: subtracting ``f * row`` for the pivot column c clears
column c and touches no other pivot column, so the multiplier for c is the
vector's own entry there, and the columns to visit are exactly the pivot
columns the vector has at the start.  Adding a row reduces it, makes its
leftmost remaining column a pivot and clears that column from the older
rows.  The RREF of a row space is unique, so the rows, pivots and kernel
bases are the ones a dense column-by-column elimination gives.

Columns below 0 are never pivots; :class:`SpanSolver` keeps there the
combination of its input vectors that each basis row is.  Entries need
only +, -, *, / and truthiness.  Int matrices stay on ints: nullspace and
the Gram inverse of :mod:`crlie.rootsys` eliminate fraction-free
(fraction_free_rref), and chamber_walk walks int coordinates to the
dominant Weyl chamber.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence


class Row(dict):
    """A sparse row of width ``ncols``: its nonzero entries by column."""

    __slots__ = ("ncols",)

    def __init__(self, entries, ncols: int):
        super().__init__(entries)
        self.ncols = ncols


def sparse(v) -> dict:
    """The nonzero entries of a row given as a dict or a dense sequence."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {c: x for c, x in items if x}


def _width(v, w: dict) -> int:
    """Width of the dense view of v's residual w: a Row's own width, a
    list's length, else up to w's last nonzero column."""
    if isinstance(v, Row):
        return v.ncols
    if isinstance(v, dict):
        return max([0] + [c + 1 for c in w])
    return len(v)


def _subtract(w: dict, f, row: dict) -> None:
    """w -= f * row in place, keeping only nonzero entries."""
    for j, b in row.items():
        x = w.get(j)
        if x is None:
            w[j] = -(f * b)
        else:
            x = x - f * b
            if x:
                w[j] = x
            else:
                del w[j]


class Echelon:
    """Reduced row echelon basis of a row space, grown one row at a time."""

    def __init__(self):
        self.rows: dict[int, dict] = {}  # pivot column -> basis row

    def residual(self, v: dict) -> dict:
        """v minus its components along the basis rows, in one pass."""
        w = dict(v)
        rows = self.rows
        for c in [c for c in v if c in rows]:
            _subtract(w, w[c], rows[c])
        return w

    def add(self, v: dict) -> bool:
        """Extend the basis by v; False when v adds no pivot."""
        w = self.residual(v)
        cols = [c for c in w if c >= 0]
        if not cols:
            return False
        p = min(cols)
        pv = w[p]
        if type(pv) is int:  # int rows: divide as Fractions, never floats
            pv = Fraction(pv)
        w = {c: x / pv for c, x in w.items()}
        for row in self.rows.values():
            g = row.get(p)
            if g is not None:
                _subtract(row, g, w)
        self.rows[p] = w
        return True


def rref(rows):
    """Reduced row echelon form: (nonzero rows as dicts in pivot order,
    pivot columns)."""
    ech = Echelon()
    for r in rows:
        ech.add(sparse(r))
    pivots = sorted(ech.rows)
    return [ech.rows[c] for c in pivots], pivots


class SpanSolver:
    """Row space of a set of vectors, for membership, solves and residuals."""

    def __init__(self, vectors: Sequence):
        self.k = len(vectors)
        self.basis = Echelon()
        for j, v in enumerate(vectors):
            row = sparse(v)
            row[-1 - j] = 1  # the augmented system [V | I], kept left of column 0
            self.basis.add(row)

    def residual(self, v) -> dict:
        """The nonzero entries of v after eliminating the pivot columns."""
        w = self.basis.residual(sparse(v))
        return {c: x for c, x in w.items() if c >= 0}

    def contains(self, v) -> bool:
        return not self.residual(v)

    def reduce(self, v):
        """Coefficients expressing v in the original vectors, or None."""
        coeffs, w = self.remainder(v)
        if any(w):
            return None
        return coeffs

    def remainder(self, v):
        """(coefficients, residual) after eliminating the pivot coordinates,
        as dense lists; the residual has the width of v (see _width)."""
        w = self.basis.residual(sparse(v))
        coeffs = [0] * self.k
        residual = [0] * _width(v, w)
        for c, x in w.items():
            if c < 0:
                coeffs[-1 - c] = -x
            else:
                residual[c] = x
        return coeffs, residual

    def dim(self) -> int:
        return len(self.basis.rows)


def _kernel(red, pivots, ncols, zero, one):
    """Basis of the right kernel of rows in reduced row echelon form with
    the given pivot columns, read off their free columns."""
    basis = []
    for fc in [fc for fc in range(ncols) if fc not in pivots]:
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            x = row.get(fc)
            if x:
                v[pc] = -x
        basis.append(v)
    return basis


def nullspace_gauss(rows, ncols, zero, one):
    """Basis of the right kernel over an exact field with the given 0 and 1."""
    return _kernel(*rref(rows), ncols, zero, one)


def nullspace(rows, ncols):
    """Basis of the right kernel of a matrix of ints or Fractions, as
    Fractions: the basis nullspace_gauss gives, which int rows reach over Z
    (fraction_free_rref), dividing by the last pivot once, at the end."""
    m = [[r.get(c, 0) for c in range(ncols)] if isinstance(r, dict) else list(r) for r in rows]
    if not all(type(x) is int for r in m for x in r):
        return nullspace_gauss(m, ncols, Fraction(0), Fraction(1))
    pivots, d = fraction_free_rref(m)
    red = [{c: Fraction(x, d) for c, x in enumerate(r) if x and c not in pivots} for r in m]
    return _kernel(red, pivots, ncols, Fraction(0), Fraction(1))


def fraction_free_rref(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the int rows m in place
    (Bareiss, Math. Comp. 22, 1968): a step multiplies each other row by
    its pivot, subtracts its multiple of the pivot row and divides by the
    previous pivot, exactly.  Returns the pivot columns, whose rows lead m,
    and the last pivot d, on every pivot: [M | I] ends as [det M I | adj M]."""
    pivots, d = [], 1
    for c in range(len(m[0]) if m else 0):
        top = len(pivots)
        k = next((i for i in range(top, len(m)) if m[i][c]), None)
        if k is not None:
            m[top], m[k] = m[k], m[top]
            rk = m[top]
            m[:] = [r if r is rk else [(rk[c] * x - r[c] * y) // d for x, y in zip(r, rk)]
                    for r in m]
            pivots.append(c)
            d = rk[c]
    return pivots, d


def chamber_walk(cartan, c) -> tuple[int, ...]:
    """The dominant member of the Weyl orbit of simple-root coordinates c,
    for the int Cartan matrix C: while some p[j] = <c | alpha_j> =
    sum_i c[i] C[i][j] is negative, reflect in alpha_j, which lowers c[j]
    by p[j] and each p[k] by p[j] C[j][k]."""
    c, ks = list(c), range(len(c))
    p = [sum(map(mul, c, col)) for col in zip(*cartan)]
    while True:
        for j in ks:
            pj = p[j]
            if pj < 0:
                c[j] -= pj
                row = cartan[j]
                for k in ks:
                    if row[k]:
                        p[k] -= pj * row[k]
                break
        else:
            return tuple(c)
