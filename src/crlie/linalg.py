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
only +, -, *, / and truthiness.
"""

from __future__ import annotations

from fractions import Fraction
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


def nullspace_gauss(rows, ncols, zero, one):
    """Basis of the right kernel over an exact field with the given 0 and 1."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            x = row.get(fc)
            if x:
                v[pc] = zero - x
        basis.append(v)
    return basis


def nullspace(rows, ncols):
    """Basis of the right kernel of a matrix of ints or Fractions, as Fractions."""
    return nullspace_gauss(rows, ncols, Fraction(0), Fraction(1))
