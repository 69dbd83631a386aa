"""Tiny exact linear algebra over any exact field (Fraction or Gauss).

Matrices are lists of lists.  All routines are destructive-free and rely
only on +, -, *, / and truthiness of the entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
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
                row = m[i]
                m[i] = [a - f * b if b else a for a, b in zip(row, row_r)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


class SpanSolver:
    """Precomputed row space of a set of vectors, for membership and solves."""

    def __init__(self, vectors: Sequence[Sequence]):
        self.vectors = [list(v) for v in vectors]
        self.n = len(self.vectors[0]) if self.vectors else 0
        # eliminate the augmented system [v | e_i] to express residuals
        aug = [list(v) + [Fraction(int(i == j)) for j in range(len(self.vectors))]
               for i, v in enumerate(self.vectors)]
        self.red, self.pivots = rref(aug, ncols=self.n) if self.vectors else ([], [])

    def contains(self, v) -> bool:
        return self.reduce(v) is not None

    def reduce(self, v):
        """Coefficients expressing v in the original vectors, or None."""
        coeffs, w = self.remainder(v)
        if any(w):
            return None
        return coeffs

    def remainder(self, v):
        """(coefficients, residual) after eliminating the pivot coordinates."""
        w = list(v)
        k = len(self.vectors)
        coeffs = [0] * k
        for row, c in zip(self.red, self.pivots):
            f = w[c]
            if f:
                for j in range(self.n):
                    b = row[j]
                    if b:
                        w[j] = w[j] - f * b
                for j in range(k):
                    b = row[self.n + j]
                    if b:
                        coeffs[j] = coeffs[j] + f * b
        return coeffs, w

    def dim(self) -> int:
        return len(self.pivots)


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def nullspace_gauss(rows, ncols, zero, one):
    """Right kernel over an arbitrary exact field (explicit 0 and 1)."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = zero - row[fc]
        basis.append(v)
    return basis
