"""Exact linear algebra over the integers.

Matrices are lists of rows with int entries.  Everything in this package
stays tiny (intertwiner systems below ~40 unknowns), so dense cubic
elimination is the right tool.  One elimination serves every caller: a
fraction-free Gauss-Jordan elimination that divides each combined row by
its content, so nullspace basis vectors come back integer-primitive.  A
Hom dimension is the nullity of its intertwiner system, and a reflection
functor's new space is a kernel.
"""

from __future__ import annotations

from math import gcd, lcm


def primitive(vec):
    """Divide an int vector by its content."""
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def nullspace(rows, ncols):
    """Basis of {x : A x = 0}, one integer-primitive vector per free column.

    Gauss-Jordan over the integers: every row combination is divided by its
    content, so entries stay small.  Row r ends with its pivot p_r at column
    pivots[r] and zeros in every other pivot column, so for a free column f
    the vector with L at f and -L * row_r[f] / p_r at pivots[r] (L the lcm of
    the |p_r|) is a positive multiple of the reduced-echelon basis vector,
    and primitive() maps both to the same integers.
    """
    m = list(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(len(m)):
            head = m[i][c]
            if i != r and head:
                m[i] = primitive([p * a - head * b for a, b in zip(m[i], row_r)])
        pivots.append(c)
        r += 1
    reduced = m[:r]
    scale = 1
    for row, p in zip(reduced, pivots):
        scale = lcm(scale, row[p])
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(primitive(v))
    return basis
