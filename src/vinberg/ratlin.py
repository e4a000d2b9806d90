"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of `fractions.Fraction`.  Sizes here
are tiny (n <= 17), so plain Gaussian elimination with exact pivoting is the
right tool.  `rank` is on the verdict path (one per classified face, the
Cartan rank of its link), and kernels serve the extreme rays; the LP solver
keeps its own tableau.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def rref(m):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of the right kernel {x : m x = 0}, exact."""
    if not m:
        return []
    nc = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * nc
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def coprime(vec):
    """The coprime integers on the ray of a nonzero rational vector."""
    den = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def inverse(m):
    n = len(m)
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity(n))]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows]


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent."""
    nc = len(m[0])
    aug = [list(row) + [bb] for row, bb in zip(m, b)]
    rows, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [ZERO] * nc
    for r, p in enumerate(pivots):
        x[p] = rows[r][-1]
    return x
