"""Independent re-derivations used as test oracles.

Orbit balls are checked against the plain breadth-first search: one
`ratlin.mat_mul` per product, and each inverse found by multiplying out the
reversed word.

Planar cut bodies are checked against the brute-force vertex set: every
point where two cut lines cross, kept when it satisfies every cut.

The exact block type is checked against the principal-minor criteria for
M-matrices, one fraction-free determinant per leading minor and per
single-index deletion.  `det`, the exact determinant of a rational matrix,
serves the tests that need one; the library itself needs none.

The face conditions are checked through two formulations that share no code
with the library's face machinery:

* primal: the open system {a_s = 0 on the subset, a_s <= -1 off it} is fed
  to scipy's LP solver (scaling makes strict negativity equivalent to -1).
* dual: maximize the sum of the off-subset coefficients of a vanishing
  combination sum_s X_s a_s = 0 with X_s in [0,1] off the subset and X_s
  free on it; the subset defines a face exactly when the optimum is 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as scipy_lp

from vinberg import ratlin
from vinberg.linprog import OPTIMAL, solve_lp


def primal_face_feasible(P, subset):
    """Condition: some x has a_s(x) = 0 on the subset and a_s(x) < 0 off it."""
    subset = set(subset)
    d = len(P.alphas[0])
    rows = [[float(x) for x in row] for row in P.alphas]
    a_eq = [rows[s] for s in range(P.n) if s in subset]
    a_ub = [rows[s] for s in range(P.n) if s not in subset]
    res = scipy_lp(
        c=[0.0] * d,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=[-1.0] * len(a_ub) if a_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=[0.0] * len(a_eq) if a_eq else None,
        bounds=[(None, None)] * d,
        method="highs",
    )
    return res.status == 0


def dual_face_holds(P, subset, tol=1e-9):
    """Condition: every vanishing combination with nonnegative off-subset
    coefficients has all off-subset coefficients zero."""
    subset = set(subset)
    d = len(P.alphas[0])
    outside = [s for s in range(P.n) if s not in subset]
    inside = [s for s in range(P.n) if s in subset]
    if not outside:
        return True

    if P.mode == "exact":
        # Variables: X_s >= 0 for s outside, then u_s, w_s >= 0 (X_s = u - w)
        # for s inside.  Maximize the sum of the outside coefficients, capped
        # at 1 each so the program stays bounded.
        nvars = len(outside) + 2 * len(inside)
        c = [Fraction(1)] * len(outside) + [Fraction(0)] * (2 * len(inside))
        a_eq = []
        for j in range(d):
            row = [Fraction(P.alphas[s][j]) for s in outside]
            for s in inside:
                row.append(Fraction(P.alphas[s][j]))
                row.append(-Fraction(P.alphas[s][j]))
            a_eq.append(row)
        a_ub = []
        for k in range(len(outside)):
            row = [Fraction(0)] * nvars
            row[k] = Fraction(1)
            a_ub.append(row)
        status, _, value = solve_lp(c, a_ub, [Fraction(1)] * len(outside), a_eq, [Fraction(0)] * d)
        assert status == OPTIMAL
        return value == 0

    cols = []
    c = []
    bounds = []
    for s in outside:
        cols.append([float(P.alphas[s][j]) for j in range(d)])
        c.append(-1.0)  # scipy minimizes
        bounds.append((0.0, 1.0))
    for s in inside:
        cols.append([float(P.alphas[s][j]) for j in range(d)])
        c.append(0.0)
        bounds.append((None, None))
    a_eq = np.array(cols).T
    res = scipy_lp(c=c, A_eq=a_eq, b_eq=[0.0] * d, bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun <= tol


def brute_face_subsets(P):
    """All proper face subsets by the primal condition, in (size, lex) order."""
    out = [()]
    for size in range(1, P.n):
        for subset in itertools.combinations(range(P.n), size):
            if primal_face_feasible(P, subset):
                out.append(subset)
    return out


def det(m):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in m]
    sign = Fraction(1)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        p = rows[c][c]
        result *= p
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def _bareiss_det(m):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _nonsingular_m_matrix(rows):
    """All leading principal minors positive (a Z-matrix test)."""
    return all(_bareiss_det([row[: k + 1] for row in rows[: k + 1]]) > 0 for k in range(len(rows)))


def minor_block_type(rows):
    """Exact type of an irreducible Cartan block by principal minors:
    positive for a nonsingular M-matrix (all leading principal minors > 0);
    zero for a singular irreducible M-matrix (determinant 0 and every
    single-index deletion a nonsingular M-matrix); negative otherwise.

    Each row is first scaled by the positive common denominator of its
    entries, which keeps the sign of every principal minor."""
    rows = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    if _nonsingular_m_matrix(rows):
        return "positive"
    n = len(rows)
    if _bareiss_det(rows) == 0 and all(
        _nonsingular_m_matrix(
            [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        )
        for i in range(n)
    ):
        return "zero"
    return "negative"


def float_block_lambda(rows):
    """Float eigenvalue oracle for one irreducible block: 2 - rho(2I - A)."""
    a = np.array([[float(x) for x in row] for row in rows])
    n = a.shape[0]
    rho = max(abs(np.linalg.eigvals(2.0 * np.eye(n) - a)))
    return 2.0 - rho


def float_components(rows):
    """Connected components of the off-diagonal support, smallest-first."""
    n = len(rows)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and (rows[i][j] != 0 or rows[j][i] != 0):
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def cut_vertices(A, b, tol=1e-9):
    """Vertices of the planar body {u : A u <= b}: the feasible crossings of
    pairs of cut lines, merged when closer than `tol` relative to their size."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    out = []
    for i, j in itertools.combinations(range(len(A)), 2):
        M = A[[i, j]]
        if abs(np.linalg.det(M)) <= 1e-12 * np.abs(M).max() ** 2:
            continue  # parallel lines
        u = np.linalg.solve(M, b[[i, j]])
        scale = max(1.0, float(np.abs(u).max()))
        if (A @ u - b <= tol * scale * np.abs(A).max(axis=1)).all() and not any(
            np.abs(u - v).max() <= tol * scale for v in out
        ):
            out.append(u)
    return np.asarray(out)


def brute_orbit_ball(P, depth):
    """(elements, words, depths, inverses) of the word-length ball of radius
    `depth`, by breadth-first search over right products with one
    `ratlin.mat_mul` each, matrices deduplicated exactly (or on a 1e-9 grid
    in approx mode), and each inverse looked up after multiplying out the
    reversed word (-1 when that product is not found in the ball)."""
    field = P.field

    def key(m):
        return field.key([x for row in m for x in row], 1e-9)

    ident = tuple(map(tuple, field.identity(P.dim + 1)))
    gens = [
        tuple(tuple(e - vi * aj for e, aj in zip(row, a)) for row, vi in zip(ident, v))
        for a, v in zip(P.alphas, P.polars)
    ]
    elements, words, depths = [ident], [()], [0]
    seen = {key(ident): 0}
    frontier = [0]
    for level in range(1, depth + 1):
        nxt = []
        for idx in frontier:
            w = words[idx]
            for s in range(P.n):
                if w and w[-1] == s:
                    continue
                h = tuple(map(tuple, ratlin.mat_mul(elements[idx], gens[s])))
                k = key(h)
                if k not in seen:
                    seen[k] = len(elements)
                    elements.append(h)
                    words.append(w + (s,))
                    depths.append(level)
                    nxt.append(seen[k])
        frontier = nxt
        if not frontier:
            break
    inverses = []
    for w in words:
        inv = ident
        for s in reversed(w):
            inv = ratlin.mat_mul(inv, gens[s])
        inverses.append(seen.get(key(inv), -1))
    return tuple(elements), tuple(words), tuple(depths), tuple(inverses)
