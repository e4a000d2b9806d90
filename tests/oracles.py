"""Independent re-derivations used as test oracles.

Orbit balls are checked against the plain breadth-first search: one
`ratlin.mat_mul` per product, and each inverse found by multiplying out the
reversed word.

Planar cut bodies are checked against the brute-force vertex set: every
point where two cut lines cross, kept when it satisfies every cut.  The
chart map, an orthogonal projection, is checked against the least-squares
solve for the coordinates of a point along the chart basis
(`lstsq_to_chart`).

The exact block type is checked against the principal-minor criteria for
M-matrices, one fraction-free determinant per leading minor and per
single-index deletion.  `det`, the exact determinant of a rational matrix,
serves the tests that need one; the library itself needs none.

The limit-set sampler is checked against its per-trial form: each word
multiplied out one `@` at a time and tested with its own eigen-solve
(`per_trial_limit_sample`).  The frontier gap is checked against the
per-edge point-to-segment loop (`per_edge_distance_to_polygon`).

The face conditions are checked through two formulations that share no code
with the library's face machinery:

* primal: the open system {a_s = 0 on the subset, a_s <= -1 off it} is fed
  to scipy's LP solver (scaling makes strict negativity equivalent to -1).
* dual: maximize the sum of the off-subset coefficients of a vanishing
  combination sum_s X_s a_s = 0 with X_s in [0,1] off the subset and X_s
  free on it; the subset defines a face exactly when the optimum is 0.

A face's dimension, which the library reads off as its height in the face
lattice, is checked against the rank formula d - rank(a_s : s in subset)
(`face_dim`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as scipy_lp

from vinberg import ratlin
from vinberg.cartan import NEGATIVE, classify_type
from vinberg.hilbert import HalfspaceBody, _keyed_streams
from vinberg.limits import EPS_GAP, LimitSetSample, ProximalWitness
from vinberg.linprog import OPTIMAL, solve_lp
from vinberg.orbits import generators, supporting_covector
from vinberg.scalars import InputError, to_float


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


def face_dim(P, subset):
    """Projective dimension of the face on `subset`: d minus the rank of its
    covectors (-1 for the empty face, whose covectors span the dual)."""
    return P.dim - P.field.rank([P.alphas[s] for s in subset])


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


def lstsq_to_chart(chart, points):
    """Chart coordinates of a stack of cone points as the least-squares
    solution u of basis u = x / (-ell . x) - origin, all points in one solve."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    affine = pts / -(pts @ chart.ell)[:, None] - chart.origin
    sol, *_ = np.linalg.lstsq(chart.basis, affine.T, rcond=None)
    return sol.T


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


def per_trial_detect_proximal(matrix, word=(), eps_gap=EPS_GAP):
    """Return a ProximalWitness for `matrix`, or None.

    The test is on the eigenvalue moduli: the top one must be simple, real,
    and beat the runner-up by a relative factor > 1 + eps_gap.  Near-ties
    inside the margin are reported as non-proximal with a warning because
    the attracting direction would not be trustworthy."""

    m = np.asarray([[to_float(x) for x in row] for row in matrix], dtype=float)
    n = m.shape[0]
    vals, vecs = np.linalg.eig(m)
    mods = np.abs(vals)
    top = int(np.argmax(mods))
    m0 = mods[top]
    if m0 == 0.0:
        return None
    rest = np.delete(mods, top)
    m1 = float(rest.max()) if rest.size else 0.0
    ratio = m0 / m1 if m1 > 0 else float("inf")
    if ratio <= 1.0 + eps_gap:
        # ties carry ~1e-11 of float noise after long products; only a gap
        # clearly above that is a genuine borderline worth a warning
        if ratio > 1.0 + 1e-9:
            warnings.warn(
                "spectral gap %.3e is inside the proximality margin %.1e; "
                "treating the element as non-proximal" % (ratio - 1.0, eps_gap)
            )
        return None
    lam = vals[top]
    if abs(lam.imag) > 1e-9 * m0:
        warnings.warn("dominant eigenvalue is not real; rejecting")
        return None
    v = vecs[:, top].real
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return None
    v = v / nv
    residual = np.linalg.norm(m @ v - lam.real * v)
    scale = max(1.0, float(np.abs(m).max()))
    if residual > 1e-8 * scale:
        warnings.warn("attracting eigenvector residual %.3e too large" % residual)
        return None
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return ProximalWitness(
        word=tuple(word),
        matrix=tuple(tuple(float(x) for x in row) for row in m),
        modulus=float(m0),
        gap=float(ratio),
        point=tuple(float(x) for x in v),
    )


def per_trial_limit_sample(P, word_length=12, count=200, seed=0, eps_gap=EPS_GAP):
    """`sample_limit_set` one trial at a time: each word multiplied out left
    to right with one `@` per letter, then tested by
    `per_trial_detect_proximal`."""

    tag = classify_type(P.cartan)
    if tag.overall != NEGATIVE:
        raise InputError("limit-set sampling needs a negative-type Cartan matrix")
    if P.n < 2:
        raise InputError("need at least two generators to form proximal words")
    gens = [np.asarray([[to_float(x) for x in row] for row in g]) for g in generators(P)]
    ell0, _ = supporting_covector(P)
    ell = np.asarray([to_float(x) for x in ell0])

    polar_mat = np.asarray(
        [[to_float(x) for x in v] for v in P.polars], dtype=float
    ).T
    u_basis, _, _ = np.linalg.svd(polar_mat, full_matrices=False)
    r = P.field.rank(P.polars)
    u_basis = u_basis[:, :r]

    res = 10.0 * max(P.eps, 1e-300)
    p_len = 2.0 / max(word_length, 2)
    seen = {}
    points, witnesses = [], []
    notes = []
    proximal_hits = 0
    worst_span = 0.0
    stream = _keyed_streams(seed)
    for trial in range(count):
        rng = stream(trial)
        length = int(min(word_length, max(2, rng.geometric(p_len))))
        word = [int(rng.integers(P.n))]
        while len(word) < length:
            step = int(rng.integers(P.n - 1))
            nxt = step if step < word[-1] else step + 1
            word.append(nxt)
        m = gens[word[0]]
        for s in word[1:]:
            m = m @ gens[s]
        wit = per_trial_detect_proximal(m, word=word, eps_gap=eps_gap)
        if wit is None:
            continue
        proximal_hits += 1
        v = np.asarray(wit.point)
        denom = float(ell @ v)
        if abs(denom) < 1e-12:
            notes.append("fixed point of word %r sits on the chart boundary" % (word,))
            continue
        v = v / (-denom)
        key = tuple(int(round(x / res)) for x in v)
        if key in seen:
            continue
        seen[key] = True
        coeff = u_basis.T @ v
        span_res = float(np.linalg.norm(v - u_basis @ coeff) / np.linalg.norm(v))
        worst_span = max(worst_span, span_res)
        points.append(tuple(float(x) for x in v))
        witnesses.append(wit)
    if proximal_hits == 0:
        notes.append(
            "no proximal element among %d sampled words up to length %d; "
            "this is unexpected for a negative-type group" % (count, word_length)
        )
    return LimitSetSample(
        points=tuple(points),
        witnesses=tuple(witnesses),
        word_length=word_length,
        count=count,
        seed=seed,
        attempts=count,
        span_residual=worst_span,
        warnings=tuple(notes),
    )


def _point_segment_distance(points, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def per_edge_distance_to_polygon(points, body: HalfspaceBody):
    """Distance from each point to a convex polygon (0 inside), one edge at
    a time."""
    points = np.atleast_2d(points)
    inside = np.all(points @ body.A.T - body.b <= 1e-12, axis=1)
    verts = body.vertices
    best = np.full(len(points), np.inf)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        best = np.minimum(best, _point_segment_distance(points, a, b))
    best[inside] = 0.0
    return best
