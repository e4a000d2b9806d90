"""Reflection representation: generators, relations, orbit balls, tilings.

Each facet pair (a_s, v_s) gives the projective reflection

    sigma_s = Id - v_s (x) a_s,        sigma_s[i][j] = delta_ij - v_s[i] a_s[j],

which fixes ker a_s pointwise and maps v_s to -v_s.  The group generated by
the sigma_s acts on the fundamental cone; the orbit of the cone tiles an
invariant convex domain.  Everything here is built by breadth-first search
over reduced words with exact (or quantized) matrix deduplication.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul

from . import ratlin
from .cartan import irreducible_components
from .polytope import CoxeterPolytope, vertex_faces
from .scalars import InputError, coerce

DEFAULT_MAX_ELEMENTS = 300000

# Approx-mode orbit elements are merged when their entries agree on a fixed
# 1e-9 grid, whatever the polytope's eps.
_ORBIT_KEY_STEP = 1e-9


@dataclass(frozen=True)
class OrbitBall:
    """Ball of radius `depth` in the generated group, as matrices.

    elements[i] acts on column vectors; words[i] is the generating word read
    left to right (elements[i] = sigma_{w0} ... sigma_{wk}); inverses[i] is
    the index of elements[i]^{-1} within the ball (balls are symmetric)."""

    elements: tuple
    words: tuple
    depths: tuple
    inverses: tuple
    depth: int

    def __len__(self):
        return len(self.elements)

    def count_at(self, depth):
        return sum(1 for d in self.depths if d == depth)


@dataclass(frozen=True)
class RepresentationReport:
    reduced: bool
    dual_reduced: bool
    cartan_irreducible: bool
    cartan_rank: int
    irreducible: bool


def reflection(P: CoxeterPolytope, s: int):
    """Matrix of the reflection attached to facet s (columns convention)."""
    if not 0 <= s < P.n:
        raise InputError(f"facet index {s} out of range")
    v = P.polars[s]
    a = P.alphas[s]
    ident = P.field.identity(P.dim + 1)
    return tuple(
        tuple(e - vi * aj for e, aj in zip(row, a)) for row, vi in zip(ident, v)
    )


def generators(P: CoxeterPolytope):
    return tuple(reflection(P, s) for s in range(P.n))


@dataclass(frozen=True)
class RelationCheck:
    s: int
    t: int
    order: float
    holds: bool | None  # None when the order is infinite (nothing to check)
    residual: float


def check_relations(P: CoxeterPolytope):
    """Verify sigma_s^2 = Id and (sigma_s sigma_t)^{m_st} = Id for finite
    orders.  Exact mode compares matrices exactly; approx mode reports the
    max-norm residual against 100 times the polytope's eps."""
    tol = P.field.tol * 100
    gens = generators(P)
    ident = P.field.identity(P.dim + 1)
    out = []
    for s in range(P.n):
        sq = ratlin.mat_mul(gens[s], gens[s])
        res = _residual(sq, ident)
        out.append(RelationCheck(s, s, 1, res <= tol, res))
    for s in range(P.n):
        for t in range(s + 1, P.n):
            m = P.cartan.orders[s][t]
            if m == math.inf:
                out.append(RelationCheck(s, t, math.inf, None, 0.0))
                continue
            prod = ratlin.mat_mul(gens[s], gens[t])
            power = ident
            for _ in range(int(m)):
                power = ratlin.mat_mul(power, prod)
            res = _residual(power, ident)
            out.append(RelationCheck(s, t, m, res <= tol, res))
    return out


def _residual(a, b):
    return max(abs(float(x - y)) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _integer_rows(m):
    """(D, rows) with m = rows / D: D > 0 is the least common denominator of
    the rational matrix m and rows holds its integer numerators over D."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def _stack_mul(a, b):
    """Float matrix product a @ b, broadcast over the leading axes, with every
    entry summed like `ratlin.mat_mul`: from zero, one term at a time in index
    order.  BLAS (`@`) may fuse multiply-adds and move the last bits."""
    import numpy as np

    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]))
    for k in range(a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def expand_orbit(P: CoxeterPolytope, depth: int, max_elements=DEFAULT_MAX_ELEMENTS):
    """Breadth-first ball of the generated group up to word length `depth`.

    New elements are found by right-multiplication, so each element's word is
    reduced-on-the-right as visited; duplicate matrices are pruned, which
    quotients by all relations automatically.

    Each level forms the products of its frontier by the generators in one
    step, and one loop deduplicates them in (element, generator) order.
    Exact elements are held as (integer numerators, denominator) over the
    generators' common denominator, reduced by one gcd; that pair is unique,
    so it is its own deduplication key.  Approx elements are float matrices,
    a whole level in one stacked product, keyed on a 1e-9 grid.  Every
    product found, new or not, is recorded in a transition table
    child[i][s] = index of elements[i] . sigma_s, and the inverse of
    sigma_{w0} ... sigma_{wk} is read off by walking that table from the
    identity along wk, ..., w0."""
    field = P.field
    n = P.dim + 1
    gens = generators(P)
    if field.exact:
        den, rows = _integer_rows([row for g in gens for row in g])
        gen_cols = [tuple(zip(*rows[s * n : (s + 1) * n])) for s in range(P.n)]
        cuts = range(0, n * n, n)

        def product(g, s):
            nums, d = g
            out = [
                sum(map(mul, r, c))
                for r in [nums[i : i + n] for i in cuts]
                for c in gen_cols[s]
            ]
            d *= den
            q = math.gcd(d, *out)
            if q != 1:
                return tuple([x // q for x in out]), d // q
            return tuple(out), d

        def step(frontier):
            hs = []
            for i in frontier:
                # the product repeating a word's last letter is never used
                last = words[i][-1] if words[i] else None
                hs.append([None if s == last else product(elements[i], s) for s in range(P.n)])
            return hs, hs

        ident = (tuple(int(i == j) for i in range(n) for j in range(n)), 1)
        ident_key = ident
    else:
        import numpy as np

        gen_stack = np.array(gens, dtype=float)

        def step(frontier):
            hs = _stack_mul(np.array([elements[i] for i in frontier])[:, None], gen_stack)
            # np.rint rounds half to even, like round(): the same grid cells
            keys = np.rint(hs / _ORBIT_KEY_STEP).reshape(len(frontier), P.n, n * n)
            return hs, [list(map(tuple, row)) for row in keys.tolist()]

        ident = np.eye(n)
        ident_key = tuple(np.rint(ident / _ORBIT_KEY_STEP).ravel().tolist())
    elements = [ident]
    words = [()]
    depths = [0]
    parents = [0]
    child = []  # one row per expanded element, in index order
    seen = {ident_key: 0}
    frontier = [0]
    for level in range(1, depth + 1):
        products, keys = step(frontier)
        nxt = []
        for idx, hs, ks in zip(frontier, products, keys):
            w = words[idx]
            row = []
            for s in range(P.n):
                if w and w[-1] == s:
                    # sigma_s^2 = Id: never extend by the same letter
                    row.append(parents[idx])
                    continue
                k = ks[s]
                j = seen.get(k)
                if j is None:
                    j = len(elements)
                    if j >= max_elements:
                        raise InputError(
                            f"orbit ball exceeded {max_elements} elements at depth {level}"
                        )
                    seen[k] = j
                    elements.append(hs[s])
                    words.append(w + (s,))
                    depths.append(level)
                    parents.append(idx)
                    nxt.append(j)
                row.append(j)
            child.append(row)
        frontier = nxt
        if not frontier:
            break  # the whole group is finite and already enumerated
    inverses = []
    for w in words:
        # every element passed on the way has length below len(w) <= depth,
        # so it was expanded and its row exists
        idx = 0
        for s in reversed(w):
            idx = child[idx][s]
        inverses.append(idx)
    if field.exact:
        # entries repeat across the ball: build each distinct Fraction once
        fraction = functools.cache(Fraction)
        elements = [
            tuple(tuple(map(fraction, nums[i : i + n], repeat(d))) for i in cuts)
            for nums, d in elements
        ]
    else:
        elements = [tuple(map(tuple, g)) for g in np.array(elements).tolist()]
    return OrbitBall(
        tuple(elements), tuple(words), tuple(depths), tuple(inverses), depth
    )


# ---------------------------------------------------------------------------
# invariant bilinear form


def invariant_form(P: CoxeterPolytope):
    """Symmetric bilinear form G with sigma_s^T G sigma_s = G for all s,
    normalized so the first nonzero entry is positive, or None.

    The compatibility constraints are G v_s = c_s a_s^T for every facet, with
    c_s > 0 (each a_s scaled so a_s(v_s) = 2, as validated at build time).
    Symmetry of G forces c_s A_st = c_t A_ts, so c is 1 at the first facet
    of each component and spreads along its edges; the solve rejects the
    cycles that are not symmetrizable.  For a symmetric Cartan matrix every
    c_s is 1, and on a simplex the solution is alphas^T . V^{-1}.
    """
    dim = P.dim + 1
    A = P.cartan.entries
    c = {}
    for comp in irreducible_components(P.cartan):
        c[comp[0]] = 1
        stack = [comp[0]]
        while stack:
            s = stack.pop()
            for t in comp:
                if t not in c and P.field.sign(A[s][t]) != 0:
                    c[t] = c[s] * A[s][t] / A[t][s]
                    stack.append(t)
    # Unknown symmetric G, entries g_ij (i <= j); constraints G v_s = c_s a_s^T.
    idx = {p: k for k, p in enumerate((i, j) for i in range(dim) for j in range(i, dim))}
    rows = []
    rhs = []
    for s in range(P.n):
        for i in range(dim):
            row = [P.field.zero] * len(idx)
            for j, vj in enumerate(P.polars[s]):
                row[idx[min(i, j), max(i, j)]] += vj
            rows.append(row)
            rhs.append(c[s] * P.alphas[s][i])
    sol = P.field.solve(rows, rhs)
    if sol is None:
        return None
    G = [[sol[idx[min(i, j), max(i, j)]] for j in range(dim)] for i in range(dim)]
    if all(abs(float(x)) == 0 for row in G for x in row):
        return None
    # Normalize the overall sign: prefer more positive than negative
    # directions (Lorentzian forms come out as (d, 1)); on a tie make the
    # first nonzero entry positive.
    pos, neg, _ = form_signature(G, eps=P.eps)
    flip = neg > pos
    if pos == neg:
        lead = next(x for row in G for x in row if abs(float(x)) > 0)
        flip = float(lead) < 0
    if flip:
        G = [[-x for x in row] for row in G]
    return tuple(tuple(row) for row in G)


def form_signature(G, eps=1e-9):
    """Signature (n_plus, n_minus, n_zero) by congruence diagonalization."""
    n = len(G)
    field, m = coerce(G, eps=eps)

    def nonzero(x):
        return field.sign(x) != 0

    pos = neg = zero = 0
    live = list(range(n))
    while live:
        p = next((i for i in live if nonzero(m[i][i])), None)
        if p is None:
            # all live diagonal entries vanish; find an off-diagonal hyperbolic pair
            pair = next(
                (
                    (i, j)
                    for i in live
                    for j in live
                    if i < j and nonzero(m[i][j])
                ),
                None,
            )
            if pair is None:
                zero += len(live)
                break
            i, j = pair
            # congruence by adding row/col j to i produces a nonzero diagonal
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        d = m[p][p]
        if float(d) > 0:
            pos += 1
        else:
            neg += 1
        live.remove(p)
        for i in live:
            f = m[i][p] / d
            if f == 0:
                continue
            for k in range(n):
                m[i][k] -= f * m[p][k]
            for k in range(n):
                m[k][i] -= m[k][p] * f
    return (pos, neg, zero)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainApprox:
    ball: OrbitBall
    base_vertices: tuple  # vertex rays of the fundamental cone, cyclic order
    tiles: tuple  # per group element: tuple of image rays (cone vectors)
    covectors: tuple  # per group element: the pushed-forward supporting covector
    ell0: tuple  # base supporting covector (row), negative on every tile


def supporting_covector(P: CoxeterPolytope):
    """(ell0, mu): a covector ell0 = sum mu_s a_s with mu > 0 and
    mu^T A < 0, derived once per polytope (`CoxeterPolytope.supporting_covector`).

    Exists precisely in negative type (mu is a positivity witness of A^T);
    by duality its orbit under the group stays in the dual cone, so each
    ell0 . gamma is <= 0 on every tile."""
    return P.supporting_covector


def _cone_vertices(P: CoxeterPolytope):
    """Vertex rays of the fundamental cone in a deterministic cyclic order
    (2D: by angle in the affine chart ell0 = -1; higher dim: lex order)."""
    verts = [f.witness for f in vertex_faces(P)]
    if P.dim == 2 and len(verts) >= 3:
        ell, _ = supporting_covector(P)
        pts = []
        for w in verts:
            t = sum(float(l) * float(x) for l, x in zip(ell, w))
            pts.append(tuple(float(x) / (-t) for x in w))
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        order = sorted(
            range(len(verts)),
            key=lambda i: math.atan2(pts[i][1] - cy, pts[i][0] - cx),
        )
        verts = [verts[i] for i in order]
    return tuple(verts)


def domain_approx(P: CoxeterPolytope, depth: int):
    """Orbit tiling at the given depth together with pushed covectors.

    Each returned tile is the image of the fundamental cone's vertex rays;
    the covector ell0 . gamma^{-1} supports the image tile, and the whole
    family outer-approximates the invariant domain.  As a runtime guard every
    covector is checked nonpositive on every tile ray."""
    ball = expand_orbit(P, depth)
    ell0, _ = supporting_covector(P)
    base = _cone_vertices(P)
    import numpy as np

    if P.field.exact:
        # g . v over den(g) den(base) and ell0 . g over den(ell0) den(g), on
        # integer numerators
        bden, bnums = _integer_rows(base)
        lden, (lnums,) = _integer_rows([ell0])
        fraction = functools.cache(Fraction)
        # the guard's floats are one correctly rounded int division each
        tiles, pushed, ray_floats, pushed_floats = [], [], [], []
        for g in ball.elements:
            d, rows = _integer_rows(g)
            tile = [[sum(map(mul, r, v)) for r in rows] for v in bnums]
            tiles.append(tuple(tuple(fraction(x, d * bden) for x in ray) for ray in tile))
            ray_floats += ([x / (d * bden) for x in ray] for ray in tile)
            nums = [sum(map(mul, lnums, c)) for c in zip(*rows)]
            pushed.append(tuple(fraction(x, d * lden) for x in nums))
            pushed_floats.append([x / (d * lden) for x in nums])
        rays = np.array(ray_floats, dtype=float).T  # dim x (tiles * verts)
    else:
        # the whole ball at once: g . v for every base vertex, and ell0 . g
        stack = np.array(ball.elements, dtype=float)
        images = _stack_mul(stack, np.array(base, dtype=float).T)  # (N, dim, verts)
        rays = images.transpose(1, 0, 2).reshape(len(base[0]), -1)
        tiles = [tuple(map(tuple, t)) for t in images.transpose(0, 2, 1).tolist()]
        pushed_floats = _stack_mul(np.array([ell0], dtype=float), stack)[:, 0].tolist()
        pushed = list(map(tuple, pushed_floats))
    # ell0 . g^{-1} is ell0 . g at the inverse's index: one product per element
    covs = [pushed[i] for i in ball.inverses]
    # exact rays and covectors are rounded to float once; approx ones carry
    # the rounding of every product in the ball
    tol = 1e-12 if P.field.exact else 1e-7
    cov_arr = np.array([pushed_floats[i] for i in ball.inverses], dtype=float)
    scale = np.maximum(1.0, np.abs(cov_arr).max(axis=1))
    for start in range(0, len(covs), 256):
        block = cov_arr[start : start + 256]
        vals = block @ rays
        if (vals > tol * scale[start : start + 256, None]).any():
            raise ArithmeticError(
                "pushed covector fails to support the tiling; duality guard tripped"
            )
    return DomainApprox(ball, base, tuple(tiles), tuple(covs), ell0)


def representation_report(P: CoxeterPolytope) -> RepresentationReport:
    dim = P.dim + 1
    reduced = P.field.rank(P.alphas) == dim
    dual_reduced = P.field.rank(P.polars) == dim
    comps = irreducible_components(P.cartan)
    cr = P.field.rank(P.cartan.rows())
    irreducible = len(comps) == 1 and cr == dim and reduced and dual_reduced
    return RepresentationReport(reduced, dual_reduced, len(comps) == 1, cr, irreducible)


def check_properness(P: CoxeterPolytope):
    """(flag, worst): the supporting covector must be strictly negative on
    every orbit image of the interior point of the ball of radius 6; `worst`
    is the max value seen (properness evidence when < 0)."""
    ball = expand_orbit(P, 6)
    ell0, _ = supporting_covector(P)
    worst = -math.inf
    for g in ball.elements:
        x = ratlin.mat_vec(g, P.interior)
        val = float(sum(l * xi for l, xi in zip(ell0, x)))
        worst = max(worst, val)
    return (worst < 0, worst)
