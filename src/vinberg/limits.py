"""Proximal elements, limit-set sampling, and minimal invariant domains.

A group element is *proximal* when its top eigenvalue modulus is attained by
a single simple real eigenvalue; iterating the element then drags almost
every projective point to the corresponding eigendirection (the attracting
fixed point).  The closure of those fixed points is the limit set: the
smallest closed invariant subset, and the convex hull of it is the smallest
invariant convex domain.  From the inside, the same object is reached by
truncating the fundamental cone to the cone spanned by the polars and
pushing the truncation around the orbit.

Everything is sampled with counter-based seeded streams so runs are
reproducible and trivially parallelisable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .cartan import NEGATIVE, irreducible_components
from .hilbert import GeometryError, HalfspaceBody, _keyed_streams, polygon_body
from .orbits import generators, supporting_covector
from .polytope import CoxeterPolytope, _extreme_rays, vertex_faces
from .scalars import InputError

EPS_GAP = 1e-6


@dataclass(frozen=True)
class ProximalWitness:
    """A group element whose top eigenvalue modulus is simple and real.

    `modulus` is that top modulus, `gap` the ratio to the second-largest
    modulus (> 1 + EPS_GAP by construction), and `point` a unit vector
    spanning the attracting eigendirection."""

    word: tuple
    matrix: tuple
    modulus: float
    gap: float
    point: tuple


@dataclass(frozen=True)
class LimitSetSample:
    """Deduplicated attracting fixed points plus their witnesses.

    Points are scaled so the supporting covector evaluates to -1 on them,
    which places them in the same affine chart as the invariant domain.
    `span_residual` is the worst relative distance from a sampled point to
    the span of the polars (the points must live in that subspace)."""

    points: tuple
    witnesses: tuple
    word_length: int
    count: int
    seed: int
    attempts: int
    span_residual: float
    warnings: tuple


@dataclass(frozen=True)
class Truncation:
    """The fundamental cone cut down to the cone spanned by the polars.

    `alpha_rows` are the facet covectors of the original cone, and
    `polar_rows` the facet covectors of the polar cone; the truncation is
    the set where all of them are <= 0.  `rays` are its extreme rays and
    `equals_polytope` records whether the cut was vacuous."""

    alpha_rows: tuple
    polar_rows: tuple
    rays: tuple
    equals_polytope: bool
    mode: str


def detect_proximal(matrix, word=()):
    """Return a ProximalWitness for `matrix`, or None.

    The test is on the eigenvalue moduli: the top one must be simple, real,
    and beat the runner-up by a relative factor > 1 + EPS_GAP.  Near-ties
    inside the margin are reported as non-proximal with a warning because
    the attracting direction would not be trustworthy."""

    m = np.asarray(matrix, dtype=float)
    return _proximal_witnesses(m[None], [word], EPS_GAP)[0]


def _dots(a, b):
    """Row-wise dot products of (k, n) stacks (or one row broadcast), each the
    BLAS dot of one row pair: the bits of `@` and `np.linalg.norm` on rows."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _proximal_witnesses(mats, words, eps_gap):
    """The proximality test of `detect_proximal` on a (k, n, n) stack of float
    matrices with one eigen-solve: a ProximalWitness or None per matrix, and
    the warnings of the rejected ones raised in stack order."""

    if not len(mats):
        return []
    vals, vecs = np.linalg.eig(mats)
    mods = np.abs(vals)
    rows = np.arange(len(mats))
    top = mods.argmax(axis=1)
    m0 = mods[rows, top]
    rest = mods.copy()
    rest[rows, top] = 0.0  # moduli are >= 0: the max of the others, or 0
    m1 = rest.max(axis=1)
    lam = vals[rows, top]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(m1 > 0, m0 / m1, np.inf)
        # a contiguous copy: BLAS sums a strided row in another order
        v = np.ascontiguousarray(vecs[rows, :, top].real)
        nv = np.sqrt(_dots(v, v))
        v = v / nv[:, None]
        r = (mats @ v[:, :, None])[:, :, 0] - lam.real[:, None] * v
        residual = np.sqrt(_dots(r, r))
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        k = np.abs(v).argmax(axis=1)
        v = np.where((v[rows, k] < 0)[:, None], -v, v)
        unreal = (np.abs(lam.imag) > 1e-9 * m0).tolist()
        loose = (residual > 1e-8 * scale).tolist()
    m0, ratio, nv, residual = m0.tolist(), ratio.tolist(), nv.tolist(), residual.tolist()
    out = []
    for t, word in enumerate(words):
        wit = None
        if m0[t] == 0.0:
            pass
        elif ratio[t] <= 1.0 + eps_gap:
            # ties carry ~1e-11 of float noise after long products; only a gap
            # clearly above that is a genuine borderline worth a warning
            if ratio[t] > 1.0 + 1e-9:
                warnings.warn(
                    "spectral gap %.3e is inside the proximality margin %.1e; "
                    "treating the element as non-proximal" % (ratio[t] - 1.0, eps_gap)
                )
        elif unreal[t]:
            warnings.warn("dominant eigenvalue is not real; rejecting")
        elif nv[t] == 0.0:
            pass
        elif loose[t]:
            warnings.warn("attracting eigenvector residual %.3e too large" % residual[t])
        else:
            wit = ProximalWitness(
                word=tuple(word),
                matrix=tuple(map(tuple, mats[t].tolist())),
                modulus=m0[t],
                gap=ratio[t],
                point=tuple(v[t].tolist()),
            )
        out.append(wit)
    return out


def _word_products(gens, words):
    """gens[w0] @ gens[w1] @ ... for every word, left to right, as one stacked
    product per letter position over the words that long."""
    mats = gens[[w[0] for w in words]]
    for pos in range(1, max(map(len, words), default=0)):
        live = [t for t, w in enumerate(words) if len(w) > pos]
        mats[live] = mats[live] @ gens[[words[t][pos] for t in live]]
    return mats


def sample_limit_set(P: CoxeterPolytope, word_length=12, count=200, seed=0):
    """Sample attracting fixed points of random group elements.

    Draws `count` random reduced words (geometric length distribution capped
    at `word_length`, no immediate letter repeats), keeps the proximal ones,
    and deduplicates the fixed points at resolution 10 * P.eps in the
    supporting-covector chart.  Each trial uses its own counter-based stream
    keyed by (seed, trial), so results do not depend on evaluation order.
    The words are multiplied out together and tested with one eigen-solve."""

    if word_length < 1 or count < 0:
        raise InputError(
            f"need word_length >= 1 and count >= 0 (got {word_length}, {count})"
        )
    if P.type_tag.overall != NEGATIVE:
        raise InputError("limit-set sampling needs a negative-type Cartan matrix")
    if P.n < 2:
        raise InputError("need at least two generators to form proximal words")
    gens = np.asarray(generators(P), dtype=float)
    ell0, _ = supporting_covector(P)
    ell = np.asarray(ell0, dtype=float)

    polar_mat = np.asarray(P.polars, dtype=float).T
    u_basis, _, _ = np.linalg.svd(polar_mat, full_matrices=False)
    r = P.field.rank(P.polars)
    u_basis = u_basis[:, :r]

    res = 10.0 * max(P.eps, 1e-300)
    p_len = 2.0 / max(word_length, 2)
    words = []
    stream = _keyed_streams(seed)
    for trial in range(count):
        rng = stream(trial)
        length = int(min(word_length, max(2, rng.geometric(p_len))))
        word = [int(rng.integers(P.n))]
        while len(word) < length:
            step = int(rng.integers(P.n - 1))
            word.append(step if step < word[-1] else step + 1)
        words.append(word)
    wits = _proximal_witnesses(_word_products(gens, words), words, EPS_GAP)
    hits = [(word, wit) for word, wit in zip(words, wits) if wit is not None]
    # every hit's chart point and its distance to the polars' span, at once
    v = np.asarray([wit.point for _, wit in hits]).reshape(len(hits), len(ell))
    denom = _dots(v, ell)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v / -denom[:, None]
        keys = np.rint(v / res).tolist()  # rint and round() share half-to-even
        coeff = (u_basis.T @ v[:, :, None])[:, :, 0]
        off = v - (u_basis @ coeff[:, :, None])[:, :, 0]
        span = (np.sqrt(_dots(off, off)) / np.sqrt(_dots(v, v))).tolist()
    edge = (np.abs(denom) < 1e-12).tolist()
    v = v.tolist()
    seen = set()
    points, witnesses = [], []
    notes = []
    worst_span = 0.0
    for t, (word, wit) in enumerate(hits):
        if edge[t]:
            notes.append("fixed point of word %r sits on the chart boundary" % (word,))
            continue
        key = tuple(keys[t])
        if key in seen:
            continue
        seen.add(key)
        worst_span = max(worst_span, span[t])
        points.append(tuple(v[t]))
        witnesses.append(wit)
    if not hits:
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


def _unit_rays(vectors, field):
    """Extreme rays of the cone {y : x . y <= 0 for every x in vectors},
    exact ones scaled to unit 1-norm (no square roots in Q), float ones to
    unit 2-norm.  Applied to the rays of a cone it yields that cone's facet
    covectors, oriented <= 0 on it."""
    rays = [ray for ray, _ in _extreme_rays(vectors, field)]
    if field.exact:
        return tuple(tuple(Fraction(x, sum(map(abs, ray))) for x in ray) for ray in rays)
    return tuple(rays)


def omega_min_seed(P: CoxeterPolytope):
    """Cut the fundamental cone down to the cone spanned by the polars.

    The orbit of the resulting piece fills the smallest invariant convex
    domain, so this truncation is its seed.  Requires an irreducible
    negative-type system whose polars span the whole space; computed in the
    arithmetic of P (exact for rational input)."""

    if P.type_tag.overall != NEGATIVE:
        raise InputError("the minimal invariant domain needs negative type")
    if len(irreducible_components(P.cartan)) != 1:
        raise InputError("the minimal invariant domain needs an irreducible system")
    field = P.field
    if field.rank(P.polars) != P.dim + 1:
        raise InputError("polars do not span the space; no minimal domain seed")

    polar_facets = _unit_rays(P.polars, field)
    inside = all(
        field.sign(v) <= 0
        for face in vertex_faces(P)
        for v in ratlin.mat_vec(polar_facets, face.witness)
    )

    rays = _unit_rays(list(P.alphas) + list(polar_facets), field)
    if not rays:
        raise GeometryError("truncation has no extreme rays; cone degenerated")
    return Truncation(
        alpha_rows=tuple(P.alphas),
        polar_rows=polar_facets,
        rays=rays,
        equals_polytope=inside,
        mode=P.mode,
    )


def hull_of_limit_set(sample: LimitSetSample, chart):
    """Convex hull of the sampled limit points in the given affine chart.

    Exact hull in the plane (monotone chain) and in space (facet
    enumeration); rank-deficient samples raise with the observed rank."""

    if not sample.points:
        raise GeometryError("empty limit-set sample has no hull")
    pts = chart.to_chart(sample.points)
    d = pts.shape[1]
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    tol = max(pts.shape) * (sv[0] if sv.size else 0.0) * 1e-12
    rank = int(np.sum(sv > tol))
    if rank < d:
        raise GeometryError(
            "degenerate hull: sample has affine rank %d in dimension %d" % (rank, d)
        )
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return HalfspaceBody(
            np.asarray([[1.0], [-1.0]]),
            np.asarray([hi, -lo]),
            vertices=np.asarray([[lo], [hi]]),
        )
    if d == 2:
        return polygon_body(pts)
    if d == 3:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        eq = hull.equations
        return HalfspaceBody(
            eq[:, :3].copy(), -eq[:, 3].copy(), vertices=pts[hull.vertices]
        )
    raise GeometryError("hulls are computed in dimension <= 3 only")


_EDGE_BLOCK = 256  # polygon edges per array step of the distance


def _distance_to_polygon(points, body: HalfspaceBody):
    """Distance from each point to a convex polygon (0 inside): to every edge
    segment at once, a block of edges at a time."""
    points = np.atleast_2d(points)
    inside = np.all(points @ body.A.T - body.b <= 1e-12, axis=1)
    verts = body.vertices
    ends = np.roll(verts, -1, axis=0)
    best = np.full(len(points), np.inf)
    for start in range(0, len(verts), _EDGE_BLOCK):
        a = verts[start : start + _EDGE_BLOCK]
        ab = ends[start : start + _EDGE_BLOCK] - a
        rel = points[None] - a[:, None]  # (edges, points, 2)
        denom = ab[:, None, :] @ ab[:, :, None]  # (edges, 1, 1)
        flat = denom == 0.0  # a degenerate edge: its first vertex is nearest
        t = np.clip(rel @ ab[:, :, None] / np.where(flat, 1.0, denom), 0.0, 1.0)
        proj = a[:, None] + np.where(flat, 0.0, t) * ab[:, None]
        best = np.minimum(best, np.linalg.norm(points - proj, axis=-1).min(axis=0))
    best[inside] = 0.0
    return best


def hausdorff_gap(body_a: HalfspaceBody, body_b: HalfspaceBody):
    """Hausdorff distance between two planar convex bodies.

    For convex sets the supremum of the distance-to-the-other-set is
    attained at a vertex, so checking vertices both ways is exact."""

    if body_a.vertices is None or body_b.vertices is None:
        raise GeometryError("both bodies need explicit vertices")
    if body_a.vertices.shape[1] != 2 or body_b.vertices.shape[1] != 2:
        raise GeometryError("the frontier gap is computed for planar bodies")
    d_ab = _distance_to_polygon(body_a.vertices, body_b).max()
    d_ba = _distance_to_polygon(body_b.vertices, body_a).max()
    return float(max(d_ab, d_ba))
