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
from .cartan import NEGATIVE, classify_type, irreducible_components
from .hilbert import GeometryError, HalfspaceBody, _keyed_streams, polygon_body
from .orbits import generators, supporting_covector
from .polytope import CoxeterPolytope, _extreme_rays, vertex_faces
from .scalars import InputError, to_float

EPS_GAP = 1e-6


@dataclass(frozen=True)
class ProximalWitness:
    """A group element whose top eigenvalue modulus is simple and real.

    `modulus` is that top modulus, `gap` the ratio to the second-largest
    modulus (> 1 + eps_gap by construction), and `point` a unit vector
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


def detect_proximal(matrix, word=(), eps_gap=EPS_GAP):
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


def _word_matrices(P: CoxeterPolytope):
    return [np.asarray([[to_float(x) for x in row] for row in g]) for g in generators(P)]


def sample_limit_set(P: CoxeterPolytope, word_length=12, count=200, seed=0,
                     eps_gap=EPS_GAP):
    """Sample attracting fixed points of random group elements.

    Draws `count` random reduced words (geometric length distribution capped
    at `word_length`, no immediate letter repeats), keeps the proximal ones,
    and deduplicates the fixed points at resolution 10 * P.eps in the
    supporting-covector chart.  Each trial uses its own counter-based stream
    keyed by (seed, trial), so results do not depend on evaluation order."""

    tag = classify_type(P.cartan)
    if tag.overall != NEGATIVE:
        raise InputError("limit-set sampling needs a negative-type Cartan matrix")
    if P.n < 2:
        raise InputError("need at least two generators to form proximal words")
    gens = _word_matrices(P)
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
        wit = detect_proximal(m, word=word, eps_gap=eps_gap)
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

    tag = classify_type(P.cartan)
    if tag.overall != NEGATIVE:
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
    pts = np.asarray([chart.to_chart(p) for p in sample.points], dtype=float)
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


def _point_segment_distance(points, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def _distance_to_polygon(points, body: HalfspaceBody):
    points = np.atleast_2d(points)
    inside = np.all(points @ body.A.T - body.b <= 1e-12, axis=1)
    verts = body.vertices
    best = np.full(len(points), np.inf)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        best = np.minimum(best, _point_segment_distance(points, a, b))
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
