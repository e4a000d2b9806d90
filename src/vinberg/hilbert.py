"""Hilbert metric, Finsler norm, Busemann density, Monte-Carlo volumes.

All geometry happens in an affine chart {ell = -1} of the projective space:
a properly convex domain becomes a bounded open convex body, chords of the
body give the Hilbert distance via the cross-ratio, and the Busemann volume
integrates the reciprocal Lebesgue measure of the Finsler unit balls.

Bodies come in two boundary representations: halfspace lists (polytopes,
orbit hulls, outer cut systems) and quadrics (invariant-form conics).
Everything is vectorized over sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .orbits import DomainApprox, domain_approx, invariant_form, supporting_covector
from .polytope import CoxeterPolytope, vertex_faces
from .scalars import InputError

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
_DENSITY_CHUNK = 64  # points per polygon `norms` call, one stratum's worth
_GROUP = 1024  # strata drawn and summed at once; bounds the points held


class GeometryError(InputError):
    pass


# ---------------------------------------------------------------------------
# charts


def _dot(X, M):
    """X @ M summed over the shared axis in coordinate order, one elementwise
    step per coordinate rather than BLAS: a row's result ignores its batch."""
    return sum(np.multiply.outer(x_j, m_j) for x_j, m_j in zip(X.T, M))


@dataclass(frozen=True)
class Chart:
    """Affine chart {x : ell(x) = -1} with coordinates along `basis`.

    The basis columns must be orthonormal: chart coordinates are the
    orthogonal projection of x / (-ell . x) - origin onto them."""

    ell: np.ndarray  # (d+1,)
    origin: np.ndarray  # (d+1,), ell(origin) = -1
    basis: np.ndarray  # (d+1, d), orthonormal columns spanning ker ell

    @property
    def dim(self):
        return self.basis.shape[1]

    def to_chart(self, points):
        """Chart coordinates of points given along the last axis, in one
        array of the same leading shape."""
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, len(self.ell))
        denom = -_dot(flat, self.ell)
        if (denom <= 0).any():
            raise GeometryError("point outside the chart (ell >= 0)")
        out = _dot(flat / denom[:, None] - self.origin, self.basis)
        return out.reshape(pts.shape[:-1] + (self.dim,))

    def from_chart(self, coords):
        U = np.asarray(coords, dtype=float)
        out = self.origin + _dot(U.reshape(-1, self.dim), self.basis.T)
        return out.reshape(U.shape[:-1] + (len(self.ell),))

    def halfspace(self, covectors):
        """Chart form of the cone halfspaces {covector <= 0}: (a, b) with
        a . u <= b, for one covector or (A, b) for a stack of them."""
        cov = np.asarray(covectors, dtype=float)
        flat = cov.reshape(-1, len(self.ell))
        A, b = _dot(flat, self.basis), -_dot(flat, self.origin)
        return (A, b) if cov.ndim > 1 else (A[0], float(b[0]))


def witness_chart(P: CoxeterPolytope) -> Chart:
    """Chart of the supporting covector; defined on every orbit tile."""
    ell, _ = supporting_covector(P)
    return _chart_from(ell, P.interior)


def _chart_from(ell, interior):
    ell = np.asarray(ell, dtype=float)
    x0 = np.asarray(interior, dtype=float)
    val = float(ell @ x0)
    if val >= 0:
        raise GeometryError("interior point is outside the chart")
    origin = x0 / (-val)
    _, _, vh = np.linalg.svd(ell[None, :])
    basis = vh[1:].T
    return Chart(ell, origin, basis)


# ---------------------------------------------------------------------------
# convex bodies in a chart


class HalfspaceBody:
    """Bounded intersection {u : A u <= b} with known vertex list."""

    def __init__(self, A, b, vertices=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.vertices = None if vertices is None else np.atleast_2d(
            np.asarray(vertices, dtype=float)
        )

    @property
    def dim(self):
        return self.A.shape[1]

    def contains(self, U, tol=1e-12):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return ((U @ self.A.T) <= self.b[None, :] + tol).all(axis=1)

    def hits(self, U, E):
        """Ray parameters: for each point u and direction e, the boundary
        hits t- < 0 < t+ of the line u + t e (u must be interior)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        AU = U @ self.A.T  # (n, K)
        AE = E @ self.A.T  # (m, K)
        slack = self.b[None, :] - AU  # (n, K), > 0 inside
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = slack[:, None, :] / AE[None, :, :]  # (n, m, K)
        pos = AE[None, :, :] > 1e-14
        neg = AE[None, :, :] < -1e-14
        tp = np.where(pos, ratio, np.inf).min(axis=2)
        tm = np.where(neg, ratio, -np.inf).max(axis=2)
        return tp, tm

    def norms(self, U, E):
        """Finsler norms F(u, e) = (max_k r_k - min_k r_k) / 2, (points x
        directions), where r_k = (a_k . e) / (b_k - a_k . u) is the polar
        vertex a_k / (b_k - a_k . u) projected on e.

        0 takes part in the max and the min, so a direction in which the body
        is unbounded contributes 1/t = 0, as in `hits`; the facets are
        accumulated one at a time, so no (points x directions x facets)
        array is built."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        # facet-major rows, so each step reads contiguous memory; A u is summed
        # per coordinate, not by BLAS, so a point's norms ignore its batch
        AU = _dot(self.A, U.T)
        slack = self.b[:, None] - AU  # (K, n), > 0 inside
        AE = self.A @ E.T  # (K, m)
        AE[np.abs(AE) <= 1e-14] = 0.0  # parallel to the facet, as in `hits`
        hi = np.zeros((U.shape[0], E.shape[0]))
        lo = np.zeros_like(hi)
        r = np.empty_like(hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a_e, s in zip(AE, slack):
                np.divide(a_e[None, :], s[:, None], out=r)
                np.maximum(hi, r, out=hi)
                np.minimum(lo, r, out=lo)
        hi -= lo
        hi *= 0.5
        return hi

    def bbox(self):
        if self.vertices is None:
            raise GeometryError("halfspace body without vertex list has no bbox")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


class QuadricBody:
    """{u : q(u) < 0} for a quadratic q that is convex on the chart."""

    def __init__(self, Q2, q1, q0):
        self.Q2 = np.asarray(Q2, dtype=float)
        self.q1 = np.asarray(q1, dtype=float)
        self.q0 = float(q0)

    @property
    def dim(self):
        return self.Q2.shape[0]

    def value(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return (U * (U @ self.Q2)).sum(axis=1) + 2.0 * (U @ self.q1) + self.q0

    def contains(self, U, tol=1e-12):
        return self.value(U) < -tol

    def hits(self, U, E):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        a = (E * (E @ self.Q2)).sum(axis=1)  # (m,)
        if (a <= 0).any():
            raise GeometryError("quadric body is unbounded in a ray direction")
        bq = (U @ self.Q2) @ E.T + self.q1 @ E.T  # (n, m)
        c = self.value(U)  # (n,) < 0 inside
        disc = bq * bq - a[None, :] * c[:, None]
        disc = np.maximum(disc, 0.0)
        root = np.sqrt(disc)
        tp = (-bq + root) / a[None, :]
        tm = (-bq - root) / a[None, :]
        return tp, tm

    def norms(self, U, E):
        """Finsler norms F(u, e) = sqrt(e^T M e) / (-c), (points x
        directions), with g = Q2 u + q1, c = q(u) and M = g g^T - c Q2: the
        roots of q(u + t e) = 0 give 1/t+ - 1/t- = -2 sqrt(e^T M e) / c."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        ge = (U @ self.Q2 + self.q1) @ E.T  # (n, m)
        c = self.value(U)  # (n,) < 0 inside
        eQe = (E * (E @ self.Q2)).sum(axis=1)  # (m,)
        eMe = ge * ge - c[:, None] * eQe[None, :]
        return np.sqrt(np.maximum(eMe, 0.0)) / -c[:, None]

    def densities(self, U):
        """Busemann density sqrt(det M) / |c|^d in closed form.

        The Finsler ball {w : w^T M w <= c^2} is an ellipsoid of volume
        sigma_d |c|^d / sqrt(det M).  By the matrix determinant lemma,
        det M = (-c)^(d-1) det(Q2) kappa with the constant kappa =
        q1^T Q2^-1 q1 - q0 = -min q, which avoids the cancellation of det M
        near the boundary, where M tends to the rank-one g g^T."""
        return self._density_scale * (-self.value(U)) ** (-(self.dim + 1) / 2.0)

    @cached_property
    def _density_scale(self):
        if np.linalg.eigvalsh(self.Q2).min() <= 0:
            raise GeometryError("quadric body is unbounded in a ray direction")
        kappa = float(self.q1 @ np.linalg.solve(self.Q2, self.q1)) - self.q0
        return math.sqrt(np.linalg.det(self.Q2) * kappa)

    def bbox(self):
        # bounding box of the ellipsoid q < 0: center + semiaxis extents
        center = np.linalg.solve(self.Q2, -self.q1)
        level = -(self.value(center[None, :])[0])
        inv = np.linalg.inv(self.Q2)
        ext = np.sqrt(np.maximum(level * np.diag(inv), 0.0))
        return center - ext, center + ext


def unit_disk(d=2):
    return QuadricBody(np.eye(d), np.zeros(d), -1.0)


# ---------------------------------------------------------------------------
# metric quantities


def hilbert_distance(body, x, y):
    """Half the log cross-ratio along the chord through x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not body.contains(x[None, :])[0] or not body.contains(y[None, :])[0]:
        raise GeometryError("hilbert_distance needs interior points")
    e = y - x
    if float(np.abs(e).max()) == 0.0:
        return 0.0
    tp, tm = body.hits(x[None, :], e[None, :])
    tp, tm = float(tp[0, 0]), float(tm[0, 0])
    if not (tm < 0.0 < 1.0 < tp):
        raise GeometryError("chord parameters out of order; point on boundary?")
    return 0.5 * math.log((tp / (tp - 1.0)) * ((1.0 - tm) / (-tm)))


def finsler_norm(body, x, w):
    """F(x, w) = (1/t+ + 1/t-) / 2 with t the boundary hits along +-w."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if not body.contains(x[None, :], tol=0.0)[0]:
        raise GeometryError("finsler_norm needs an interior point")
    if float(np.abs(w).max()) == 0.0:
        return 0.0
    F = float(body.norms(x[None, :], w[None, :])[0, 0])
    if not math.isfinite(F):
        raise GeometryError("point is not interior along the given direction")
    return F


@lru_cache(maxsize=None)
def _sphere_grid(d, angular):
    """Quadrature nodes and weights for integrating r^d over directions,
    read-only and built once per (d, angular).

    d=2: trapezoid on the half circle (the Finsler ball is symmetric);
    d=3: Gauss-Legendre in the polar cosine x trapezoid in azimuth."""
    if d == 2:
        m = angular
        theta = np.arange(m) * (math.pi / m)
        E = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        W = np.full(m, math.pi / m)
    elif d == 3:
        n1 = max(4, angular // 16)
        n2 = angular
        nodes, wts = np.polynomial.legendre.leggauss(n1)
        theta = np.arange(n2) * (2.0 * math.pi / n2)
        s = np.sqrt(np.maximum(0.0, 1.0 - nodes * nodes))
        E = np.stack(
            [
                np.outer(s, np.cos(theta)).ravel(),
                np.outer(s, np.sin(theta)).ravel(),
                np.repeat(nodes, n2),
            ],
            axis=1,
        )
        W = np.repeat(wts * (2.0 * math.pi / n2), n2)
    else:
        raise GeometryError("quadrature implemented for d <= 3 only")
    E.flags.writeable = False
    W.flags.writeable = False
    return E, W


def busemann_densities(body, U, angular=256):
    """Busemann density sigma_d / Leb(B_u) at each chart point (vectorized).

    Conic bodies use the closed form (`QuadricBody.densities`), so `angular`
    acts on halfspace bodies only.  There the Finsler unit ball B_u is
    measured in polar coordinates with the boundary radius r(e) = 1/F(u, e)
    on the `angular` quadrature grid; in d = 1, sigma_1 / Leb(B) = F(u, 1)."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if isinstance(body, QuadricBody):
        return body.densities(U)
    d = U.shape[1]
    if d == 1:
        return body.norms(U, np.array([[1.0]]))[:, 0]
    E, W = _sphere_grid(d, angular)
    out = np.empty(U.shape[0])
    for start in range(0, U.shape[0], _DENSITY_CHUNK):
        F = body.norms(U[start : start + _DENSITY_CHUNK], E)
        r = 1.0 / np.maximum(F, 1e-300)
        # row sums rather than a BLAS product, again independent of the batch
        if d == 2:
            # area = 1/2 int_0^2pi r^2; F is symmetric, so the half-circle
            # grid integrates r^2 over [0, pi), which equals the area
            ball = (r * r * W).sum(axis=1)
        else:
            ball = (r ** 3 * W).sum(axis=1) / 3.0  # full-sphere grid
        out[start : start + _DENSITY_CHUNK] = _UNIT_BALL_VOLUME[d] / ball
    return out


def busemann_density(body, x, angular=256):
    x = np.asarray(x, dtype=float)
    if not body.contains(x[None, :])[0]:
        raise GeometryError("busemann_density needs an interior point")
    return float(busemann_densities(body, x[None, :], angular)[0])


# ---------------------------------------------------------------------------
# Monte-Carlo volume


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    samples: int
    depth: int | None
    seed: int
    outside: int  # target samples where the domain oracle failed


def _keyed_streams(seed):
    """`stream(i)` is the generator of Philox(key=[seed, i]) at its start.

    One generator is reset to each key, since a new Philox also draws OS
    entropy that a key never uses; spend a stream before taking the next."""
    bits = np.random.Philox(key=[seed, 0])
    gen, fresh = np.random.Generator(bits), bits.state

    def stream(i):
        key = np.asarray([seed, i]).astype(np.uint64)
        bits.state = dict(fresh, state={"counter": np.zeros(4, np.uint64), "key": key})
        return gen

    return stream


def _stratum_groups(lo, hi, samples, seed):
    """Stratified sample of the box [lo, hi], _GROUP strata at a time.

    The box is cut into k^d equal strata of about 64 points each, numbered in
    np.ndindex (C) order; stratum i draws its `per` points from its own
    Philox(key=[seed, i]) stream, so the points depend on (seed, samples)
    only, not on the grouping.  Yields (cell_vol, points) with points a
    (strata, per, d) array."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    k = max(1, int(round((samples / 64.0) ** (1.0 / d))))
    edges = np.array([np.linspace(lo[i], hi[i], k + 1) for i in range(d)])
    per = int(math.ceil(samples / k**d))
    cell_vol = float(np.prod(edges[:, 1] - edges[:, 0]))
    axes = np.arange(d)
    stream = _keyed_streams(seed)
    for start in range(0, k**d, _GROUP):
        ids = range(start, min(start + _GROUP, k**d))
        idx = np.stack(np.unravel_index(np.asarray(ids), (k,) * d), axis=1)
        cell_lo = edges[axes, idx][:, None, :]  # (strata, 1, d)
        pts = np.empty((len(ids), per, d))
        for i, stratum in zip(ids, pts):
            stream(i).random(out=stratum)
        pts *= edges[axes, idx + 1][:, None, :] - cell_lo
        pts += cell_lo
        yield cell_vol, pts


def _stratum_sums(values, cell_vol, sums=None):
    """Add a group of strata to the running stratified sums.

    `values` is (..., strata, per); returns the pair (sum of cell_vol * mean,
    sum of cell_vol^2 * var / per) over `sums` and the strata, with zero
    variance when per == 1.  The strata are added left to right, in stratum
    order: numpy's pairwise reduction would move the last bits."""
    per = values.shape[-1]
    mean = values.mean(axis=-1)
    var = values.var(axis=-1, ddof=1) if per > 1 else np.zeros_like(mean)
    if sums is None:
        sums = (np.zeros(mean.shape[:-1]),) * 2
    return tuple(
        np.cumsum(np.concatenate([acc[..., None], terms], axis=-1), axis=-1)[..., -1]
        for acc, terms in zip(sums, (cell_vol * mean, cell_vol**2 * var / per))
    )


def estimate_volume(
    domain, target, samples, seed, angular=256, depth=None, bbox=None
):
    """Busemann volume of `target` inside `domain` by stratified Monte-Carlo.

    `domain` may be a chart body or a DomainApprox+Chart pair prepared with
    `inner_hull_body`.  Deterministic in (seed, samples): the sampler is a
    counter-based generator keyed by (seed, stratum)."""
    (est,) = paired_volumes([domain], target, samples, seed, angular, bbox=bbox)
    return replace(est, depth=depth)


def paired_volumes(
    domains, target, samples, seed, angular=256, bbox=None, nesting=None
):
    """Volume estimates for several domains sharing identical sample points.

    nesting="increasing" asserts the domains are nested increasingly (so
    densities must not increase along the list); "decreasing" the reverse.
    Violations beyond tolerance raise, as they expose an input bug."""
    ests, _, _ = _paired_mc(domains, target, samples, seed, angular, bbox, nesting)
    return ests


def _paired_mc(domains, target, samples, seed, angular, bbox, nesting):
    lo, hi = target.bbox() if bbox is None else bbox
    nb = len(domains)
    small, big = slice(None, -1), slice(1, None)  # of each neighbouring pair
    if nesting == "decreasing":
        small, big = big, small
    outside = np.zeros(nb, dtype=int)
    sums = None
    drawn = 0
    for cell_vol, pts in _stratum_groups(lo, hi, samples, seed):
        strata, per, _ = pts.shape
        drawn += strata * per
        flat = pts.reshape(strata * per, -1)
        where = np.flatnonzero(target.contains(flat))
        dens = np.zeros((nb, strata * per))
        ok = np.zeros((nb, strata * per), dtype=bool)
        for bi, dom in enumerate(domains):
            hit = dom.contains(flat[where])
            outside[bi] += int((~hit).sum())
            if hit.any():
                ok[bi, where[hit]] = True
                dens[bi, ok[bi]] = busemann_densities(dom, flat[ok[bi]], angular)
        if nesting in ("increasing", "decreasing") and (
            # the bigger domain must contain every sample the smaller does,
            # with pointwise smaller densities
            ok[small] & (~ok[big] | (dens[big] > dens[small] * (1 + 1e-6) + 1e-9))
        ).any():
            raise GeometryError("domain nesting violated at a sample point")
        # per-sample paired differences ride along with the densities
        values = np.concatenate([dens, dens[1:] - dens[:-1]])
        sums = _stratum_sums(values.reshape(-1, strata, per), cell_vol, sums)
    totals, variances = sums
    ests = [
        VolumeEstimate(
            float(totals[bi]), float(math.sqrt(variances[bi])), drawn, None, seed,
            int(outside[bi]),
        )
        for bi in range(nb)
    ]
    return (
        ests,
        [float(x) for x in totals[nb:]],
        [float(math.sqrt(x)) for x in variances[nb:]],
    )


def monotonicity_probe(domain_small, domain_big, target, samples, seed, angular=256):
    """(estimate in the bigger domain, estimate in the smaller domain) with
    shared samples; Hilbert volumes shrink as the domain grows."""
    est_small, est_big = paired_volumes(
        [domain_small, domain_big],
        target,
        samples,
        seed,
        angular,
        nesting="increasing",
    )
    return est_big, est_small


# ---------------------------------------------------------------------------
# bodies from orbit tilings


_COLLINEAR = 1e-10  # relative size of a cross product too small to turn


def _hull_2d(points):
    """Andrew monotone chain; returns hull vertices counterclockwise.

    A turn o -> a -> b counts as left only when t1 - t2 > _COLLINEAR *
    (|t1| + |t2|) for the cross product's terms t1, t2: the relative
    error-bound form of the orientation test (Shewchuk 1997) with a band
    far wider than one rounding, so points that the last bits of a chart
    map could put on either side of a hull edge are dropped."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    if len(pts) <= 2:
        raise GeometryError("hull needs at least 3 distinct points")

    def left(o, a, b):
        t1 = (a[0] - o[0]) * (b[1] - o[1])
        t2 = (a[1] - o[1]) * (b[0] - o[0])
        return t1 - t2 > _COLLINEAR * (abs(t1) + abs(t2))

    lower = []
    for p in pts:
        while len(lower) >= 2 and not left(lower[-2], lower[-1], p):
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and not left(upper[-2], upper[-1], p):
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


def _polygon_halfspaces(verts):
    """CCW polygon vertices -> (A, b) rows with A u <= b inside: each edge's
    outward normal and its value on the edge's first vertex."""
    e = np.roll(verts, -1, axis=0) - verts
    A = np.stack([e[:, 1], -e[:, 0]], axis=1)
    return A, A[:, 0] * verts[:, 0] + A[:, 1] * verts[:, 1]


def polygon_body(vertices):
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    hull = _hull_2d(verts)
    A, b = _polygon_halfspaces(hull)
    return HalfspaceBody(A, b, vertices=hull)


def cut_body(A, b):
    """The planar body {u : A u <= b} with the chart origin strictly inside
    every cut, as the polar of the hull of the points a / b: the cuts on that
    hull's vertices are the body's facets, and each hull edge (p, q) is dual
    to the body vertex u with p . u = q . u = 1.  The body is bounded exactly
    when the origin is strictly inside the hull."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if not (b > 0).all():
        raise GeometryError("chart origin is not strictly inside every cut")
    hull = _hull_2d(A / b[:, None])
    p, q = hull.T, np.roll(hull, -1, axis=0).T
    cross = p[0] * q[1] - p[1] * q[0]
    if (cross <= 0).any():
        raise GeometryError("cut system does not bound the domain")
    verts = np.stack([q[1] - p[1], p[0] - q[0]], axis=1) / cross[:, None]
    return HalfspaceBody(hull, np.ones(len(hull)), vertices=verts)


def inner_hull_body(dom: DomainApprox, chart: Chart, max_depth=None):
    """Convex hull of the orbit tile rays in the chart (inner approximation
    of the invariant domain)."""
    if chart.dim != 2:
        raise GeometryError("inner hull bodies implemented in dimension 2")
    rays = [
        ray
        for i, tile in enumerate(dom.tiles)
        if max_depth is None or dom.ball.depths[i] <= max_depth
        for ray in tile
    ]
    return polygon_body(chart.to_chart(rays))


def outer_cut_body(dom: DomainApprox, chart: Chart, max_depth=None):
    """Intersection of the pushed supporting halfspaces (outer approximation
    of the invariant domain); must come out bounded."""
    if chart.dim != 2:
        raise GeometryError("outer cut bodies implemented in dimension 2")
    covs = [
        cov
        for i, cov in enumerate(dom.covectors)
        if max_depth is None or dom.ball.depths[i] <= max_depth
    ]
    return cut_body(*chart.halfspace(covs))


def fundamental_target(P: CoxeterPolytope, chart: Chart):
    """The fundamental polytope as a chart body (halfspaces + vertices)."""
    vertices = vertex_faces(P)
    if len(vertices) < P.dim + 1:
        raise GeometryError("fundamental polytope has too few vertices to box")
    A, b = chart.halfspace(P.alphas)
    return HalfspaceBody(A, b, vertices=chart.to_chart([f.witness for f in vertices]))


def conic_body(P: CoxeterPolytope, chart: Chart, G=None):
    """The invariant-form conic as a chart body (exact boundary of the
    invariant domain for the triangle-group cases)."""
    if G is None:
        G = invariant_form(P)
    if G is None:
        raise GeometryError("polytope has no invariant form")
    Gf = np.asarray(G, dtype=float)
    Bmat = chart.basis
    o = chart.origin
    Q2 = Bmat.T @ Gf @ Bmat
    q1 = Bmat.T @ (Gf @ o)
    q0 = float(o @ Gf @ o)
    if q0 >= 0:
        Q2, q1, q0 = -Q2, -q1, -q0
    return QuadricBody(Q2, q1, q0)


# ---------------------------------------------------------------------------
# volume sequences along orbit depth


@dataclass(frozen=True)
class VolumeSequence:
    side: str  # "inner" | "outer"
    depths: tuple
    estimates: tuple  # VolumeEstimate per depth
    diffs: tuple  # successive differences (paired)
    diff_stderrs: tuple


def volume_sequence(P, depths, samples, seed, side="inner", angular=256):
    """Paired volume estimates of the fundamental polytope against orbit
    approximations of increasing depth.

    side="inner": hulls of tile rays; domains grow with depth, so the
    estimates must not increase (they plateau at the true volume).
    side="outer": pushed-covector cuts; domains shrink with depth, so the
    estimates must not decrease — they grow without bound exactly when the
    true volume is infinite."""
    depths = sorted(depths)
    dom = domain_approx(P, max(depths))
    chart = witness_chart(P)
    target = fundamental_target(P, chart)
    bodies = []
    for N in depths:
        if side == "inner":
            bodies.append(inner_hull_body(dom, chart, max_depth=N))
        elif side == "outer":
            bodies.append(outer_cut_body(dom, chart, max_depth=N))
        else:
            raise InputError(f"unknown side {side!r}")
    nesting = "increasing" if side == "inner" else "decreasing"
    ests, diffs, dstd = _paired_mc(
        bodies, target, samples, seed, angular, None, nesting
    )
    ests = [replace(e, depth=N) for e, N in zip(ests, depths)]
    return VolumeSequence(
        side, tuple(depths), tuple(ests), tuple(diffs), tuple(dstd)
    )


# ---------------------------------------------------------------------------
# join divergence probe


@dataclass(frozen=True)
class SlabReport:
    slab_estimates: tuple
    partial_sums: tuple
    stderrs: tuple


def join_divergence_probe(
    omega_body,
    chart: Chart,
    e1_mask,
    target: HalfspaceBody,
    slabs,
    samples,
    seed,
    angular=128,
):
    """Slab volumes of target \\ h(target) iterates for the contraction h
    that doubles the E1 coordinates (cone level) and fixes the rest.

    The Hilbert volume is h-invariant, so the slab estimates agree up to
    Monte-Carlo error and the partial sums grow linearly — the numerical
    signature of infinite volume."""
    e1_mask = np.asarray(e1_mask, dtype=bool)
    hmat = np.diag(np.where(e1_mask, 2.0, 1.0))
    hinv = np.linalg.inv(hmat)

    def slab_index(U):
        # largest k with h^-k(lift(u)) still in the target (capped)
        k = np.full(U.shape[0], -1, dtype=int)
        alive = np.flatnonzero(target.contains(U))
        k[alive] = 0
        cur = chart.from_chart(U[alive])
        for step in range(1, slabs + 1):
            if alive.size == 0:
                break
            cur = cur @ hinv.T
            coords = chart.to_chart(cur)
            inside = target.contains(coords)
            k[alive[inside]] = step
            alive = alive[inside]
            cur = cur[inside]
        return k

    lo, hi = target.bbox()
    sums = None
    for cell_vol, pts in _stratum_groups(lo, hi, samples, seed):
        strata, per, _ = pts.shape
        flat = pts.reshape(strata * per, -1)
        k = slab_index(flat)
        dens = np.zeros(strata * per)
        sel = k >= 0
        if sel.any():
            dens[sel] = busemann_densities(omega_body, flat[sel], angular)
        vals = np.where(k == np.arange(slabs)[:, None], dens, 0.0)
        sums = _stratum_sums(vals.reshape(slabs, strata, per), cell_vol, sums)
    sums, variances = sums
    partial = np.cumsum(sums)
    return SlabReport(
        tuple(float(x) for x in sums),
        tuple(float(x) for x in partial),
        tuple(float(math.sqrt(v)) for v in variances),
    )
