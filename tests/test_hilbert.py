"""Hilbert metric, Busemann densities, and the Monte-Carlo volume layer.

Closed-form oracles: the Klein-disk artanh distance, the simplex
max-log-cross-ratio distance, and the (1 - r^2)^(-3/2) density profile of
the disk.  The divergence probe runs on the triangle seen as the join of a
segment factor and a point factor (cone R^2 (+) R), where slab volumes are
equal by the invariance of the Hilbert measure under doubling the segment
block.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import oracles
from vinberg import hilbert
from vinberg.hilbert import (
    _UNIT_BALL_VOLUME,
    Chart,
    GeometryError,
    HalfspaceBody,
    QuadricBody,
    _sphere_grid,
    busemann_densities,
    busemann_density,
    conic_body,
    cut_body,
    estimate_volume,
    finsler_norm,
    fundamental_target,
    hilbert_distance,
    inner_hull_body,
    join_divergence_probe,
    monotonicity_probe,
    outer_cut_body,
    paired_volumes,
    polygon_body,
    unit_disk,
    volume_sequence,
    witness_chart,
)
from vinberg.orbits import domain_approx


def _square(r):
    return polygon_body([(-r, -r), (r, -r), (r, r), (-r, r)])


def test_klein_disk_distance():
    disk = unit_disk()
    for r in (0.1, 0.5, 0.9):
        assert abs(hilbert_distance(disk, [0.0, 0.0], [r, 0.0]) - math.atanh(r)) <= 1e-12
    # symmetry and the triangle inequality on a sample triple
    x, y, z = [0.2, 0.1], [-0.4, 0.3], [0.1, -0.5]
    dxy = hilbert_distance(disk, x, y)
    assert abs(dxy - hilbert_distance(disk, y, x)) <= 1e-12
    assert dxy <= hilbert_distance(disk, x, z) + hilbert_distance(disk, z, y) + 1e-12


def test_simplex_distance_closed_form():
    tri = polygon_body([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])

    def closed_form(p, q):
        a = [p[0], p[1], 1 - p[0] - p[1]]
        b = [q[0], q[1], 1 - q[0] - q[1]]
        logs = [math.log(ai / bi) for ai, bi in zip(a, b)]
        return (max(logs) - min(logs)) / 2

    pairs = [((0.2, 0.3), (0.55, 0.1)), ((0.1, 0.1), (0.3, 0.6)), ((0.4, 0.4), (0.05, 0.9))]
    for p, q in pairs:
        assert abs(hilbert_distance(tri, p, q) - closed_form(p, q)) <= 1e-12


def test_quadric_hits_from_interior():
    disk = unit_disk()
    tp, tm = disk.hits(np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]]))
    assert abs(tp[0][0] - 0.5) <= 1e-12
    assert abs(tm[0][0] + 1.5) <= 1e-12


def test_finsler_norm_properties():
    disk = unit_disk()
    x = np.array([0.1, -0.2])
    w = np.array([0.3, 0.4])
    F = finsler_norm(disk, x, w)
    assert abs(F - finsler_norm(disk, x, -w)) <= 1e-14  # reversible
    assert abs(finsler_norm(disk, x, 2 * w) - 2 * F) <= 1e-14  # 1-homogeneous
    t = 1e-6
    fd = hilbert_distance(disk, x, x + t * w) / t
    assert abs(fd - F) <= 1e-4 * F


def test_busemann_density_profile():
    disk = unit_disk()
    d0 = busemann_density(disk, [0.0, 0.0], angular=512)
    assert abs(d0 - 1.0) <= 1e-12
    for r in (0.3, 0.5, 0.7):
        ratio = busemann_density(disk, [r, 0.0], angular=512) / d0
        assert abs(ratio - (1 - r * r) ** -1.5) <= 1e-9


def _convex_polygon(rng, k):
    """k-gon with vertices at sorted random angles on a random ellipse."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    a, b = rng.uniform(1.0, 3.0, 2)
    return polygon_body(np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1))


@pytest.mark.parametrize("k", [3, 12, 100])
def test_polygon_norms_match_hits(k):
    rng = np.random.Generator(np.random.Philox(key=[31, k]))
    body = _convex_polygon(rng, k) if k > 3 else polygon_body([(0, 0), (2, 0.5), (0.3, 1.7)])
    assert body.A.shape[0] == k
    theta = rng.uniform(0, np.pi, 40)
    E = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    edge = body.vertices[1] - body.vertices[0]
    E = np.vstack([E, edge / np.linalg.norm(edge)])  # parallel to facet 0
    assert abs(E[-1] @ body.A[0]) <= 1e-14  # the masked case
    # interior points: convex combinations of the vertices
    weights = rng.dirichlet(np.ones(k), 30)
    U = weights @ body.vertices
    tp, tm = body.hits(U, E)
    want = 0.5 * (1.0 / tp + 1.0 / (-tm))
    got = body.norms(U, E)
    assert got.shape == want.shape == (30, 41)
    assert np.abs(got / want - 1).max() <= 1e-13


def test_polygon_norms_of_an_unbounded_body():
    # a half-plane: the open side contributes 1/t = 0, as in `hits`
    half = HalfspaceBody([[1.0, 0.0]], [1.0])
    E = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert half.norms([[0.0, 0.0]], E).tolist() == [[0.5, 0.5, 0.0]]


def _quadrature_densities(body, U, angular):
    """Busemann densities by quadrature of the chord lengths from `hits`."""
    d = U.shape[1]
    E, W = _sphere_grid(d, angular)
    tp, tm = body.hits(U, E)
    r = 1.0 / (0.5 * (1.0 / tp + 1.0 / (-tm)))
    ball = (r * r) @ W if d == 2 else (r ** 3) @ W / 3.0
    return _UNIT_BALL_VOLUME[d] / ball


@pytest.mark.parametrize("d, tol", [(2, 1e-12), (3, 1e-10)])
def test_conic_density_closed_form_matches_quadrature(d, tol):
    # d = 3: Gauss-Legendre in the polar cosine converges more slowly as the
    # Finsler ball flattens near the boundary (off by 3e-9 at radius 0.99 of
    # the unit ball with angular=1024), so the points keep q(u) <= -0.05
    rng = np.random.Generator(np.random.Philox(key=[17, d]))
    B = rng.standard_normal((d, d))
    Q2 = B @ B.T + d * np.eye(d)
    centre = 0.3 * rng.standard_normal(d)
    q1 = -Q2 @ centre
    body = QuadricBody(Q2, q1, float(centre @ Q2 @ centre) - 1.0)
    U = centre + rng.uniform(-0.6, 0.6, (1000, d))
    U = U[body.value(U) <= -0.05][:20]
    assert len(U) == 20
    closed = busemann_densities(body, U)
    assert np.abs(closed / _quadrature_densities(body, U, 1024) - 1).max() <= tol
    # the closed form ignores `angular` on conics
    assert (busemann_densities(body, U, angular=16) == closed).all()
    saddle = QuadricBody(np.diag([1.0] + [-1.0] * (d - 1)), np.zeros(d), -1.0)
    with pytest.raises(GeometryError):
        busemann_densities(saddle, np.zeros((1, d)))
    disk = unit_disk(d)
    for r in (0.3, 0.9, 0.999):
        u = np.zeros((1, d))
        u[0, 0] = r
        want = (1 - r * r) ** (-(d + 1) / 2)
        assert abs(busemann_densities(disk, u)[0] / want - 1) <= 1e-12


def test_finsler_norm_on_a_polygon():
    square = _square(1.0)
    assert finsler_norm(square, [0.0, 0.0], [1.0, 0.0]) == 1.0
    # chord from -1 to 1 through 0.5: hits at t = 0.5 and t = -1.5
    assert abs(finsler_norm(square, [0.5, 0.0], [1.0, 0.0]) - 4.0 / 3.0) <= 1e-15
    x, w = np.array([0.2, -0.1]), np.array([0.3, 0.4])
    F = finsler_norm(square, x, w)
    assert abs(F - finsler_norm(square, x, -w)) <= 1e-15
    assert abs(finsler_norm(square, x, 2 * w) - 2 * F) <= 1e-15
    t = 1e-6
    assert abs(hilbert_distance(square, x, x + t * w) / t - F) <= 1e-4 * F
    with pytest.raises(GeometryError):
        finsler_norm(square, [1.0, 0.0], [1.0, 0.0])  # on the boundary


def test_cut_body_builds_vertices():
    # the triangle x, y >= 0, x + y <= 1 around its interior point (1/4, 1/4)
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    body = cut_body(A, np.array([0.5, 0.25, 0.25]))
    got = {tuple(np.round(v, 9)) for v in body.vertices}
    assert got == {(-0.25, -0.25), (0.75, -0.25), (-0.25, 0.75)}
    assert body.contains(np.zeros((1, 2)))[0]
    # a single halfplane leaves the region unbounded
    with pytest.raises(GeometryError):
        cut_body(np.array([[1.0, 0.0]]), np.array([1.0]))
    # so do three cuts whose normals fit in a half-plane
    with pytest.raises(GeometryError, match="does not bound"):
        cut_body(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(3))
    # the chart origin must be strictly inside every cut
    for b in ([1.0, 0.0, 0.0], [0.5, 0.25, -0.25]):
        with pytest.raises(GeometryError, match="strictly inside"):
            cut_body(A, np.array(b))


@pytest.mark.parametrize("seed", range(40))
def test_cut_body_matches_the_pairwise_oracle(seed):
    rng = np.random.Generator(np.random.Philox(key=[53, seed]))
    k = int(rng.integers(3, 61))
    width = 2 * np.pi if seed % 4 else rng.uniform(0.5, np.pi - 0.05)
    spread = 0.05 if seed % 2 else 2.0  # near a circle, most cuts are facets
    theta = rng.uniform(0.0, width, k)
    A = np.stack([np.cos(theta), np.sin(theta)], axis=1) * rng.uniform(1.0, 1 + spread, (k, 1))
    b = rng.uniform(1.0, 1 + spread, k)
    # redundant cuts (a facet pushed outwards) and duplicate cuts
    extra = rng.integers(k, size=int(rng.integers(0, k)))
    A = np.vstack([A, A[extra], A[extra]])
    b = np.concatenate([b, b[extra] * rng.uniform(1.0, 3.0, len(extra)), b[extra]])
    gaps = np.diff(np.sort(theta), append=np.sort(theta)[0] + 2 * np.pi)
    if gaps.max() > np.pi:  # the normals fit in a half-plane
        with pytest.raises(GeometryError):
            cut_body(A, b)
        return
    body = cut_body(A, b)
    want = oracles.cut_vertices(A, b)
    assert len(body.vertices) == len(want)
    scale = max(1.0, float(np.abs(want).max()))
    for v in body.vertices:
        assert np.abs(want - v).max(axis=1).min() <= 1e-9 * scale
    assert (body.vertices @ A.T - b <= 1e-12 * scale).all()


def test_estimate_volume_is_deterministic():
    e1 = estimate_volume(_square(1.0), _square(0.3), samples=30000, seed=11)
    e2 = estimate_volume(_square(1.0), _square(0.3), samples=30000, seed=11)
    assert e1 == e2
    assert e1.stderr > 0 and e1.samples >= 30000 and e1.outside == 0


@pytest.mark.parametrize(
    "lo, hi, samples", [([0.0], [2.0], 500), ([-1.0, 0.5], [1.0, 2.0], 5000),
                        ([0.0, 0.0, -1.0], [1.0, 3.0, 1.0], 3000)]
)
def test_stratum_sampler_contract(monkeypatch, lo, hi, samples):
    # stratum i is Philox(key=[seed, i]) mapped into the i-th box of the
    # k^d grid in np.ndindex order, whatever the grouping of the strata
    monkeypatch.setattr(hilbert, "_GROUP", 5)
    groups = list(hilbert._stratum_groups(lo, hi, samples, seed=13))
    assert all(pts.shape[0] <= 5 for _, pts in groups)
    pts = np.concatenate([p for _, p in groups])
    d = len(lo)
    k = round(pts.shape[0] ** (1.0 / d))
    per = pts.shape[1]
    assert pts.shape == (k**d, per, d) and per == math.ceil(samples / k**d)
    edges = [np.linspace(lo[i], hi[i], k + 1) for i in range(d)]
    for i, idx in enumerate(np.ndindex(*(k,) * d)):
        box_lo = np.array([edges[j][idx[j]] for j in range(d)])
        box_hi = np.array([edges[j][idx[j] + 1] for j in range(d)])
        unit = np.random.Generator(np.random.Philox(key=[13, i])).random((per, d))
        assert np.array_equal(pts[i], box_lo + unit * (box_hi - box_lo))
    cell_vol = groups[0][0]
    assert cell_vol == np.prod([e[1] - e[0] for e in edges])


def test_keyed_streams_match_fresh_generators():
    stream = hilbert._keyed_streams(29)
    for i in (0, 5, 1, 5, 2**40):
        got, fresh = stream(i), np.random.Generator(np.random.Philox(key=[29, i]))
        for draw in (lambda g: g.random(7), lambda g: g.integers(5, size=9),
                     lambda g: g.geometric(0.3, size=4), lambda g: g.integers(1000)):
            assert np.array_equal(draw(got), draw(fresh))


@pytest.mark.parametrize("per", [1, 2, 64])
def test_stratum_sums_match_the_per_stratum_loop(per):
    # reference: one stratum at a time, as mean and variance of its samples
    values = np.random.default_rng(per).exponential(size=(3, 50, per))
    cell_vol = 0.37
    total, variance = np.zeros(3), np.zeros(3)
    for i in range(50):
        v = values[:, i].var(axis=1, ddof=1) if per > 1 else np.zeros(3)
        total += cell_vol * values[:, i].mean(axis=1)
        variance += cell_vol**2 * v / per
    sums = None
    for start, stop in ((0, 7), (7, 30), (30, 50)):
        sums = hilbert._stratum_sums(values[:, start:stop], cell_vol, sums)
    assert np.array_equal(sums[0], total) and np.array_equal(sums[1], variance)


def test_estimates_do_not_depend_on_the_grouping(monkeypatch):
    P = corpus.build("t237")
    chart = witness_chart(P)
    body, target = conic_body(P, chart), fundamental_target(P, chart)
    one = estimate_volume(body, target, samples=20000, seed=3)
    seq_one = volume_sequence(corpus.t601(), depths=(2, 4), samples=3000, seed=5,
                              side="outer", angular=64)
    # the strata are summed in the same order, and a point's density does not
    # depend on the other points of its batch (one-stratum groups pass a BLAS
    # product other shapes than 64-point chunks do)
    for group in (7, 1):
        monkeypatch.setattr(hilbert, "_GROUP", group)
        assert estimate_volume(body, target, samples=20000, seed=3) == one
        assert volume_sequence(corpus.t601(), depths=(2, 4), samples=3000, seed=5,
                               side="outer", angular=64) == seq_one


def test_polygon_densities_do_not_depend_on_the_batch():
    rng = np.random.Generator(np.random.Philox(key=[41, 0]))
    body = _convex_polygon(rng, 10)
    U = rng.dirichlet(np.ones(10), 200) @ body.vertices
    batch = busemann_densities(body, U)
    assert all(busemann_densities(body, u[None, :])[0] == x for u, x in zip(U, batch))


def test_single_sample_strata_have_zero_stderr():
    est = estimate_volume(_square(1.0), _square(0.3), samples=1, seed=2)
    assert est.samples == 1 and est.stderr == 0.0 and math.isfinite(est.value)
    chart, omega, tube = _triangle_join_setup()
    rep = join_divergence_probe(omega, chart, np.array([True, True, False]), tube(1, 4),
                                slabs=3, samples=1, seed=2)
    assert rep.stderrs == (0.0, 0.0, 0.0)
    assert all(math.isfinite(v) for v in rep.slab_estimates + rep.partial_sums)


def test_volume_shrinks_as_domain_grows():
    target = _square(0.3)
    big, small = monotonicity_probe(_square(0.9), _square(2.0), target, samples=20000, seed=3)
    assert small.value > big.value
    assert small.value - big.value > 3 * math.hypot(small.stderr, big.stderr)


def test_paired_volumes_checks_nesting():
    with pytest.raises(GeometryError):
        paired_volumes([_square(2.0), _square(0.9)], _square(0.3), 5000, 1, nesting="increasing")
    ests = paired_volumes([_square(0.9), _square(2.0)], _square(0.3), 5000, 1, nesting="increasing")
    assert ests[0].value >= ests[1].value


def test_tiling_hull_bodies_nest():
    P = corpus.build("t237")
    chart = witness_chart(P)
    dom = domain_approx(P, 6)
    inner4 = inner_hull_body(dom, chart, max_depth=4)
    inner6 = inner_hull_body(dom, chart)
    outer6 = outer_cut_body(dom, chart)
    assert inner6.contains(inner4.vertices).all()
    assert outer6.contains(inner6.vertices).all()


def _tile_rays(name, depth=6):
    P = corpus.build(name)
    dom = domain_approx(P, depth)
    rays = np.asarray([ray for tile in dom.tiles for ray in tile], dtype=float)
    return P, dom, witness_chart(P), rays


def _assert_batch_free(f, rows):
    """f on a stack of rows equals f row by row and f on the reversed stack,
    bit for bit; returns f(rows)."""
    batch = f(rows)
    assert np.array_equal(batch, [f(row) for row in rows])
    assert np.array_equal(batch, f(rows[::-1])[::-1])
    return batch


@pytest.mark.parametrize("name", ["t237", "tinf", "t45"])
def test_chart_maps_do_not_depend_on_the_batch(name):
    P, dom, chart, rays = _tile_rays(name)
    coords = _assert_batch_free(chart.to_chart, rays)
    _assert_batch_free(chart.from_chart, coords)
    covs = np.asarray(dom.covectors, dtype=float)
    _assert_batch_free(lambda c: chart.halfspace(c)[0], covs)
    _assert_batch_free(lambda c: chart.halfspace(c)[1], covs)
    # the stacked chart maps are the maps of the stacks' rows
    assert np.array_equal(chart.to_chart(rays.reshape(len(dom.tiles), -1, 3)),
                          coords.reshape(len(dom.tiles), -1, 2))


@pytest.mark.parametrize("name", sorted(corpus._BUILDERS))
def test_chart_projection_matches_the_least_squares_oracle(name):
    P, _, chart, rays = _tile_rays(name)
    assert np.abs(chart.to_chart(rays) - oracles.lstsq_to_chart(chart, rays)).max() <= 1e-13
    assert np.allclose(chart.from_chart(chart.to_chart(rays)),
                       rays / -(rays @ chart.ell)[:, None], rtol=0.0, atol=1e-12)
    if P.dim == 2:
        # the collinearity band absorbs the oracle's batch-dependent rounding:
        # the projection and the oracle, batched or per ray, give one hull
        maps = [chart.to_chart(rays), oracles.lstsq_to_chart(chart, rays),
                np.concatenate([oracles.lstsq_to_chart(chart, ray) for ray in rays])]
        assert len({len(hilbert._hull_2d(u)) for u in maps}) == 1


def test_conic_volume_near_hyperbolic_area():
    # Cheap version of the flagship measurement: 50k samples already land
    # within ~1% of the hyperbolic area pi/42 of the fundamental triangle.
    P = corpus.build("t237")
    chart = witness_chart(P)
    est = estimate_volume(conic_body(P, chart), fundamental_target(P, chart),
                          samples=50000, seed=7)
    assert abs(est.value / (math.pi / 42) - 1) < 0.02


def _triangle_join_setup():
    ell = np.array([-1.0, -1.0, -1.0])
    origin = np.array([1 / 3, 1 / 3, 1 / 3])
    basis = np.stack(
        [np.array([1, -1, 0]) / math.sqrt(2), np.array([1, 1, -2]) / math.sqrt(6)],
        axis=1,
    )
    chart = Chart(ell=ell, origin=origin, basis=basis)

    def ccw(pts):
        pts = np.asarray(pts)
        c = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        return pts[np.argsort(ang)]

    omega = polygon_body(ccw(chart.to_chart(np.eye(3))))

    def slice_pt(ratio, split):
        # point of the simplex slice with (x1+x2)/x3 = ratio, x1 = split*(x1+x2)
        x3 = 1.0 / (1.0 + ratio)
        s = ratio * x3
        return [split * s, (1 - split) * s, x3]

    def tube(lo, hi):
        quad = np.array(
            [slice_pt(lo, 0.8), slice_pt(lo, 0.2), slice_pt(hi, 0.2), slice_pt(hi, 0.8)]
        )
        return polygon_body(ccw(chart.to_chart(quad)))

    return chart, omega, tube


def test_join_divergence_probe_linear_growth():
    chart, omega, tube = _triangle_join_setup()
    mask = np.array([True, True, False])
    rep = join_divergence_probe(omega, chart, mask, tube(1, 64), slabs=4,
                                samples=60000, seed=9)
    # Doubling the segment-block coordinates preserves the Hilbert measure,
    # so the slabs agree up to Monte-Carlo error...
    assert all(v > 0.4 for v in rep.slab_estimates)
    for a, b, sa, sb in zip(rep.slab_estimates, rep.slab_estimates[1:],
                            rep.stderrs, rep.stderrs[1:]):
        assert abs(a - b) <= 4 * math.hypot(sa, sb)
    # ...and the partial sums grow linearly (the infinite-volume signature).
    assert 3.9 <= rep.partial_sums[-1] / rep.partial_sums[0] <= 4.1


def test_join_divergence_probe_control_plateaus():
    chart, omega, tube = _triangle_join_setup()
    mask = np.array([True, True, False])
    rep = join_divergence_probe(omega, chart, mask, tube(1, 4), slabs=4,
                                samples=60000, seed=9)
    assert rep.slab_estimates[0] > 0.4
    assert rep.slab_estimates[2] == 0.0 and rep.slab_estimates[3] == 0.0
    assert rep.partial_sums[-1] == rep.partial_sums[1]


def test_volume_sequence_grows_for_loxodromic_corner():
    seq = volume_sequence(corpus.t601(), depths=(2, 4), samples=20000, seed=5,
                          side="outer", angular=96)
    vals = [e.value for e in seq.estimates]
    assert vals[1] > vals[0] > 0
