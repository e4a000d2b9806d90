"""Proximal detection, limit-set sampling, and minimal-domain truncations.

The one closed-form eigenvalue here: for the all-infinite triangle group the
product of the three reflections has characteristic polynomial
(x + 1)(x^2 - 18x + 1), so its top eigenvalue is 9 + 4*sqrt(5).
"""

import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import oracles
from vinberg.cartan import NEGATIVE, classify_type, validate_cartan
from vinberg.coxeter import coxeter_matrix, gram_matrix
from vinberg.hilbert import (
    GeometryError,
    HalfspaceBody,
    inner_hull_body,
    polygon_body,
    witness_chart,
)
from vinberg.limits import (
    LimitSetSample,
    _distance_to_polygon,
    _proximal_witnesses,
    detect_proximal,
    hausdorff_gap,
    hull_of_limit_set,
    omega_min_seed,
    sample_limit_set,
)
from vinberg.orbits import domain_approx, generators, invariant_form, supporting_covector
from vinberg.polytope import tits_polytope
from vinberg.scalars import INFINITY, InputError, to_float


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_coxeter_element_is_proximal():
    gens = generators(corpus.build("tinf"))
    g = _mat_mul(_mat_mul(gens[0], gens[1]), gens[2])
    assert g == [
        [Fraction(-1), Fraction(-2), Fraction(-6)],
        [Fraction(2), Fraction(3), Fraction(10)],
        [Fraction(2), Fraction(6), Fraction(15)],
    ]
    wit = detect_proximal(g, word=(0, 1, 2))
    assert wit is not None and wit.word == (0, 1, 2)
    assert abs(wit.modulus - (9 + 4 * math.sqrt(5))) <= 1e-10
    assert wit.gap > 17.9  # runner-up modulus is 1


def test_non_proximal_elements():
    assert detect_proximal(np.eye(3)) is None
    assert detect_proximal(generators(corpus.build("tinf"))[0]) is None  # eigenvalues +-1
    assert detect_proximal([[0.0, -1.0], [1.0, 0.0]]) is None  # complex pair


def test_proximal_diagonal_witness():
    wit = detect_proximal(np.diag([2.0, 1.0, 0.5]))
    assert wit.modulus == 2.0 and wit.gap == 2.0
    assert wit.point == (1.0, 0.0, 0.0)


def test_near_tie_warns_and_rejects():
    with pytest.warns(UserWarning, match="proximality margin"):
        assert detect_proximal(np.diag([1.0, 1.0 + 5e-7, 0.3])) is None


def test_sampling_is_deterministic_and_clean():
    P = corpus.build("t237")
    s1 = sample_limit_set(P, word_length=10, count=300, seed=4)
    s2 = sample_limit_set(P, word_length=10, count=300, seed=4)
    assert s1 == s2
    assert len(s1.points) == 23 and s1.warnings == ()
    assert len(set(s1.points)) == len(s1.points)  # dedup really happened
    assert s1.span_residual <= 1e-12

    # every point is scaled onto the chart ell = -1
    ell, _ = supporting_covector(P)
    ellf = np.asarray([to_float(x) for x in ell])
    pts = np.asarray(s1.points)
    assert np.abs(pts @ ellf + 1).max() <= 1e-12

    # fixed points really are fixed, and they sit on the invariant conic
    for wit in s1.witnesses:
        m, v = np.asarray(wit.matrix), np.asarray(wit.point)
        assert np.linalg.norm(m @ v - (v @ (m @ v)) * v) <= 1e-10
    G = np.asarray([[to_float(x) for x in row] for row in invariant_form(P)])
    assert np.abs(np.einsum("ij,jk,ik->i", pts, G, pts)).max() <= 1e-9


def _triangles(seed):
    """Seeded hyperbolic triangles: float (an order off {2, 3, inf}), exact
    (orders in {2, 3, inf}) and rational Cartan matrices of negative type."""
    rng = random.Random(seed)

    def orders(choices, exact):
        while True:
            m = [rng.choice(choices) for _ in range(3)]
            if sum(0.0 if x == INFINITY else 1.0 / x for x in m) < 1.0 - 1e-9 and exact == all(
                x in (2, 3, INFINITY) for x in m
            ):
                p, q, r = m
                return tits_polytope(gram_matrix(coxeter_matrix([[1, p, q], [p, 1, r], [q, r, 1]])))

    def cartan():
        while True:
            A = [[Fraction(2)] * 3 for _ in range(3)]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                A[i][j], A[j][i] = -a, -Fraction(rng.choice((8, 9, 10, 12)), 2) / a
            C = validate_cartan(A, mode="exact")
            if classify_type(C).overall == NEGATIVE:
                return tits_polytope(C)

    return [orders((2, 3, 4, 5, 7, INFINITY), False), orders((2, 3, INFINITY), True), cartan()]


def _with_warnings(sampler, P, **kw):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = sampler(P, **kw)
    return out, [str(w.message) for w in caught]


_SAMPLER_CASES = [
    *[(name, dict(word_length=10, count=150, seed=1)) for name in corpus.NAMES],
    ("t23inf", dict(word_length=12, count=200, seed=0)),  # near-tie warnings
    ("t23inf", dict(word_length=12, count=1, seed=4)),
    ("t237", dict(word_length=12, count=0, seed=4)),
    ("tinf", dict(word_length=2, count=60, seed=2)),
    *[("triangle%d.%d" % (seed, k), dict(word_length=12, count=120, seed=seed))
      for seed in (1, 2, 3) for k in range(3)],
]


def _case_polytope(name):
    if name.startswith("triangle"):
        seed, k = map(int, name[len("triangle"):].split("."))
        return _triangles(seed)[k]
    return corpus.build(name)


@pytest.mark.parametrize("name, kw", _SAMPLER_CASES)
def test_sampler_matches_the_per_trial_oracle(name, kw):
    P = _case_polytope(name)
    got = _with_warnings(sample_limit_set, P, **kw)
    want = _with_warnings(oracles.per_trial_limit_sample, P, **kw)
    # points, every witness field, span_residual, notes and raised warnings,
    # in order; repr compares the floats bit for bit
    assert got == want
    assert repr(got) == repr(want)


def test_one_stack_proximality_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(7)
    mats = [
        np.diag([2.0, 1.0, 0.5]),
        np.diag([1.0, 1.0 + 5e-7, 0.3]),  # near tie, warned
        np.diag([1.0, -1.0, 0.5]),  # exact tie, silent
        np.zeros((3, 3)),  # no modulus at all
        np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # complex top
        np.diag([-3.0, 1.0, 0.5]),  # negative top eigenvalue
        *rng.normal(size=(40, 3, 3)),
    ]
    stack = np.array(mats)
    words = [(i,) for i in range(len(mats))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _proximal_witnesses(stack, words, 1e-6)
    with warnings.catch_warnings(record=True) as caught_one:
        warnings.simplefilter("always")
        want = [oracles.per_trial_detect_proximal(m, w, 1e-6) for m, w in zip(mats, words)]
    assert repr(got) == repr(want)
    assert [str(w.message) for w in caught] == [str(w.message) for w in caught_one]
    assert sum(w is None for w in got) >= 4


def test_sampling_rejects_invalid_sizes():
    P = corpus.build("t237")
    with pytest.raises(InputError, match="word_length >= 1"):
        sample_limit_set(P, word_length=0, count=5)
    with pytest.raises(InputError, match="count >= 0"):
        sample_limit_set(P, word_length=4, count=-5)
    empty = sample_limit_set(P, word_length=4, count=0)
    assert empty.points == () and empty.attempts == 0
    assert empty.warnings[0].startswith("no proximal element among 0 sampled words")


def test_sampling_needs_negative_type():
    with pytest.raises(InputError):
        sample_limit_set(corpus.a2(), word_length=4, count=5, seed=0)


def test_truncation_vacuous_for_tinf():
    tr = omega_min_seed(corpus.build("tinf"))
    assert tr.equals_polytope and tr.mode == "exact"
    e = lambda i: tuple(Fraction(-1) if j == i else Fraction(0) for j in range(3))
    assert set(tr.rays) == {e(0), e(1), e(2)}
    h = Fraction(1, 2)
    assert set(tr.polar_rows) == {(0, h, h), (h, 0, h), (h, h, 0)}


def test_truncation_vacuous_for_t237_and_seg():
    assert omega_min_seed(corpus.build("t237")).equals_polytope
    tr = omega_min_seed(corpus.build("seg"))
    assert tr.equals_polytope
    assert set(tr.rays) == {(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))}


def test_truncation_proper_for_product_six_triangle():
    tr = omega_min_seed(corpus.build("t6"))
    assert not tr.equals_polytope
    assert len(tr.rays) == 4
    rays = set(tr.rays)
    assert (Fraction(-5, 7), Fraction(0), Fraction(-2, 7)) in rays
    assert (Fraction(-2, 3), Fraction(-1, 3), Fraction(0)) in rays


def test_truncation_input_errors():
    with pytest.raises(InputError):
        omega_min_seed(corpus.a2())  # not negative type
    with pytest.raises(InputError):
        omega_min_seed(corpus.build("join_inf_inf"))  # reducible


def test_hull_rejects_degenerate_samples():
    P = corpus.build("t237")
    chart = witness_chart(P)
    pts = tuple(
        tuple(float(x) for x in chart.origin + chart.basis @ np.array([t, 0.0]))
        for t in (0.0, 0.05, 0.1)
    )
    fake = LimitSetSample(points=pts, witnesses=(), word_length=0, count=3,
                          seed=0, attempts=3, span_residual=0.0, warnings=())
    with pytest.raises(GeometryError, match="affine rank 1"):
        hull_of_limit_set(fake, chart)


def test_hausdorff_gap_hand_values():
    def square(r):
        return polygon_body([(-r, -r), (r, -r), (r, r), (-r, r)])

    assert abs(hausdorff_gap(square(1.0), square(2.0)) - math.sqrt(2)) <= 1e-12
    assert hausdorff_gap(square(1.0), square(1.0)) == 0.0
    tri = polygon_body([(0, 0), (1, 0), (0, 1)])
    assert abs(hausdorff_gap(tri, polygon_body([(3, 0), (4, 0), (3, 1)])) - 3.0) <= 1e-12


def _random_polygon(rng, k, radius=1.0, centre=(0.0, 0.0)):
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=k))
    pts = radius * np.stack([np.cos(angles), 1.3 * np.sin(angles)], axis=1) + centre
    return polygon_body(pts)


def _gap_oracle(a, b):
    d_ab = oracles.per_edge_distance_to_polygon(a.vertices, b).max()
    d_ba = oracles.per_edge_distance_to_polygon(b.vertices, a).max()
    return float(max(d_ab, d_ba))


def test_frontier_gap_matches_the_per_edge_oracle():
    rng = np.random.default_rng(11)
    bodies = [
        _random_polygon(rng, 900),  # several edge blocks
        _random_polygon(rng, 600, radius=1.3, centre=(0.1, -0.2)),
        polygon_body([(0.0, 0.0), (2.0, 0.1), (0.3, 1.7)]),  # a 3-vertex hull
        _random_polygon(rng, 12, radius=0.9),
        _random_polygon(rng, 40, radius=1.1, centre=(0.3, 0.0)),
    ]
    assert len(bodies[0].vertices) > 256 and len(bodies[2].vertices) == 3
    for a in bodies:
        for b in bodies:
            assert hausdorff_gap(a, b) == _gap_oracle(a, b)
    # a point cloud partly inside, partly outside, and a zero-length edge
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    square = HalfspaceBody(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0],
        vertices=[(-1.0, -1.0), (1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    )
    for body in (*bodies, square):
        got = _distance_to_polygon(pts, body)
        want = oracles.per_edge_distance_to_polygon(pts, body)
        assert 0 < (got == 0).sum() < len(pts)
        assert got.tobytes() == want.tobytes()


def test_limit_hull_approaches_tiling_hull():
    P = corpus.build("t237")
    chart = witness_chart(P)
    gaps = []
    for L, N in ((8, 4), (12, 8)):
        sample = sample_limit_set(P, word_length=L, count=400, seed=2)
        hull = hull_of_limit_set(sample, chart)
        inner = inner_hull_body(domain_approx(P, N), chart, max_depth=N)
        gaps.append(hausdorff_gap(hull, inner))
    assert gaps[0] == pytest.approx(4.761927117288307, abs=1e-9)
    assert gaps[1] == pytest.approx(1.7075507635324703, abs=1e-9)
    assert gaps[1] < gaps[0]
