"""The face table: computed once per polytope from the extreme rays of its
cone, with no LP and no rank; `face_witness` (the LP) is the standalone
cross-check, and the rank formula (`oracles.face_dim`) checks the
dimensions.

The LP, rank, `classify_type` and `witness_vector` counts below are
machine-independent performance gates: they fail when a change makes a scan
solve an LP, take a rank or type a matrix again, whatever the wall time.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import oracles
from vinberg import (
    cartan,
    coxeter,
    decisions,
    hilbert,
    limits,
    orbits,
    polytope,
    ratlin,
    scalars,
)
from vinberg.cartan import validate_cartan
from vinberg.decisions import (
    NotNegativeType,
    decide_finite_volume,
    decide_limit_set_fills_boundary_necessary,
    decide_min_domain_equals_vinberg,
    decide_unique_domain,
)
from vinberg.polytope import (
    PolytopeError,
    build_polytope,
    classify_face,
    defines_face,
    enumerate_faces,
    face_witness,
    is_2perfect,
    link,
    tits_polytope,
)

DECISIONS = (
    decide_finite_volume,
    decide_unique_domain,
    decide_min_domain_equals_vinberg,
    decide_limit_set_fills_boundary_necessary,
)


@pytest.fixture
def lp_count(monkeypatch):
    """Counts calls of the face LP (`maximize_with_free_vars`)."""
    calls = [0]
    original = polytope.maximize_with_free_vars

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope, "maximize_with_free_vars", counted)
    return calls


@pytest.fixture
def rank_count(monkeypatch):
    """Counts calls of `Field.rank`."""
    calls = [0]
    original = scalars.Field.rank

    def counted(self, rows):
        calls[0] += 1
        return original(self, rows)

    monkeypatch.setattr(scalars.Field, "rank", counted)
    return calls


def _decide_all(P):
    for decide in DECISIONS:
        try:
            decide(P)
        except NotNegativeType:
            pass


def _right_angled_polygon(k, rng=None):
    return build_polytope(corpus.right_angled_polygon_pairs(k, rng), mode="approx")


def _right_angled_pentagon():
    return _right_angled_polygon(5)


def _random_cartan(rng, n):
    """Valid Cartan matrix: off-diagonal products in {1, 2, 3} or >= 4."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            if rng.random() < 0.2:
                continue
            a = rng.choice((1, 2, 3))
            rows[s][t], rows[t][s] = -a, -(1 if a == 1 else rng.choice((1, 2, 3, 4)))
    return rows


def _all_subsets(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


@pytest.mark.parametrize("name", sorted(corpus._BUILDERS))
def test_corpus_scans_solve_no_lp(name, lp_count):
    # every corpus entry is a Tits simplex or a join of them
    P = corpus._BUILDERS[name]()
    _decide_all(P)
    for face in enumerate_faces(P):
        classify_face(P, face.subset)
    assert lp_count[0] == 0


@pytest.mark.parametrize("build", [corpus.square.__wrapped__, _right_angled_pentagon])
def test_lattice_is_enumerated_once(build, lp_count):
    P = build()
    first = enumerate_faces(P)
    _decide_all(P)
    polytope.is_perfect(P)
    polytope.is_quasiperfect(P)
    for face in enumerate_faces(P):
        classify_face(P, face.subset)
    again = enumerate_faces(P)
    assert len(again) == len(first) and all(a is b for a, b in zip(again, first))
    assert lp_count[0] == 0


def _projective_image(P, rng):
    """The exact polytope with covectors a_s g and polars g^-1 v_s for a
    random unimodular g: the same faces in other coordinates."""
    d = P.dim + 1
    while True:
        g = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if abs(oracles.det(ratlin.mat(g))) == 1:
            break
    g_inv = ratlin.inverse(ratlin.mat(g))
    pairs = [
        (ratlin.mat_mul([list(a)], g)[0], ratlin.mat_vec(g_inv, v))
        for a, v in zip(P.alphas, P.polars)
    ]
    return build_polytope(pairs, labels=P.labels, mode="exact")


def _oracle_polytopes():
    rng = random.Random(5)
    polys = [corpus.square(), _right_angled_pentagon()]
    polys += [_right_angled_polygon(k, rng) for k in (5, 6, 7, 8)]
    for name in sorted(corpus._BUILDERS):
        P = corpus._BUILDERS[name]()
        if P.mode == "exact":
            polys.append(_projective_image(P, rng))
    return polys


def test_ray_lattice_agrees_with_the_lp_on_every_subset():
    polys = _oracle_polytopes()
    assert {P.mode for P in polys} == {"exact", "approx"}
    for P in polys:
        faces = []
        proper = (c for size in range(P.n) for c in itertools.combinations(range(P.n), size))
        for subset in proper:
            desc = defines_face(P, subset)
            assert (desc is None) == (face_witness(P.alphas, subset, P.mode, P.eps) is None)
            if desc is None:
                continue
            faces.append(subset)
            values = ratlin.mat_vec(P.alphas, desc.witness)
            assert all(P.field.sign(v) == 0 for s, v in enumerate(values) if s in subset)
            assert all(P.field.sign(v) < 0 for s, v in enumerate(values) if s not in subset)
            assert desc.dim == oracles.face_dim(P, subset)
        assert faces == [f.subset for f in enumerate_faces(P)]


# classify_type calls of the four decisions on a fresh corpus polytope: one
# per facet subset of the face table (the full subset included, which the
# negative-type guard reads), one for the Gram matrix of the group class, and
# for a join the face tables of its factors
TYPE_CALLS = {
    "aff": 9,
    "join_inf_inf": 81,
    "join_inf_seg": 45,
    "r4a": 17,
    "r4b": 17,
    "seg": 5,
    "t237": 9,
    "t23inf": 9,
    "t45": 9,
    "t6": 9,
    "t9": 9,
    "tinf": 9,
}


@pytest.mark.parametrize("name", sorted(corpus._BUILDERS))
def test_decisions_type_each_subset_once(name, monkeypatch):
    calls = [0]
    original = cartan.classify_type

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (cartan, polytope, coxeter, decisions):
        monkeypatch.setattr(module, "classify_type", counted, raising=False)
    P = corpus._BUILDERS[name]()
    _decide_all(P)
    assert calls[0] == TYPE_CALLS[name]
    if polytope.decompose(P) is None:
        assert calls[0] == len(P._restrictions) + 1


def test_pentagon_types_each_face_once(monkeypatch):
    calls = [0]
    original = cartan.classify_type

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (cartan, polytope, coxeter, decisions):
        monkeypatch.setattr(module, "classify_type", counted, raising=False)
    P = _right_angled_pentagon()
    _decide_all(P)
    # 11 faces (the interior, 5 edges, 5 vertices), the full subset and the
    # Gram matrix of the group class
    assert len(enumerate_faces(P)) == 11
    assert calls[0] == 13


def test_ray_witness_equals_lp():
    rng = random.Random(20)
    polytopes = [corpus._BUILDERS[name]() for name in sorted(corpus._BUILDERS)]
    for _ in range(20):
        rows = _random_cartan(rng, rng.randint(1, 5))
        for mode in ("exact", "approx"):
            polytopes.append(tits_polytope(validate_cartan(rows, mode=mode)))
    assert {P.mode for P in polytopes} == {"exact", "approx"}
    for P in polytopes:
        for subset in _all_subsets(P.n):
            desc = defines_face(P, subset)
            got = None if desc is None else desc.witness
            want = face_witness(P.alphas, subset, P.mode, P.eps)
            assert got == (None if want is None else tuple(want))
            if got is not None:
                kind = Fraction if P.mode == "exact" else float
                assert all(type(x) is kind for x in got)


def test_other_covectors_keep_the_lp(lp_count):
    # a projective change of coordinates keeps the faces; the ray lattice
    # finds them without an LP, the standalone face_witness by LP
    P = corpus.build("t6")
    g = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    alphas = [[sum(a[k] * g[k][j] for k in range(3)) for j in range(3)] for a in P.alphas]
    faces = []
    for subset in _all_subsets(3):
        w = face_witness(alphas, subset, "exact", P.eps)
        if w is not None:
            values = [sum(x * y for x, y in zip(a, w)) for a in alphas]
            assert [s for s, v in enumerate(values) if v == 0] == list(subset)
            assert all(v < 0 for s, v in enumerate(values) if s not in subset)
            faces.append(subset)
    assert lp_count[0] > 0
    assert faces == [f.subset for f in enumerate_faces(P)]


def test_face_table_is_not_shared_with_callers():
    P = corpus.square()
    first = enumerate_faces(P)
    want = [f.subset for f in first]
    first.clear()
    first.append(None)
    assert [f.subset for f in enumerate_faces(P)] == want
    assert enumerate_faces(P) is not enumerate_faces(P)


def test_classify_face_is_memoised():
    P = corpus.build("t6")
    assert classify_face(P, (2, 1)) is classify_face(P, (1, 2))


def test_single_facet_links():
    P = corpus.build("t237")
    for s in range(P.n):
        L = link(P, (s,))
        assert L.n == 1 and L.dim == 0
        assert L.labels == (P.labels[s],)
        assert [f.dim for f in enumerate_faces(L)] == [0, -1]
    assert is_2perfect(corpus.build("seg")) == (True, ())


def _lattice_polytopes():
    """The corpus, the square, t601, Tits simplices of 20 random Cartan
    matrices of rank 1-6 in both modes, and right-angled k-gons, k = 5-11,
    all freshly built."""
    rng = random.Random(12)
    polys = [corpus._BUILDERS[name]() for name in sorted(corpus._BUILDERS)]
    polys += [corpus.square.__wrapped__(), corpus.t601.__wrapped__()]
    for _ in range(20):
        rows = _random_cartan(rng, rng.randint(1, 6))
        for mode in ("exact", "approx"):
            polys.append(tits_polytope(validate_cartan(rows, mode=mode)))
    polys += [_right_angled_polygon(k, rng) for k in range(5, 12)]
    return polys


def test_face_dimensions_are_lattice_heights():
    polys = _lattice_polytopes()
    assert {P.mode for P in polys} == {"exact", "approx"}
    assert {P.n for P in polys} >= set(range(1, 7))
    for P in polys:
        table = P.face_table
        assert list(table) == sorted(table, key=lambda t: (len(t), t))
        assert table[tuple(range(P.n))].dim == -1  # the empty face
        assert table[()].dim == P.dim
        for subset, face in table.items():
            assert face.subset == subset
            assert face.dim == oracles.face_dim(P, subset)


def test_face_table_takes_no_rank_and_classifying_one_per_face(rank_count):
    polys = [corpus._BUILDERS[name]() for name in sorted(corpus._BUILDERS)]
    polys += [corpus.square.__wrapped__(), _right_angled_polygon(7)]
    for P in polys:
        rank_count[0] = 0  # build_polytope's reducedness check
        faces = enumerate_faces(P)
        assert rank_count[0] == 0
        proper = [face.subset for face in faces if face.subset]
        for subset in proper:
            classify_face(P, subset)
            classify_face(P, subset)  # memoised
        assert rank_count[0] == len(proper)


def test_classify_face_takes_faces_only():
    P = corpus.square()
    assert defines_face(P, (0, 1)) is None  # opposite sides of the square
    with pytest.raises(PolytopeError):
        classify_face(P, (0, 1))


@pytest.mark.filterwarnings("ignore:spectral gap")
@pytest.mark.parametrize("name", ["tinf", "t237", "t6"])
def test_supporting_covector_is_derived_once(name, monkeypatch):
    witnesses, typed = [0], []
    witness_vector, classify_type = cartan.witness_vector, cartan.classify_type

    def counted_witness(*args, **kwargs):
        witnesses[0] += 1
        return witness_vector(*args, **kwargs)

    def counted_type(A):
        typed.append(A)
        return classify_type(A)

    for module in (cartan, polytope, coxeter, decisions, orbits, hilbert, limits):
        monkeypatch.setattr(module, "witness_vector", counted_witness, raising=False)
        monkeypatch.setattr(module, "classify_type", counted_type, raising=False)
    P = corpus._BUILDERS[name]()
    hilbert.witness_chart(P)
    orbits.domain_approx(P, 4)
    limits.sample_limit_set(P, word_length=8, count=50, seed=1)
    assert witnesses[0] == 1
    # every typed matrix is a principal restriction of A, typed once; the
    # full one (the type tag) is the only n x n matrix, so A^T is never typed
    assert len(typed) == len(P._restrictions)
    assert [A.n for A in typed].count(P.n) == 1
