"""The face table: computed once per polytope, closed form for dual-basis
covectors, exact LP otherwise.

The LP and `classify_type` counts below are machine-independent performance
gates: they fail when a change makes a scan solve an LP or type a matrix
again, whatever the wall time.
"""

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
from vinberg import cartan, coxeter, decisions, polytope
from vinberg.cartan import validate_cartan
from vinberg.decisions import (
    NotNegativeType,
    decide_finite_volume,
    decide_limit_set_fills_boundary_necessary,
    decide_min_domain_equals_vinberg,
    decide_unique_domain,
)
from vinberg.polytope import (
    build_polytope,
    classify_face,
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


def _decide_all(P):
    for decide in DECISIONS:
        try:
            decide(P)
        except NotNegativeType:
            pass


def _right_angled_pentagon():
    """Regular right-angled hyperbolic pentagon in the hyperboloid model: a
    negative-type polygon that is not a simplex (approx mode)."""
    a2 = 1.0 / (1.0 - math.cos(2.0 * math.pi / 5))
    a, b = math.sqrt(a2), math.sqrt(a2 - 1.0)
    pairs = []
    for i in range(5):
        e = (a * math.cos(2 * math.pi * i / 5), a * math.sin(2 * math.pi * i / 5), b)
        pairs.append(((e[0], e[1], -e[2]), (2 * e[0], 2 * e[1], 2 * e[2])))
    return build_polytope(pairs, mode="approx")


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


def _lp_witness(monkeypatch, alphas, subset, mode, eps):
    with monkeypatch.context() as m:
        m.setattr(polytope, "_is_dual_basis", lambda rows: False)
        return face_witness(alphas, subset, mode, eps)


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
    lps_build = lp_count[0]
    enumerate_faces(P)
    lps_enumeration = lp_count[0] - lps_build
    assert lps_build == P.n + 1 and lps_enumeration > 0

    lp_count[0] = 0
    Q = build()
    _decide_all(Q)
    polytope.is_perfect(Q)
    polytope.is_quasiperfect(Q)
    enumerate_faces(Q)
    for face in enumerate_faces(Q):
        classify_face(Q, face.subset)
    assert lp_count[0] == lps_build + lps_enumeration


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


def test_closed_form_witness_equals_lp(monkeypatch):
    rng = random.Random(20)
    polytopes = [corpus._BUILDERS[name]() for name in sorted(corpus._BUILDERS)]
    for _ in range(20):
        rows = _random_cartan(rng, rng.randint(1, 5))
        for mode in ("exact", "approx"):
            polytopes.append(tits_polytope(validate_cartan(rows, mode=mode)))
    assert {P.mode for P in polytopes} == {"exact", "approx"}
    for P in polytopes:
        assert polytope._is_dual_basis(P.alphas)
        for subset in _all_subsets(P.n):
            got = face_witness(P.alphas, subset, P.mode, P.eps)
            assert got == _lp_witness(monkeypatch, P.alphas, subset, P.mode, P.eps)


def test_other_covectors_keep_the_lp(lp_count):
    # a projective change of coordinates keeps the faces but not the closed
    # form, so only the identity skips the LP
    P = corpus.build("t6")
    g = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    alphas = [[sum(a[k] * g[k][j] for k in range(3)) for j in range(3)] for a in P.alphas]
    assert not polytope._is_dual_basis(alphas)
    assert not polytope._is_dual_basis([[1, 0], [0, 1], [-1, -1]])
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
