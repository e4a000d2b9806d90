"""Reflection representation: orbits, relations, forms, and tilings."""

import functools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import oracles
from vinberg import ratlin
from vinberg.cartan import validate_cartan
from vinberg.orbits import (
    check_properness,
    check_relations,
    domain_approx,
    expand_orbit,
    form_signature,
    generators,
    invariant_form,
    reflection,
    representation_report,
    supporting_covector,
)
from vinberg.polytope import build_polytope, tits_polytope
from vinberg.scalars import INFINITY, InputError


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_reflection_matrix_shape():
    P = corpus.build("t6")
    s0 = reflection(P, 0)
    # sigma = Id - v (x) alpha; with alpha = e_1 only the first column moves.
    assert [row[0] for row in s0] == [Fraction(-1), Fraction(1), Fraction(1)]
    assert [row[1] for row in s0] == [Fraction(0), Fraction(1), Fraction(0)]
    assert _mat_mul(s0, s0) == _identity(3)
    gens = generators(P)
    assert len(gens) == 3
    for g in gens:
        assert _mat_mul(g, g) == _identity(3)


def test_relations_exact_and_infinite():
    checks = check_relations(corpus.build("t23inf"))
    by_pair = {(c.s, c.t): c for c in checks}
    assert by_pair[(0, 1)].order == 2 and by_pair[(0, 1)].holds is True
    assert by_pair[(0, 2)].order == 3 and by_pair[(0, 2)].holds is True
    assert by_pair[(0, 1)].residual == 0.0  # exact arithmetic
    inf_pair = by_pair[(1, 2)]
    assert inf_pair.order == INFINITY and inf_pair.holds is None


def test_relations_float_residuals():
    checks = check_relations(corpus.build("t237"))
    finite = [c for c in checks if c.order != INFINITY]
    assert all(c.holds for c in finite)
    assert max(c.residual for c in finite) <= 1e-12


def test_orbit_sizes_of_finite_groups():
    assert len(expand_orbit(corpus.a2(), 10).elements) == 6
    assert len(expand_orbit(corpus.b2(), 10).elements) == 8


def test_orbit_growth_of_free_product():
    # Z/2 * Z/2 * Z/2: 3 * 2^(k-1) reduced words of length k.
    ball = expand_orbit(corpus.build("tinf"), 12)
    assert len(ball.elements) == 1 + 3 * (2**12 - 1)
    assert ball.depth == 12
    assert all(ball.inverses[j] == i for i, j in enumerate(ball.inverses))


def test_orbit_ball_size_cap():
    P = corpus.build("tinf")
    assert len(expand_orbit(P, 5, max_elements=94)) == 94  # 1 + 3 * (2^5 - 1)
    with pytest.raises(InputError, match="exceeded 94 elements at depth 6"):
        expand_orbit(P, 6, max_elements=94)


def _approx_copy(P):
    """The same polytope with every entry cast to float, in approx mode."""
    pairs = [
        ([float(x) for x in a], [float(x) for x in v])
        for a, v in zip(P.alphas, P.polars)
    ]
    return build_polytope(pairs, labels=P.labels, mode="approx")


# The plain engine needs 3 s and 15 s for the exact joins at depth 6; their
# approx copies still run at depth 6.
_EXACT_ORACLE_DEPTH = {"join_inf_seg": 4, "join_inf_inf": 4}


@pytest.mark.parametrize("name", corpus.NAMES)
def test_orbit_ball_matches_the_plain_engine(name):
    P = corpus.build(name)
    cases = [(P, _EXACT_ORACLE_DEPTH.get(name, 6))]
    if P.mode == "exact":
        cases.append((_approx_copy(P), 6))
    for Q, depth in cases:
        dom = domain_approx(Q, depth)
        ball = dom.ball
        assert ball.depth == depth
        got = (ball.elements, ball.words, ball.depths, ball.inverses)
        # repr tells Fraction from int and compares floats bit for bit
        assert repr(got) == repr(oracles.brute_orbit_ball(Q, depth))
        ell0 = [list(dom.ell0)]
        tiles = tuple(
            tuple(tuple(ratlin.mat_vec(g, v)) for v in dom.base_vertices)
            for g in ball.elements
        )
        covs = tuple(
            tuple(ratlin.mat_mul(ell0, ball.elements[i])[0]) for i in ball.inverses
        )
        assert repr(dom.tiles) == repr(tiles)
        assert repr(dom.covectors) == repr(covs)


@pytest.mark.parametrize(
    "name, size",
    [("tinf", 3070), ("t45", 748), ("t6", 748), ("t9", 748), ("aff", 166),
     ("t23inf", 188), ("seg", 21)],
)
def test_float_balls_count_like_exact_balls(name, size):
    P = corpus.build(name)
    Q = tits_polytope(validate_cartan(P.cartan.rows(), mode="approx"))
    exact = expand_orbit(P, 10)
    ball = expand_orbit(Q, 10)
    assert len(ball) == len(exact) == size
    assert Counter(ball.depths) == Counter(exact.depths)
    for i, j in enumerate(ball.inverses):
        assert j >= 0 and ball.inverses[j] == i
        assert ball.depths[j] == ball.depths[i]


# Exact entries with an invariant form: symmetric Cartan matrices.  t6 and t9
# have none (their cycle products a12 a23 a31 and a21 a32 a13 differ: -3 vs
# -2 and -9 vs -1, so the Cartan matrix is not symmetrizable).
_FORM_CARTAN = [[2, Fraction(-5, 2), -3], [Fraction(-5, 2), 2, Fraction(-7, 3)],
                [-3, Fraction(-7, 3), 2]]


def _form_polytope(name):
    if name == "cartan":
        return tits_polytope(validate_cartan(_FORM_CARTAN, mode="exact"))
    return corpus.build(name)


def _approx_cartan_copy(P):
    """The approx Tits polytope of P's Cartan matrix, as in
    test_float_balls_count_like_exact_balls."""
    return tits_polytope(validate_cartan(P.cartan.rows(), mode="approx"))


# Symmetrizable but not symmetric: corpus r4a and r4b, and a triangle with
# equal cycle products a12 a23 a31 = a21 a32 a13 = -4.
_SYMMETRIZABLE_TRIANGLE = [[2, -1, -2], [-2, 2, -2], [-2, -1, 2]]


@pytest.mark.parametrize("name", ["r4a", "r4b", "triangle"])
def test_symmetrizable_entries_carry_a_form(name):
    if name == "triangle":
        P = tits_polytope(validate_cartan(_SYMMETRIZABLE_TRIANGLE, mode="exact"))
    else:
        P = corpus.build(name)
    G = invariant_form(P)
    assert G is not None and P.mode == "exact"
    for g in generators(P):
        assert _mat_mul(tuple(zip(*g)), _mat_mul(G, g)) == G
    if name != "triangle":
        assert form_signature(G) == (3, 1, 0)


def test_non_symmetrizable_entries_carry_no_form():
    for name in ("t6", "t9"):
        assert invariant_form(corpus.build(name)) is None
    for name in ("t45", "t6", "t9", "aff"):
        assert invariant_form(_approx_cartan_copy(corpus.build(name))) is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["tinf", "t23inf", "seg", "cartan"]),
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
)
def test_random_words_preserve_the_form_exactly(name, letters):
    P = _form_polytope(name)
    G = invariant_form(P)
    gens = generators(P)
    g = gens[letters[0] % P.n]
    for s in letters[1:]:
        g = _mat_mul(g, gens[s % P.n])
    assert P.mode == "exact"
    assert _mat_mul(tuple(zip(*g)), _mat_mul(G, g)) == G


@functools.lru_cache(maxsize=None)
def _float_form_case(name):
    """t237 or the approx copy of an exact entry, its form, and its batched
    float ball at depth 8."""
    P = corpus.build(name)
    Q = P if P.mode == "approx" else _approx_cartan_copy(P)
    return Q, invariant_form(Q), expand_orbit(Q, 8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["t237", "tinf", "t23inf", "seg"]), st.integers(0, 10**6))
def test_float_ball_elements_preserve_the_form(name, pick):
    import numpy as np

    Q, G, ball = _float_form_case(name)
    assert Q.mode == "approx"
    G = np.array(G, dtype=float)
    g = np.array(ball.elements[pick % len(ball)])
    err = np.abs(g.T @ G @ g - G).max()
    assert err <= 1e-9 * np.abs(G).max() * max(1.0, np.abs(g).max()) ** 2


def test_orbit_inverses_and_words():
    ball = expand_orbit(corpus.build("tinf"), 4)
    n = len(ball.elements[0])
    # inverses are indices back into the element list
    for g, inv_index, word in zip(ball.elements, ball.inverses, ball.words):
        assert _mat_mul(g, ball.elements[inv_index]) == _identity(n)
        assert all(a != b for a, b in zip(word, word[1:]))  # reduced


def test_invariant_form_exact():
    P = corpus.build("tinf")
    G = invariant_form(P)
    quarter = Fraction(1, 4)
    assert G == (
        (0, -quarter, -quarter),
        (-quarter, 0, -quarter),
        (-quarter, -quarter, 0),
    )
    for g in generators(P):
        gt = tuple(zip(*g))
        assert _mat_mul(gt, _mat_mul(G, g)) == G
    assert form_signature(G) == (2, 1, 0)
    assert form_signature(invariant_form(corpus.a2())) == (2, 0, 0)


def test_supporting_covector_negative_on_polars():
    P = corpus.build("t237")
    ell, mu = supporting_covector(P)
    assert all(m > 0 for m in mu)
    for v in P.polars:
        assert sum(l * x for l, x in zip(ell, v)) < 0
    with pytest.raises(InputError):
        supporting_covector(corpus.a2())


def test_domain_approx_tiling():
    P = corpus.build("t237")
    dom = domain_approx(P, 4)
    assert len(dom.tiles) == len(dom.ball.elements) == 25
    per_depth = sorted(Counter(dom.ball.depths).items())
    assert per_depth == [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9)]
    # Every tile stays strictly on the negative side of the covector.
    for tile in dom.tiles:
        for vertex in tile:
            assert sum(l * x for l, x in zip(dom.ell0, vertex)) < 0


def test_check_properness_reports_margin():
    flag, worst = check_properness(corpus.build("t237"))
    assert flag is True and worst < 0


def test_representation_report_fields():
    rep = representation_report(corpus.build("t237"))
    assert rep.reduced and rep.dual_reduced
    assert rep.cartan_irreducible and rep.irreducible
    assert rep.cartan_rank == 3
    rep = representation_report(corpus.build("join_inf_seg"))
    assert not rep.cartan_irreducible
