"""The arithmetic field: on rational input the exact and the approx field
must give the same ranks, kernels, solutions and verdicts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vinberg import ratlin
from vinberg.cartan import NEGATIVE, CartanValidationError, classify_type, validate_cartan
from vinberg.decisions import decide_finite_volume
from vinberg.polytope import tits_polytope
from vinberg.scalars import APPROX, EXACT, Field, InputError, coerce

EXACT_FIELD = Field(EXACT)
APPROX_FIELD = Field(APPROX)

# Fixed example sets keep the suite deterministic and its runtime bounded.
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SLOW = settings(max_examples=20, deadline=None, derandomize=True, database=None)

entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _matrix(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda rc: _matrix(*rc))


def _floats(rows):
    return np.array([[float(x) for x in row] for row in rows])


@FAST
@given(matrices)
def test_rank_and_kernel_agree(m):
    r = EXACT_FIELD.rank(m)
    assert APPROX_FIELD.rank(m) == r
    exact_kernel = EXACT_FIELD.kernel(m)
    approx_kernel = APPROX_FIELD.kernel(m)
    assert len(exact_kernel) == len(approx_kernel) == len(m[0]) - r
    for v in exact_kernel:
        assert all(x == 0 for x in ratlin.mat_vec(m, v))
    for v in approx_kernel:
        assert np.abs(_floats(m) @ np.array(v)).max() <= 1e-9


@FAST
@given(matrices, st.lists(entries, min_size=4, max_size=4), st.booleans())
def test_solve_agrees(m, vec, consistent):
    cols = len(m[0])
    b = ratlin.mat_vec(m, vec[:cols]) if consistent else (vec * 2)[: len(m)]
    exact = EXACT_FIELD.solve(m, b)
    approx = APPROX_FIELD.solve(m, b)
    assert (exact is None) == (approx is None)
    if consistent:
        assert exact is not None
    if exact is None:
        return
    assert ratlin.mat_vec(m, exact) == b
    assert np.abs(_floats(m) @ np.array(approx) - np.array(b, dtype=float)).max() <= 1e-9
    if EXACT_FIELD.rank(m) == cols:  # unique solution
        assert np.allclose(approx, [float(x) for x in exact], atol=1e-9)


def test_coerce_decides_the_mode_once():
    field, rows = coerce([[1, Fraction(1, 2)], [0, 2]])
    assert field == EXACT_FIELD and rows == [[Fraction(1), Fraction(1, 2)], [0, 2]]
    field, rows = coerce([[1, 0.5]], mode=APPROX)
    assert field.tol == field.eps and rows == [[1.0, 0.5]]
    assert type(rows[0][0]) is float
    assert coerce([[1, 2 ** 0.5]])[0].mode == APPROX
    with pytest.raises(InputError):
        coerce([[1, 2 ** 0.5]], mode=EXACT)
    with pytest.raises(InputError):
        coerce([[1]], mode="fast")


_SPLITS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(2, 3), Fraction(3))
# None leaves the pair orthogonal; 1, 2, 3 are 4cos^2(pi/k) for k = 3, 4, 6.
_PRODUCTS = (None, 1, 1, 2, 3, 4, 4, 4, 5)


@st.composite
def negative_cartan_rows(draw):
    n = draw(st.integers(3, 4))
    rows = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            p = draw(st.sampled_from(_PRODUCTS))
            if p is None:
                continue
            a = draw(st.sampled_from(_SPLITS))
            rows[s][t] = -a
            rows[t][s] = -Fraction(p) / a
    return rows


def _negative_type(rows):
    return classify_type(validate_cartan(rows)).overall == NEGATIVE


@SLOW
@given(negative_cartan_rows().filter(_negative_type))
def test_finite_volume_verdict_is_mode_independent(rows):
    exact = decide_finite_volume(tits_polytope(validate_cartan(rows, mode=EXACT)))
    approx = decide_finite_volume(tits_polytope(validate_cartan(rows, mode=APPROX)))
    assert approx.answer == exact.answer
    assert approx.certificate == exact.certificate
    assert [r.certificate for r in approx.routes] == [r.certificate for r in exact.routes]


# Products in (0, 4) that are not 4cos^2(pi/k) for any k (the nearest, 39/10,
# misses 4cos^2(pi/20) by 2e-3, far outside eps).
_BAD_PRODUCTS = (Fraction(1, 3), Fraction(1, 2), Fraction(5, 2), Fraction(7, 2), Fraction(39, 10))


@st.composite
def single_breach(draw):
    """(rows, rule, position): a valid negative-type Cartan matrix with
    exactly one axiom broken, and the violation `validate_cartan` reports."""
    rows = draw(negative_cartan_rows().filter(_negative_type))
    rule = draw(st.sampled_from(("diagonal", "nonpositive", "zero-symmetry", "product")))
    s, t = draw(st.permutations(range(len(rows))))[:2]
    if rule == "diagonal":
        rows[s][s] = 2 + draw(st.sampled_from((-2, -1, Fraction(-1, 2), Fraction(1, 3), 1)))
        return rows, rule, (s, s)
    if rule == "nonpositive":
        rows[s][t] = draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3))))
    elif rule == "zero-symmetry":  # one of the pair zero, the other not
        rows[s][t] = -draw(st.sampled_from(_SPLITS)) if rows[t][s] == 0 else Fraction(0)
    else:
        a = draw(st.sampled_from(_SPLITS))
        rows[s][t], rows[t][s] = -a, -draw(st.sampled_from(_BAD_PRODUCTS)) / a
    return rows, rule, (min(s, t), max(s, t))


@FAST
@given(single_breach())
def test_every_single_axiom_breach_is_rejected(breach):
    rows, rule, pos = breach
    for mode in (EXACT, APPROX):
        with pytest.raises(CartanValidationError) as caught:
            validate_cartan(rows, mode=mode)
        assert [v[:2] for v in caught.value.violations] == [(rule, pos)]
