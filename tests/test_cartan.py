"""Cartan matrix validation, the type trichotomy, and sign witnesses."""

import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vinberg import cartan
from vinberg.cartan import (
    MIXED,
    NEGATIVE,
    POSITIVE,
    ZERO,
    CartanValidationError,
    classify_type,
    irreducible_components,
    restrict,
    validate_cartan,
    witness_vector,
)
from vinberg.scalars import INFINITY, InputError

sys.path.insert(0, str(Path(__file__).parent))

import oracles


def test_validation_rejects_each_axiom_breach():
    with pytest.raises(CartanValidationError) as err:
        validate_cartan([[1]])
    assert "diagonal" in str(err.value)
    with pytest.raises(CartanValidationError) as err:
        validate_cartan([[2, 1], [1, 2]])
    assert "nonpositive" in str(err.value)
    with pytest.raises(CartanValidationError) as err:
        validate_cartan([[2, 0], [-1, 2]])
    assert "zero-symmetry" in str(err.value)
    with pytest.raises(CartanValidationError) as err:
        validate_cartan([[2, -1], [Fraction(-5, 2), 2]])
    assert "product" in str(err.value)
    with pytest.raises(InputError):
        validate_cartan([[2, -1], [-1, 2], [0, 0]])


def test_mode_inference_and_exact_demand():
    A = validate_cartan([[2, -1], [-1, 2]])
    assert A.mode == "exact"
    A = validate_cartan([[2, -1.5], [-2.0, 2]])  # product 3 = 4cos^2(pi/6)
    assert A.mode == "approx"
    assert A.orders[0][1] == 6
    with pytest.raises(InputError):
        validate_cartan([[2, -1.5], [-2.0, 2]], mode="exact")


def test_orders_from_products():
    A = validate_cartan(
        [[2, -1, 0, -2], [-1, 2, -1, 0], [0, -3, 2, 0], [-2, 0, 0, 2]]
    )
    assert A.orders[0][1] == 3  # product 1
    assert A.orders[1][2] == 6  # product 3
    assert A.orders[0][2] == 2  # product 0
    assert A.orders[0][3] == INFINITY  # product 4
    B = validate_cartan([[2, -1], [-2, 2]])
    assert B.orders[0][1] == 4  # product 2
    C = validate_cartan([[2, -9], [-1, 2]])
    assert C.orders[0][1] == INFINITY  # product 9 > 4


def test_classify_type_hand_cases():
    assert classify_type(validate_cartan([[2, -1], [-1, 2]])).overall == POSITIVE
    assert classify_type(validate_cartan([[2, -2], [-2, 2]])).overall == ZERO
    tag = classify_type(
        validate_cartan([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])
    )
    assert tag.overall == NEGATIVE
    # Perron eigenvalue of the free-product triangle: 2 - rho = 2 - 4 = -2.
    assert abs(tag.blocks[0].lam + 2.0) <= 1e-9


def test_exact_block_type_from_pivots():
    # (block, pivots of the elimination without row exchanges, type)
    cases = [
        ([[2]], [2], POSITIVE),
        ([[2, -1], [-1, 2]], [2, Fraction(3, 2)], POSITIVE),
        ([[2, -2], [-2, 2]], [2, 0], ZERO),  # affine A1
        ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], [2, Fraction(3, 2), 0], ZERO),  # affine G2
        ([[2, -3], [-3, 2]], [2, Fraction(-5, 2)], NEGATIVE),
        # a zero pivot before the last one is negative type
        ([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]], [2, 0], NEGATIVE),
    ]
    for rows, pivots, tag in cases:
        rows = [[Fraction(x) for x in row] for row in rows]
        minors = [oracles.det([r[: k + 1] for r in rows[: k + 1]]) for k in range(len(pivots))]
        assert pivots == [m / prev for m, prev in zip(minors, [1] + minors)]
        assert cartan._classify_block_exact(rows) == tag == oracles.minor_block_type(rows)


def _connected_pattern(rng, n):
    """Symmetric off-diagonal support of an irreducible block: a random
    spanning tree plus random extra edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return edges


# affine (zero-type) Cartan matrices: A1~ twice, A2~, A3~, C2~, G2~, D4~
_AFFINE = (
    [[2, -2], [-2, 2]],
    [[2, -1], [-4, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    [[2, -1, -1, -1, -1], [-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0], [-1, 0, 0, 2, 0],
     [-1, 0, 0, 0, 2]],
)


def _random_block(rng):
    """(irreducible block with diagonal 2, its type by construction or None).

    Free blocks draw their off-diagonal entries at random.  Row-sum blocks
    are 2I - tB with B >= 0 of row sums 2, so the type is the sign of 1 - t
    (zero at t = 1).  Row-sum and affine blocks are permuted and conjugated
    by a positive diagonal, which keeps the type."""
    kind = rng.random()
    if kind < 0.4:
        n = rng.randint(1, 5)
        rows = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for i, j in _connected_pattern(rng, n):
            rows[i][j] = -Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
            rows[j][i] = -Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        return rows, None
    if kind < 0.85:
        n = rng.randint(2, 5)
        w = [[0] * n for _ in range(n)]
        for i, j in _connected_pattern(rng, n):
            w[i][j], w[j][i] = rng.randint(1, 4), rng.randint(1, 4)
        t = rng.choice((Fraction(1), Fraction(1), Fraction(9, 10), Fraction(11, 10)))
        rows = [
            [Fraction(-2 * t.numerator * x, t.denominator * sum(row)) for x in row] for row in w
        ]
        for i in range(n):
            rows[i][i] = Fraction(2)
        tag = ZERO if t == 1 else POSITIVE if t < 1 else NEGATIVE
    else:
        rows = [[Fraction(x) for x in row] for row in rng.choice(_AFFINE)]
        n, tag = len(rows), ZERO
    perm = rng.sample(range(n), n)
    d = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)]
    rows = [[rows[p][q] for q in perm] for p in perm]
    return [[x * d[i] / d[j] if x and i != j else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], tag


def test_exact_block_type_matches_minor_oracle():
    rng = random.Random(8)
    counts = {POSITIVE: 0, ZERO: 0, NEGATIVE: 0}
    for _ in range(20000):
        rows, tag = _random_block(rng)
        got = cartan._classify_block_exact(rows)
        assert got == oracles.minor_block_type(rows)
        assert tag is None or got == tag
        counts[got] += 1
    assert min(counts.values()) >= 2000, counts


def test_classify_type_blocks_and_mixed():
    rows = [
        [2, -1, 0, 0],
        [-1, 2, 0, 0],
        [0, 0, 2, -2],
        [0, 0, -2, 2],
    ]
    tag = classify_type(validate_cartan(rows))
    assert tag.overall == MIXED
    by_indices = {b.indices: b.tag for b in tag.blocks}
    assert by_indices == {(0, 1): POSITIVE, (2, 3): ZERO}


def test_approx_near_zero_warns():
    delta = 1e-12
    tag = classify_type(validate_cartan([[2.0, -2.0 + delta], [-2.0, 2.0]]))
    assert tag.overall == ZERO
    assert any("within eps" in w for w in tag.warnings)


def test_power_iteration_cap_warns(monkeypatch):
    rows = [[2, -1, -1], [-1, 2, -3], [-1, -2, 2]]
    for mode in ("exact", "approx"):
        converged = classify_type(validate_cartan(rows, mode=mode))
        assert converged.warnings == ()
        monkeypatch.setattr(cartan, "_POWER_CAP", 3)
        capped = classify_type(validate_cartan(rows, mode=mode))
        monkeypatch.undo()
        assert capped.overall == converged.overall == NEGATIVE
        assert len(capped.warnings) == 1
        assert capped.warnings[0].startswith("block (0, 1, 2): power iteration")
        assert "did not converge in 3 steps" in capped.warnings[0]


def test_power_iteration_stops_at_eps_zero(monkeypatch):
    # with eps = 0 the stop test falls back to a few ulps of lambda; the cap
    # is lowered so that a regression fails fast instead of running 1e5 steps
    rows = [[2, -1, -1], [-1, 2, -3], [-1, -2, 2]]  # corpus t6
    monkeypatch.setattr(cartan, "_POWER_CAP", 1000)  # t6 needs 32 steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tag = classify_type(validate_cartan(rows, mode="exact", eps=0.0))
    assert tag.overall == NEGATIVE and tag.warnings == ()
    default = classify_type(validate_cartan(rows, mode="exact"))
    assert abs(tag.blocks[0].lam - default.blocks[0].lam) <= 1e-9


def test_float_products_validate_at_eps_zero():
    # the float 4cos^2(pi/k) is 1, 2 or 3 plus an ulp for k = 3, 4, 6; a few
    # ulps of 4 floor the tolerance, so eps = 0 accepts the integer products
    rows = [[2, -1, -1], [-1, 2, -3], [-1, -2, 2]]  # corpus t6
    A = validate_cartan(rows, mode="approx", eps=0)
    assert A.orders == ((1, 3, 3), (3, 1, INFINITY), (3, INFINITY, 1))
    B = validate_cartan([[2, -1], [-2, 2]], mode="approx", eps=0)
    C = validate_cartan([[2, -1], [-3, 2]], mode="approx", eps=0)
    assert B.orders[0][1] == 4 and C.orders[0][1] == 6
    with pytest.raises(CartanValidationError):
        validate_cartan([[2, -1], [-1.1, 2]], mode="approx", eps=0)


def test_irreducible_components_ignore_order():
    A = validate_cartan([[2, 0, -1], [0, 2, 0], [-1, 0, 2]])
    assert irreducible_components(A) == [(0, 2), (1,)]


def test_restrict_keeps_entries_and_labels():
    A = validate_cartan(
        [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]], labels=["a", "b", "c"]
    )
    B = restrict(A, (0, 2))
    assert B.entries == ((Fraction(2), Fraction(-2)), (Fraction(-2), Fraction(2)))
    assert B.labels == ("a", "c")


def _check_witness(rows, expected_sign):
    A = validate_cartan(rows)
    w = witness_vector(A)
    u = w.x
    assert all(x > 0 for x in u)
    prod = [sum(row[j] * u[j] for j in range(len(u))) for row in A.entries]
    assert tuple(prod) == w.image
    for x in prod:
        if expected_sign == 0:
            assert x == 0
        elif expected_sign > 0:
            assert x > 0
        else:
            assert x < 0


def test_witness_vectors_certify_each_type():
    _check_witness([[2, -1], [-1, 2]], +1)
    _check_witness([[2, -2], [-2, 2]], 0)
    _check_witness([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]], -1)
    # Asymmetric entries exercise the non-symmetrizable path.
    _check_witness([[2, -1, -1], [-1, 2, -9], [-1, -1, 2]], -1)
    with pytest.raises(InputError):
        witness_vector(
            validate_cartan([[2, 0, 0], [0, 2, -2], [0, -2, 2]])
        )


def test_exact_and_float_classification_agree():
    rows = [[2, -1, -1], [-1, 2, -3], [-1, -2, 2]]
    exact_tag = classify_type(validate_cartan(rows))
    float_tag = classify_type(validate_cartan([[float(x) for x in r] for r in rows]))
    assert exact_tag.overall == float_tag.overall == NEGATIVE
    # The float Perron value also matches 2 - rho(2I - A) computed directly.
    rho = max(abs(np.linalg.eigvals(2 * np.eye(3) - np.array(rows, dtype=float))))
    assert abs(exact_tag.blocks[0].lam - (2 - rho)) <= 1e-9
