"""Exact linear algebra: hand-checked values plus a float cross-check."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from vinberg import ratlin

sys.path.insert(0, str(Path(__file__).parent))

import oracles


def test_det_inverse_hand_values():
    m = ratlin.mat([[2, -1], [-3, 2]])
    assert oracles.det(m) == 1
    inv = ratlin.inverse(m)
    assert inv == [[Fraction(2), Fraction(1)], [Fraction(3), Fraction(2)]]
    assert ratlin.mat_mul(m, inv) == ratlin.identity(2)


def test_solve_and_kernel():
    m = ratlin.mat([[2, 1], [1, 3]])
    x = ratlin.solve(m, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    k = ratlin.kernel_basis(ratlin.mat([[1, 1, 1]]))
    assert len(k) == 2
    for vec in k:
        assert sum(vec) == 0


def test_rank_and_rref():
    assert ratlin.rank(ratlin.mat([[1, 2], [2, 4]])) == 1
    assert ratlin.rank(ratlin.mat([[1, 2], [2, 5]])) == 2
    rows, pivots = ratlin.rref(ratlin.mat([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1
    again, _ = ratlin.rref(rows)
    assert again == rows  # idempotent


def test_vector_matrix_products():
    m = ratlin.mat([[1, 2], [3, 4]])
    assert ratlin.mat_vec(m, [Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(7)]
    assert ratlin.transpose(m) == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]


def test_random_matrices_against_numpy():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        raw = rng.integers(-6, 7, size=(n, n))
        m = ratlin.mat([[Fraction(int(x), int(rng.integers(1, 4))) for x in row] for row in raw])
        d = oracles.det(m)
        d_np = np.linalg.det(np.array([[float(x) for x in row] for row in m]))
        assert abs(float(d) - d_np) <= 1e-6 * max(1.0, abs(d_np))
        rk = ratlin.rank(m)
        rk_np = np.linalg.matrix_rank(
            np.array([[float(x) for x in row] for row in m]), tol=1e-9
        )
        assert rk == rk_np
        if d != 0:
            inv = ratlin.inverse(m)
            assert ratlin.mat_mul(m, inv) == ratlin.identity(n)
