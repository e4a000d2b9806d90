"""Coxeter matrices and the spherical / affine / large trichotomy.

The Coxeter matrix (m_st) of a Cartan matrix records the dihedral orders of
the pairwise products of reflections.  Its Gram matrix (-2cos(pi/m_st)) is
the symmetric Cartan matrix of the same group; the group is spherical,
affine or large according to the type of the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cartan import (
    CartanMatrix,
    MIXED,
    NEGATIVE,
    POSITIVE,
    ZERO,
    classify_type,
    validate_cartan,
)
from .scalars import DEFAULT_EPS, INFINITY, InputError

SPHERICAL = "spherical"
AFFINE = "affine"
LARGE = "large"

# Coxeter orders whose Gram entry -2cos(pi/m) is rational.
_RATIONAL_GRAM = {1: Fraction(2), 2: Fraction(0), 3: Fraction(-1), INFINITY: Fraction(-2)}

_CLASS_OF_TYPE = {POSITIVE: SPHERICAL, ZERO: AFFINE, NEGATIVE: LARGE}


@dataclass(frozen=True)
class CoxeterMatrix:
    orders: tuple  # m_st, diagonal 1, INFINITY allowed
    labels: tuple

    @property
    def n(self):
        return len(self.orders)


@dataclass(frozen=True)
class GroupClass:
    overall: str  # spherical | affine | large | mixed
    components: tuple  # (indices, class) pairs


def coxeter_matrix(orders, labels=None):
    """Validate and build a Coxeter matrix (m_ss = 1, m_st = m_ts >= 2)."""
    n = len(orders)
    for i, row in enumerate(orders):
        if len(row) != n:
            raise InputError(f"Coxeter matrix is not square at row {i}")
    out = []
    for s in range(n):
        row = []
        for t in range(n):
            m = orders[s][t]
            if m != INFINITY:
                if isinstance(m, float) and m == int(m):
                    m = int(m)
                if not isinstance(m, int):
                    raise InputError(f"order m[{s}][{t}] = {m!r} is not an integer or inf")
            if s == t:
                if m != 1:
                    raise InputError(f"diagonal order m[{s}][{s}] = {m}, expected 1")
            else:
                if m != INFINITY and m < 2:
                    raise InputError(f"off-diagonal order m[{s}][{t}] = {m} < 2")
                if orders[t][s] != orders[s][t]:
                    raise InputError(f"orders not symmetric at ({s}, {t})")
            row.append(m)
        out.append(tuple(row))
    if labels is None:
        labels = tuple(f"s{i+1}" for i in range(n))
    return CoxeterMatrix(tuple(out), tuple(labels))


def coxeter_from_cartan(A: CartanMatrix) -> CoxeterMatrix:
    """Read the dihedral orders recorded during Cartan validation."""
    return CoxeterMatrix(A.orders, A.labels)


def gram_matrix(M: CoxeterMatrix, eps=DEFAULT_EPS) -> CartanMatrix:
    """The symmetric Cartan matrix G_st = -2cos(pi/m_st).

    Exact rationals survive only when every order lies in {1, 2, 3, inf};
    any other order (4, 6, 7, ...) makes the matrix irrational and the
    result drops to approx mode.
    """
    exact = all(m in _RATIONAL_GRAM for row in M.orders for m in row)
    # the float recipe gives -2.0 exactly at m = inf, where pi / m = 0
    rows = [
        [_RATIONAL_GRAM[m] if exact else -2.0 * math.cos(math.pi / m) for m in row]
        for row in M.orders
    ]
    return validate_cartan(rows, labels=M.labels, eps=eps)


def classify_group(M: CoxeterMatrix, eps=DEFAULT_EPS) -> GroupClass:
    """Spherical / affine / large per irreducible component, via the type of
    the Gram matrix."""
    G = gram_matrix(M, eps=eps)
    tt = classify_type(G)
    comps = tuple((b.indices, _CLASS_OF_TYPE[b.tag]) for b in tt.blocks)
    classes = {c for _, c in comps}
    overall = classes.pop() if len(classes) == 1 else MIXED
    if not comps:
        overall = SPHERICAL
    return GroupClass(overall, comps)


def orthogonal_complement(M: CoxeterMatrix, subset) -> tuple:
    """Indices s with m_st = 2 for every t in the subset."""
    subset = set(subset)
    for t in subset:
        if not 0 <= t < M.n:
            raise InputError(f"index {t} out of range")
    return tuple(
        s
        for s in range(M.n)
        if s not in subset and all(M.orders[s][t] == 2 for t in subset)
    )
