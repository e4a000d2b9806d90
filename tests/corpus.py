"""Shared example systems for the test suite.

Every expected flag below was fixed before the tests were written, either
by an independent computation (a numpy eigenvalue scan over the vertex
links, noted per entry) or because the construction forces it (orthogonal
joins, spherical links, known triangle groups).  Tests must treat these
as frozen oracles, not as values to regenerate from the library itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from vinberg import (
    INFINITY,
    coxeter_matrix,
    gram_matrix,
    join,
    tits_polytope,
    validate_cartan,
)


def _tits(rows, mode=None):
    return tits_polytope(validate_cartan(rows, mode=mode))


@lru_cache(maxsize=None)
def build(name):
    """Construct one corpus polytope by name (cached, entries are frozen)."""
    return _BUILDERS[name]()


def _t237():
    M = coxeter_matrix([[1, 2, 3], [2, 1, 7], [3, 7, 1]])
    return tits_polytope(gram_matrix(M))


def _t23inf():
    M = coxeter_matrix([[1, 2, 3], [2, 1, INFINITY], [3, INFINITY, 1]])
    return tits_polytope(gram_matrix(M))


def _tinf():
    return _tits([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])


def _t45():
    half9 = Fraction(-9, 4)
    return _tits([[2, -1, -1], [-1, 2, half9], [-1, -2, 2]])


def _t6():
    return _tits([[2, -1, -1], [-1, 2, -3], [-1, -2, 2]])


def _t9():
    return _tits([[2, -1, -1], [-1, 2, -9], [-1, -1, 2]])


def _aff():
    # Non-symmetrizable asymmetrisation of the affine A2 diagram: all three
    # pairwise products equal 1 (order 3), yet the matrix itself is of
    # negative type (spectral radius of 2I-A is about 2.041 > 2), so the
    # finite-volume question is posed while the abstract group stays affine.
    half = Fraction(-1, 2)
    return _tits([[2, -2, -1], [half, 2, -1], [-1, -1, 2]])


def _seg():
    return _tits([[2, -3], [-3, 2]])


def _join_inf_seg():
    return join(_tinf(), _seg())


def _join_inf_inf():
    return join(_tinf(), _tinf())


def _r4a():
    # Rank-4 simplex, orders (3,3,6) along a path.  Independent numpy scan
    # of the four vertex links: three elliptic, one affine G2 (zero type of
    # rank 2), overall lambda = -0.0743 -> quasiperfect, finite volume.
    return _tits([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -3, 2]])


def _r4b():
    # Same diagram with the last product pushed to 6.  Independent scan:
    # vertex links (0,2,3) and (1,2,3) are of negative type (lambda = -0.45
    # and -0.65), so the polytope is not quasiperfect.
    return _tits([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -3, 2]])


_BUILDERS = {
    "t237": _t237,
    "t23inf": _t23inf,
    "tinf": _tinf,
    "t45": _t45,
    "t6": _t6,
    "t9": _t9,
    "aff": _aff,
    "seg": _seg,
    "join_inf_seg": _join_inf_seg,
    "join_inf_inf": _join_inf_inf,
    "r4a": _r4a,
    "r4b": _r4b,
}

# Expected answers per entry.  fv/ud/md/ls are the four decision questions
# (finite volume, unique invariant domain, minimal domain equals the cone
# quotient, limit set may fill the boundary).  negative_face is the first
# negative-type proper face where uniquely determined; symmetric marks the
# exact entries usable for exact form-preservation checks.
EXPECT = {
    "t237": dict(fv=True, ud=True, md=True, ls=True, mode="approx", n=3,
                 symmetric=False, negative_face=None),
    "t23inf": dict(fv=True, ud=True, md=True, ls=True, mode="exact", n=3,
                   symmetric=True, negative_face=None),
    "tinf": dict(fv=True, ud=True, md=True, ls=True, mode="exact", n=3,
                 symmetric=True, negative_face=None),
    "t45": dict(fv=False, ud=False, md=False, ls=False, mode="exact", n=3,
                symmetric=False, negative_face=("s2", "s3")),
    "t6": dict(fv=False, ud=False, md=False, ls=False, mode="exact", n=3,
               symmetric=False, negative_face=("s2", "s3")),
    "t9": dict(fv=False, ud=False, md=False, ls=False, mode="exact", n=3,
               symmetric=False, negative_face=("s2", "s3")),
    "aff": dict(fv=True, ud=True, md=True, ls=False, mode="exact", n=3,
                symmetric=False, negative_face=None),
    "seg": dict(fv=True, ud=False, md=True, ls=False, mode="exact", n=2,
                symmetric=True, negative_face=None),
    "join_inf_seg": dict(fv=False, ud=False, md=True, ls=False, mode="exact",
                         n=5, symmetric=True,
                         negative_face=("R.s1", "R.s2")),
    "join_inf_inf": dict(fv=False, ud=False, md=True, ls=False, mode="exact",
                         n=6, symmetric=True,
                         negative_face=("L.s1", "L.s2", "L.s3")),
    "r4a": dict(fv=True, ud=True, md=True, ls=True, mode="exact", n=4,
                symmetric=False, negative_face=None),
    "r4b": dict(fv=False, ud=False, md=False, ls=False, mode="exact", n=4,
                symmetric=False, negative_face=("s3", "s4")),
}

NAMES = tuple(_BUILDERS)

# JSON documents for the same entries, for the format and CLI layers.
DOCS = {
    "t237": {"coxeter_matrix": [[1, 2, 3], [2, 1, 7], [3, 7, 1]]},
    "t23inf": {"coxeter_matrix": [[1, 2, 3], [2, 1, "inf"], [3, "inf", 1]]},
    "tinf": {"cartan_matrix": [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]],
             "mode": "exact"},
    "t45": {"cartan_matrix": [[2, -1, -1], [-1, 2, "-9/4"], [-1, -2, 2]],
            "mode": "exact"},
    "t6": {"cartan_matrix": [[2, -1, -1], [-1, 2, -3], [-1, -2, 2]],
           "mode": "exact"},
    "t9": {"cartan_matrix": [[2, -1, -1], [-1, 2, -9], [-1, -1, 2]],
           "mode": "exact"},
    "aff": {"cartan_matrix": [[2, -2, -1], ["-1/2", 2, -1], [-1, -1, 2]],
            "mode": "exact"},
    "seg": {"cartan_matrix": [[2, -3], [-3, 2]], "mode": "exact"},
    "r4a": {"cartan_matrix": [[2, -1, 0, 0], [-1, 2, -1, 0],
                              [0, -1, 2, -1], [0, 0, -3, 2]],
            "mode": "exact"},
    "r4b": {"cartan_matrix": [[2, -1, 0, 0], [-1, 2, -1, 0],
                              [0, -1, 2, -2], [0, 0, -3, 2]],
            "mode": "exact"},
}

# Extra systems used by module tests only (not part of the decision corpus).


@lru_cache(maxsize=None)
def square():
    """Zero-type square in R^3 via explicit generator pairs: two commuting
    infinite dihedral factors (an A1~ x A1~ shape)."""
    from vinberg import build_polytope

    pairs = [
        ((1, 0, -1), (2, 0, 0)),
        ((-1, 0, -1), (-2, 0, 0)),
        ((0, 1, -1), (0, 2, 0)),
        ((0, -1, -1), (0, -2, 0)),
    ]
    return build_polytope(pairs, mode="exact")


@lru_cache(maxsize=None)
def a2():
    return _tits([[2, -1], [-1, 2]])


@lru_cache(maxsize=None)
def b2():
    return _tits([[2, -1], [-2, 2]])


@lru_cache(maxsize=None)
def t601():
    """Triangle with a single product-6 vertex and an order-2 pair; loxodromic
    corner, so volumes diverge with depth."""
    return _tits([[2, -2, 0], [-3, 2, -1], [0, -1, 2]])


def right_angled_polygon_pairs(k, rng=None):
    """(covector, polar) pairs of a regular right-angled hyperbolic k-gon in
    the hyperboloid model: a negative-type polygon that is not a simplex
    (approx mode).  With `rng` the facets are rescaled and moved by a
    projective change of coordinates g, which keeps the polygon."""
    a2 = 1.0 / (1.0 - math.cos(2.0 * math.pi / k))
    a, b = math.sqrt(a2), math.sqrt(a2 - 1.0)
    g = np.eye(3)
    if rng is not None:
        g += np.array([[rng.uniform(-0.3, 0.3) for _ in range(3)] for _ in range(3)])
    g_inv = np.linalg.inv(g)
    pairs = []
    for i in range(k):
        e = np.array([a * math.cos(2 * math.pi * i / k), a * math.sin(2 * math.pi * i / k), b])
        scale = 1.0 if rng is None else rng.uniform(0.5, 2.0)
        alpha = scale * (e * [1.0, 1.0, -1.0]) @ g_inv
        pairs.append((alpha.tolist(), (2.0 / scale * (g @ e)).tolist()))
    return pairs
