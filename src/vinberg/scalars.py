"""Scalar conventions shared by the whole package: the arithmetic field.

Everything downstream runs in one of two arithmetics, each described by a
`Field` built from the pair (mode, eps):

* ``exact`` -- entries are `fractions.Fraction`; the tolerance is 0, signs
  and ranks are exact, and certificates are genuine proofs.  Linear algebra
  goes through `ratlin`.
* ``approx`` -- entries are binary64 floats; every sign test has the dead
  zone ``eps`` and results report margins instead of proofs.  Linear algebra
  goes through numpy's SVD and least squares.

The mode is decided once, where a matrix enters (`coerce`): a matrix (or
polytope) is exact only if every entry is rational, a single irrational
entry demotes the whole object to approx mode, and forcing exact mode on
irrational input is an error.  From then on code asks the field for zero,
one, casts, signs, deduplication keys, ranks, kernels, solutions and
inverses instead of testing the mode; it branches on `Field.exact` only
where the two arithmetics need different algorithms.
"""

from __future__ import annotations

import math
import os
import dataclasses
from fractions import Fraction

import numpy as np

from . import ratlin

EXACT = "exact"
APPROX = "approx"

DEFAULT_EPS = 1e-9

# Rational values of 4cos^2(pi/k): the only exact-mode dihedral products < 4.
RATIONAL_COS_PRODUCTS = {Fraction(0): 2, Fraction(1): 3, Fraction(2): 4, Fraction(3): 6}

INFINITY = math.inf


class InputError(ValueError):
    """Malformed user-supplied data (bad JSON, bad matrix shape, bad mode)."""


def default_mode() -> str | None:
    """Mode forced by the VINBERG_MODE environment variable, or None when it
    is unset or blank."""
    env = os.environ.get("VINBERG_MODE", "").strip().lower()
    if not env:
        return None
    if env not in (EXACT, APPROX):
        raise InputError(f"VINBERG_MODE: mode must be 'exact' or 'approx', got {env!r}")
    return env


def parse_scalar(value):
    """Parse a JSON-ish scalar: int/Fraction stay exact, 'p/q' strings are
    exact rationals, 'inf' is infinity, floats stay floats."""
    if isinstance(value, bool):
        raise InputError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if value == int(value) and abs(value) < 2**53:
            return Fraction(int(value))
        return value
    if isinstance(value, str):
        text = value.strip()
        if text.lower() in ("inf", "+inf", "infinity"):
            return INFINITY
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse scalar {value!r}") from exc
    raise InputError(f"cannot parse scalar {value!r}")


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def all_exact(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


def to_float(x) -> float:
    return float(x)


def scalar_repr(x) -> str:
    """Serialization used in reports: exact rationals as 'p/q', floats at 12
    significant digits."""
    if x == INFINITY:
        return "inf"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def sign_of(x, eps: float = 0.0) -> int:
    """Sign with a dead zone of width eps (eps=0 gives the exact sign)."""
    if isinstance(x, (Fraction, int)) and eps == 0.0:
        return (x > 0) - (x < 0)
    xf = float(x)
    if xf > eps:
        return 1
    if xf < -eps:
        return -1
    return 0


@dataclasses.dataclass(frozen=True)
class Field:
    """The arithmetic of one matrix or polytope: `Fraction`s with tolerance
    0 in exact mode, floats with tolerance `eps` in approx mode."""

    mode: str
    eps: float = DEFAULT_EPS
    # derived from mode and eps; tol is the dead zone of every sign test
    exact: bool = dataclasses.field(init=False, repr=False, compare=False)
    zero: object = dataclasses.field(init=False, repr=False, compare=False)
    one: object = dataclasses.field(init=False, repr=False, compare=False)
    tol: object = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact = self.mode == EXACT
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "zero", ratlin.ZERO if exact else 0.0)
        object.__setattr__(self, "one", ratlin.ONE if exact else 1.0)
        object.__setattr__(self, "tol", 0 if exact else self.eps)

    def cast(self, x):
        return Fraction(x) if self.exact else float(x)

    def sign(self, x) -> int:
        return sign_of(x, self.tol)

    def key(self, values, step=None):
        """Hashable deduplication key of a vector: the entries themselves in
        exact mode, their multiples of `step` (default eps) in approx mode."""
        if self.exact:
            return tuple(values)
        step = max(self.eps, 1e-13) if step is None else step
        return tuple(round(float(x) / step) for x in values)

    def identity(self, n):
        return [[self.one if i == j else self.zero for j in range(n)] for i in range(n)]

    def rank(self, rows) -> int:
        if not rows:
            return 0
        if self.exact:
            return ratlin.rank([list(r) for r in rows])
        a = np.array(rows, dtype=float)
        s = np.linalg.svd(a, compute_uv=False)
        if len(s) == 0 or s[0] == 0.0:
            return 0
        tol = max(a.shape) * s[0] * 1e-13 + self.eps
        return int((s > tol).sum())

    def kernel(self, rows):
        """Basis of the right kernel {x : rows . x = 0} of a nonempty matrix."""
        if self.exact:
            return ratlin.kernel_basis([list(r) for r in rows])
        a = np.array(rows, dtype=float)
        _, s, vh = np.linalg.svd(a)
        tol = max(a.shape) * (s[0] if len(s) else 0.0) * 1e-13 + self.eps
        null = [vh[i] for i in range(vh.shape[0]) if i >= len(s) or s[i] <= tol]
        return [list(v) for v in null]

    def solve(self, m, b):
        """One solution of m x = b, or None when the system is inconsistent
        (in approx mode: when the least-squares residual exceeds 100 eps)."""
        if self.exact:
            return ratlin.solve(m, b)
        arr = np.array(m, dtype=float)
        rhs = np.array(b, dtype=float)
        sol, *_ = np.linalg.lstsq(arr, rhs, rcond=None)
        if float(np.linalg.norm(arr @ sol - rhs)) > self.eps * 100:
            return None
        return list(sol)

    def inverse(self, m):
        if self.exact:
            return ratlin.inverse(m)
        return np.linalg.inv(np.array(m, dtype=float)).tolist()


def coerce(rows, mode=None, eps=DEFAULT_EPS):
    """(field, rows cast into it) for a matrix entering the package.

    With no mode the field is exact exactly when every entry is rational;
    forcing exact mode on an irrational entry raises."""
    rational = all_exact(rows)
    if mode is None:
        mode = EXACT if rational else APPROX
    if mode not in (EXACT, APPROX):
        raise InputError(f"unknown mode {mode!r}")
    if mode == EXACT and not rational:
        raise InputError("exact mode requested but the input has irrational entries")
    field = Field(mode, eps)
    return field, [[field.cast(x) for x in row] for row in rows]
