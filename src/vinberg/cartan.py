"""Cartan matrices for projective reflection groups and their type trichotomy.

A Cartan matrix here is a square matrix A with A_ss = 2, nonpositive
off-diagonal entries, zeros occurring symmetrically, and every off-diagonal
product A_st * A_ts either >= 4 or equal to 4cos^2(pi/k) for an integer
k >= 2.  The product encodes the dihedral order m_st of the pairwise
reflection subgroup (m = k, or infinity when the product is >= 4).

Each irreducible component is classified as positive, zero or negative type
by the sign of 2 - rho(2I - A), decided in exact mode by the pivots of one
elimination (M-matrix criteria) and in approx mode by power iteration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ratlin
from .scalars import (
    DEFAULT_EPS,
    INFINITY,
    Field,
    InputError,
    RATIONAL_COS_PRODUCTS,
    coerce,
    parse_scalar,
)

POSITIVE = "positive"
ZERO = "zero"
NEGATIVE = "negative"
MIXED = "mixed"

_POWER_CAP = 100000


class CartanValidationError(InputError):
    """Raised with the list of axiom violations found."""

    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(f"{rule} at {pos}: {detail}" for rule, pos, detail in violations)
        super().__init__(f"invalid Cartan matrix: {lines}")


@dataclass(frozen=True)
class CartanMatrix:
    entries: tuple
    orders: tuple  # Coxeter orders m_st; m_ss = 1, INFINITY for products >= 4
    mode: str
    eps: float
    labels: tuple

    @cached_property
    def field(self):
        return Field(self.mode, self.eps)

    @property
    def n(self):
        return len(self.entries)

    def entry(self, s, t):
        return self.entries[s][t]

    def rows(self):
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class BlockType:
    indices: tuple
    tag: str
    lam: float  # numeric Perron-Frobenius evidence for 2 - rho(2I - A)
    margin: float


@dataclass(frozen=True)
class TypeTag:
    overall: str
    blocks: tuple
    warnings: tuple = ()


@dataclass(frozen=True)
class WitnessVector:
    x: tuple
    image: tuple  # A x
    tag: str
    margin: float


def _pair_order(product, field):
    """Coxeter order m_st from the off-diagonal product, or None if invalid.

    Exact products are looked up among the rational values of 4cos^2(pi/k);
    float products are inverted through acos within eps, floored at a few
    ulps of 4 so that eps = 0 still accepts the rounded float 4cos^2(pi/k)."""
    if field.exact:
        if product >= 4:
            return INFINITY
        if product in RATIONAL_COS_PRODUCTS:
            return RATIONAL_COS_PRODUCTS[product]
        return None
    p = float(product)
    tol = max(field.eps, 4.0 * math.ulp(4.0))
    if p >= 4.0 - tol:
        return INFINITY
    if abs(p) <= tol:
        return 2
    if p < 0:
        return None
    # p = 4cos^2(pi/k) ==> k = pi / acos(sqrt(p)/2)
    k_guess = math.pi / math.acos(math.sqrt(p) / 2.0)
    for k in {round(k_guess), round(k_guess) - 1, round(k_guess) + 1}:
        if k >= 2 and abs(p - 4.0 * math.cos(math.pi / k) ** 2) <= tol:
            return k
    return None


def validate_cartan(rows, labels=None, mode=None, eps=DEFAULT_EPS):
    """Check the Cartan axioms and build a CartanMatrix, or raise with the
    full list of violations."""
    n = len(rows)
    violations = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError(f"matrix is not square: row {i} has length {len(row)}")
    field, rows = coerce([[parse_scalar(x) for x in row] for row in rows], mode, eps)
    entries = tuple(tuple(row) for row in rows)

    orders = [[1] * n for _ in range(n)]
    for s in range(n):
        if field.sign(entries[s][s] - 2) != 0:
            violations.append(("diagonal", (s, s), f"A_ss = {entries[s][s]}"))
    for s in range(n):
        for t in range(s + 1, n):
            a, b = entries[s][t], entries[t][s]
            sa, sb = field.sign(a), field.sign(b)
            if sa > 0 or sb > 0:
                violations.append(("nonpositive", (s, t), f"({a}, {b})"))
                continue
            if (sa == 0) != (sb == 0):
                violations.append(("zero-symmetry", (s, t), f"({a}, {b})"))
                continue
            if sa == 0:
                orders[s][t] = orders[t][s] = 2
                continue
            m = _pair_order(a * b, field)
            if m is None:
                violations.append(
                    ("product", (s, t), f"A_st*A_ts = {a * b} is not 4cos^2(pi/k) or >= 4")
                )
            else:
                orders[s][t] = orders[t][s] = m
    if violations:
        raise CartanValidationError(violations)
    if labels is None:
        labels = tuple(f"s{i+1}" for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise InputError("labels length does not match matrix size")
    return CartanMatrix(entries, tuple(tuple(r) for r in orders), field.mode, eps, labels)


def irreducible_components(A):
    """Connected components of the support graph, as sorted index tuples."""
    n = A.n
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            s = stack.pop()
            comp.append(s)
            for t in range(n):
                if not seen[t] and t != s and A.field.sign(A.entry(s, t)) != 0:
                    seen[t] = True
                    stack.append(t)
        comps.append(tuple(sorted(comp)))
    return comps


def restrict(A, subset):
    """Principal submatrix on the given indices (a valid Cartan matrix)."""
    subset = tuple(subset)
    entries = tuple(tuple(A.entries[s][t] for t in subset) for s in subset)
    orders = tuple(tuple(A.orders[s][t] for t in subset) for s in subset)
    labels = tuple(A.labels[s] for s in subset)
    return CartanMatrix(entries, orders, A.mode, A.eps, labels)


def _power_lambda(rows, eps):
    """(2 - rho(2I - A), Perron vector, converged) for an irreducible block,
    by power iteration; converged is False when the Rayleigh quotient still
    moved by eps/10 (at least 4 ulps of it) or more at the step cap.

    Iterates on 3I - A, which is nonnegative with positive diagonal, hence
    primitive on an irreducible block; the unshifted 2I - A can have paired
    extremal eigenvalues and a non-converging Rayleigh quotient.
    """
    n = len(rows)
    m = [[(3.0 if i == j else 0.0) - float(rows[i][j]) for j in range(n)] for i in range(n)]
    v = [1.0] * n
    lam = 0.0
    for _ in range(_POWER_CAP):
        w = [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]
        num = sum(wi * vi for wi, vi in zip(w, v))
        den = sum(vi * vi for vi in v)
        new = num / den
        norm = sum(abs(x) for x in w)
        v = [x / norm for x in w]
        # a few ulps of lambda floor the tolerance, so eps = 0 can stop too
        if abs(new - lam) < max(eps / 10.0, 4.0 * sys.float_info.epsilon * abs(new)):
            return 3.0 - new, v, True
        lam = new
    return 3.0 - lam, v, False


def _classify_block_exact(rows):
    """Type of an irreducible block from the pivots (ratios of leading
    principal minors) of one elimination without row exchanges: all > 0 is
    positive type; all but a zero last one > 0 is zero type (a singular
    irreducible M-matrix); anything else is negative type."""
    m = [list(r) for r in rows]
    for k, row in enumerate(m):
        if row[k] <= 0:
            return ZERO if row[k] == 0 and k == len(m) - 1 else NEGATIVE
        for below in m[k + 1 :]:
            f = below[k] / row[k]
            if f:
                below[k + 1 :] = [x - f * y for x, y in zip(below[k + 1 :], row[k + 1 :])]
    return POSITIVE


def classify_type(A):
    """Type trichotomy per irreducible component, with Perron evidence."""
    blocks = []
    warnings = []
    for comp in irreducible_components(A):
        rows = [[A.entries[s][t] for t in comp] for s in comp]
        lam, _, converged = _power_lambda(rows, A.eps)
        if not converged:
            warnings.append(
                f"block {comp}: power iteration did not converge in "
                f"{_POWER_CAP} steps; lambda = {lam:.3e} is unconverged"
            )
        if A.field.exact:
            tag = _classify_block_exact(rows)
            margin = abs(lam)
        else:
            margin = abs(lam)
            if margin <= A.eps:
                tag = ZERO
                warnings.append(
                    f"block {comp}: |lambda| = {margin:.3e} within eps of zero"
                )
            else:
                tag = POSITIVE if lam > 0 else NEGATIVE
            if A.eps < margin < 10 * A.eps:
                warnings.append(f"block {comp}: margin {margin:.3e} below 10*eps")
        blocks.append(BlockType(comp, tag, lam, margin))
    if not blocks:
        overall = POSITIVE  # empty matrix convention
    else:
        tags = {b.tag for b in blocks}
        overall = tags.pop() if len(tags) == 1 else MIXED
    return TypeTag(overall, tuple(blocks), tuple(warnings))


def _canonical_positive(vec):
    """Scale an all-positive rational vector to coprime positive integers."""
    return [Fraction(x) for x in ratlin.coprime(vec)]


def _exact_block_witness(rows, tag):
    n = len(rows)
    if tag == POSITIVE:
        # A^{-1} is entrywise positive on an irreducible nonsingular M-matrix,
        # so X = A^{-1} * ones satisfies X > 0 and A X = ones > 0.
        x = ratlin.mat_vec(ratlin.inverse(rows), [Fraction(1)] * n)
        return _canonical_positive(x)
    if tag == ZERO:
        basis = ratlin.kernel_basis(rows)
        if len(basis) != 1:
            raise ArithmeticError("zero-type block with kernel dimension != 1")
        vec = basis[0]
        if any(x == 0 for x in vec):
            raise ArithmeticError("zero-type kernel vector with zero entry")
        if vec[0] < 0:
            vec = [-x for x in vec]
        if any(x < 0 for x in vec):
            raise ArithmeticError("zero-type kernel vector not of one sign")
        return _canonical_positive(vec)
    # Negative type: no rational Perron vector in general.  Run the power
    # iteration in exact arithmetic on 3I - A until the sign certificate
    # sign(A X) < 0 holds exactly.
    m = [[(Fraction(3) if i == j else Fraction(0)) - rows[i][j] for j in range(n)] for i in range(n)]
    v = [Fraction(1)] * n
    for _ in range(10000):
        av = ratlin.mat_vec(rows, v)
        if all(x < 0 for x in av):
            return _canonical_positive(v)
        v = ratlin.mat_vec(m, v)
        top = max(abs(x) for x in v)
        v = [x / top for x in v]
        v = [Fraction(x).limit_denominator(10**12) for x in v]
        if any(x <= 0 for x in v):
            raise ArithmeticError("power iterate left the positive cone")
    raise ArithmeticError("no exact sign certificate after iteration cap")


def witness_vector(A, tag=None):
    """X > 0 with sign(A X) matching the type, blockwise; exact certificates
    in exact mode.  Requires a non-mixed type."""
    tt = tag or classify_type(A)
    if tt.overall == MIXED:
        raise InputError("witness_vector needs a uniform (non-mixed) type")
    n = A.n
    if n == 0:
        return WitnessVector((), (), tt.overall, math.inf)
    field = A.field
    x = [None] * n
    for block in tt.blocks:
        rows = [[A.entries[s][t] for t in block.indices] for s in block.indices]
        if field.exact:
            bx = _exact_block_witness(rows, block.tag)
        else:
            _, bx, _ = _power_lambda(rows, A.eps)
        for idx, val in zip(block.indices, bx):
            x[idx] = val
    image = ratlin.mat_vec(A.entries, x)
    want = {POSITIVE: 1, ZERO: 0, NEGATIVE: -1}[tt.overall]
    for s in range(n):
        if field.sign(image[s]) != want:
            raise ArithmeticError(
                f"witness image sign mismatch at index {s}: {image[s]}"
            )
    if tt.overall == ZERO:
        # an exact zero image is a proof; a float one is only eps-close
        margin = math.inf if field.exact else min(A.eps - abs(float(v)) for v in image)
    else:
        margin = min(abs(float(v)) for v in image)
    return WitnessVector(tuple(x), tuple(image), tt.overall, margin)

