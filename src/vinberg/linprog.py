"""Two-phase simplex with Bland's rule.

In exact mode the tableau holds `Fraction` entries and the answers are
certificates; in approx mode the same pivoting runs over floats with a
tolerance on every comparison (ratio tests, optimality tests), and callers
re-verify returned witnesses by substitution.

The standard form solved here is

    maximize c.z   subject to   A_ub z <= b_ub,  A_eq z = b_eq,  z >= 0.

Problems with free variables are split by the callers (z = u - w).
"""

from __future__ import annotations

from .scalars import APPROX, EXACT, Field

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_MAX_PIVOTS = 200000


class LPError(RuntimeError):
    pass


def _pivot(tab, basis, row, col):
    pr = tab[row]
    inv = pr[col]
    tab[row] = [x / inv for x in pr]
    pr = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, pr)]
    basis[row] = col


def _run_simplex(tab, basis, ncols, tol):
    """Maximize the objective stored (negated) in the last tableau row."""
    pivots = 0
    obj = len(tab) - 1
    while True:
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise LPError("simplex pivot cap exceeded")
        # Bland: entering variable = smallest index with positive reduced cost.
        col = None
        for j in range(ncols):
            if tab[obj][j] < -tol:
                col = j
                break
        if col is None:
            return OPTIMAL
        # Ratio test, Bland tie-break on the leaving basic variable index.
        best = None
        leave = None
        for i in range(obj):
            a = tab[i][col]
            if a > tol:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, leave, col)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, tol=None):
    """Returns (status, x, value).  tol=None means exact Fractions."""
    a_ub = [list(r) for r in (a_ub or [])]
    b_ub = list(b_ub or [])
    a_eq = [list(r) for r in (a_eq or [])]
    b_eq = list(b_eq or [])
    n = len(c)
    field = Field(EXACT) if tol is None else Field(APPROX, tol)
    cast = field.cast
    tol_cmp = field.tol

    rows = []
    rhs = []
    kinds = []  # 'ub' or 'eq'
    for r, b in zip(a_ub, b_ub):
        rows.append([cast(x) for x in r])
        rhs.append(cast(b))
        kinds.append("ub")
    for r, b in zip(a_eq, b_eq):
        rows.append([cast(x) for x in r])
        rhs.append(cast(b))
        kinds.append("eq")
    m = len(rows)

    # Normalize to nonnegative right-hand sides.
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            if kinds[i] == "ub":
                kinds[i] = "lb"  # became a >= row; needs surplus + artificial

    nslack = sum(1 for k in kinds if k == "ub")
    nsurp = sum(1 for k in kinds if k == "lb")
    nart = sum(1 for k in kinds if k != "ub")
    width = n + nslack + nsurp + nart + 1

    tab = []
    basis = []
    si = n
    pi = n + nslack
    ai = n + nslack + nsurp
    art_cols = []
    for i in range(m):
        row = [field.zero] * width
        row[: n] = rows[i]
        row[-1] = rhs[i]
        if kinds[i] == "ub":
            row[si] = field.one
            basis.append(si)
            si += 1
        else:
            if kinds[i] == "lb":
                row[pi] = -field.one
                pi += 1
            row[ai] = field.one
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        tab.append(row)

    zero = field.zero
    if art_cols:
        # Phase 1: minimize the sum of artificials.
        obj = [zero] * width
        for col in art_cols:
            obj[col] = field.one
        tab.append(obj)
        for i in range(m):
            if basis[i] in art_cols:
                tab[-1] = [x - y for x, y in zip(tab[-1], tab[i])]
        _run_simplex(tab, basis, width - 1, tol_cmp)
        infeas = -tab[-1][-1]
        if infeas > tol_cmp:
            return INFEASIBLE, None, None
        tab.pop()
        # Drive any artificial still basic out of the basis if possible.
        for i in range(m):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(n + nslack + nsurp)
                     if (tab[i][j] > tol_cmp or tab[i][j] < -tol_cmp)),
                    None,
                )
                if col is not None:
                    _pivot(tab, basis, i, col)
        for row in tab:
            for col in art_cols:
                row[col] = zero

    # Phase 2 objective.
    obj = [zero] * width
    for j in range(n):
        obj[j] = -cast(c[j])
    tab.append(obj)
    for i in range(m):
        f = tab[-1][basis[i]]
        if f != 0:
            tab[-1] = [x - f * y for x, y in zip(tab[-1], tab[i])]
    status = _run_simplex(tab, basis, n + nslack + nsurp, tol_cmp)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return OPTIMAL, x, tab[-1][-1]


def maximize_with_free_vars(c_free, a_ub, b_ub, a_eq, b_eq, nfree, tol=None):
    """Same interface but variables are free (split internally as u - w)."""
    def split_row(row):
        return [x for x in row] + [-x for x in row]

    status, z, value = solve_lp(
        split_row(c_free),
        [split_row(r) for r in a_ub],
        b_ub,
        [split_row(r) for r in a_eq],
        b_eq,
        tol=tol,
    )
    if z is None:
        return status, None, value
    x = [z[i] - z[nfree + i] for i in range(nfree)]
    return status, x, value
