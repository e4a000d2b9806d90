"""Coxeter polytopes: facet covector / polar pairs and their face lattice.

A Coxeter polytope is a projective polytope P = P(D), D = {x : a_s(x) <= 0},
together with one polar v_s per facet with a_s(v_s) = 2, such that the
pairing matrix A_st = a_s(v_t) is a valid Cartan matrix.  The preferred lift
D is a sharp convex cone in V = R^(d+1); faces are encoded by the set of
facets containing them.

A subset S' of facets defines a face exactly when the system

    a_s(x) = 0 (s in S'),   a_s(x) < 0 (s not in S')

has a solution: exactly when the facet sets of the extreme rays of D through
S' intersect to S', and the sum of those rays is then a solution.  The rays
are computed once per polytope, and every invariant derived from them or
from the Cartan matrix is derived once and memoised on it: the face lattice
(their facet sets' intersection closure, graded by height, so a face's
dimension needs no rank), the link types, the overall type and the
supporting covector.  The LP `face_witness` (exact rational simplex, float
pivots in approx mode) is the standalone cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import cached_property

from . import ratlin
from .cartan import (
    CartanMatrix,
    NEGATIVE,
    POSITIVE,
    TypeTag,
    ZERO,
    classify_type,
    irreducible_components,
    restrict,
    validate_cartan,
    witness_vector,
)
from .linprog import OPTIMAL, maximize_with_free_vars
from .scalars import DEFAULT_EPS, Field, InputError, coerce

class PolytopeError(InputError):
    pass


class NotReducedError(PolytopeError):
    pass


class EmptyInteriorError(PolytopeError):
    pass


class RedundantFacetError(PolytopeError):
    pass


@dataclass(frozen=True)
class CoxeterPolytope:
    alphas: tuple  # facet covectors, rows of length d+1
    polars: tuple  # polar vectors
    cartan: CartanMatrix
    mode: str
    eps: float
    labels: tuple
    interior: tuple  # cached interior point of the preferred lift: the ray sum
    rays: tuple = dataclass_field(repr=False)  # extreme rays as (ray, facets through it)

    @cached_property
    def field(self):
        return Field(self.mode, self.eps)

    @cached_property
    def face_table(self):
        """The face lattice, computed once as the intersections of the rays'
        facet sets: {sorted facet subset: FaceDescriptor} for every face, the
        interior and the empty face included, in (size, lex) order.

        A face's dimension is its height in the lattice (which is graded):
        -1 for the empty face (every facet), otherwise one more than its
        highest proper subface, so the vertices come out at 0."""
        everything = frozenset(range(self.n))
        closed = {everything}
        for _, facets in self.rays:
            closed |= {facets & c for c in closed}
        faces = sorted(closed, key=lambda c: (len(c), sorted(c)))
        dims = {}
        for c in reversed(faces):  # every proper subface comes first
            dims[c] = 1 + max((dims[t] for t in dims if c < t), default=-2)
        table = {}
        for c in faces:
            subset = tuple(sorted(c))
            witness, _ = _ray_face(self.rays, subset, self.n, self.field)
            table[subset] = FaceDescriptor(subset, dims[c], witness, *_restriction(self, subset))
        return table

    @cached_property
    def type_tag(self):
        """Type of the whole Cartan matrix: its restriction to every facet."""
        return _restriction(self, tuple(range(self.n)))[1]

    @cached_property
    def supporting_covector(self):
        """(ell0, mu) with ell0 = sum mu_s a_s, mu > 0 and mu^T A < 0.

        Exists precisely in negative type: mu is a positivity witness of
        A^T, which has the components and block types of A (the same leading
        principal minors), so it is typed by A's tag."""
        tag = self.type_tag
        if tag.overall != NEGATIVE:
            raise InputError(
                "a strictly supporting covector needs negative type "
                f"(got {tag.overall})"
            )
        transposed = replace(self.cartan, entries=tuple(zip(*self.cartan.entries)))
        mu = witness_vector(transposed, tag).x
        return tuple(ratlin.mat_mul([mu], self.alphas)[0]), tuple(mu)

    @cached_property
    def _restrictions(self):
        return {}  # sorted facet subset -> (restricted Cartan matrix, its TypeTag)

    @cached_property
    def _face_classes(self):
        return {}  # sorted facet subset -> FaceClass

    @property
    def n(self):
        return len(self.alphas)

    @property
    def dim(self):
        return len(self.alphas[0]) - 1


@dataclass(frozen=True)
class FaceDescriptor:
    subset: tuple  # facet indices whose hyperplanes contain the face
    dim: int  # projective dimension; d for the interior, -1 for the empty face
    witness: tuple | None  # cone point with active set exactly `subset`
    link_cartan: CartanMatrix
    link_type: TypeTag


@dataclass(frozen=True)
class FaceClass:
    tag: str  # positive | zero | negative | mixed
    parabolic: bool | None
    loxodromic: bool | None
    link_dim: int
    cartan_rank: int


@dataclass(frozen=True)
class JoinStructure:
    factors: tuple  # CoxeterPolytope per block
    blocks: tuple  # facet index tuples per factor
    basis: tuple  # columns spanning each factor subspace, concatenated


# ---------------------------------------------------------------------------
# extreme rays and the face LP


def _extreme_rays(vectors, field):
    """Extreme rays of the cone {y : x . y <= 0 for every x in `vectors`},
    assumed pointed, each as (ray, frozenset of the indices of the vectors
    vanishing on it), in order of discovery.  Exact rays are coprime
    integers, float rays have unit 2-norm.

    Brute force: every (dim-1)-subset of vectors whose kernel is a line gives
    a candidate, kept when all vectors sit weakly on one side of it.  Fine
    for the handful of facets a facet system carries."""
    dim = len(vectors[0])
    if field.exact:  # positive row scalings keep the cone; integers are cheaper
        vectors = [ratlin.coprime(row) for row in vectors]
    out, keys = [], set()
    for subset in itertools.combinations(range(len(vectors)), dim - 1):
        rows = [vectors[i] for i in subset]
        basis = field.kernel(rows) if rows else field.identity(dim)
        if len(basis) != 1:
            continue
        ray = ratlin.coprime(basis[0]) if field.exact else basis[0]
        signs = [field.sign(v) for v in ratlin.mat_vec(vectors, ray)]
        if 1 in signs and -1 in signs:
            continue
        if 1 in signs:
            ray = [-r for r in ray]
        if not field.exact:
            import numpy as np

            ray = (np.asarray(ray, dtype=float) / np.linalg.norm(ray)).tolist()
        ray = tuple(ray)
        key = field.key(ray)
        if key not in keys:
            keys.add(key)
            out.append((ray, frozenset(i for i, sg in enumerate(signs) if sg == 0)))
    return tuple(out)


def _ray_face(rays, subset, n, field):
    """(the sum of the rays through `subset`, None when there is none; the
    facets common to those rays, all n for none).  `subset` defines a face
    exactly when it equals its common facets, and the sum is then a point
    with active set exactly `subset`; exact sums are taken on the integers."""
    through = [(ray, facets) for ray, facets in rays if facets.issuperset(subset)]
    common = frozenset(range(n)).intersection(*(facets for _, facets in through))
    if not through:
        return None, common
    point = [sum(col) for col in zip(*(ray for ray, _ in through))]
    return tuple(map(Fraction, point) if field.exact else point), common


def face_witness(alphas, subset, mode, eps):
    """Solve the defining system for `subset` by LP; returns a cone point
    with active set exactly `subset`, or None.  Standalone, so that it
    cross-checks the ray-based face lattice and brute-force cone
    enumeration."""
    field = Field(mode, eps)
    n = len(alphas)
    subset = frozenset(subset)
    strict = [s for s in range(n) if s not in subset]
    if subset:
        kernel = field.kernel([alphas[s] for s in subset])
    else:
        kernel = field.identity(len(alphas[0]))
    if not kernel:
        return None
    k = len(kernel)
    # Reduced system: beta rows act on kernel coordinates z.
    beta = [ratlin.mat_vec(kernel, alphas[s]) for s in strict]
    for row in beta:
        if all(field.sign(x) == 0 for x in row):
            return None  # this covector vanishes on the whole kernel
    # maximize t subject to beta.z <= -t, |z_i| <= 1, t <= 1  (z free, t >= 0)
    nv = k + 1
    a_ub = []
    b_ub = []
    for row in beta:
        a_ub.append(list(row) + [1])
        b_ub.append(0)
    for i in range(k):
        e = [0] * nv
        e[i] = 1
        a_ub.append(list(e))
        b_ub.append(1)
        a_ub.append([-x for x in e])
        b_ub.append(1)
    a_ub.append([0] * k + [1])
    b_ub.append(1)
    c = [0] * k + [1]
    # solve_lp is exact for tol=None; float pivots compare at eps / 1000
    lp_tol = None if field.exact else eps * 1e-3
    status, x, value = maximize_with_free_vars(c, a_ub, b_ub, [], [], nv, tol=lp_tol)
    if status != OPTIMAL or value is None or field.sign(value) <= 0:
        return None
    point = ratlin.mat_vec(ratlin.transpose(kernel), x[:k])
    # Re-verify the witness by substitution (meaningful in approx mode).
    if any(field.sign(v) >= 0 for v in ratlin.mat_vec([alphas[s] for s in strict], point)):
        return None
    return point


# ---------------------------------------------------------------------------
# construction


def build_polytope(pairs, labels=None, mode=None, eps=DEFAULT_EPS):
    """Build and validate a Coxeter polytope from (covector, polar) pairs.

    Checks: a_s(v_s) = 2, the pairing is a valid Cartan matrix, the cone has
    nonempty interior (some extreme ray, and the facets common to all rays
    are none), no covector is redundant (each {s} is its rays' common
    facets), and the representation is reduced (the covectors span the dual
    space).  On a line (vectors of length 1) every hyperplane meets the cone
    in the empty face only, so the redundancy check does not apply there.
    """
    alphas = [list(a) for a, _ in pairs]
    polars = [list(v) for _, v in pairs]
    n = len(alphas)
    if n == 0:
        raise PolytopeError("a polytope needs at least one facet")
    dim = len(alphas[0])
    for vec in alphas + polars:
        if len(vec) != dim:
            raise PolytopeError("inconsistent vector lengths")

    field, rows = coerce(alphas + polars, mode, eps)
    alphas, polars = rows[:n], rows[n:]

    pairing = ratlin.mat_mul(alphas, ratlin.transpose(polars))
    for s in range(n):
        if field.sign(pairing[s][s] - 2) != 0:
            raise PolytopeError(f"a_s(v_s) = {pairing[s][s]} != 2 at facet {s}")
    A = validate_cartan(pairing, labels=labels, mode=field.mode, eps=eps)

    if field.rank(alphas) != dim:
        raise NotReducedError(
            "covectors do not span the dual space (representation not reduced)"
        )
    rays = _extreme_rays(alphas, field)
    interior, common = _ray_face(rays, (), n, field)
    if interior is None or common:
        raise EmptyInteriorError("the cone {a_s <= 0} has empty interior")
    if dim > 1:
        for s in range(n):
            if _ray_face(rays, (s,), n, field)[1] != {s}:
                raise RedundantFacetError(f"covector {s} does not define a facet")

    return CoxeterPolytope(
        tuple(tuple(r) for r in alphas),
        tuple(tuple(r) for r in polars),
        A,
        field.mode,
        eps,
        A.labels,
        interior,
        rays,
    )


def tits_polytope(A: CartanMatrix) -> CoxeterPolytope:
    """Canonical simplex of a Cartan matrix: covectors the dual canonical
    basis of R^S, polars the columns of A."""
    pairs = list(zip(A.field.identity(A.n), ratlin.transpose(A.entries)))
    return build_polytope(pairs, labels=A.labels, mode=A.mode, eps=A.eps)


# ---------------------------------------------------------------------------
# faces


def _restriction(P: CoxeterPolytope, subset):
    """(restricted Cartan matrix, its TypeTag) on a sorted facet subset,
    classified once per polytope."""
    hit = P._restrictions.get(subset)
    if hit is None:
        link_cartan = restrict(P.cartan, subset)
        hit = P._restrictions[subset] = (link_cartan, classify_type(link_cartan))
    return hit


def defines_face(P: CoxeterPolytope, subset) -> FaceDescriptor | None:
    """Face descriptor for the facet subset, or None if it defines no face.

    Read from the polytope's face table.  The empty set describes the
    interior; the full set always describes the empty face (dimension -1,
    no witness).
    """
    subset = tuple(sorted(set(subset)))
    for s in subset:
        if not 0 <= s < P.n:
            raise InputError(f"facet index {s} out of range")
    return P.face_table.get(subset)


def enumerate_faces(P: CoxeterPolytope):
    """All proper faces plus the interior, ordered by (size, lex), as a new
    list read from the polytope's face table.

    The empty face is left out except in the degenerate d = 0 case, where it
    is the only other stratum and is reported for visibility.
    """
    faces = list(P.face_table.values())
    return faces if P.dim == 0 else faces[:-1]


def vertex_faces(P: CoxeterPolytope):
    """Descriptors of the vertices (the faces of dimension 0)."""
    return [f for f in P.face_table.values() if f.dim == 0 and f.subset]


def classify_face(P: CoxeterPolytope, subset) -> FaceClass:
    """Elliptic / parabolic / loxodromic trichotomy of a face's link,
    memoised per polytope.  Raises PolytopeError when `subset` defines no
    face."""
    subset = tuple(sorted(set(subset)))
    fc = P._face_classes.get(subset)
    if fc is None:
        face = defines_face(P, subset)
        if face is None:
            raise PolytopeError(f"{subset} does not define a face")
        tt = face.link_type
        link_dim = P.dim - face.dim - 1
        cr = P.field.rank(face.link_cartan.rows())
        parabolic = (cr == link_dim) if tt.overall == ZERO else None
        loxodromic = (cr == link_dim + 1) if tt.overall == NEGATIVE else None
        fc = P._face_classes[subset] = FaceClass(
            tt.overall, parabolic, loxodromic, link_dim, cr
        )
    return fc


def link(P: CoxeterPolytope, subset) -> CoxeterPolytope:
    """Link polytope of the face defined by `subset`, in V / span(face).

    Coordinates on the quotient are the values of a maximal independent
    family of the face's covectors; in those coordinates the new polars are
    columns of the restricted Cartan matrix.
    """
    subset = tuple(sorted(set(subset)))
    desc = defines_face(P, subset)
    if desc is None:
        raise PolytopeError(f"{subset} does not define a face")
    if not subset:
        return P
    rows = [list(P.alphas[s]) for s in subset]
    # indices into `subset` of independent covectors: the first ones in exact
    # mode, the best conditioned ones (column-pivoted QR) in approx mode
    if P.field.exact:
        _, basis_idx = ratlin.rref(ratlin.transpose(rows))
    else:
        from scipy.linalg import qr

        _, piv = qr(ratlin.transpose(rows), mode="r", pivoting=True)
        basis_idx = piv[: P.field.rank(rows)]
    basis_rows = [rows[i] for i in basis_idx]
    pairs = []
    for s in subset:
        coeff = P.field.solve(ratlin.transpose(basis_rows), list(P.alphas[s]))
        if coeff is None:
            raise PolytopeError("face covector outside the span of the basis")
        pairs.append((coeff, ratlin.mat_vec(basis_rows, P.polars[s])))
    return build_polytope(
        pairs,
        labels=[P.labels[s] for s in subset],
        mode=P.mode,
        eps=P.eps,
    )


# ---------------------------------------------------------------------------
# the bigger-face lemma


def bigger_face(P: CoxeterPolytope, t1, t2):
    """Given disjoint T1, T2 with T1 orthogonal to T2 and T1 u T2 a face,
    return descriptors for T1 u T2^0, T1 u T2^0 u T2^+, T1 u T2^0 u T2^-.

    These are guaranteed faces; each is looked up in the face table, and a
    miss is a hard error (it would falsify the lemma)."""
    t1 = tuple(sorted(set(t1)))
    t2 = tuple(sorted(set(t2)))
    if set(t1) & set(t2):
        raise InputError("T1 and T2 must be disjoint")
    for s in t1:
        for t in t2:
            if P.field.sign(P.cartan.entry(s, t)) != 0:
                raise InputError("T1 must be orthogonal to T2")
    if defines_face(P, t1 + t2) is None:
        raise InputError("T1 u T2 does not define a face")
    _, tt = _restriction(P, t2)
    parts = {POSITIVE: [], ZERO: [], NEGATIVE: []}
    for block in tt.blocks:
        parts[block.tag].extend(t2[i] for i in block.indices)
    zero = tuple(sorted(set(t1) | set(parts[ZERO])))
    plus = tuple(sorted(set(zero) | set(parts[POSITIVE])))
    minus = tuple(sorted(set(zero) | set(parts[NEGATIVE])))
    out = []
    for cand in (zero, plus, minus):
        desc = defines_face(P, cand)
        if desc is None:
            raise ArithmeticError(
                f"bigger-face candidate {cand} failed the face test; "
                "lemma and ray closure disagree"
            )
        out.append(desc)
    return tuple(out)


# ---------------------------------------------------------------------------
# joins


def join(P: CoxeterPolytope, Q: CoxeterPolytope) -> CoxeterPolytope:
    """Join of two Coxeter polytopes on the direct sum of their spaces."""
    if P.mode != Q.mode:
        raise InputError("cannot join polytopes of different modes")
    dp = P.dim + 1
    dq = Q.dim + 1
    zero = P.field.zero
    pairs = []
    for s in range(P.n):
        pairs.append(
            (list(P.alphas[s]) + [zero] * dq, list(P.polars[s]) + [zero] * dq)
        )
    for s in range(Q.n):
        pairs.append(
            ([zero] * dp + list(Q.alphas[s]), [zero] * dp + list(Q.polars[s]))
        )
    labels = [f"L.{x}" for x in P.labels] + [f"R.{x}" for x in Q.labels]
    return build_polytope(pairs, labels=labels, mode=P.mode, eps=max(P.eps, Q.eps))


def decompose(P: CoxeterPolytope):
    """Split P as a join along the finest block decomposition of its Cartan
    matrix, or return None when the subspaces do not decompose.

    For each Cartan block S_i the only candidate subspace is
    W_i = the common kernel of the other blocks' covectors; the polars of S_i
    always lie in W_i, so P is a join exactly when the W_i sum to V.
    """
    comps = irreducible_components(P.cartan)
    if len(comps) <= 1:
        return None
    dim = P.dim + 1
    field = P.field
    bases = [
        field.kernel([P.alphas[s] for s in range(P.n) if s not in comp])
        for comp in comps
    ]
    if sum(len(b) for b in bases) != dim:
        return None
    # Change of basis: columns are the W_i bases in block order.
    cols = [vec for basis in bases for vec in basis]
    T = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    if field.rank(T) != dim:
        return None  # subspaces overlap: the sum is not direct
    Tinv = field.inverse(T)
    factors = []
    offset = 0
    # float entries went through a kernel and an inverse: allow 1e-8 leakage
    tol = 0.0 if field.exact else 1e-8
    for comp, basis in zip(comps, bases):
        k = len(basis)
        pairs = []
        for s in comp:
            alpha_t = ratlin.mat_vec(cols, P.alphas[s])
            polar_t = ratlin.mat_vec(Tinv, P.polars[s])
            for j, val in enumerate(alpha_t):
                if not offset <= j < offset + k and abs(float(val)) > tol:
                    raise ArithmeticError("covector support leaks across blocks")
            for j, val in enumerate(polar_t):
                if not offset <= j < offset + k and abs(float(val)) > tol:
                    raise ArithmeticError("polar support leaks across blocks")
            pairs.append(
                (alpha_t[offset : offset + k], polar_t[offset : offset + k])
            )
        factors.append(
            build_polytope(
                pairs,
                labels=[P.labels[s] for s in comp],
                mode=P.mode,
                eps=P.eps,
            )
        )
        offset += k
    return JoinStructure(tuple(factors), tuple(comps), tuple(tuple(c) for c in cols))


# ---------------------------------------------------------------------------
# perfection predicates


def is_perfect(P: CoxeterPolytope):
    """(flag, offending vertices): perfect when every vertex link is of
    positive type (elliptic)."""
    bad = tuple(v for v in vertex_faces(P) if v.link_type.overall != POSITIVE)
    return (not bad, bad)


def is_quasiperfect(P: CoxeterPolytope):
    """(flag, offending vertices): vertices must be elliptic or parabolic."""
    bad = []
    for v in vertex_faces(P):
        if v.link_type.overall == POSITIVE:
            continue
        fc = classify_face(P, v.subset)
        if fc.tag == ZERO and fc.parabolic:
            continue
        bad.append(v)
    return (not bad, tuple(bad))


def is_2perfect(P: CoxeterPolytope):
    """(flag, offending vertices): every vertex link must be perfect."""
    bad = []
    for v in vertex_faces(P):
        link_poly = link(P, v.subset)
        ok, _ = is_perfect(link_poly)
        if not ok:
            bad.append(v)
    return (not bad, tuple(bad))
