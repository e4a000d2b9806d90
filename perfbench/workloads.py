"""Workload definitions: seeded input generation, one item of user work,
its output checks and its digest record.

Every workload is a closed loop with a single client.  `generate` builds a
seed-determined item set before the first item (this is what set-up time
measures); `run` is the timed item; `check` and `record` run outside the
timed span.  The item set is a fixed number of cycles of input kinds, so the
share of cheap and expensive items is the same for every seed; only the
entries inside a kind are random.  Each cycle is ordered so that its median
and tail percentile fall inside a cost class rather than between two.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np

from vinberg.cartan import NEGATIVE, POSITIVE, ZERO, classify_type, irreducible_components, validate_cartan
from vinberg.coxeter import coxeter_matrix, gram_matrix
from vinberg.decisions import (
    decide_finite_volume,
    decide_limit_set_fills_boundary_necessary,
    decide_min_domain_equals_vinberg,
    decide_unique_domain,
)
from vinberg.formats import canonical_json
from vinberg.hilbert import (
    conic_body,
    estimate_volume,
    fundamental_target,
    inner_hull_body,
    outer_cut_body,
    paired_volumes,
    polygon_body,
    volume_sequence,
    witness_chart,
)
from vinberg.limits import hausdorff_gap, hull_of_limit_set, sample_limit_set
from vinberg.orbits import domain_approx, invariant_form
from vinberg.polytope import build_polytope, classify_face, enumerate_faces, tits_polytope
from vinberg.scalars import INFINITY, to_float

NEAR_TIE = "spectral gap"  # start of detect_proximal's near-tie warning


def sig12(x):
    """A float to 12 significant digits, as digest text."""
    return "%.12g" % float(x)


def plain(x):
    """JSON-able form of a library value (Fractions as 'p/q' text)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return sig12(x)
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    return x


class Workload:
    name = ""
    tail_pct = 75  # percentile reported as item_tail_ms
    cycle = ()  # input kinds of one cycle of the mix
    cycles = 2  # the item set, in cycles of the mix; every round runs all of it

    def generate(self, rng):
        kinds = self.cycle * self.cycles
        return [self.make(rng, kind, i) for i, kind in enumerate(kinds)]

    def known_defect(self, x):
        """Name of the known defect this input reproduces, if any."""
        return None

    def near_ties(self, out):
        """Proximality near-tie warnings reported outside this process."""
        return 0

    def peak_rss_kb(self):
        """Peak resident size of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# verdicts and polygons: the symbolic path


_SPLITS = (
    Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2),
    Fraction(2, 3), Fraction(3), Fraction(1, 3),
)


def random_cartan(rng, n):
    """Valid rational Cartan matrix: pairwise products drawn from {0,1,2,3}
    or 4 + k/3, split into the two entries by a rational factor."""
    A = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.45:
                p = Fraction(rng.randint(1, 3))
            else:
                p = Fraction(4) + Fraction(rng.randint(0, 9), 3)
            a = rng.choice(_SPLITS)
            A[s][t] = -a
            A[t][s] = -p / a
    return A


IRRATIONAL_ORDERS = (5, 7, 8, 10)


def random_coxeter(rng, n):
    """Coxeter orders with at least one irrational order (5, 7, 8, 10)."""
    while True:
        M = [[1] * n for _ in range(n)]
        for s in range(n):
            for t in range(s + 1, n):
                M[s][t] = M[t][s] = rng.choice((2, 3, 3, 4, 5, 7, 8, 10, INFINITY))
        if any(M[s][t] in IRRATIONAL_ORDERS for s in range(n) for t in range(n)):
            return M


def negative_cartan(rng, n):
    while True:
        rows = random_cartan(rng, n)
        if classify_type(validate_cartan(rows, mode="exact")).overall == NEGATIVE:
            return rows


def negative_coxeter(rng, n):
    while True:
        orders = random_coxeter(rng, n)
        if classify_type(gram_matrix(coxeter_matrix(orders))).overall == NEGATIVE:
            return orders


def decide_and_tabulate(P):
    # names are looked up per call so that a traced run sees its wrappers
    verdicts = [decide_finite_volume(P), decide_unique_domain(P),
                decide_min_domain_equals_vinberg(P),
                decide_limit_set_fills_boundary_necessary(P)]
    faces = []
    for f in enumerate_faces(P):
        fc = classify_face(P, f.subset) if f.subset else None
        faces.append((f.subset, f.dim, fc))
    return {"polytope": P, "verdicts": verdicts, "faces": faces}


def _indices(P, labels):
    return tuple(P.labels.index(x) for x in labels)


def _bad_vertex(P, labels, vertex_dims):
    """An offending-vertex certificate re-checks: it is a vertex and its link
    is neither elliptic nor parabolic."""
    subset = _indices(P, labels)
    if vertex_dims.get(subset) != 0:
        return False
    fc = classify_face(P, subset)
    return not (fc.tag == POSITIVE or (fc.tag == ZERO and fc.parabolic))


def check_verdicts(out, must_have_finite_volume=False):
    P = out["polytope"]
    fv, ud, md, ls = out["verdicts"]
    dims = {subset: dim for subset, dim, _ in out["faces"]}
    problems = []
    if not (fv.routes[0].answer == fv.routes[1].answer == fv.answer):
        problems.append("finite-volume routes disagree")
    if not fv.answer:
        cert = fv.certificate
        if not _bad_vertex(P, cert["offending_vertex"], dims):
            problems.append("finite-volume offending vertex does not re-check")
        if classify_face(P, _indices(P, cert["negative_face"])).tag != NEGATIVE:
            problems.append("finite-volume negative face does not re-check")
    if not ud.answer and ud.certificate["quasiperfect"]:
        if ud.certificate["facet_count"] >= 3:
            problems.append("unique-domain No without a certificate")
    elif not ud.answer and not _bad_vertex(P, ud.certificate["offending_vertex"], dims):
        problems.append("unique-domain offending vertex does not re-check")
    if not ls.answer and not ls.certificate["quasiperfect"]:
        if not _bad_vertex(P, ls.certificate["offending_vertex"], dims):
            problems.append("limit-set offending vertex does not re-check")
    if not md.answer:
        for factor in md.certificate["factors"]:
            if factor["ok"]:
                continue
            if factor["negative"] and factor["quasiperfect"]:
                problems.append("min-domain factor rejected without a reason")
    if ud.answer and not md.answer:
        problems.append("unique domain but min domain != Vinberg domain")
    if fv.answer:
        floats = np.asarray([[to_float(x) for x in row] for row in P.cartan.entries])
        if len(irreducible_components(P.cartan)) != 1:
            problems.append("finite volume but reducible Cartan matrix")
        if np.linalg.matrix_rank(floats) != P.dim + 1:
            problems.append("finite volume but Cartan matrix not of full rank")
    if must_have_finite_volume and not fv.answer:
        problems.append("right-angled polygon without finite volume")
    return problems


def record_verdicts(out):
    P = out["polytope"]
    return {
        "mode": P.mode,
        "verdicts": [
            [v.question, v.answer, plain(v.certificate),
             [[r.name, r.answer, plain(r.certificate)] for r in v.routes]]
            for v in out["verdicts"]
        ],
        "faces": [
            [list(subset), dim] + ([] if fc is None else [fc.tag, fc.parabolic, fc.loxodromic])
            for subset, dim, fc in out["faces"]
        ],
    }


class Verdicts(Workload):
    """Random rational Cartan matrices of rank 2-5 (exact) plus Coxeter
    matrices with an irrational order (float path), decided and tabulated."""

    name = "verdicts"
    tail_pct = 90
    # one item in four is a Coxeter matrix; sorted by cost the cycle is
    # 4 cheap | cox4 | 2 x rank 3 | 3 x rank 4 | 2 x rank 5, so p50 sits at the
    # middle of the rank-3 class and p90 inside the rank-5 class
    cycle = (("cartan", 2), ("cartan", 4), ("coxeter", 3), ("cartan", 3),
             ("cartan", 5), ("coxeter", 4), ("cartan", 2), ("cartan", 4),
             ("coxeter", 3), ("cartan", 3), ("cartan", 5), ("cartan", 4))

    def make(self, rng, kind, i):
        family, n = kind
        if family == "cartan":
            return (family, negative_cartan(rng, n))
        return (family, negative_coxeter(rng, n))

    def run(self, x):
        kind, data = x
        if kind == "cartan":
            A = validate_cartan(data, mode="exact")
        else:
            A = gram_matrix(coxeter_matrix(data))
        return decide_and_tabulate(tits_polytope(A))

    def check(self, x, out):
        return check_verdicts(out)

    def record(self, x, out):
        return record_verdicts(out)


_J = np.diag([1.0, 1.0, -1.0])


def right_angled_polygon(rng, k):
    """(covector, polar) pairs of a regular right-angled hyperbolic k-gon in
    the hyperboloid model, moved by a seeded Lorentz boost, facet rescaling
    and projective change of coordinates (all of which keep the polygon)."""
    a2 = 1.0 / (1.0 - math.cos(2.0 * math.pi / k))
    a, b = math.sqrt(a2), math.sqrt(a2 - 1.0)
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    E = np.array([[a * math.cos(theta0 + 2 * math.pi * i / k),
                   a * math.sin(theta0 + 2 * math.pi * i / k), b] for i in range(k)])
    r, phi = rng.uniform(0.0, 0.6), rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cosh(r), math.sinh(r)
    u = np.array([math.cos(phi), math.sin(phi)])
    boost = np.eye(3)
    boost[:2, :2] += (c - 1.0) * np.outer(u, u)
    boost[:2, 2] = s * u
    boost[2, :2] = s * u
    boost[2, 2] = c
    E = E @ boost.T
    g = np.eye(3) + np.array([[rng.uniform(-0.3, 0.3) for _ in range(3)] for _ in range(3)])
    g_inv = np.linalg.inv(g)
    pairs = []
    for e in E:
        scale = rng.uniform(0.5, 2.0)
        alpha = scale * (e @ _J) @ g_inv
        polar = (2.0 / scale) * (g @ e)
        pairs.append((alpha.tolist(), polar.tolist()))
    return pairs


class Polygons(Workload):
    """Right-angled hyperbolic k-gons (k = 5..8): not simplices, so face
    enumeration tries all 2^k subsets and finds only 2k+1 faces."""

    name = "polygons"
    # by cost: 2 x k5 | 5 x k6 | 2 x k7 | k8, so p50 is the middle of the
    # k6 class and p75 sits in k7
    cycle = (5, 6, 7, 6, 8, 6, 5, 7, 6, 6)
    cycles = 1

    def make(self, rng, k, i):
        return right_angled_polygon(rng, k)

    def run(self, x):
        return decide_and_tabulate(build_polytope(x, mode="approx"))

    def check(self, x, out):
        return check_verdicts(out, must_have_finite_volume=True)

    def record(self, x, out):
        return record_verdicts(out)


# ---------------------------------------------------------------------------
# tilings: orbit balls and limit sets


TRIANGLE_ORDERS = (2, 3, 4, 5, 6, 7, INFINITY)
# Tiling kinds draw from narrower order sets, because the orbit ball of a
# triangle group at a fixed depth grows with its orders: at depth 7,
# (2, p, q) with p, q >= 4 costs 0.3 of a triangle with orders >= 5, and the
# exact (3, infinity, infinity) 2.2 times as much
RIGHT_ORDERS = (4, 5, 6, 7, INFINITY)
WIDE_ORDERS = (5, 6, 7, INFINITY)
EXACT_TRIANGLES = ((3, 3, INFINITY), (2, INFINITY, INFINITY))


RATIONAL_GRAM_ORDERS = (2, 3, INFINITY)  # gram_matrix stays exact on these


def hyperbolic_orders(rng, choices, first=None, exact=None):
    """Triangle orders (p, q, r) with 1/p + 1/q + 1/r < 1, in random order;
    `exact` asks for a rational (True) or an irrational (False) Gram matrix."""
    while True:
        orders = [first or rng.choice(choices)] + [rng.choice(choices) for _ in range(2)]
        if sum(0.0 if m == INFINITY else 1.0 / m for m in orders) >= 1.0 - 1e-9:
            continue
        if exact is None or exact == all(m in RATIONAL_GRAM_ORDERS for m in orders):
            rng.shuffle(orders)
            return tuple(orders)


def triangle_orders_matrix(p, q, r):
    return [[1, p, q], [p, 1, r], [q, r, 1]]


def rational_cartan_triangle(rng):
    """A non-symmetric rational Cartan triangle of negative type, with no
    edge of order 3 (those shrink the orbit ball)."""
    while True:
        A = [[Fraction(2)] * 3 for _ in range(3)]
        for s, t in ((0, 1), (0, 2), (1, 2)):
            p = rng.choice((Fraction(2), Fraction(3), Fraction(4),
                            Fraction(5), Fraction(9, 2), Fraction(6)))
            a = rng.choice(_SPLITS)
            A[s][t], A[t][s] = -a, -p / a
        if classify_type(validate_cartan(A, mode="exact")).overall == NEGATIVE:
            return A


class Tilings(Workload):
    """Triangle groups through domain_approx, the inner and outer bodies, a
    limit-set sample, its hull and the Hausdorff gap to the tiling."""

    name = "tilings"
    # (kind, orbit depth).  An order-2 corner ("right") shrinks the ball and
    # exact arithmetic costs more than floats, so right-angled and wide float
    # triangles, exact triangles and rational Cartan triangles are separate
    # kinds with a fixed share each.  By cost: 2 x right | 4 x coxeter, then
    # exact and cartan, so p50 and p75 fall among the float triangles.
    cycle = (("right", 7), ("coxeter", 7), ("cartan", 6), ("coxeter", 7),
             ("right", 7), ("exact", 7), ("coxeter", 7), ("coxeter", 7))
    limit_words = 10
    limit_count = 150

    def make(self, rng, kind, i):
        family, depth = kind
        if family == "right":
            data = hyperbolic_orders(rng, RIGHT_ORDERS, first=2, exact=False)
        elif family == "coxeter":
            data = hyperbolic_orders(rng, WIDE_ORDERS, exact=False)
        elif family == "exact":
            data = list(rng.choice(EXACT_TRIANGLES))
            rng.shuffle(data)
            data = tuple(data)
        else:
            data = rational_cartan_triangle(rng)
        return (family, data, depth, rng.randrange(1 << 30))

    @staticmethod
    def polytope(x):
        kind, data = x[0], x[1]
        if kind == "cartan":
            return tits_polytope(validate_cartan(data, mode="exact"))
        return tits_polytope(gram_matrix(coxeter_matrix(triangle_orders_matrix(*data))))

    def run(self, x):
        _, _, depth, seed = x
        P = self.polytope(x)
        chart = witness_chart(P)
        dom = domain_approx(P, depth)
        inner = inner_hull_body(dom, chart)
        outer = outer_cut_body(dom, chart)
        sample = sample_limit_set(P, word_length=self.limit_words,
                                  count=self.limit_count, seed=seed)
        hull = hull_of_limit_set(sample, chart)
        gap = hausdorff_gap(hull, inner)
        return {"polytope": P, "domain": dom, "inner": inner, "outer": outer,
                "sample": sample, "hull": hull, "gap": gap}

    def check(self, x, out):
        P, dom, sample = out["polytope"], out["domain"], out["sample"]
        problems = []
        G = invariant_form(P)
        if G is not None:
            Gf = np.asarray([[to_float(v) for v in row] for row in G])
            pts = np.asarray(sample.points)
            if np.abs(np.einsum("ij,jk,ik->i", pts, Gf, pts)).max() > 1e-6:
                problems.append("limit point off the invariant conic")
            if P.mode == "exact":
                Gl = [list(row) for row in G]
                for g in dom.ball.elements[:: max(1, len(dom.ball) // 8)]:
                    gt = [list(r) for r in zip(*g)]
                    if _mul(gt, _mul(Gl, g)) != Gl:
                        problems.append("orbit element does not preserve the form")
                        break
        if not sample.points:
            problems.append("empty limit-set sample")
        if not out["gap"] >= 0.0:
            problems.append("negative Hausdorff gap")
        return problems

    def record(self, x, out):
        dom, sample = out["domain"], out["sample"]
        return {
            "mode": out["polytope"].mode,
            "elements": len(dom.ball),
            "per_depth": [dom.ball.count_at(d) for d in range(dom.ball.depth + 1)],
            "inner_vertices": len(out["inner"].vertices),
            "outer_vertices": len(out["outer"].vertices),
            "limit_points": len(sample.points),
            "hull_vertices": len(out["hull"].vertices),
            "gap": sig12(out["gap"]),
        }


def _mul(a, b):
    n = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))]
            for i in range(len(a))]


# ---------------------------------------------------------------------------
# volumes: Hilbert-metric Monte-Carlo


VOLUME_ORDERS = (2, 3, 4, 5, 6, 7, 8)


def nested_polygons(rng, seed):
    """Criterion-08 style triple: big polygon, a scaled copy inside it, and a
    smaller target, all around the same centre."""
    nrng = np.random.Generator(np.random.Philox(key=[seed, 8]))
    k = int(nrng.integers(8, 13))
    ang = np.sort(nrng.uniform(0, 2 * np.pi, k))
    a, b = nrng.uniform(1.0, 3.0, 2)
    th = nrng.uniform(0, np.pi)
    pts = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    pts = pts @ rot.T
    c = pts.mean(axis=0)
    f = nrng.uniform(0.4, 0.8)
    return pts, c, f


class Volumes(Workload):
    """Compact hyperbolic triangles (conic estimate against Gauss-Bonnet, one
    outer volume sequence) and nested polygon pairs (paired estimates)."""

    name = "volumes"
    cycle = ("triangle", "pair", "triangle", "triangle", "pair")
    conic_samples = 20000
    outer_depths = (2, 4)
    outer_samples = 3000
    pair_samples = 4000

    def make(self, rng, kind, i):
        seed = rng.randrange(1 << 30)
        if kind == "triangle":
            return (kind, hyperbolic_orders(rng, VOLUME_ORDERS), seed)
        return (kind, nested_polygons(rng, seed), seed)

    def run(self, x):
        kind, data, seed = x
        if kind == "triangle":
            P = tits_polytope(gram_matrix(coxeter_matrix(triangle_orders_matrix(*data))))
            chart = witness_chart(P)
            est = estimate_volume(conic_body(P, chart), fundamental_target(P, chart),
                                  samples=self.conic_samples, seed=seed)
            seq = volume_sequence(P, depths=self.outer_depths, samples=self.outer_samples,
                                  seed=seed, side="outer")
            return {"estimate": est, "sequence": seq}
        pts, c, f = data
        big = polygon_body(pts)
        small = polygon_body(c + f * (pts - c))
        target = polygon_body(c + 0.3 * f * (pts - c))
        est_small, est_big = paired_volumes([small, big], target, self.pair_samples,
                                            seed, nesting="increasing")
        return {"small": est_small, "big": est_big}

    def check(self, x, out):
        kind, data, _ = x
        problems = []
        if kind == "triangle":
            est = out["estimate"]
            area = math.pi * (1.0 - sum(1.0 / m for m in data))
            if abs(est.value - area) > 5.0 * est.stderr:
                problems.append("conic estimate %r off Gauss-Bonnet area %r by > 5 sigma"
                                % (est.value, area))
            values = [e.value for e in out["sequence"].estimates]
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append("outer volume sequence decreases")
        else:
            small, big = out["small"], out["big"]
            if big.value > small.value + 3.0 * math.hypot(small.stderr, big.stderr):
                problems.append("bigger domain has the bigger volume")
        return problems

    def record(self, x, out):
        if x[0] == "triangle":
            est = out["estimate"]
            seq = out["sequence"]
            return {
                "conic": [sig12(est.value), sig12(est.stderr), est.outside],
                "outer": [[sig12(e.value), sig12(e.stderr), e.outside] for e in seq.estimates],
            }
        return {"pair": [[sig12(e.value), sig12(e.stderr), e.outside]
                         for e in (out["small"], out["big"])]}


# ---------------------------------------------------------------------------
# cli: the `vinberg` command as a subprocess


def _doc_scalar(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
    if x == INFINITY:
        return "inf"
    return x


def _cartan_doc(rows):
    return {"cartan_matrix": [[_doc_scalar(v) for v in row] for row in rows], "mode": "exact"}


def _coxeter_doc(orders):
    return {"coxeter_matrix": [[_doc_scalar(v) for v in row] for row in orders]}


# Defects reproduced in the ROADMAP, kept in the mix on purpose: each is
# counted as a failed item until the CLI honours its exit-code contract.
KNOWN_DEFECTS = {
    "volume-depth-0": "exits 1 with a traceback instead of 2",
    "volume-samples-0": "exits 0 and reports nan instead of exiting 2",
}


class Cli(Workload):
    """A seeded sequence of `vinberg` subcommands on generated documents,
    each a fresh interpreter (users pay start-up on every call)."""

    name = "cli"
    # (subcommand argv prefix, document kind, expected outcome)
    cycle = (
        (["validate"], "triangle", "ok"),
        (["classify"], "cartan", "ok"),
        (["faces"], "cartan4", "ok"),
        (["decide", "finite-volume"], "cartan", "decide"),
        (["tile", "--depth", "4"], "triangle", "svg"),
        (["decide", "unique-domain"], "triangle", "decide"),
        (["validate"], "broken", "input"),
        (["limit-set", "--words", "10", "--count", "100"], "triangle", "csv"),
        (["decide", "min-equals-vinberg"], "cartan4", "decide"),
        (["volume", "--depth", "3", "--samples", "3000"], "triangle", "volume"),
        (["classify"], "triangle", "ok"),
        (["decide", "finite-volume"], "spherical", "input"),
        (["faces"], "triangle", "ok"),
        (["tile", "--depth", "3"], "cartan4", "input"),
        (["volume", "--depth", "0"], "triangle", "volume-depth-0"),
        (["decide", "unique-domain"], "cartan", "decide"),
        (["validate"], "badjson", "input"),
        (["volume", "--samples", "0", "--depth", "2"], "triangle", "volume-samples-0"),
    )
    cycles = 1

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("VINBERG_MODE", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.traced = False
        self.span_path = None
        self.max_child_rss_kb = 0

    def _document(self, rng, kind):
        if kind == "triangle":
            return json.dumps(_coxeter_doc(triangle_orders_matrix(*hyperbolic_orders(rng, TRIANGLE_ORDERS))))
        if kind == "cartan":
            return json.dumps(_cartan_doc(negative_cartan(rng, 3)))
        if kind == "cartan4":
            return json.dumps(_cartan_doc(negative_cartan(rng, 4)))
        if kind == "spherical":
            return json.dumps(_coxeter_doc(triangle_orders_matrix(2, 3, rng.choice((3, 4, 5)))))
        if kind == "broken":
            a = rng.randint(1, 3)
            return json.dumps({"cartan_matrix": [[2, -a, 0], [-1, 2, -1], [-a, -1, 2]]})
        return '{"cartan_matrix": [[2, -1], [-1, 2]'  # truncated JSON

    def make(self, rng, kind, i):
        argv, doc_kind, expect = kind
        path = os.path.join(self.workdir, "doc%04d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._document(rng, doc_kind))
        return (i, list(argv), path, expect)

    def known_defect(self, x):
        return x[3] if x[3] in KNOWN_DEFECTS else None

    def near_ties(self, out):
        return out["stderr"].count(NEAR_TIE.encode())

    def peak_rss_kb(self):
        return self.max_child_rss_kb

    def command(self, x):
        i, argv, path, expect = x
        args = list(argv) + [path]
        out = None
        if argv[0] in ("tile", "limit-set"):
            out = os.path.join(self.workdir, "out%04d.%s" % (i, "svg" if argv[0] == "tile" else "csv"))
            args += ["--out", out]
        return args, out

    def run(self, x):
        args, out = self.command(x)
        if out is not None and os.path.exists(out):
            os.remove(out)
        if self.traced:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            prog = [sys.executable, child, self.span_path, "--"]
        else:
            prog = [sys.executable, "-m", "vinberg.cli"]
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(prog + args, stdout=subprocess.PIPE, stderr=err,
                                    cwd=self.root, env=self.env)
            try:
                stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        artifact = b""
        if out is not None and os.path.exists(out):
            with open(out, "rb") as fh:
                artifact = fh.read()
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
                "artifact": artifact}

    def check(self, x, out):
        expect = x[3]
        code, stdout = out["code"], out["stdout"]
        if expect in KNOWN_DEFECTS or expect == "input":
            if code != 2:
                return ["exit %d, expected 2" % code]
            if not out["stderr"].startswith(b"input error:"):
                return ["input error without an 'input error:' message"]
            return []
        if expect in ("svg", "csv"):
            if code != 0:
                return ["exit %d, expected 0" % code]
            text = out["artifact"].decode("utf-8", "replace")
            if expect == "svg" and "<svg" not in text[:200]:
                return ["tile wrote no SVG"]
            if expect == "csv":
                try:
                    rows = [[float(v) for v in line.split(",")]
                            for line in text.splitlines()[1:] if line]
                except ValueError:
                    return ["limit-set CSV does not parse"]
                if not rows or not all(math.isfinite(v) for r in rows for v in r):
                    return ["limit-set CSV is empty or not finite"]
            return []
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON (exit %d)" % code]
        if canonical_json(report) != stdout.decode("utf-8"):
            return ["stdout is not canonical JSON"]
        if expect == "decide":
            want = 0 if report["answer"] else 3
            return [] if code == want else ["exit %d for answer %r" % (code, report["answer"])]
        if code != 0:
            return ["exit %d, expected 0" % code]
        if expect == "volume":
            values = [e["value"] for e in report["estimates"]]
            if not values or not all(isinstance(v, float) and math.isfinite(v) for v in values):
                return ["volume report has non-finite values"]
        return []

    def record(self, x, out):
        return [x[1], out["code"], hashlib.sha256(out["stdout"]).hexdigest(),
                hashlib.sha256(out["artifact"]).hexdigest()]


IN_PROCESS = {w.name: w for w in (Verdicts(), Polygons(), Tilings(), Volumes())}
