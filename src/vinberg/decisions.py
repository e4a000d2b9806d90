"""Decision procedures with certificates and independent cross-checks.

Each question that admits two independent characterisations is answered by
computing both and insisting they agree: the equivalence is a theorem, so a
disagreement can only expose an arithmetic or logic bug here, never new
mathematics.  Verdicts carry certificates (an offending face, a factor
list, a rank report) so a "No" can be audited without rerunning the scan.

Numerical volume probes never override these symbolic verdicts; they can be
attached afterwards as advisory evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import NEGATIVE, irreducible_components
from .coxeter import LARGE, classify_group, coxeter_from_cartan
from .polytope import (
    CoxeterPolytope,
    classify_face,
    decompose,
    enumerate_faces,
    is_quasiperfect,
)
from .scalars import InputError


class NotNegativeType(InputError):
    """The question is only posed for negative-type facet systems."""


class RouteDisagreement(RuntimeError):
    """Two provably equivalent computations returned different answers."""


@dataclass(frozen=True)
class RouteRecord:
    """One independent computation of an answer, with its certificate."""

    name: str
    answer: bool
    certificate: dict


@dataclass(frozen=True)
class Verdict:
    question: str
    answer: bool
    certificate: dict
    routes: tuple


def _require_negative(P: CoxeterPolytope):
    if P.type_tag.overall != NEGATIVE:
        raise NotNegativeType(
            "question needs a negative-type system; this one is %s" % P.type_tag.overall
        )


def _subset_labels(P: CoxeterPolytope, subset):
    if subset is None:
        return None
    return tuple(P.labels[s] for s in subset)


def _first_offender(P: CoxeterPolytope, offenders):
    """Labels of the first offending vertex, or None."""
    if not offenders:
        return None
    return _subset_labels(P, offenders[0].subset)


def decide_finite_volume(P: CoxeterPolytope) -> Verdict:
    """Does the polytope have finite volume inside its invariant domain?

    Route A scans the vertices: every one must be elliptic or parabolic.
    Route B scans all proper faces for one whose restricted system is of
    negative type.  The two scans answer the same question and must agree.
    """

    _require_negative(P)
    ok_a, offenders = is_quasiperfect(P)
    cert_a = {"offending_vertex": _first_offender(P, offenders)}

    negative_face = None
    for face in enumerate_faces(P):
        if not face.subset or face.dim < 0:
            continue
        if classify_face(P, face.subset).tag == NEGATIVE:
            negative_face = face.subset
            break
    ok_b = negative_face is None
    cert_b = {"negative_face": _subset_labels(P, negative_face)}

    if ok_a != ok_b:
        raise RouteDisagreement(
            "finite-volume routes disagree: vertex scan says %s "
            "(offender %r), face scan says %s (offender %r)"
            % (ok_a, cert_a["offending_vertex"], ok_b, negative_face)
        )
    certificate = {} if ok_a else {**cert_a, **cert_b}
    return Verdict(
        question="finite_volume",
        answer=ok_a,
        certificate=certificate,
        routes=(
            RouteRecord("vertex_scan", ok_a, cert_a),
            RouteRecord("negative_face_scan", ok_b, cert_b),
        ),
    )


def decide_unique_domain(P: CoxeterPolytope) -> Verdict:
    """Is the invariant properly convex domain unique?

    Yes exactly when every vertex is elliptic or parabolic and there are at
    least three facets.  A Yes is cross-checked against the structural facts
    it implies (irreducible system of full rank); their failure is a bug.
    """

    _require_negative(P)
    qp, offenders = is_quasiperfect(P)
    answer = qp and P.n >= 3
    certificate = {
        "quasiperfect": qp,
        "facet_count": P.n,
        "offending_vertex": _first_offender(P, offenders),
    }
    if answer:
        components = irreducible_components(P.cartan)
        rank = P.field.rank(P.cartan.entries)
        if len(components) != 1 or rank != P.dim + 1:
            raise RouteDisagreement(
                "a unique-domain Yes forces an irreducible full-rank system, "
                "but components=%d rank=%d dim+1=%d"
                % (len(components), rank, P.dim + 1)
            )
        certificate.update({"irreducible": True, "cartan_rank": rank})
    return Verdict(
        question="unique_domain",
        answer=answer,
        certificate=certificate,
        routes=(RouteRecord("vertex_scan_and_cardinality", answer, certificate),),
    )


def decide_min_domain_equals_vinberg(P: CoxeterPolytope) -> Verdict:
    """Is the invariant domain the hull of the limit set?

    Equivalent to: every indecomposable join factor is quasiperfect of
    negative type.  The certificate lists the factors with their verdicts.
    """

    _require_negative(P)
    split = decompose(P)
    if split is None:
        factors, blocks = (P,), (tuple(range(P.n)),)
    else:
        factors, blocks = split.factors, split.blocks
    reports = []
    answer = True
    for factor, block in zip(factors, blocks):
        negative = factor.type_tag.overall == NEGATIVE
        qp, offenders = is_quasiperfect(factor)
        ok = negative and qp
        answer = answer and ok
        reports.append(
            {
                "facets": _subset_labels(P, block),
                "negative": negative,
                "quasiperfect": qp,
                "offending_vertex": _first_offender(factor, offenders),
                "ok": ok,
            }
        )
    certificate = {"factors": tuple(reports)}
    return Verdict(
        question="min_domain_equals_vinberg",
        answer=answer,
        certificate=certificate,
        routes=(RouteRecord("factor_scan", answer, certificate),),
    )


def decide_limit_set_fills_boundary_necessary(P: CoxeterPolytope) -> Verdict:
    """Necessary condition for the limit set to fill the whole boundary.

    If the limit set equals the boundary of the invariant domain then the
    group is large and the polytope quasiperfect.  Only that necessary
    condition is decidable here; the hypothesis itself is not checked.
    """

    _require_negative(P)
    group = classify_group(coxeter_from_cartan(P.cartan), eps=P.eps)
    qp, offenders = is_quasiperfect(P)
    large = group.overall == LARGE
    answer = large and qp
    certificate = {
        "group_class": group.overall,
        "quasiperfect": qp,
        "offending_vertex": _first_offender(P, offenders),
    }
    return Verdict(
        question="limit_set_fills_boundary_necessary",
        answer=answer,
        certificate=certificate,
        routes=(RouteRecord("group_class_and_vertex_scan", answer, certificate),),
    )


def volume_evidence(P: CoxeterPolytope, depths=(4, 6, 8, 10), samples=50000,
                    seed=0, angular=128):
    """Advisory numerical probe to attach alongside a symbolic verdict.

    Runs the outer volume sequence: for a finite-volume polytope the
    increments shrink as the cut domain closes in, for an infinite one they
    keep their size (linear growth).  Reported as evidence only."""

    from .hilbert import volume_sequence

    seq = volume_sequence(
        P, depths=depths, samples=samples, seed=seed, side="outer", angular=angular
    )
    values = [e.value for e in seq.estimates]
    increments = [b - a for a, b in zip(values, values[1:])]
    ratio = (
        increments[-1] / increments[0]
        if increments and increments[0] > 0
        else float("nan")
    )
    return {
        "side": seq.side,
        "depths": tuple(seq.depths),
        "estimates": tuple(values),
        "stderrs": tuple(e.stderr for e in seq.estimates),
        "increment_ratio": ratio,
    }
