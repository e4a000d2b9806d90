"""Command-line interface: validate, classify, faces, decide, volume, tile,
limit-set.

Exit codes: 0 for success (and mathematical Yes), 3 for a mathematical No,
2 for any input or validation error, 1 for an internal invariant failure
(two routes disagree, a certificate fails to check, the LP pivot cap).
All reports are canonical JSON so identical runs produce identical bytes;
artifacts (SVG, CSV) are deterministic for the same reason.

`hilbert`, `limits` and `svg` load numpy, so `volume`, `tile` and
`limit-set` import them only after their argument and document checks: the
other commands on exact documents, and every input error, never load numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import asdict

from .cartan import irreducible_components
from .coxeter import classify_group, coxeter_from_cartan
from .decisions import (
    RouteDisagreement,
    decide_finite_volume,
    decide_min_domain_equals_vinberg,
    decide_unique_domain,
)
from .formats import build, canonical_json, parse, write_csv
from .linprog import LPError
from .orbits import domain_approx, representation_report
from .polytope import classify_face, enumerate_faces
from .scalars import APPROX, EXACT, InputError, default_mode

EXIT_YES = 0
EXIT_INTERNAL = 1
EXIT_NO = 3
EXIT_INPUT = 2

_INTERNAL_ERRORS = (RouteDisagreement, ArithmeticError, LPError)


def _tag_report(tag):
    return {
        "overall": tag.overall,
        "blocks": [
            {"facets": list(b.indices), "type": b.tag, "lambda": b.lam}
            for b in tag.blocks
        ],
        "warnings": list(tag.warnings),
    }


def _at_least(value, low, flag):
    if value < low:
        raise InputError("%s must be at least %d, got %d" % (flag, low, value))
    return value


def _load(args):
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise InputError("--eps must be a finite nonnegative number, got %r" % args.eps)
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = parse(fh.read())
    return build(doc, mode=args.mode or default_mode(), eps=args.eps)


def _emit(report, out_path=None):
    text = canonical_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    P = _load(args)
    tag = P.type_tag
    report = {
        "valid": True,
        "mode": P.mode,
        "facets": list(P.labels),
        "dimension": P.dim,
        "type": _tag_report(tag),
        "orders": [list(row) for row in coxeter_from_cartan(P.cartan).orders],
    }
    _emit(report, getattr(args, "out", None))
    return EXIT_YES


def _cmd_classify(args):
    P = _load(args)
    tag = P.type_tag
    group = classify_group(coxeter_from_cartan(P.cartan), eps=P.eps)
    rep = representation_report(P)
    report = {
        "mode": P.mode,
        "type": _tag_report(tag),
        "group_class": {
            "overall": group.overall,
            "components": [
                {"facets": list(block), "class": c} for block, c in group.components
            ],
        },
        "irreducible_components": [
            list(c) for c in irreducible_components(P.cartan)
        ],
        "representation": asdict(rep),
    }
    _emit(report, getattr(args, "out", None))
    return EXIT_YES


def _cmd_faces(args):
    P = _load(args)
    rows = []
    for face in enumerate_faces(P):
        entry = {
            "facets": [P.labels[s] for s in face.subset],
            "dim": face.dim,
        }
        if face.subset:
            fc = classify_face(P, face.subset)
            entry.update(
                {
                    "type": fc.tag,
                    "parabolic": fc.parabolic,
                    "loxodromic": fc.loxodromic,
                }
            )
        else:
            entry.update({"type": None, "parabolic": None, "loxodromic": None})
        rows.append(entry)
    _emit({"faces": rows}, getattr(args, "out", None))
    return EXIT_YES


_QUESTIONS = {
    "finite-volume": decide_finite_volume,
    "unique-domain": decide_unique_domain,
    "min-equals-vinberg": decide_min_domain_equals_vinberg,
}


def _cmd_decide(args):
    P = _load(args)
    verdict = _QUESTIONS[args.question](P)
    report = {
        "question": verdict.question,
        "answer": verdict.answer,
        "certificate": verdict.certificate,
        "routes": [
            {"name": r.name, "answer": r.answer, "certificate": r.certificate}
            for r in verdict.routes
        ],
    }
    _emit(report, getattr(args, "out", None))
    return EXIT_YES if verdict.answer else EXIT_NO


def _cmd_volume(args):
    depth = _at_least(args.depth, 1, "--depth")
    samples = _at_least(args.samples, 1, "--samples")
    P = _load(args)
    from .hilbert import volume_sequence

    seq = volume_sequence(
        P,
        depths=tuple(range(1, depth + 1)),
        samples=samples,
        seed=args.seed,
        side=args.side,
    )
    report = {
        "side": seq.side,
        "depths": list(seq.depths),
        "estimates": [
            {
                "depth": e.depth,
                "value": e.value,
                "stderr": e.stderr,
                "samples": e.samples,
                "seed": e.seed,
                "outside": e.outside,
            }
            for e in seq.estimates
        ],
        "pairwise_diffs": list(seq.diffs),
        "pairwise_diff_stderrs": list(seq.diff_stderrs),
    }
    _emit(report, args.out)
    return EXIT_YES


def _cmd_tile(args):
    depth = _at_least(args.depth, 0, "--depth")
    P = _load(args)
    if P.dim != 2:
        raise InputError("tiling pictures are drawn for 2-dimensional polytopes only")
    from .hilbert import witness_chart
    from .svg import conic_loop, render_tiling_svg

    dom = domain_approx(P, depth)
    chart = witness_chart(P)
    conic = conic_loop(P, chart)
    text = render_tiling_svg(dom, chart, conic_points=conic)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_YES


def _cmd_limit_set(args):
    count = _at_least(args.count, 1, "--count")
    words = _at_least(args.words, 2, "--words")  # no single reflection is proximal
    P = _load(args)
    from .hilbert import GeometryError, witness_chart
    from .limits import hull_of_limit_set, sample_limit_set
    from .svg import conic_loop, render_points_svg

    # near-tie warnings become plain lines, like the sample's own notes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = sample_limit_set(P, word_length=words, count=count, seed=args.seed)
    raised = dict.fromkeys(str(w.message) for w in caught)
    for note in [*raised, *sample.warnings]:
        sys.stderr.write(note + "\n")
    chart = witness_chart(P)
    coords = chart.to_chart(sample.points) if sample.points else []
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_csv(coords))
    if args.svg:
        outline = None
        try:
            hull = hull_of_limit_set(sample, chart)
            outline = list(hull.vertices)
        except GeometryError:
            outline = None
        text = render_points_svg(
            coords, conic_points=conic_loop(P, chart), outline=outline
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="input document (JSON)")
    common.add_argument(
        "--mode",
        choices=(EXACT, APPROX),
        default=None,
        help="arithmetic mode (default: document/auto; env VINBERG_MODE)",
    )
    common.add_argument("--eps", type=float, default=1e-9, help="numeric tolerance")

    parser = argparse.ArgumentParser(
        prog="vinberg",
        description="Coxeter polytopes: validation, faces, decisions, volumes, "
        "tilings, limit sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="Cartan validation report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "classify", parents=[common], help="type, group class, representation"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("faces", parents=[common], help="full face table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("decide", help="answer a decision question with certificates")
    qsub = p.add_subparsers(dest="question", required=True)
    for q in _QUESTIONS:
        pq = qsub.add_parser(q, parents=[common])
        pq.add_argument("--out", default=None)
        pq.set_defaults(func=_cmd_decide, question=q)

    p = sub.add_parser("volume", parents=[common], help="volume estimates by depth")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", choices=("inner", "outer"), default="inner")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("tile", parents=[common], help="orbit tiling as SVG")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser(
        "limit-set", parents=[common], help="sample the limit set to CSV"
    )
    p.add_argument("--words", type=int, default=12)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_limit_set)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except _INTERNAL_ERRORS as exc:
        sys.stderr.write("internal error: %s\n" % " ".join(str(exc).split()))
        return EXIT_INTERNAL


def main(argv=None) -> None:
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
