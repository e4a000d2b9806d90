"""Input documents, canonical JSON reports, and point-cloud export.

One JSON object describes a polytope in exactly one of three ways: a
Coxeter matrix of orders, a Cartan matrix, or explicit (covector, polar)
generator pairs.  Integers and "p/q" strings parse as exact rationals,
decimals as floats, "inf" as the infinite order/product marker.

Reports are emitted through `canonical_json`, which sorts keys and rounds
floats to 12 significant digits so identical runs produce identical bytes.
Input documents are written back by `serialize`, which keeps every float at
full (shortest round-trip) precision so that parsing returns the document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cartan import validate_cartan
from .coxeter import coxeter_matrix, gram_matrix
from .polytope import build_polytope, tits_polytope
from .scalars import APPROX, EXACT, INFINITY, InputError, parse_scalar

KINDS = ("coxeter_matrix", "cartan_matrix", "generators")


@dataclass(frozen=True)
class InputDocument:
    kind: str
    payload: tuple
    mode: str | None
    labels: tuple | None


def _err(path, message):
    return InputError("%s: %s" % (path, message))


def _scalar(value, path):
    """Normalize one document scalar: int, Fraction (proper), float, or inf."""
    if isinstance(value, bool):
        raise _err(path, "expected a number, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            parsed = parse_scalar(value)
        except (InputError, ValueError) as exc:
            raise _err(path, str(exc))
        if parsed is INFINITY:
            return INFINITY
        if isinstance(parsed, Fraction) and parsed.denominator == 1:
            return int(parsed)
        return parsed
    raise _err(path, "expected a number or 'p/q' string, got %r" % (value,))


def _matrix(rows, path, square=True):
    if not isinstance(rows, list) or not rows:
        raise _err(path, "expected a non-empty list of rows")
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _err("%s[%d]" % (path, i), "expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _err("%s[%d]" % (path, i), "ragged row (expected %d entries)" % width)
        out.append(
            tuple(_scalar(x, "%s[%d][%d]" % (path, i, j)) for j, x in enumerate(row))
        )
    if square and width != len(out):
        raise _err(path, "expected a square matrix, got %dx%d" % (len(out), width))
    return tuple(out)


def parse_obj(obj) -> InputDocument:
    """Validate a decoded JSON object as an input document."""
    if not isinstance(obj, dict):
        raise _err("$", "expected a JSON object")
    present = [k for k in KINDS if k in obj]
    if len(present) != 1:
        raise _err(
            "$",
            "exactly one of %s must be present, found %r" % ("/".join(KINDS), present),
        )
    kind = present[0]
    extra = set(obj) - {kind, "mode", "labels"}
    if extra:
        raise _err("$", "unknown fields %s" % sorted(extra))

    mode = obj.get("mode")
    if mode is not None and mode not in (EXACT, APPROX):
        raise _err("$.mode", "expected %r or %r, got %r" % (EXACT, APPROX, mode))

    if kind == "generators":
        gens = obj[kind]
        if not isinstance(gens, list) or not gens:
            raise _err("$.generators", "expected a non-empty list")
        payload = []
        for i, g in enumerate(gens):
            path = "$.generators[%d]" % i
            if not isinstance(g, dict) or set(g) != {"alpha", "v"}:
                raise _err(path, "expected an object with fields 'alpha' and 'v'")
            alpha = g["alpha"]
            polar = g["v"]
            if not isinstance(alpha, list) or not isinstance(polar, list):
                raise _err(path, "'alpha' and 'v' must be lists of numbers")
            if len(alpha) != len(polar):
                raise _err(path, "'alpha' and 'v' have different lengths")
            payload.append(
                (
                    tuple(_scalar(x, path + ".alpha[%d]" % j) for j, x in enumerate(alpha)),
                    tuple(_scalar(x, path + ".v[%d]" % j) for j, x in enumerate(polar)),
                )
            )
        payload = tuple(payload)
        size = len(payload)
    elif kind == "coxeter_matrix":
        payload = _matrix(obj[kind], "$.coxeter_matrix")
        for i, row in enumerate(payload):
            for j, x in enumerate(row):
                if x is not INFINITY and (not isinstance(x, int) or x < 1):
                    raise _err(
                        "$.coxeter_matrix[%d][%d]" % (i, j),
                        "orders are positive integers or 'inf', got %r" % (x,),
                    )
        size = len(payload)
    else:
        payload = _matrix(obj[kind], "$.cartan_matrix")
        size = len(payload)

    labels = obj.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != size
            or not all(isinstance(x, str) for x in labels)
        ):
            raise _err("$.labels", "expected a list of %d strings" % size)
        labels = tuple(labels)
    return InputDocument(kind=kind, payload=payload, mode=mode, labels=labels)


def parse(text: str) -> InputDocument:
    """Parse a JSON document into a validated InputDocument."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    return parse_obj(obj)


def _plain(value):
    """Map a document scalar back to its JSON form."""
    if value is INFINITY:
        return "inf"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return "%d/%d" % (value.numerator, value.denominator)
    return value


def serialize(doc: InputDocument) -> str:
    """Canonical JSON for an input document (parse . serialize = identity)."""
    obj = {}
    if doc.kind == "generators":
        obj["generators"] = [
            {"alpha": [_plain(x) for x in a], "v": [_plain(x) for x in v]}
            for a, v in doc.payload
        ]
    else:
        obj[doc.kind] = [[_plain(x) for x in row] for row in doc.payload]
    if doc.mode is not None:
        obj["mode"] = doc.mode
    if doc.labels is not None:
        obj["labels"] = list(doc.labels)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build(doc: InputDocument, mode=None, eps=1e-9):
    """Construct the polytope a document describes.

    Coxeter matrices go through the cosine Gram recipe, Cartan matrices
    through the dual-basis construction, generator pairs through the general
    builder.  `mode` overrides the document's own mode field."""
    mode = mode or doc.mode
    if doc.kind == "coxeter_matrix":
        M = coxeter_matrix([list(row) for row in doc.payload], labels=doc.labels)
        A = gram_matrix(M, eps=eps)
        if mode is not None and mode != A.mode:
            A = validate_cartan(A.entries, labels=A.labels, mode=mode, eps=eps)
        return tits_polytope(A)
    if doc.kind == "cartan_matrix":
        A = validate_cartan(
            [list(row) for row in doc.payload], labels=doc.labels, mode=mode, eps=eps
        )
        return tits_polytope(A)
    return build_polytope(
        [(list(a), list(v)) for a, v in doc.payload],
        labels=doc.labels,
        mode=mode,
        eps=eps,
    )


def _round12(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    r = float("%.12g" % x)
    return 0.0 if r == 0.0 else r  # normalize -0.0


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if value is INFINITY:
        return "inf"
    if isinstance(value, Fraction):
        return _plain(value)
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, int) or isinstance(value, str):
        return value
    return str(value)


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 12-significant-digit floats."""
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def write_csv(points) -> str:
    """Point cloud as CSV with header x,y[,z]."""
    if not len(points):
        return "x,y\n"
    width = len(points[0])
    header = ",".join("xyz"[:width] if width <= 3 else
                      ["c%d" % i for i in range(width)])
    lines = [header]
    for p in points:
        lines.append(",".join("%.12g" % float(x) for x in p))
    return "\n".join(lines) + "\n"
