"""Input-document parsing, canonical JSON output, and CSV export.

Every parse error must carry the JSON-path of the offending field, and
serialize must be a right inverse of parse so reports can be replayed.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import corpus
from vinberg.formats import (
    InputDocument,
    build,
    canonical_json,
    parse,
    parse_obj,
    serialize,
    write_csv,
)
from vinberg.scalars import APPROX, EXACT, INFINITY, InputError

# Fixed example sets keep the suite deterministic and its runtime bounded.
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# document scalars as `parse` normalizes them: "p/q" with q > 1 stays a
# Fraction, q = 1 becomes an int
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 9)).filter(
    lambda x: x.denominator > 1
)
scalars = st.one_of(
    st.integers(-10**20, 10**20),
    fractions,
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(INFINITY),
)
orders = st.one_of(st.integers(1, 12), st.just(INFINITY))


def _square(n, entries):
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


def _generators(n):
    vec = st.lists(scalars, min_size=n, max_size=n).map(tuple)
    return st.lists(st.tuples(vec, vec), min_size=1, max_size=4).map(tuple)


@st.composite
def documents(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("coxeter_matrix", "cartan_matrix", "generators")))
    if kind == "coxeter_matrix":
        payload = draw(_square(n, orders))
    elif kind == "cartan_matrix":
        payload = draw(_square(n, scalars))
    else:
        payload = draw(_generators(n))
    size = n if kind != "generators" else len(payload)
    mode = draw(st.sampled_from((None, EXACT, APPROX)))
    labels = draw(st.one_of(st.none(), st.lists(st.text(), min_size=size, max_size=size)))
    return InputDocument(kind, payload, mode, None if labels is None else tuple(labels))


@pytest.mark.parametrize("name", sorted(corpus.DOCS))
def test_round_trip_over_corpus(name):
    doc = parse_obj(corpus.DOCS[name])
    text = serialize(doc)
    assert parse(text) == doc
    P = build(doc)
    Q = corpus.build(name)
    assert P.mode == Q.mode and P.labels == Q.labels
    assert P.cartan.entries == Q.cartan.entries


@FAST
@given(documents())
def test_parse_inverts_serialize(doc):
    assert parse(serialize(doc)) == doc


def test_serialize_keeps_full_float_precision():
    doc = parse_obj({"cartan_matrix": [[2, -1.2345678901234567], [-0.1, 2]]})
    assert parse(serialize(doc)) == doc
    assert "-1.2345678901234567" in serialize(doc)


def test_generator_documents():
    obj = {
        "generators": [
            {"alpha": [1, 0, -1], "v": [2, 0, 0]},
            {"alpha": [-1, 0, -1], "v": [-2, 0, 0]},
            {"alpha": [0, 1, -1], "v": [0, 2, 0]},
            {"alpha": [0, -1, -1], "v": [0, -2, 0]},
        ],
        "mode": "exact",
    }
    doc = parse_obj(obj)
    assert doc.kind == "generators" and parse(serialize(doc)) == doc
    assert build(doc).cartan.entries == corpus.square().cartan.entries


def test_scalar_normalization():
    doc = parse_obj({"cartan_matrix": [[2, "-9/4"], ["-4/2", 2.0]]})
    row0, row1 = doc.payload
    assert row0 == (2, Fraction(-9, 4))
    assert row1[0] == -2 and isinstance(row1[0], int)
    assert isinstance(row1[1], float)
    inf_doc = parse_obj({"coxeter_matrix": [[1, "inf"], ["inf", 1]]})
    assert inf_doc.payload[0][1] is INFINITY


@pytest.mark.parametrize(
    "obj, path_tag",
    [
        ([1, 2], "$:"),
        ({}, "exactly one of"),
        ({"coxeter_matrix": [[1]], "cartan_matrix": [[2]]}, "exactly one of"),
        ({"cartan_matrix": [[2]], "extra": 1}, "unknown fields ['extra']"),
        ({"cartan_matrix": [[2]], "mode": "fast"}, "$.mode:"),
        ({"cartan_matrix": [[2, True], [0, 2]]}, "$.cartan_matrix[0][1]:"),
        ({"cartan_matrix": [[2, 0], [0]]}, "$.cartan_matrix[1]:"),
        ({"cartan_matrix": [[2, 0]]}, "square matrix, got 1x2"),
        ({"cartan_matrix": [[2, "1/0"], [0, 2]]}, "$.cartan_matrix[0][1]:"),
        ({"coxeter_matrix": [[1, 2.5], [2.5, 1]]}, "positive integers or 'inf'"),
        ({"coxeter_matrix": [[1, 0], [0, 1]]}, "positive integers or 'inf'"),
        ({"cartan_matrix": [[2]], "labels": ["a", "b"]}, "$.labels:"),
        ({"cartan_matrix": [[2]], "labels": [7]}, "$.labels:"),
        ({"generators": "nope"}, "$.generators:"),
        ({"generators": [{"alpha": [1, 0]}]}, "'alpha' and 'v'"),
        ({"generators": [{"alpha": [1, 0], "v": [1]}]}, "different lengths"),
        ({"generators": [{"alpha": 3, "v": [1]}]}, "must be lists"),
    ],
)
def test_parse_errors_name_the_path(obj, path_tag):
    with pytest.raises(InputError) as exc:
        parse_obj(obj)
    assert path_tag in str(exc.value)


def test_parse_reports_json_position():
    with pytest.raises(InputError, match=r"invalid JSON at line 2 column"):
        parse('{"cartan_matrix":\n[[2,],]}')


def test_build_mode_override():
    doc = parse_obj({"cartan_matrix": [[2, -1], [-1, 2]]})
    assert build(doc).mode == "exact"
    assert build(doc, mode="approx").mode == "approx"
    seven = parse_obj({"coxeter_matrix": [[1, 7], [7, 1]]})
    assert build(seven).mode == "approx"  # cos(pi/7) entries
    with pytest.raises(InputError):
        build(seven, mode="exact")


def test_canonical_json_formatting():
    text = canonical_json(
        {
            "b": 0.1 + 0.2,
            "a": [Fraction(1, 3), Fraction(4, 2), float("inf"), -0.0, True, None],
            "nested": {"z": math.pi, "y": (1, 2)},
        }
    )
    assert text == (
        '{\n'
        '  "a": [\n'
        '    "1/3",\n'
        '    2,\n'
        '    "inf",\n'
        '    0.0,\n'
        '    true,\n'
        '    null\n'
        '  ],\n'
        '  "b": 0.3,\n'
        '  "nested": {\n'
        '    "y": [\n'
        '      1,\n'
        '      2\n'
        '    ],\n'
        '    "z": 3.14159265359\n'
        '  }\n'
        '}\n'
    )
    assert canonical_json({"x": INFINITY}) == '{\n  "x": "inf"\n}\n'
    # identical payloads give identical bytes regardless of key order
    assert canonical_json({"p": 1, "q": 2}) == canonical_json({"q": 2, "p": 1})


def test_write_csv():
    assert write_csv([]) == "x,y\n"
    assert write_csv([(1, 2), (3, 4.5)]) == "x,y\n1,2\n3,4.5\n"
    assert write_csv([(1, 2, 3)]).startswith("x,y,z\n")
    assert write_csv([(1, 2, 3, 4)]).startswith("c0,c1,c2,c3\n")
