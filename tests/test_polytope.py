"""Polytope construction, the face lattice, links, joins, and perfection."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import oracles
from vinberg.cartan import NEGATIVE, POSITIVE, ZERO, restrict
from vinberg.cli import run_command
from vinberg.polytope import (
    EmptyInteriorError,
    NotReducedError,
    PolytopeError,
    bigger_face,
    build_polytope,
    classify_face,
    decompose,
    defines_face,
    enumerate_faces,
    is_2perfect,
    is_perfect,
    is_quasiperfect,
    join,
    link,
    tits_polytope,
)
from vinberg.scalars import InputError


def test_build_rejects_bad_normalization():
    with pytest.raises(PolytopeError) as err:
        build_polytope([((1, 0), (1, 0)), ((0, 1), (0, 2))])
    assert "!= 2 at facet 0" in str(err.value)


def test_build_rejects_nonspanning_covectors():
    pairs = [((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (0, 2, 0))]
    with pytest.raises(NotReducedError):
        build_polytope(pairs)


def test_build_rejects_empty_interior():
    pairs = [
        ((1, 0), (2, 0)),
        ((-1, 0), (-2, 0)),
        ((0, 1), (0, 2)),
        ((0, -1), (0, -2)),
    ]
    with pytest.raises(EmptyInteriorError):
        build_polytope(pairs)


def test_tits_polytope_shape():
    P = corpus.build("t6")
    assert P.alphas == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    # polars are the Cartan columns
    for t in range(3):
        assert tuple(P.polars[t]) == tuple(P.cartan.entries[s][t] for s in range(3))
    assert all(a < 0 for a in P.interior)


def test_defines_face_conventions():
    P = corpus.build("t6")
    whole = defines_face(P, ())
    assert whole.dim == P.dim and whole.witness == P.interior
    empty = defines_face(P, (0, 1, 2))
    assert empty.dim == -1 and empty.witness is None
    vertex = defines_face(P, (1, 2))
    assert vertex.dim == 0
    assert vertex.witness[1] == 0 and vertex.witness[2] == 0
    assert vertex.witness[0] < 0
    assert vertex.link_type.overall == NEGATIVE
    with pytest.raises(InputError):
        defines_face(P, (7,))


def test_square_face_lattice():
    P = corpus.square()
    faces = enumerate_faces(P)
    subsets = [f.subset for f in faces]
    assert subsets == [
        (),
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
    ]
    dims = {f.subset: f.dim for f in faces}
    assert dims[()] == 2
    assert all(dims[(s,)] == 1 for s in range(4))
    assert all(dims[v] == 0 for v in [(0, 2), (0, 3), (1, 2), (1, 3)])
    # The two parallel-wall pairs define no face.
    assert defines_face(P, (0, 1)) is None
    assert defines_face(P, (2, 3)) is None


def test_enumeration_matches_independent_lp():
    for P in (corpus.square(), corpus.build("t6"), corpus.build("r4a")):
        got = [f.subset for f in enumerate_faces(P) if f.dim >= 0]
        want = oracles.brute_face_subsets(P)
        assert got == want


def test_enumeration_has_no_facet_cap(tmp_path, capsys):
    # no fixed cap on the facet count: a 17-gon has 17 edges, 17 vertices
    # and the interior, and the command line decides on it too
    pairs = corpus.right_angled_polygon_pairs(17)
    assert len(enumerate_faces(build_polytope(pairs, mode="approx"))) == 2 * 17 + 1
    doc = {"generators": [{"alpha": a, "v": v} for a, v in pairs], "mode": "approx"}
    path = tmp_path / "gon17.json"
    path.write_text(json.dumps(doc))
    assert run_command(["decide", "finite-volume", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] is True


def test_classify_face_trichotomy():
    sq = corpus.square()
    corner = classify_face(sq, (0, 2))
    assert corner.tag == POSITIVE
    assert corner.parabolic is None and corner.loxodromic is None

    cusp = classify_face(corpus.build("t23inf"), (1, 2))
    assert cusp.tag == ZERO and cusp.parabolic is True
    assert cusp.link_dim == 1 and cusp.cartan_rank == 1

    lox = classify_face(corpus.build("t6"), (1, 2))
    assert lox.tag == NEGATIVE and lox.loxodromic is True
    assert lox.cartan_rank == 2


def test_link_restricts_cartan():
    P = corpus.build("t6")
    L = link(P, (1, 2))
    assert L.n == 2
    assert L.cartan.entries == restrict(P.cartan, (1, 2)).entries
    assert L.dim == P.dim - 1
    Q = corpus.build("t237")  # approx mode: the link basis comes from pivoted QR
    L = link(Q, (1, 2))
    assert L.mode == "approx" and L.n == 2 and L.dim == Q.dim - 1
    assert L.cartan.entries == restrict(Q.cartan, (1, 2)).entries
    with pytest.raises(PolytopeError):
        link(corpus.square(), (0, 1))


def test_bigger_face_on_orthogonal_pieces():
    P = corpus.build("join_inf_seg")
    # T1 = one triangle wall, T2 = the segment pair (negative type).
    faces = bigger_face(P, (0,), (3, 4))
    subsets = [f.subset for f in faces]
    assert subsets == [(0,), (0,), (0, 3, 4)]
    with pytest.raises(InputError):
        bigger_face(P, (0,), (0, 4))
    with pytest.raises(InputError):
        bigger_face(P, (0,), (1, 2))  # same factor: not orthogonal


def test_join_and_decompose_round_trip():
    P = corpus.build("join_inf_seg")
    split = decompose(P)
    assert split is not None and len(split.factors) == 2
    left, right = split.factors
    assert left.cartan.entries == corpus.build("tinf").cartan.entries
    assert right.cartan.entries == corpus.build("seg").cartan.entries
    assert split.blocks == ((0, 1, 2), (3, 4))
    assert decompose(corpus.build("t237")) is None


def test_join_rejects_mixed_modes():
    with pytest.raises(InputError):
        join(corpus.build("t237"), corpus.build("seg"))


def test_perfection_hierarchy():
    ok, offenders = is_perfect(corpus.build("t237"))
    assert ok and offenders == ()
    # The free-product triangle has parabolic vertices: quasiperfect only.
    ok, _ = is_perfect(corpus.build("tinf"))
    assert not ok
    ok, offenders = is_quasiperfect(corpus.build("tinf"))
    assert ok and offenders == ()
    # Product-6 corner: the vertex link is a perfect segment, so the polytope
    # is 2-perfect but not quasiperfect, which is what separates the notions.
    ok, offenders = is_quasiperfect(corpus.build("t6"))
    assert not ok and offenders[0].subset == (1, 2)
    ok, _ = is_2perfect(corpus.build("t6"))
    assert ok


def test_corpus_face_dims_against_rank():
    # Face dimension = polytope dimension minus the rank of the active walls.
    for name in ("t45", "r4b", "join_inf_inf"):
        P = corpus.build(name)
        for face in enumerate_faces(P):
            if not face.subset:
                continue
            r = P.field.rank([P.alphas[s] for s in face.subset])
            assert face.dim == P.dim - r
