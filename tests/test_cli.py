"""End-to-end command-line behavior: reports, artifacts, exit codes.

Exit code contract: 0 = success / mathematical Yes, 3 = mathematical No,
2 = any input or validation problem.  Reports and artifacts must be
byte-identical across reruns with the same arguments.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
import vinberg
from vinberg import cli, decisions
from vinberg.cli import run_command
from vinberg.limits import sample_limit_set


def _doc(tmp_path, name):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(corpus.DOCS[name]))
    return str(path)


def _write(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


def _svg_metadata(text):
    return json.loads(re.search(r"<metadata>(.*?)</metadata>", text, re.S).group(1))


def test_validate_report(tmp_path, capsys):
    assert run_command(["validate", _doc(tmp_path, "t237")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True and report["mode"] == "approx"
    assert report["dimension"] == 2 and report["facets"] == ["s1", "s2", "s3"]
    assert report["type"]["overall"] == "negative"
    assert report["orders"] == [[1, 2, 3], [2, 1, 7], [3, 7, 1]]


def test_validate_rejects_bad_cartan(tmp_path, capsys):
    bad = _write(tmp_path, {"cartan_matrix": [[2, -1], [0, 2]]})  # broken zero symmetry
    assert run_command(["validate", bad]) == 2
    assert "input error:" in capsys.readouterr().err


def test_validate_float_document_at_eps_zero(tmp_path, capsys):
    args = ["validate", "--mode", "approx", "--eps", "0", _doc(tmp_path, "t6")]
    assert run_command(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True and report["mode"] == "approx"


def test_decide_exit_codes(tmp_path, capsys):
    assert run_command(["decide", "finite-volume", _doc(tmp_path, "t237")]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] is True

    assert run_command(["decide", "finite-volume", _doc(tmp_path, "t6")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["answer"] is False
    assert report["certificate"]["negative_face"] == ["s2", "s3"]
    assert [r["name"] for r in report["routes"]] == [
        "vertex_scan",
        "negative_face_scan",
    ]

    positive = _write(tmp_path, {"cartan_matrix": [[2, -1], [-1, 2]]})
    assert run_command(["decide", "finite-volume", positive]) == 2
    assert "negative-type" in capsys.readouterr().err


def test_decide_all_questions(tmp_path, capsys):
    f = _doc(tmp_path, "t237")
    for question in ("finite-volume", "unique-domain", "min-equals-vinberg"):
        assert run_command(["decide", question, f]) == 0
        capsys.readouterr()


def test_reports_are_byte_identical(tmp_path):
    f = _doc(tmp_path, "t237")
    outs = []
    for k in (1, 2):
        out = tmp_path / ("report%d.json" % k)
        assert run_command(["decide", "finite-volume", f, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_volume_report(tmp_path, capsys):
    f = _doc(tmp_path, "t237")
    args = ["volume", f, "--depth", "3", "--samples", "5000", "--seed", "1"]
    assert run_command(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["side"] == "inner" and report["depths"] == [1, 2, 3]
    for entry, depth in zip(report["estimates"], (1, 2, 3)):
        assert entry["depth"] == depth and entry["seed"] == 1
        assert entry["value"] > 0 and entry["stderr"] > 0
        assert entry["samples"] >= 5000
        # inner hulls of tile rays lie inside the domain: no sample is lost
        assert entry["outside"] == 0
    assert len(report["pairwise_diffs"]) == 2
    # deterministic rerun
    assert run_command(args) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_tile_artifact(tmp_path):
    f = _doc(tmp_path, "t237")
    out = tmp_path / "tiling.svg"
    assert run_command(["tile", f, "--depth", "4", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert _svg_metadata(text) == {
        "kind": "tiling",
        "depth": 4,
        "tile_counts": [1, 3, 5, 7, 9],
    }
    again = tmp_path / "tiling2.svg"
    assert run_command(["tile", f, "--depth", "4", "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_tile_depth_zero_is_single_tile(tmp_path):
    f = _doc(tmp_path, "t237")
    out = tmp_path / "seed.svg"
    assert run_command(["tile", f, "--depth", "0", "--out", str(out)]) == 0
    assert _svg_metadata(out.read_text())["tile_counts"] == [1]


def test_tile_rejects_non_planar(tmp_path, capsys):
    f = _doc(tmp_path, "r4a")
    out = tmp_path / "nope.svg"
    assert run_command(["tile", f, "--depth", "2", "--out", str(out)]) == 2
    assert "2-dimensional" in capsys.readouterr().err
    assert not out.exists()


def test_limit_set_csv_and_svg(tmp_path):
    f = _doc(tmp_path, "t237")
    csv_path = tmp_path / "points.csv"
    svg_path = tmp_path / "points.svg"
    args = [
        "limit-set", f, "--words", "8", "--count", "100", "--seed", "1",
        "--out", str(csv_path), "--svg", str(svg_path),
    ]
    assert run_command(args) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "x,y"
    expected = len(sample_limit_set(corpus.build("t237"),
                                    word_length=8, count=100, seed=1).points)
    assert len(lines) - 1 == expected
    svg = svg_path.read_text()
    assert _svg_metadata(svg) == {"kind": "points", "count": expected}
    assert svg.count("<circle") == expected and 'class="outline"' in svg


def test_limit_set_near_ties_are_plain_lines(tmp_path, capsys):
    # the (2, 3, inf) triangle has words with spectral gaps inside the margin
    f = _doc(tmp_path, "t23inf")
    args = ["limit-set", f, "--words", "8", "--count", "100", "--seed", "0",
            "--out", str(tmp_path / "points.csv")]
    assert run_command(args) == 0
    err = capsys.readouterr().err
    assert err.startswith("spectral gap ")
    assert all(line.startswith("spectral gap ") for line in err.splitlines())
    assert "UserWarning" not in err and ".py:" not in err


def test_route_disagreement_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a vertex scan that finds nothing contradicts the negative face of t6
    monkeypatch.setattr(decisions, "is_quasiperfect", lambda P: (True, ()))
    assert run_command(["decide", "finite-volume", _doc(tmp_path, "t6")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: finite-volume routes disagree")
    assert captured.err.count("\n") == 1


def test_certificate_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(P):
        raise ArithmeticError("witness image sign mismatch\nat index 0")

    monkeypatch.setitem(cli._QUESTIONS, "unique-domain", broken)
    assert run_command(["decide", "unique-domain", _doc(tmp_path, "t237")]) == 1
    err = capsys.readouterr().err
    assert err == "internal error: witness image sign mismatch at index 0\n"


def test_mode_env_and_flag(tmp_path, capsys, monkeypatch):
    exact_doc = _write(tmp_path, {"cartan_matrix": [[2, -1], [-1, 2]]})
    monkeypatch.setenv("VINBERG_MODE", "approx")
    assert run_command(["validate", exact_doc]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "approx"

    seven = _write(tmp_path, {"coxeter_matrix": [[1, 7], [7, 1]]}, "seven.json")
    monkeypatch.setenv("VINBERG_MODE", "exact")
    assert run_command(["validate", seven]) == 2  # cos(pi/7) is not rational
    capsys.readouterr()

    # the command-line flag beats the environment
    assert run_command(["validate", seven, "--mode", "approx"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "approx"

    monkeypatch.setenv("VINBERG_MODE", "fast")
    assert run_command(["validate", exact_doc]) == 2
    assert "mode must be" in capsys.readouterr().err


def test_mode_env_is_trimmed_and_case_blind(tmp_path, capsys, monkeypatch):
    exact_doc = _write(tmp_path, {"cartan_matrix": [[2, -1], [-1, 2]]})
    monkeypatch.setenv("VINBERG_MODE", " Exact ")
    assert run_command(["validate", exact_doc]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exact"


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--depth", "0"],
        ["volume", "--samples", "0"],
        ["validate", "--eps", "-1"],
        ["validate", "--eps", "nan"],
        ["validate", "--eps", "inf"],
        ["tile", "--depth", "-3", "--out", "unused.svg"],
        ["limit-set", "--count", "0", "--out", "unused.csv"],
        ["limit-set", "--words", "1", "--out", "unused.csv"],
    ],
)
def test_out_of_range_arguments_are_input_errors(tmp_path, capsys, argv):
    args = argv[:1] + [_doc(tmp_path, "t237")] + [
        str(tmp_path / a) if a.startswith("unused") else a for a in argv[1:]
    ]
    assert run_command(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""
    assert not list(tmp_path.glob("unused.*"))


def test_bad_json_names_position(tmp_path, capsys):
    bad = _write(tmp_path, "{oops")
    assert run_command(["validate", bad]) == 2
    assert re.search(r"invalid JSON at line 1 column \d+", capsys.readouterr().err)


def test_missing_file(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "absent.json")]) == 2
    assert "input error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert run_command(["decide", "bogus-question", _doc(tmp_path, "t237")]) == 2
    capsys.readouterr()


def test_faces_table(tmp_path, capsys):
    assert run_command(["faces", _doc(tmp_path, "t6")]) == 0
    rows = json.loads(capsys.readouterr().out)["faces"]
    by_facets = {tuple(r["facets"]): r for r in rows}
    assert by_facets[()]["dim"] == 2 and by_facets[()]["type"] is None
    bad = by_facets[("s2", "s3")]
    assert bad["type"] == "negative" and bad["loxodromic"] is True
    assert by_facets[("s1", "s2")]["type"] == "positive"


def test_classify_report(tmp_path, capsys):
    assert run_command(["classify", _doc(tmp_path, "t23inf")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"]["overall"] == "negative"
    assert report["group_class"]["overall"] == "large"
    assert report["irreducible_components"] == [[0, 1, 2]]
    rep = report["representation"]
    assert rep["irreducible"] is True and rep["cartan_rank"] == 3


# A child that runs `vinberg.cli` as `python -m vinberg.cli` does and, on
# exit, appends the names of the modules it loaded as its last stderr line.
_CHILD = """
import runpy, sys
try:
    runpy.run_module("vinberg.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\n" + " ".join(sorted(sys.modules)))
"""

_NUMPY_MODULES = {"numpy", "vinberg.hilbert", "vinberg.limits", "vinberg.svg"}


def _child_env():
    env = dict(os.environ)
    env.pop("VINBERG_MODE", None)
    src = str(Path(vinberg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "argv, doc, code",
    [
        (["validate"], "tinf", 0),
        (["classify"], "tinf", 0),
        (["faces"], "tinf", 0),
        (["decide", "finite-volume"], "t6", 3),
        (["validate"], "truncated", 2),
        (["volume", "--samples", "0"], "tinf", 2),
        (["tile", "--out", "unused.svg"], "r4a", 2),
    ],
)
def test_exact_documents_and_input_errors_never_load_numpy(tmp_path, capsys, argv, doc, code):
    """Import cost is a gate: these commands load no numpy-backed module,
    and the fresh process prints what `run_command` prints in-process."""
    path = (
        _write(tmp_path, '{"cartan_matrix": [[2, -1], [-1, 2]')
        if doc == "truncated"
        else _doc(tmp_path, doc)
    )
    args = [str(tmp_path / a) if a.startswith("unused") else a for a in argv] + [path]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    err, _, modules = child.stderr.rpartition("\n")
    assert not _NUMPY_MODULES & set(modules.split())
    assert run_command(args) == child.returncode == code
    captured = capsys.readouterr()
    assert (child.stdout, err) == (captured.out, captured.err)


def test_package_import_is_lazy():
    probe = "import sys, vinberg; print(sorted(m for m in sys.modules if m.startswith('vinberg')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(), check=True
    ).stdout
    assert out.split() == ["['vinberg']"]
    for name in vinberg.__all__:
        module = importlib.import_module("vinberg." + vinberg._EXPORTS[name])
        assert getattr(vinberg, name) is getattr(module, name)
    assert set(vinberg.__all__) <= set(dir(vinberg))
    with pytest.raises(AttributeError):
        vinberg.no_such_name
    from vinberg import svg

    assert svg is sys.modules["vinberg.svg"]
