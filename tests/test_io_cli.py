import importlib
import itertools
import json
import os
import random
import re
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from diskplex.cli import main
from diskplex.io import (
    canonical_json,
    complex_from_json_dict,
    complex_to_json_dict,
    parse_complex,
    write_complex,
)
from diskplex import simplicial, suite
from diskplex.cubes import CubicalComplex
from diskplex.simplicial import from_facets, join
from diskplex import corpus

RP2 = oracles.RP2
# a triangle and a disjoint six-triangle annulus: chi 1, boundary chi 0
DISK_ANNULUS = [[0, 1, 2], [10, 11, 20], [11, 20, 21], [11, 12, 21], [12, 21, 22],
                [12, 10, 22], [10, 22, 20]]


def test_round_trip_mixed_vertices(tmp_path):
    k = from_facets([[3, 1, 2], ["b", "a"], [("t", 1), ("t", 2)]], name="mixed")
    path = tmp_path / "k.json"
    write_complex(k, path)
    back = parse_complex(path)
    assert back.facets == k.facets
    assert back.name == "mixed"


def test_canonical_json_is_stable():
    rng = random.Random(77)
    for _ in range(20):
        k = corpus.random_complex(rng)
        a = canonical_json(k)
        # shuffling facet order on input cannot change the bytes
        facets = [list(f) for f in k.facet_list()]
        rng.shuffle(facets)
        for f in facets:
            rng.shuffle(f)
        b = canonical_json(from_facets(facets, name=k.name)) if facets else a
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["facets"] == json.loads(b)["facets"]


# JSON vertices: ints, strings, and lists of those, nested.
json_vertices = st.recursive(st.integers(-5, 30) | st.text(max_size=3),
                             lambda inner: st.lists(inner, max_size=3), max_leaves=6)
json_facets = st.lists(st.lists(json_vertices, min_size=1, max_size=4, unique_by=repr),
                       min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(json_facets, st.text(max_size=8))
def test_canonical_json_is_a_fixed_point_of_parse_and_write(facets, name):
    k = complex_from_json_dict({"name": name, "facets": facets})
    text = canonical_json(k)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k.json")
        write_complex(k, path)
        back = parse_complex(path)
    assert back.facets == k.facets and back.name == name
    assert canonical_json(back) == text


def test_join_output_round_trips():
    a = from_facets([[1], [2]], name="s0")
    j = join(a, a, relabel_on_collision=True)
    data = complex_to_json_dict(j)
    back = complex_from_json_dict(data)
    assert back.facets == j.facets


def test_rejects_malformed_documents():
    with pytest.raises(ValueError):
        complex_from_json_dict([1, 2])
    with pytest.raises(ValueError):
        complex_from_json_dict({"facets": [[1, True]]})
    with pytest.raises(ValueError):
        complex_from_json_dict({"facets": [[1.5]]})
    with pytest.raises(ValueError):
        complex_from_json_dict({"facets": [[]]})
    with pytest.raises(ValueError):
        complex_from_json_dict({"facets": [[1]], "name": 7})
    for data in ({"name": "x"}, {"facets": "12"}):
        with pytest.raises(ValueError, match=r"^input: 'facets' must be a list of vertex lists$"):
            complex_from_json_dict(data)
    with pytest.raises(ValueError, match=r"^input: repeated vertex in face \(1, 1\)$"):
        complex_from_json_dict({"facets": [[1, 1]]})
    with pytest.raises(ValueError, match=r"^a\.json: repeated vertex in face \(0, \('x', \(1,\)\), \('x', \(1,\)\)\)$"):
        complex_from_json_dict({"facets": [[0, ["x", [1]], ["x", [1]]]]}, "a.json")


def test_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": [\n  [1,]\n]}')
    with pytest.raises(ValueError) as err:
        parse_complex(path)
    assert "line 2" in str(err.value)


# ----------------------------------------------------------------- CLI

def write_fixture(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_homology_and_index(tmp_path, capsys):
    path = write_fixture(tmp_path, "rp2.json", {"name": "rp2", "facets": RP2})
    assert main(["homology", path]) == 0
    out = capsys.readouterr().out
    assert "H~1 = Z/2" in out
    assert main(["index", "--json", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["index"] == "INDEX(2)"


def test_cli_join_and_milnor(tmp_path, capsys):
    s0 = write_fixture(tmp_path, "s0.json", {"name": "s0", "facets": [["p"], ["q"]]})
    out_path = str(tmp_path / "joined.json")
    assert main(["join", s0, s0, "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["index", out_path]) == 0
    assert capsys.readouterr().out.strip() == "INDEX(2)"
    assert main(["milnor", s0, s0]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_additivity_pass_and_fail(tmp_path, capsys):
    good = write_fixture(
        tmp_path,
        "good.json",
        {"tets": 1, "gluings": [], "pieces": [[0, "OCT_2", 1]]},
    )
    assert main(["additivity", good]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    bad = write_fixture(
        tmp_path,
        "bad.json",
        {
            "tets": 2,
            "gluings": [[0, 0, 1, 0, [0, 1, 2]]],
            "pieces": [[0, "TRI_1", 1]],
        },
    )
    assert main(["additivity", bad]) == 1
    assert "FAIL" in capsys.readouterr().out
    # repeated piece entries add up: two entries of one copy read as one of two
    outputs = []
    for pieces in ([[0, "OCT_1", 1], [0, "OCT_1", 1]], [[0, "OCT_1", 2]]):
        repeated = write_fixture(tmp_path, "repeated.json", {"tets": 1, "pieces": pieces})
        assert main(["additivity", repeated]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and "global join:  INDEX(2)" in outputs[0].out
    huge = write_fixture(tmp_path, "huge.json", {"tets": 10**9, "pieces": [[0, "OCT_1", 1]]})
    assert main(["additivity", huge]) == 0
    assert "euler characteristic: 1" in capsys.readouterr().out


def test_cli_dichotomy(tmp_path, capsys):
    y = write_fixture(
        tmp_path, "y.json", {"name": "c4", "facets": [[1, 2], [2, 3], [3, 4], [4, 1]]}
    )
    x = write_fixture(tmp_path, "x.json", {"name": "s0", "facets": [[1], [3]]})
    assert main(["dichotomy", "--json", x, y]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "TAU_FOUND"


def test_cli_width_catalog_cube_dual(tmp_path, capsys):
    assert main(["width", "--seed", "11", "--steps", "8"]) == 0
    capsys.readouterr()
    assert main(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["pieces"]) == 15
    assert main(["cube", "--cone", "2"]) == 0
    assert "apex z" in capsys.readouterr().out
    assert main(["cube", "--subdivide", "1,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["top_cells"] == 6
    ball = write_fixture(
        tmp_path, "ball.json", {"name": "ball", "facets": [[1, 2, 3], [2, 3, 4]]}
    )
    assert main(["dual", ball]) == 0
    assert "[2, 1, 0]" in capsys.readouterr().out


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    assert main(["homology", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["index", str(bad)]) == 2
    circle = write_fixture(
        tmp_path, "circle.json", {"facets": [[1, 2], [2, 3], [3, 1]]}
    )
    capsys.readouterr()
    assert main(["dual", circle]) == 2
    assert "not a ball" in capsys.readouterr().err
    rp2 = write_fixture(tmp_path, "rp2.json", {"facets": RP2})
    assert main(["dual", rp2]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: empty boundary")
    # passes every count a ball's cells obey, but is not acyclic
    disk_annulus = write_fixture(tmp_path, "disk_annulus.json", {"facets": DISK_ANNULUS})
    assert main(["dual", disk_annulus]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reduced homology H~0 = Z, H~1 = Z; not a ball\n"
    # the cone over a strip of triangles whose end vertices are one: every
    # count of a 3-ball holds, but the link of the apex is the pinched strip
    pinched = write_fixture(tmp_path, "pinched.json", {"facets": [[0, 1, 2, "a"], [0, 5, 6, "a"], [1, 2, 3, "a"],
                                                                  [2, 3, 4, "a"], [3, 4, 5, "a"], [4, 5, 6, "a"]]})
    assert main(["dual", pinched]) == 2
    assert capsys.readouterr() == (
        "", "error: link of vertex 'a' is not a 2-ball: reduced homology H~0 = 0, H~1 = Z; not a ball\n"
    )
    not_a_list = write_fixture(tmp_path, "cfg.json", {"tets": 1, "gluings": 5})
    assert main(["additivity", not_a_list]) == 2
    assert "gluings" in capsys.readouterr().err
    # rejected before matching, whether or not the pieces match
    for pieces in ([], [[0, "TRI_1", 1]]):
        reversed_edge = write_fixture(
            tmp_path, "reversed.json", {"tets": 1, "gluings": [[0, 0, 0, 1, [0, 2, 1]]], "pieces": pieces}
        )
        assert main(["additivity", reversed_edge]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gluings[0] identifies edge 23")
    # the skeleton is refused as it is built, before placements are checked
    # against it, so the reversed edge is named over the missing tetrahedron
    both = write_fixture(
        tmp_path, "both.json", {"tets": 1, "gluings": [[0, 0, 0, 1, [0, 2, 1]]], "pieces": [[3, "TRI_0", 1]]}
    )
    assert main(["additivity", both]) == 2
    assert capsys.readouterr() == (
        "", "error: gluings[0] identifies edge 23 of tetrahedron 0 with itself reversed\n"
    )
    # a configuration field must be a JSON integer: 0.5 is not truncated
    half_face = write_fixture(
        tmp_path, "half.json", {"tets": 2, "gluings": [[0, 0.5, 1, 0, [0, 1, 2]]], "pieces": []}
    )
    assert main(["additivity", half_face]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gluings[0]: face_a must be an integer, not 0.5\n"
    assert main(["suite", "--counts", "-1"]) == 2
    assert "counts" in capsys.readouterr().err
    assert main(["width", "--steps", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: steps must be nonnegative, got -1\n")
    # not a number, an empty count, and what int() takes beyond plain digits
    for value in ("1,x", "1,,2", "2_0", "+1", " 3", "3 ", "1, 2"):
        assert main(["cube", "--subdivide", value]) == 2
        message = f"error: --subdivide takes comma-separated plane counts, got {value!r}\n"
        assert capsys.readouterr() == ("", message)
    # a negative count still reaches subdivide_cube's own refusal
    assert main(["cube", "--subdivide", "1,-1"]) == 2
    assert capsys.readouterr() == ("", "error: subdivision counts cannot be negative\n")
    assert main(["cube", "--subdivide", "1,2"]) == 0
    assert capsys.readouterr().out == (
        "unit 2-cube cut by [1, 2] planes\ncells by dimension: [12, 17, 6]\ntop cells 6, vertices 12, euler 1\n"
    )
    for depth in (500, 3000):  # past the vertex bound, and past what json can read
        deep = tmp_path / f"deep{depth}.json"
        deep.write_text('{"facets": [[' + "[" * depth + "1" + "]" * depth + ", 2]]}")
        assert main(["homology", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(deep) in err
    # the boundary of the 21-simplex has no dominated vertex and 2^22 - 2 faces
    sphere = write_fixture(
        tmp_path, "sphere20.json",
        {"facets": [list(f) for f in itertools.combinations(range(22), 21)]},
    )
    for command in ("homology", "index"):
        assert main([command, sphere]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: complex may have 46137322 faces")
        assert "face budget of 262144" in captured.err
    # the same budget bounds every enumeration of an input's cells: the
    # 18-simplex has 2^19 - 1 faces, and so do the simplices of Y outside X
    # when Y is that simplex joined with two points
    simplex18 = list(range(19))
    ball = write_fixture(tmp_path, "simplex18.json", {"facets": [simplex18]})
    x = write_fixture(tmp_path, "x.json", {"facets": [["p"], ["q"]]})
    y = write_fixture(tmp_path, "y.json", {"facets": [simplex18 + ["p"], simplex18 + ["q"]]})
    for argv in (["dual", ball], ["dichotomy", x, y]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: complex may have 524287 faces, over the face budget of 262144\n"
    assert main(["cube", "--subdivide", "200,200,200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid would have 65450827 cells, over the face budget of 262144\n"
    # a join is refused before it is built, so each refusal below is quick;
    # building the joins under the budget one pair at a time took about 7 s
    with oracles.within(2):
        # 600 x 600 facets
        a = write_fixture(tmp_path, "a600.json", {"facets": [[i, 1000 + i] for i in range(600)]})
        b = write_fixture(tmp_path, "b600.json", {"facets": [[2000 + i, 3000 + i] for i in range(600)]})
        for argv in (["join", a, b, "-o", str(tmp_path / "ab.json")], ["milnor", a, b]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: join would have 360000 facets, over the face budget of 262144\n"
        assert not (tmp_path / "ab.json").exists()
        # 19 copies of OCT_1 (two facets each) join to 2^19 facets
        oct19 = write_fixture(tmp_path, "oct19.json", {"tets": 1, "gluings": [], "pieces": [[0, "OCT_1", 19]]})
        assert main(["additivity", oct19]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: join would have 524288 facets, over the face budget of 262144\n"
        # with the budget at 2^10, the first operand whose prefix product
        # passes it is named, and no complex is built
        operands = [from_facets([[(i, j)] for j in range(n)]) for i, n in enumerate((4, 8, 64, 2))]
        monkeypatch.setattr(simplicial, "_FACE_BUDGET", 1 << 10)
        oct30 = write_fixture(tmp_path, "oct30.json", {"tets": 1, "gluings": [], "pieces": [[0, "OCT_1", 30]]})
        assert main(["additivity", oct30]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: join would have 2048 facets, over the face budget of 1024\n"
        monkeypatch.setattr(simplicial, "from_facets", lambda *args, **kw: pytest.fail("a complex was built"))
        with pytest.raises(ValueError, match=r"^join would have 2048 facets, over the face budget of 1024$"):
            simplicial.join_all(operands)


def test_cli_homology_and_index_of_the_empty_complex(tmp_path, capsys):
    empty = write_fixture(tmp_path, "empty.json", {"facets": []})
    assert main(["homology", empty]) == 0
    assert capsys.readouterr().out == f"complex: {empty}\nempty complex (reduced H~(-1) = Z)\n"
    assert main(["homology", "--json", empty]) == 0
    assert json.loads(capsys.readouterr().out)["homology"] == {"empty_complex": True, "groups": []}
    assert main(["index", empty]) == 0
    assert capsys.readouterr().out == "ZERO\n"
    assert main(["index", "--json", empty]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == "ZERO"


def test_cli_milnor_with_an_empty_factor(tmp_path, capsys):
    empty = write_fixture(tmp_path, "empty.json", {"facets": []})
    circle = write_fixture(tmp_path, "circle.json", {"facets": [[1, 2], [2, 3], [3, 1]]})
    for argv in ([empty, circle], [circle, empty]):
        assert main(["milnor", *argv]) == 0
        assert capsys.readouterr().out == (
            "join check: A * B\n"
            "  empty factor: join is the other complex (identity rule)\n"
            "  direct   H~0 = 0\n  direct   H~1 = Z\n  verdict: PASS\n"
        )
    assert main(["milnor", "--json", empty, circle]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["identity_rule"], data["formula"], data["passed"]) == (True, None, True)


def test_cli_additivity_refuses_a_json_list(tmp_path, capsys):
    listed = write_fixture(tmp_path, "list.json", [])
    for argv in (["additivity", listed], ["additivity", "--json", listed]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: configuration file must hold a JSON object\n")


def test_cli_width_stops_when_no_moves_remain(capsys):
    assert main(["width", "--seed", "28"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "start width {(-1, 4)}",
        f"{'DISHONEST@0 k=2':50s} -> {{(-1, 2)}}",
        f"{'DISHONEST@0 k=1':50s} -> {{(-1, 1)}}",
        f"{'DISHONEST@0 k=1':50s} -> {{(-1, 0)}}",
        "no moves remain",
    ]
    assert main(["width", "--seed", "28", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [s["after"] for s in data["steps"]] == ["{(-1, 2)}", "{(-1, 1)}", "{(-1, 0)}"]
    assert data["all_decreasing"]


def test_cli_suite_small(capsys):
    assert main(["suite", "--counts", "2"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert main(["suite", "--counts", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "PASS"


def _failing(check):
    """``check`` with every verdict it returns marked as failed."""
    return lambda *args: SimpleNamespace(**{**vars(check(*args)), "passed": False})


@pytest.mark.parametrize("prop, name, broken, detail", [
    ("milnor_formula", "verify_milnor", _failing, "random pair FAIL: random(7v) * random-empty"),
    ("index_additivity", "verify_index_sum", _failing, "0/1 configurations additive; 1 with positive index"),
    ("local_census", "piece", lambda piece: lambda kind: SimpleNamespace(weight=piece(kind).weight + (kind == "TUBE")),
     "TUBE: weight 7 != 6"),
    ("width_descent", "verify_width_decrease", _failing, "0/1 moves strictly decrease width"),
    ("width_descent", "apply_surgery", lambda apply: lambda surface, move: surface, "0/1 random walks terminate"),
    ("constructions", "barycentric_subdivision",
     lambda sd: lambda k: SimpleNamespace(euler_characteristic=lambda: k.euler_characteristic() + 1),
     "subdivision Euler invariance: 0/1"),
    ("constructions", "subdivide_cube", lambda grid: lambda n, counts: grid(n, [counts[0] + 1, *counts[1:]]),
     "grid cell counts: 0/1"),
    ("constructions", "dual_cells", lambda dual: lambda grid: CubicalComplex("no cells", grid.dim, (), {}, {}),
     "dual cell-count correspondence: 0/1"),
])
def test_cli_suite_reports_each_failure(monkeypatch, capsys, prop, name, broken, detail):
    # each property's failure path, forced by breaking what it checks,
    # shows its header, its detail line and the overall verdict, in text
    # and in JSON, and exits 1
    monkeypatch.setattr(suite, name, broken(getattr(suite, name)))
    assert main(["suite", "--counts", "1"]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"^\[FAIL\] {prop} \(\d+ cases\)\n(    .*\n)*    {re.escape(detail)}$", out, re.M)
    assert out.endswith("\noverall: FAIL\n")
    assert main(["suite", "--counts", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    result = next(r for r in data["properties"] if r["name"] == prop)
    assert data["overall"] == "FAIL" and not result["passed"] and detail in result["details"]


def test_cli_width_reports_a_move_that_does_not_lower_width(monkeypatch, capsys):
    widths = importlib.import_module("diskplex.width")  # the package's ``width`` is the function
    monkeypatch.setattr(widths, "verify_width_decrease", _failing(widths.verify_width_decrease))
    assert main(["width", "--seed", "28"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:5] == [f"{'DISHONEST@0 k=2':50s} -> {{(-1, 2)}}", "WIDTH DID NOT DECREASE",
                          f"{'DISHONEST@0 k=1':50s} -> {{(-1, 1)}}"]
    assert lines.count("WIDTH DID NOT DECREASE") == 3
    assert main(["width", "--seed", "28", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["all_decreasing"] and not any(s["decreased"] for s in data["steps"])
