import json
import random

import pytest

from diskplex.cli import main
from diskplex.io import (
    canonical_json,
    complex_from_json_dict,
    complex_to_json_dict,
    parse_complex,
    write_complex,
)
from diskplex.simplicial import from_facets, join
from diskplex import corpus

RP2 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
       [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]


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
    with pytest.raises(ValueError):
        complex_from_json_dict({"facets": [[1, 1]]})


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


def test_cli_error_paths(tmp_path, capsys):
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
    not_a_list = write_fixture(tmp_path, "cfg.json", {"tets": 1, "gluings": 5})
    assert main(["additivity", not_a_list]) == 2
    assert "gluings" in capsys.readouterr().err
    assert main(["suite", "--counts", "-1"]) == 2
    assert "counts" in capsys.readouterr().err
    for depth in (500, 3000):  # past the vertex bound, and past what json can read
        deep = tmp_path / f"deep{depth}.json"
        deep.write_text('{"facets": [[' + "[" * depth + "1" + "]" * depth + ", 2]]}")
        assert main(["homology", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(deep) in err


def test_cli_suite_small(capsys):
    assert main(["suite", "--counts", "2"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert main(["suite", "--counts", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "PASS"
