"""What a fresh process loads, what the lazy package namespace binds, and
what the package's sources define.

Each check of what a process loads runs in its own interpreter, because
this test session has already imported every module.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


CHECK_NAMESPACE = '''
import importlib, pkgutil, sys, types
import diskplex
from diskplex import cli

def check(when):
    for name in diskplex.__all__[:-1]:
        got = getattr(diskplex, name)
        assert not isinstance(got, types.ModuleType), (when, name, got)
        home = sys.modules[got.__module__]
        assert home.__name__ == "diskplex." + diskplex._EXPORTS[name], (when, name)
        assert got is getattr(home, name), (when, name)
    assert diskplex.__all__[-1] == "__version__"
    assert set(diskplex.__all__) <= set(dir(diskplex)), when
    star = {}
    exec("from diskplex import *", star)
    assert all(star[name] is getattr(diskplex, name) for name in diskplex.__all__), when

def import_every_submodule():
    for info in pkgutil.iter_modules(diskplex.__path__):
        importlib.import_module("diskplex." + info.name)

def check_submodule_attributes():
    for info in pkgutil.iter_modules(diskplex.__path__):
        if info.name not in diskplex.__all__:
            assert getattr(diskplex, info.name) is sys.modules["diskplex." + info.name], info.name
'''


def test_public_namespace_is_stable():
    """Every public name is the object its home module defines, whichever
    submodule a process imports first; in particular ``diskplex.width``
    stays the function even after ``diskplex.width`` the module loads.
    Every other submodule is reachable as a package attribute."""
    for first in (
        'check("fresh"); import_every_submodule(); check("all submodules");'
        ' cli.main(["width", "--seed", "3"]); check("after width")',
        'import diskplex.suite; check("after suite")',
        'import diskplex.corpus; check("after corpus")',
        'import diskplex.width; check("after width module")',
        'cli.main(["width", "--seed", "3"]); check("after width command")',
        'check_submodule_attributes(); check("after submodule attributes")',
    ):
        run_fresh(CHECK_NAMESPACE + first)


def test_an_unknown_package_attribute_raises():
    import diskplex

    with pytest.raises(AttributeError, match=r"^module 'diskplex' has no attribute 'no_such_name'$"):
        diskplex.no_such_name
    assert not hasattr(diskplex, "no_such_name")


def loaded_by(code: str) -> set[str]:
    """The ``diskplex`` submodules a fresh process has loaded after ``code``."""
    out = run_fresh(code + "\nimport json, sys\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('diskplex.')]))")
    return set(json.loads(out.splitlines()[-1]))


def loaded_by_command(*argv: str) -> set[str]:
    return loaded_by(f"from diskplex import cli\nassert cli.main({list(argv)!r}) == 0")


def write_inputs(tmp_path):
    """An RP^2, a full subcomplex pair X in Y and an additivity configuration."""
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(json.dumps({"facets": [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
                                          [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"facets": [[1], [3]]}))
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"facets": [[1, 2], [2, 3], [3, 4], [4, 1]]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tets": 1, "gluings": [], "pieces": [[0, "OCT_1", 1]]}))
    return rp2, x, y, config


def test_each_command_imports_only_what_it_runs(tmp_path):
    rp2, x, y, _ = write_inputs(tmp_path)

    assert loaded_by("import diskplex") == set()
    core = {"diskplex.cli", "diskplex.io", "diskplex.simplicial", "diskplex.homology"}
    assert loaded_by_command("homology", str(rp2)) <= core
    assert loaded_by_command("index", str(rp2)) <= core
    assert not loaded_by_command("catalog") & {"diskplex.suite", "diskplex.corpus"}
    assert loaded_by_command("width", "--seed", "3") == {"diskplex.cli", "diskplex.width"}
    assert "diskplex.additivity" not in loaded_by_command("dichotomy", str(x), str(y))


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    """Every command the benchmark times as a CLI call starts without
    ``dataclasses`` and the ``inspect`` module it imports."""
    rp2, x, y, config = write_inputs(tmp_path)
    joined = tmp_path / "joined.json"
    for argv in (["homology", rp2], ["index", rp2], ["join", rp2, x, "-o", joined],
                 ["milnor", rp2, x], ["dichotomy", x, y], ["additivity", config],
                 ["width", "--seed", "3"], ["catalog"]):
        argv = [str(a) for a in argv]
        out = run_fresh(f"from diskplex import cli\nassert cli.main({argv!r}) == 0\n"
                        "import json, sys\n"
                        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))")
        assert json.loads(out.splitlines()[-1]) == [], argv


def test_only_simplicial_turns_vertex_ranks_into_masks():
    """Only ``simplicial`` turns vertex ranks into facet bitmasks; other
    modules read ``_masks()``."""
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "simplicial.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            named = getattr(node, "attr", None) or getattr(node, "id", None)
            assert named != "_vertex_ranks", (name, node.lineno)


def test_no_module_imports_private_names_from_homology():
    """Normal forms live behind ``homology``'s public names, and surgery
    moves behind ``width``'s: no module imports an underscore name from
    either."""
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("homology", "width"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (name, node.lineno, private)


def test_corpus_builds_no_set():
    """``corpus`` and ``width`` promise that set iteration never feeds a
    draw; it holds by construction when neither module builds a set."""
    for name in ("corpus.py", "width.py"):
        with open(os.path.join(SRC, "diskplex", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        sets = [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Set, ast.SetComp))
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "frozenset")]
        assert not sets, (name, sets)


def test_smith_elimination_has_one_pivot_call():
    """The loop of ``smith_normal_form`` has one pivot rule, so
    ``_pivot_step`` is called at exactly one place."""
    with open(os.path.join(SRC, "diskplex", "homology.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "homology.py")
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pivot_step"]
    assert len(calls) == 1, calls


def test_only_the_skeleton_builds_edge_classes():
    """The oriented union-find ``_edge_identifications`` has one call site,
    in ``TetGluing.__init__``, so a reversed edge is refused in one place,
    once per skeleton."""
    calls, init = [], None
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_edge_identifications" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append((name, node.lineno))
            if isinstance(node, ast.ClassDef) and node.name == "TetGluing":
                (body,) = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                init = (name, body.lineno, body.end_lineno)
    assert len(calls) == 1, calls
    (name, line), = calls
    assert name == init[0] and init[1] <= line <= init[2], (calls, init)


def test_only_maximal_makes_a_complex_object():
    """``SimplicialComplex.__new__`` is called only inside
    ``simplicial._maximal``, so ``SimplicialComplex(...)`` and every
    derived complex get their normal form from that one maker."""
    calls, maximal = [], None
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__" \
                    and "SimplicialComplex" in ast.unparse(node):
                calls.append((name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "_maximal":
                maximal = (name, node.lineno, node.end_lineno)
    assert maximal[0] == "simplicial.py" and calls, (calls, maximal)
    for name, line in calls:
        assert name == maximal[0] and maximal[1] <= line <= maximal[2], (calls, maximal)


def test_records_bind_their_fields_in_one_update():
    """No module reaches past ``_Value.__setattr__`` with
    ``object.__setattr__``: each record's ``__init__`` binds every one of
    its parameters, under its own name, in one ``self.__dict__.update``
    call, and ``_fields`` names only parameters."""
    package = os.path.join(SRC, "diskplex")
    records = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                assert getattr(node.value, "id", None) != "object", (name, node.lineno)
            if not isinstance(node, ast.ClassDef) or "_Value" not in [ast.unparse(b) for b in node.bases]:
                continue
            (init,) = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            updates = [call for call in ast.walk(init) if isinstance(call, ast.Call)
                       and ast.unparse(call.func) == "self.__dict__.update"]
            assert len(updates) == 1, (name, node.name)
            params = {a.arg for a in init.args.args[1:]}
            bound = {k.arg for k in updates[0].keywords if not k.arg.startswith("_")}
            assert bound == params and not updates[0].args, (name, node.name, bound ^ params)
            fields = [ast.literal_eval(f.value) for f in node.body if isinstance(f, ast.Assign)
                      and [ast.unparse(t) for t in f.targets] == ["_fields"]]
            assert set(*fields) <= params, (name, node.name)
            records += 1
    assert records == 24


def test_no_module_imports_dataclasses():
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in imported), (name, node.lineno)


def _sources_outside_tests() -> list[str]:
    """The text of every ``.py`` file under ``src/``, ``demos/`` and ``bench/``."""
    root = os.path.dirname(SRC)
    texts = []
    for top in ("src", "demos", "bench"):
        for folder, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as fh:
                        texts.append(fh.read())
    return texts


def _package_trees():
    """``(file name, parsed module)`` for each source file of the package."""
    package = os.path.join(SRC, "diskplex")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _only_bound(texts, name: str, binding: re.Pattern) -> bool:
    """True when no text names ``name`` except where ``binding`` binds it."""
    named = re.compile(rf"\b{name}\b")
    return all(len(named.findall(t)) == len(binding.findall(t)) for t in texts)


def test_every_function_has_a_caller_outside_tests():
    """Each non-dunder ``def`` in the package is named in ``src/``,
    ``demos/`` or ``bench/`` outside its own definition; code that only
    tests call belongs in ``tests/oracles.py``."""
    texts = _sources_outside_tests()
    unused = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or re.fullmatch(r"__\w+__", node.name):
                continue
            if _only_bound(texts, node.name, re.compile(rf"^\s*def {node.name}\b", re.M)):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused


def test_every_module_level_name_has_a_reader_outside_tests():
    """Each non-dunder name that a package module binds at its top level,
    by assignment or ``class``, is named in ``src/``, ``demos/`` or
    ``bench/`` outside its own binding; a constant that only tests read
    belongs in ``tests/oracles.py``."""
    texts = _sources_outside_tests()
    unused = []
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bound = [(node.name, re.compile(rf"^class {node.name}\b", re.M))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])
                         if isinstance(n, ast.Name)]
                bound = [(n, re.compile(rf"^{n}\b[^=\n]*=", re.M)) for n in names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {n}" for n, binding in bound
                       if not re.fullmatch(r"__\w+__", n) and _only_bound(texts, n, binding)]
    assert not unused


def test_sources_parse_as_the_oldest_supported_python():
    """Every source file parses with the grammar of the oldest Python that
    ``pyproject.toml`` claims to support."""
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', fh.read()).groups()))
    checked = 0
    for top in ("src", "tests", "bench", "demos"):
        for folder, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        ast.parse(fh.read(), path, feature_version=oldest)
                    checked += 1
    assert checked
