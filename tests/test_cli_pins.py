"""Every CLI output the benchmark's cli-files workload produces, pinned.

The inputs come from ``bench/workloads.py``'s cli-files set-up at two
fixed seeds.  Each invocation runs in text and in ``--json``, plus
``dual`` on every complex file, two ``cube`` calls, a failing
``additivity`` and refusals the benchmark never makes.  A row is
``[argv, exit status, SHA-256 of stdout, stderr]``, with the work
directory written as ``<dir>``; the table lives in ``cli_pins.json``.

A change that alters a pinned output re-records the table with
``PYTHONPATH=src python tests/test_cli_pins.py`` and says which rows
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "cli_pins.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import workloads  # noqa: E402

from diskplex import cli  # noqa: E402

SEEDS = (5, 913)

# Two tetrahedra glued along a face, a triangle on the first only: matching fails.
UNMATCHED = {"tets": 2, "gluings": [[0, 0, 1, 0, [0, 1, 2]]], "pieces": [[0, "TRI_1", 1]]}
# More piece copies than the face budget, and a join past it: both refused at once.
MANY_COPIES = {"tets": 1, "pieces": [[0, "TRI_0", 10**12]]}
BIG_JOIN = {"tets": 1, "pieces": [[0, "OCT_1", 100000]]}
# The cone over a strip of six triangles whose end vertices are one: every
# count of a 3-ball holds, but the link of the apex "a" is a pinched strip.
PINCHED_CONE = {"name": "pinched-cone", "facets": [[0, 1, 2, "a"], [0, 5, 6, "a"], [1, 2, 3, "a"],
                                                   [2, 3, 4, "a"], [3, 4, 5, "a"], [4, 5, 6, "a"]]}


def _run(argv: list[str], work: str) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [a.replace(work, "<dir>") for a in argv]
    stdout = out.getvalue().replace(work, "<dir>")
    return [shown, code, hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            err.getvalue().replace(work, "<dir>")]


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def replay(root: str) -> list[list]:
    """Every pinned row, with the inputs written under ``root``."""
    calls = []
    for seed in SEEDS:
        wl = workloads.make("cli-files", seed, os.path.join(root, str(seed)), replay=True)
        wl.setup()
        complexes = list(wl.paths.values()) + [p for x, y, _ in wl.pairs.values() for p in (x, y)]
        calls += [argv for argv, _ in wl.invocations] + [["dual", p] for p in complexes]
    calls += [["cube", "--cone", "3"], ["cube", "--subdivide", "1,0,2"],
              ["additivity", _write(os.path.join(root, "unmatched.json"), UNMATCHED)],
              ["dual", _write(os.path.join(root, "pinched.json"), PINCHED_CONE)],
              ["additivity", _write(os.path.join(root, "copies.json"), MANY_COPIES)],
              ["additivity", _write(os.path.join(root, "join.json"), BIG_JOIN)]]
    rows = []
    for argv in calls:
        rows += [_run(argv, root), _run([*argv, "--json"], root)]
    return rows


def test_every_cli_output_matches_its_pin(tmp_path):
    with open(TABLE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = replay(str(tmp_path))
    assert len(got) == len(pinned)
    assert [row for row, want in zip(got, pinned) if row != want] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = replay(work)
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]\n")
    print(f"{len(table)} rows written to {TABLE}")
