"""
File formats and the verification suite
=======================================

Complexes and configurations live in small JSON documents with a
canonical byte form, and the whole library is exercised by a seeded
randomized suite, runnable from Python or the command line.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from diskplex import canonical_json, parse_complex, write_complex, from_facets
from diskplex.suite import RunConfig, render_text, run_suite

with tempfile.TemporaryDirectory(prefix="diskplex-demo-") as tmp:
    workdir = Path(tmp)

    # Complexes serialize facet-sorted with fixed separators, so equal
    # complexes always produce identical bytes.
    torus_like = from_facets([[3, 1, 2], ["b", "a"]], name="mixed labels")
    path = workdir / "mixed.json"
    write_complex(torus_like, path)
    print(path.read_text(), end="")
    print("round trips:", parse_complex(path).facets == torus_like.facets)

    # Configuration files describe tetrahedra, gluings and piece placements.
    config = {
        "tets": 2,
        "gluings": [[0, 0, 1, 0, [0, 1, 2]]],
        "pieces": [[0, "TRI_0", 1], [1, "TRI_0", 1], [1, "OCT_2", 1]],
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))

    # The same operations are exposed as subcommands; verification commands
    # exit nonzero when a check fails.
    result = subprocess.run(
        [sys.executable, "-m", "diskplex.cli", "additivity", str(config_path)],
        capture_output=True,
        text=True,
    )
    print()
    print(result.stdout, end="")
    print("exit code:", result.returncode)

# A reduced in-process suite run; the full default run covers thousands
# of cases and is byte-stable for a fixed seed.
print()
report = run_suite(RunConfig(seed=7, counts=3))
print(render_text(report))
