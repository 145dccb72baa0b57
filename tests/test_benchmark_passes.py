"""The benchmark's correctness rule as a test.

``bench/run.py`` calls a run incorrect when an operation fails, or when
a traced pass counts different work from the first traced pass (count
drift).  Here each workload runs at the recorded suite seed, in this
process: one untraced pass, then traced passes with a ``Tracer``
installed, six for homology-large and two for the others.  Each pass
relabels the vertices, so six passes let a count that depends on the
labels show.  cli-files replays its invocations through
``diskplex.cli.main`` instead of starting subprocesses.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import delta  # noqa: E402


def tick():
    pass


@pytest.mark.parametrize("name", ["homology-large", "suite-default", "cli-files"])
def test_workload_operations_pass_and_traced_counts_repeat(name, tmp_path):
    wl = workloads.make(name, workloads.RECORDED_SUITE_SEED, str(tmp_path / "work"), replay=True)
    wl.setup()
    tracer = Tracer()
    counts = []
    try:
        ops = wl.run_pass(0, tick)
        for index in range(6 if name == "homology-large" else 2):
            before = tracer.snapshot()[2]
            tracer.install()
            try:
                ops += wl.run_pass(index, tick, tracer)
            finally:
                tracer.uninstall()
            counts.append(delta(tracer.snapshot()[2], before))
    finally:
        cleanup = getattr(wl, "cleanup", None)
        if cleanup:
            cleanup()
    assert [(op.name, op.detail) for op in ops if not op.ok] == []
    assert counts[0], "the traced pass counted nothing"
    assert all(c == counts[0] for c in counts[1:]), counts
