"""Self-tests for the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import diskplex.homology  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from worker import op_records  # noqa: E402
from reference import Speedometer  # noqa: E402
from tracing import Tracer, self_times_of_tree  # noqa: E402


def tick():
    pass


def small_homology_workload(answer: dict) -> workloads.HomologyLarge:
    wl = workloads.HomologyLarge(seed=5)
    wl.setup()
    wl.inputs = {"rp2": (workloads.RP2, 31, answer)}
    wl.expected = {"rp2": (31, workloads.profile_json(answer), workloads.index_of(answer))}
    return wl


def test_wrong_expected_answer_counts_as_failure():
    right = small_homology_workload({1: workloads.Z2})
    wrong = small_homology_workload({1: workloads.Z})
    speed = Speedometer()
    speed.sample()
    passes = [op_records(right.run_pass(0, tick), speed), op_records(wrong.run_pass(0, tick), speed)]
    attempted, failed, bad = run.verdicts(passes)
    assert (attempted, failed) == (2, 1)
    assert bad == ["rp2: profile ['H~0 = 0', 'H~1 = Z/2']"]


def test_wrong_cli_fields_and_suite_reports_count_as_failures():
    payload = {"homology": workloads.profile_json({1: workloads.Z2})}
    assert workloads._expect_homology({1: workloads.Z2})(0, payload) == ""
    assert workloads._expect_homology({1: workloads.Z})(0, payload) != ""
    assert workloads._expect_homology({1: workloads.Z2})(2, payload) == "exit status 2"
    suite = workloads.SuiteDefault(seed=4)
    assert suite.check(4, 1.0, True, "report\n").ok
    assert not suite.check(4, 1.0, True, "another report\n").ok
    assert not suite.check(5, 1.0, False, "report\n").ok
    recorded = workloads.SuiteDefault(seed=workloads.RECORDED_SUITE_SEED)
    assert not recorded.check(workloads.RECORDED_SUITE_SEED, 1.0, True, "report\n").ok


def test_default_suite_report_matches_the_recorded_digest():
    """The same-seed suite report, byte for byte, at the default seed."""
    from diskplex.suite import RunConfig, render_text, run_suite

    seed = workloads.RECORDED_SUITE_SEED
    text = render_text(run_suite(RunConfig(seed=seed)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == workloads.RECORDED_SUITE_SHA256
    assert workloads.SuiteDefault(seed).check(seed, 1.0, True, text).ok


def test_generated_inputs_have_the_recorded_face_counts():
    for name, (facets, faces, _) in workloads._homology_large_inputs().items():
        assert workloads.count_faces(facets) == faces, name
    assert len(workloads._homology_large_inputs()["sd2-rp2-susp"][0]) == 720


def test_self_times_add_up_to_the_root_span():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    root = tracer.op_span("root")
    wrapped_middle()
    wrapped_leaf()
    root.close()

    spans = [s for s in tracer.spans if s is not None]
    root_span = spans[0]
    assert root_span[0] == "root" and root_span[3] == -1
    duration = root_span[2] - root_span[1]
    assert sum(tracer.self_time.values()) == duration
    assert sum(self_times_of_tree(spans).values()) == duration
    assert sorted(s[0] for s in spans) == ["leaf", "leaf", "leaf", "middle", "root"]


def test_calls_outside_an_operation_are_not_traced():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda: 7)
    assert wrapped() == 7
    assert not tracer.spans


def test_install_rebinds_and_uninstall_restores():
    original = diskplex.homology.smith_normal_form
    tracer = Tracer()
    tracer.install()
    try:
        assert diskplex.homology.smith_normal_form is not original
        wl = small_homology_workload({1: workloads.Z2})
        assert all(op.ok for op in wl.run_pass(0, tick, tracer))
    finally:
        tracer.uninstall()
    assert diskplex.homology.smith_normal_form is original
    assert tracer.counts["homology.snf_calls"] == 3  # the augmentation and two boundary maps
    assert tracer.counts["homology.nonunit_factors"] == 1  # the Z/2


def test_count_drift_between_traced_passes_is_flagged():
    layer = {"self_s": {}, "total_s": {}, "counts": {"homology.snf_calls": 3}}
    drifted = dict(layer, counts={"homology.snf_calls": 4})
    result = {"layers": [layer, drifted], "passes": [[]], "traced_passes": [[]],
              "spans": 0, "trace_file": os.path.join(HERE, "_out", "none.jsonl"),
              "speed_samples": [(0.0, run.NOMINAL_S)]}
    probes = [{"setup": {"catalog_s": 0.1, "import_s": 0.1}, "speed_samples": [(0.0, run.NOMINAL_S)]}]
    _, _, drift = run.per_layer("homology-large", probes, result)
    assert drift and "homology.snf_calls" in drift[0]
