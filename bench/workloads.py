"""Seeded inputs, operations and known answers for the three workloads.

Every input is generated here from the seed; diskplex only ever sees
facet lists, complex files and configuration files.  Every expected
answer is written down from topology (or from the paper's catalog), never
computed by diskplex, so a wrong answer from the program shows up as a
failed operation.

A workload object has ``setup()`` (builds the seed's inputs; timed as part
of ``setup_s``) and ``run_pass(index, tick, tracer)``, which calls
``tick()`` before each operation (the worker samples machine speed there)
and returns one ``Op`` per operation.  Operation timings exclude the
checks.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# sha256 of render_text(run_suite(RunConfig(seed=1036))), the default seed's
# report, at the commit that introduced this benchmark.
RECORDED_SUITE_SEED = 1036
RECORDED_SUITE_SHA256 = "370ea2e2e27c514b645a86ab0f386ac6e780d3104f96a50dcfa2d694184bd26a"


@dataclass
class Op:
    """One timed operation and its verdict."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    kind: str = ""
    start: float = 0.0  # perf_counter() when the operation began


# ------------------------------------------------------------ complexes

RP2 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
       [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]

# Moebius' 7-vertex torus.
TORUS = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)] + \
        [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]


def cycle(n: int, first: int = 0) -> list[list]:
    return [[first + i, first + (i + 1) % n] for i in range(n)]


def shift(facets, by: int) -> list[list]:
    return [[v + by for v in f] for f in facets]


def subdivide(facets) -> list[list]:
    """Barycentric subdivision: vertices are faces, facets are full flags."""
    out = []
    for f in facets:
        for perm in itertools.permutations(sorted(f)):
            out.append([tuple(sorted(perm[: i + 1])) for i in range(len(perm))])
    return out


def join_facets(*parts) -> list[list]:
    return [sum(combo, []) for combo in itertools.product(*[[list(f) for f in p] for p in parts])]


def count_faces(facets) -> int:
    faces = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f, key=repr), r))
    return len(faces)


def relabel(facets, rng: random.Random, strings: bool = False) -> list[list]:
    """Random injective relabelling plus shuffled facet and vertex order."""
    verts = sorted({v for f in facets for v in f}, key=repr)
    labels = list(range(len(verts)))
    rng.shuffle(labels)
    if strings:
        labels = [f"v{x}" for x in labels]
    mapping = dict(zip(verts, labels))
    out = [[mapping[v] for v in f] for f in facets]
    for f in out:
        rng.shuffle(f)
    rng.shuffle(out)
    return out


# A reduced homology answer: {degree: (rank, torsion)}; every other degree
# is 0.  An empty mapping means acyclic.
def profile_json(answer: dict) -> dict:
    top = max(answer, default=-1)
    groups = []
    for d in range(top + 1):
        rank, torsion = answer.get(d, (0, ()))
        groups.append({"rank": rank, "torsion": list(torsion)})
    return {"empty_complex": False, "groups": groups}


def index_of(answer: dict) -> str:
    return f"INDEX({min(answer) + 1})" if answer else "ACYCLIC"


Z = (1, ())
Z2 = (0, (2,))


# ------------------------------------------------------ homology-large

def _homology_large_inputs() -> dict:
    sd2 = subdivide(subdivide(RP2))
    return {
        # Sigma(sd^2 RP^2): H~2 = Z/2, exercising the non-unit pivot path.
        "sd2-rp2-susp": (join_facets(sd2, [["a"], ["b"]]), 3245, {2: Z2}),
        # S^1 * S^1 * RP^2 = Sigma^4 RP^2: H~5 = Z/2, seven boundary maps.
        "c4-c4-rp2": (join_facets(cycle(4), cycle(4, 4), shift(RP2, 7)), 2591, {5: Z2}),
        # The full 10-simplex has a cone vertex: acyclic.
        "simplex-11": ([list(range(11))], 2047, {}),
        # Boundary of the 10-simplex, the 9-sphere, has no cone vertex.
        "sphere-9": ([list(c) for c in itertools.combinations(range(11), 10)], 2046, {9: Z}),
    }


class HomologyLarge:
    """Few inputs with large boundary matrices: elimination dominates.

    Each operation builds a fresh complex from a facet list, so memoised
    faces on a reused object never shorten a later pass.  Pass ``i``
    relabels the fixed topologies with its own seeded permutation, which
    varies pivot ties while the answers stay put.
    """

    name = "homology-large"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        # Functions are looked up on their modules at call time, so a
        # tracer's rebinding sees the benchmark's own calls too.
        import diskplex.homology
        import diskplex.simplicial

        self.homology, self.simplicial = diskplex.homology, diskplex.simplicial
        self.inputs = _homology_large_inputs()
        self.expected = {
            name: (faces, profile_json(answer), index_of(answer))
            for name, (_, faces, answer) in self.inputs.items()
        }

    def pass_inputs(self, index: int) -> list[tuple[str, list]]:
        rng = random.Random(f"{self.seed}:{index}")
        return [(name, relabel(facets, rng)) for name, (facets, _, _) in self.inputs.items()]

    def run_pass(self, index: int, tick, tracer=None) -> list[Op]:
        ops = []
        for name, facets in self.pass_inputs(index):
            tick()
            root = tracer.op_span(f"{self.name}.{name}") if tracer else None
            try:
                t0 = time.perf_counter()
                k = self.simplicial.from_facets(facets, name=name)
                profile = self.homology.reduced_homology(k)
                ind = self.homology.index_of_profile(profile)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a crash is a failed operation
                ops.append(Op(name, 0.0, False, f"raised {exc!r}"))
                continue
            finally:
                if root:
                    root.close()
            op = self.check(name, dt, k, profile, ind)
            op.start = t0
            ops.append(op)
        return ops

    def check(self, name, seconds, k, profile, ind) -> Op:
        faces, want_profile, want_index = self.expected[name]
        got_faces = sum(len(g) for g in k.faces_by_dim().values())
        problems = []
        if got_faces != faces:
            problems.append(f"{got_faces} faces, expected {faces}")
        if profile.to_json() != want_profile:
            problems.append(f"profile {profile.render_lines()}")
        if str(ind) != want_index:
            problems.append(f"index {ind}, expected {want_index}")
        return Op(name, seconds, not problems, "; ".join(problems))


# ------------------------------------------------------- suite-default

class SuiteDefault:
    """``run_suite(RunConfig(seed))`` at the default counts: thousands of
    tiny complexes plus surgery-move sampling, so per-call overhead
    dominates, not elimination.

    The suite's cost depends on its seed by about +-10%, so a pass runs it
    at ``SEEDS_PER_PASS`` consecutive seeds starting at the run's seed;
    every pass repeats the same seeds, so each report must come out
    byte-identical to the first pass's.  The report at the recorded seed
    must also match its recorded digest.
    """

    name = "suite-default"
    SEEDS_PER_PASS = 3

    def __init__(self, seed: int):
        self.seeds = [seed + i for i in range(self.SEEDS_PER_PASS)]
        self.first_text: dict[int, str] = {}

    def setup(self):
        import diskplex.suite

        self.suite = diskplex.suite

    def run_pass(self, index: int, tick, tracer=None) -> list[Op]:
        suite = self.suite
        ops = []
        for seed in self.seeds:
            tick()
            root = tracer.op_span("suite.run_suite") if tracer else None
            try:
                t0 = time.perf_counter()
                report = suite.run_suite(suite.RunConfig(seed=seed))
                text = suite.render_text(report)
                dt = time.perf_counter() - t0
            except Exception as exc:
                ops.append(Op(f"run_suite@{seed}", 0.0, False, f"raised {exc!r}"))
                continue
            finally:
                if root:
                    root.close()
            op = self.check(seed, dt, report.passed, text)
            op.start = t0
            ops.append(op)
        return ops

    def check(self, seed, seconds, passed, text) -> Op:
        problems = []
        if not passed:
            problems.append("suite reports FAIL")
        first = self.first_text.setdefault(seed, text)
        if text != first:
            problems.append("report text differs from the first pass")
        if seed == RECORDED_SUITE_SEED:
            # Imported only here: hashlib loads OpenSSL, a few MB of the
            # peak_rss_mb this process reports.
            import hashlib

            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != RECORDED_SUITE_SHA256:
                problems.append(f"report digest {digest[:12]} differs from the recorded one")
        return Op(f"run_suite@{seed}", seconds, not problems, "; ".join(problems))


# ----------------------------------------------------------- cli-files

# Piece catalog facts from the paper: kind -> (weight, euler, index).
CATALOG = {
    **{f"TRI_{v}": (3, 1, "ZERO") for v in range(4)},
    **{f"QUAD_{q}": (4, 1, "ZERO") for q in (1, 2, 3)},
    **{f"OCT_{q}": (8, 1, "INDEX(1)") for q in (1, 2, 3)},
    "TUBE": (6, 0, "INDEX(1)"),
    "HELICAL_12GON": (12, 1, "INDEX(2)"),
    "TRIPLE_TUBE": (9, -1, "INDEX(2)"),
    "OCT_TUBE_DISK": (11, 0, "INDEX(2)"),
    "OCT_TUBE_SELF": (8, -1, "INDEX(2)"),
}


def _additivity_configs() -> dict:
    """name -> (config, expected JSON fields).  For one unglued tetrahedron
    every polygon piece has as many crossing points as arcs, so the
    surface Euler characteristic is the sum of the pieces' own; the glued
    pair is five disks."""

    def single(placements):
        euler = sum(m * CATALOG[k][1] for _, k, m in placements)
        idx = [CATALOG[k][2] for _, k, m in placements for _ in range(m)]
        total = sum(int(i[6:-1]) for i in idx if i.startswith("INDEX"))
        want = f"INDEX({total})" if total else "ZERO"
        tets = 1 + max(t for t, _, _ in placements)
        return {"tets": tets, "gluings": [], "pieces": [list(p) for p in placements]}, euler, want

    out = {}
    for name, placements in {
        "normal-disk": [(0, "TRI_0", 1)],
        "octagon": [(0, "OCT_2", 1)],
        "octagon-and-tube": [(0, "OCT_1", 1), (1, "TUBE", 1)],
        "helical": [(0, "HELICAL_12GON", 1)],
    }.items():
        cfg, euler, want = single(placements)
        out[name] = (cfg, {"euler_characteristic": euler, "summed": want, "global": want})
    backbone = [[t, f"TRI_{v}", 1] for t in (0, 1) for v in range(4)]
    out["glued-backbone"] = (
        {"tets": 2, "gluings": [[0, 0, 1, 0, [0, 1, 2]]], "pieces": backbone},
        {"euler_characteristic": 5, "summed": "ZERO", "global": "ZERO"},
    )
    return out


class CliFiles:
    """Sequential ``python -m diskplex.cli ... --json`` subprocesses over
    seeded complex and configuration files.  Every call pays interpreter
    start, imports, the catalog build and file parsing."""

    name = "cli-files"

    def __init__(self, seed: int, work_dir: str, replay: bool = False):
        self.seed = seed
        self.dir = work_dir
        self.replay = replay  # run in this process through diskplex.cli.main

    # ---- inputs
    def _write(self, name: str, payload: dict) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        rng = random.Random(self.seed)
        n, m = rng.randint(4, 7), rng.randint(4, 7)
        files = {
            # name: (facets, reduced homology answer)
            "s0": ([["p"], ["q"]], {0: Z}),
            "cn": (cycle(n), {1: Z}),
            "cm": (cycle(m), {1: Z}),
            "c4": (cycle(4), {1: Z}),
            "rp2": (RP2, {1: Z2}),
            "torus": (TORUS, {1: (2, ()), 2: Z}),
            "sphere2": ([list(c) for c in itertools.combinations(range(4), 3)], {2: Z}),
            "ball": ([list(range(4))], {}),
            "sd-rp2": (subdivide(RP2), {1: Z2}),
            "sd-torus": (subdivide(TORUS), {1: (2, ()), 2: Z}),
        }
        self.answers = {}
        self.paths = {}
        for i, (name, (facets, answer)) in enumerate(files.items()):
            if name != "s0":
                facets = relabel(facets, rng, strings=bool(i % 2))
            self.paths[name] = self._write(f"{name}.json", {"name": name, "facets": facets})
            self.answers[name] = answer
        self.pairs = self._dichotomy_pairs(rng)
        self.configs = {}
        for name, (cfg, want) in _additivity_configs().items():
            self.configs[name] = (self._write(f"cfg-{name}.json", cfg), want)
        self.invocations = self._invocations(rng)

    def _dichotomy_pairs(self, rng: random.Random) -> dict:
        """Full-subcomplex pairs whose verdict follows from the definition."""
        labels = rng.sample(range(100, 1000), 12)
        c = [[labels[i], labels[(i + 1) % 5]] for i in range(5)]
        apex, w, p, q, r, a, b = labels[5:12]
        pairs = {
            # Y a cone over the 5-cycle X: Y is acyclic and tau = apex
            # sees all of X.
            "cone": (c, [e + [apex] for e in c],
                     {"verdict": "TAU_FOUND", "index_x": "INDEX(2)", "index_y": "ACYCLIC",
                      "tau": [apex], "index_vtau": "INDEX(2)"}),
            # a pendant edge leaves Y a circle: ind(Y) <= ind(X).
            "pendant": (c, c + [[labels[0], w]],
                        {"verdict": "Y_SMALL", "index_x": "INDEX(2)", "index_y": "INDEX(2)",
                         "tau": None, "index_vtau": None}),
            # X = two points, Y = a path through r: acyclic, tau = r.
            "path": ([[p], [q]], [[p, r], [r, q]],
                     {"verdict": "TAU_FOUND", "index_x": "INDEX(1)", "index_y": "ACYCLIC",
                      "tau": [r], "index_vtau": "INDEX(1)"}),
            # X = two points, Y = a 4-cycle p-a-q-b: the smaller of a, b wins.
            "square": ([[p], [q]], [[p, a], [a, q], [q, b], [b, p]],
                       {"verdict": "TAU_FOUND", "index_x": "INDEX(1)", "index_y": "INDEX(2)",
                        "tau": [min(a, b)], "index_vtau": "INDEX(1)"}),
        }
        out = {}
        for name, (x, y, want) in pairs.items():
            out[name] = (self._write(f"x-{name}.json", {"name": f"x-{name}", "facets": x}),
                         self._write(f"y-{name}.json", {"name": f"y-{name}", "facets": y}),
                         want)
        return out

    def _invocations(self, rng: random.Random) -> list[tuple[list[str], object]]:
        """The per-pass argv list, each with a checker of (code, payload)."""
        P = self.paths
        inv = []
        for name in ("s0", "cn", "rp2", "torus", "sphere2", "ball", "sd-rp2", "sd-torus"):
            inv.append((["homology", P[name]], _expect_homology(self.answers[name])))
        for name in ("rp2", "torus", "ball", "sd-torus"):
            inv.append((["index", P[name]], _expect_fields({"index": index_of(self.answers[name])})))
        for x, y, want in self.pairs.values():
            inv.append((["dichotomy", x, y], _expect_fields(want)))
        for path, want in self.configs.values():
            inv.append((["additivity", path], _expect_additivity(want)))
        inv.append((["width", "--seed", str(rng.randrange(10 ** 6))], _expect_width))
        inv.append((["catalog"], _expect_catalog))
        for a, b, answer in (("s0", "s0", {1: Z}), ("rp2", "s0", {2: Z2}),
                             ("cn", "cm", {3: Z}), ("rp2", "c4", {3: Z2})):
            inv.append((["milnor", P[a], P[b]], _expect_milnor(answer)))
        for a, b, answer in (("cn", "s0", {2: Z}), ("rp2", "s0", {2: Z2})):
            out = os.path.join(self.dir, f"join-{a}-{b}.json")
            facets = len(self._facets(a)) * len(self._facets(b))
            inv.append((["join", P[a], P[b], "-o", out], _expect_join(out, facets)))
            inv.append((["homology", out], _expect_homology(answer)))
        return inv

    def _facets(self, name: str) -> list:
        with open(self.paths[name], encoding="utf-8") as fh:
            return json.load(fh)["facets"]

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # ---- operations
    def run_pass(self, index: int, tick, tracer=None) -> list[Op]:
        env = dict(os.environ, PYTHONPATH=SRC)
        ops = []
        for argv, check in self.invocations:
            tick()
            if self.replay:
                ops.append(self._in_process(argv, check, tracer))
                continue
            cmd = [sys.executable, "-m", "diskplex.cli", *argv, "--json"]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
            except subprocess.TimeoutExpired:
                ops.append(Op(argv[0], 0.0, False, "timed out", kind=argv[0]))
                continue
            dt = time.perf_counter() - t0
            op = _verdict(argv, dt, proc.returncode, proc.stdout, proc.stderr, check)
            op.start = t0
            ops.append(op)
        return ops

    def _in_process(self, argv, check, tracer) -> Op:
        """Replay one invocation through ``diskplex.cli.main`` in this process."""
        from diskplex import cli

        out, err = io.StringIO(), io.StringIO()
        root = tracer.op_span(f"cli.{argv[0]}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--json"])
        except Exception as exc:
            return Op(argv[0], 0.0, False, f"raised {exc!r}", kind=argv[0])
        finally:
            dt = time.perf_counter() - t0
            if root:
                root.close()
        op = _verdict(argv, dt, code, out.getvalue(), err.getvalue(), check)
        op.start = t0
        return op


def _verdict(argv, seconds, code, stdout, stderr, check) -> Op:
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    problem = check(code, payload)
    if problem and stderr.strip():
        problem += f" (stderr: {stderr.strip().splitlines()[-1]})"
    return Op(" ".join(os.path.basename(a) for a in argv), seconds, not problem,
              problem or "", kind=argv[0])


def _status(code, payload) -> str:
    if code != 0:
        return f"exit status {code}"
    if not isinstance(payload, dict):
        return "no JSON object on stdout"
    return ""


def _expect_fields(want: dict):
    def check(code, payload):
        bad = _status(code, payload)
        if bad:
            return bad
        wrong = {k: payload.get(k) for k, v in want.items() if payload.get(k) != v}
        return f"fields {wrong} differ from {want}" if wrong else ""
    return check


def _expect_homology(answer: dict):
    def check(code, payload):
        bad = _status(code, payload)
        if bad:
            return bad
        if payload.get("homology") != profile_json(answer):
            return f"homology {payload.get('homology')}"
        return ""
    return check


def _expect_milnor(answer: dict):
    def check(code, payload):
        bad = _status(code, payload)
        if bad:
            return bad
        want = profile_json(answer)
        if not payload.get("passed") or payload.get("direct") != want or payload.get("formula") != want:
            return f"milnor report {payload}"
        return ""
    return check


def _expect_additivity(want: dict):
    def check(code, payload):
        bad = _status(code, payload)
        if bad:
            return bad
        index_sum = payload.get("index_sum") or {}
        got = {
            "euler_characteristic": payload.get("euler_characteristic"),
            "summed": index_sum.get("summed_index"),
            "global": index_sum.get("global_index"),
        }
        if not payload.get("matching", {}).get("passed") or not index_sum.get("passed") or got != want:
            return f"additivity {got}, expected {want}"
        return ""
    return check


def _expect_width(code, payload):
    bad = _status(code, payload)
    if bad:
        return bad
    steps = payload.get("steps") or []
    if not payload.get("all_decreasing") or not steps or not all(s["decreased"] for s in steps):
        return "width cascade did not strictly decrease"
    return ""


def _expect_catalog(code, payload):
    bad = _status(code, payload)
    if bad:
        return bad
    got = {p["kind"]: (p["weight"], p["euler"], p["index"]) for p in payload.get("pieces", [])}
    return "" if got == CATALOG else f"catalog {got}"


def _expect_join(path: str, facets: int):
    def check(code, payload):
        bad = _status(code, payload)
        if bad:
            return bad
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return f"join output unreadable: {exc}"
        data = json.loads(raw)
        canonical = json.dumps(data, sort_keys=True, separators=(", ", ": ")) + "\n"
        if raw.decode("utf-8") != canonical:
            return "join output is not canonical JSON"
        if data != payload or len(data["facets"]) != facets:
            return f"join output has {len(data['facets'])} facets, expected {facets}"
        return ""
    return check


def make(name: str, seed: int, work_dir: str, replay: bool = False):
    if name == "homology-large":
        return HomologyLarge(seed)
    if name == "suite-default":
        return SuiteDefault(seed)
    if name == "cli-files":
        return CliFiles(seed, work_dir, replay)
    raise ValueError(f"unknown workload {name!r}")
