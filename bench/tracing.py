"""Spans and counters around diskplex's module boundaries, from outside.

``Tracer.install()`` rebinds module-level names (and one method) inside
the loaded ``diskplex`` modules so that each call into a layer opens a
span; ``uninstall()`` restores the originals.  Nothing under ``src/``
changes.  A span is (name, start, end, parent, operation id); spans are
kept in memory and written out by ``write()``.  Only calls made inside an
operation's root span are recorded, so the benchmark's own answer checks
never count as work.

Self time is a span's duration minus the time its child spans cover;
the self times of a span tree add up to its root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for every wrapped function.  A name bound
# in several modules (``from .homology import homology_index``) is
# rebound in each of them.
TARGETS = (
    ("simplicial", "from_facets", "simplicial.from_facets"),
    ("simplicial", "join", "simplicial.join"),
    ("simplicial", "barycentric_subdivision", "simplicial.barycentric_subdivision"),
    ("simplicial", "adjacency_subcomplex", "simplicial.adjacency_subcomplex"),
    ("homology", "reduced_homology", "homology.reduced_homology"),
    ("homology", "boundary_matrices", "homology.boundary_matrices"),
    ("homology", "smith_normal_form", "homology.smith_normal_form"),
    ("homology", "homology_index", "homology.homology_index"),
    ("join_formula", "verify_milnor", "join_formula.verify_milnor"),
    ("additivity", "verify_index_sum", "additivity.verify_index_sum"),
    ("additivity", "global_complex", "additivity.global_complex"),
    ("additivity", "load_config", "io.load_config"),
    ("width", "available_moves", "width.available_moves"),
    ("width", "apply_surgery", "width.apply_surgery"),
    ("width", "verify_width_decrease", "width.verify_width_decrease"),
    ("dichotomy", "check_dichotomy", "dichotomy.check_dichotomy"),
    ("cubes", "subdivide_cube", "cubes.subdivide_cube"),
    ("cubes", "dual_cells", "cubes.dual_cells"),
    ("corpus", "random_complex", "corpus.random_complex"),
    ("corpus", "milnor_pairs", "corpus.milnor_pairs"),
    ("corpus", "full_subcomplex_pairs", "corpus.full_subcomplex_pairs"),
    ("corpus", "random_surface", "corpus.random_surface"),
    ("corpus", "random_move", "corpus.random_move"),
    ("corpus", "surfaces_with_moves", "corpus.surfaces_with_moves"),
    ("corpus", "random_configurations", "corpus.random_configurations"),
    ("corpus", "random_grid_specs", "corpus.random_grid_specs"),
    ("pieces", "catalog", "pieces.catalog"),
    ("io", "parse_complex", "io.parse_complex"),
    ("io", "write_complex", "io.write_complex"),
)


class OpSpan:
    """Root span of one operation; ``close()`` ends it."""

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        tracer.op_id += 1
        self.frame = tracer.open(name)

    def close(self):
        self.tracer.close(self.frame)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (name, start, end, parent, op id)
        self.stack: list[list] = []  # [name, start, index, child time]
        self.op_id = 0
        self.self_time: Counter = Counter()
        self.total_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.dichotomy_frames: list[list[int]] = []
        self._saved: list[tuple] = []

    # ---- spans
    def open(self, name: str) -> list:
        frame = [name, self.clock(), len(self.spans), 0.0]
        self.spans.append(None)  # filled in by close(), keeps start order
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, index, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[index] = (name, start, end, parent[2] if parent else -1, self.op_id)
        self.self_time[name] += duration - child
        self.total_time[name] += duration

    def op_span(self, name: str) -> OpSpan:
        return OpSpan(self, name)

    def snapshot(self) -> tuple[Counter, Counter, Counter]:
        """Copies of the self-time, total-time and count aggregates."""
        return Counter(self.self_time), Counter(self.total_time), Counter(self.counts)

    # ---- wrappers
    def wrap(self, name: str, fn, after=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.stack:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        frame = tracer.open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(frame)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                # Counting has a span of its own, so its cost is not
                # charged to the caller's self time.
                frame = tracer.open("trace.count")
                try:
                    after(args, result)
                finally:
                    tracer.close(frame)
            return result
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "diskplex" and not mod_name.startswith("diskplex."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Rebind every target in the loaded diskplex modules."""
        import diskplex.dichotomy
        import diskplex.simplicial
        import diskplex.suite

        after = {
            "homology.boundary_matrices": self._count_matrices,
            "homology.smith_normal_form": self._count_factors,
            "simplicial.from_facets": self._count_complex,
            "width.available_moves": self._count_moves_built,
            "corpus.random_move": self._count_move_sampled,
            "io.parse_complex": self._count_bytes_read,
            "io.write_complex": self._count_bytes_written,
        }
        for module, attr, name in TARGETS:
            original = getattr(sys.modules[f"diskplex.{module}"], attr)
            self._rebind(original, self.wrap(name, original, after.get(name)))

        # Dichotomy: taus tried are adjacency subcomplexes built inside
        # check_dichotomy; V_tau index calls are its index calls after
        # the first tau (the two before are ind(X) and ind(Y)).
        dich = diskplex.dichotomy
        check, adjacency, index = dich.check_dichotomy, dich.adjacency_subcomplex, dich.homology_index
        frames = self.dichotomy_frames

        def check_dichotomy(x, y):
            frames.append([0])
            try:
                return check(x, y)
            finally:
                frames.pop()

        def adjacency_subcomplex(x, y, tau):
            if frames and self.stack:
                frames[-1][0] += 1
                self.counts["dichotomy.taus_tried"] += 1
            return adjacency(x, y, tau)

        def homology_index(k):
            if frames and frames[-1][0] and self.stack:
                self.counts["dichotomy.vtau_index_calls"] += 1
            return index(k)

        self._rebind(check, check_dichotomy)
        for attr, fn in (("adjacency_subcomplex", adjacency_subcomplex),
                         ("homology_index", homology_index)):
            self._saved.append((dich, attr, getattr(dich, attr)))
            setattr(dich, attr, fn)

        # Memoised face enumeration: count faces only on a cache miss.
        cls = diskplex.simplicial.SimplicialComplex
        faces_by_dim = cls.faces_by_dim
        counts = self.counts
        wrapped = self.wrap("simplicial.faces_by_dim", faces_by_dim)

        def faces_method(k):
            miss = "faces" not in k._cache
            result = wrapped(k)
            if miss and self.stack:
                counts["simplicial.faces"] += sum(len(g) for g in result.values())
            return result

        self._saved.append((cls, "faces_by_dim", faces_by_dim))
        cls.faces_by_dim = faces_method

        # The suite runs its properties from a module-level table.
        suite = diskplex.suite
        self._saved.append((suite, "_PROPERTIES", suite._PROPERTIES))
        suite._PROPERTIES = tuple((n, self.wrap(f"suite.{n}", fn)) for n, fn in suite._PROPERTIES)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    # ---- counters
    def _count_matrices(self, args, mats):
        for m in mats:
            self.counts["homology.matrix_cells"] += m.rows * m.cols
            self.counts["homology.boundary_nnz"] += sum(1 for r in m.entries for v in r if v)

    def _count_factors(self, args, factors):
        self.counts["homology.snf_calls"] += 1
        self.counts["homology.rank_total"] += len(factors)
        self.counts["homology.nonunit_factors"] += sum(1 for d in factors if d > 1)

    def _count_complex(self, args, result):
        self.counts["simplicial.complexes_built"] += 1

    def _count_moves_built(self, args, moves):
        self.counts["width.moves_built"] += len(moves)

    def _count_move_sampled(self, args, move):
        if move is not None:
            self.counts["width.moves_sampled"] += 1

    def _count_bytes_read(self, args, result):
        self.counts["io.bytes"] += os.path.getsize(args[0])

    def _count_bytes_written(self, args, result):
        self.counts["io.bytes"] += os.path.getsize(args[1])

    # ---- output
    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times_of_tree(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span (by index) from the span records alone."""
    child = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return {i: (s[2] - s[1]) - child[i] for i, s in enumerate(spans)}
