"""The verification suite: every headline property, deterministically.

Each property draws its own RNG seeded from (run seed, property name), so
properties are independent and the whole run is reproducible: the same
RunConfig yields byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from typing import Callable

from . import _Value, corpus
from .additivity import Placement, SurfaceConfiguration, TetGluing, verify_index_sum
from .cubes import cone_base_complex, cube_from_cone, dual_cells, subdivide_cube
from .dichotomy import check_dichotomy
from .homology import (
    AbelianGroup,
    HomologyProfile,
    finite_index,
    homology_index,
)
from .join_formula import verify_milnor
from .pieces import catalog, piece, validate_piece
from .simplicial import barycentric_subdivision, boundary_of_simplex, from_facets
from .width import apply_surgery, verify_width_decrease


class RunConfig(_Value):
    _fields = ("seed", "counts")

    def __init__(self, seed: int = 1036, counts: int | None = None):
        # ``counts`` overrides per-property case counts
        if counts is not None and counts < 0:
            raise ValueError(f"counts must be nonnegative, got {counts}")
        self.__dict__.update(seed=seed, counts=counts)


class PropertyResult(_Value):
    _fields = ("name", "passed", "cases", "details")

    def __init__(self, name: str, passed: bool, cases: int, details: tuple[str, ...] = ()):
        self.__dict__.update(name=name, passed=passed, cases=cases, details=tuple(details))


class SuiteReport(_Value):
    _fields = ("seed", "counts", "results")

    def __init__(self, seed: int, counts: int | None, results: tuple[PropertyResult, ...]):
        self.__dict__.update(seed=seed, counts=counts, results=tuple(results))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _rng_for(seed: int, name: str) -> random.Random:
    return random.Random((seed << 16) ^ zlib.crc32(name.encode("utf-8")))


def _cases(config: RunConfig, default: int) -> int:
    return config.counts if config.counts is not None else default


# ------------------------------------------------------------ properties

def projective_plane():
    return from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
         [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]],
        name="projective-plane",
    )


def two_points():
    return from_facets([["p"], ["q"]], name="two-points")


def prop_sphere_ladder(config: RunConfig) -> PropertyResult:
    details = []
    ok = True
    for k in range(1, 5):
        sphere = boundary_of_simplex(k + 2)
        ind = homology_index(sphere)
        want = finite_index(k + 1)
        ok = ok and ind == want
        details.append(f"boundary of {k + 1}-simplex: index {ind} (expect {want})")
    return PropertyResult("sphere_ladder", ok, 4, details)


_MILNOR_FIXED = (
    ("two-points * two-points", lambda: (two_points(), two_points()),
     HomologyProfile(groups=(AbelianGroup(), AbelianGroup(rank=1)))),
    ("projective-plane * two-points", lambda: (projective_plane(), two_points()),
     HomologyProfile(groups=(AbelianGroup(), AbelianGroup(), AbelianGroup(torsion=(2,))))),
    ("projective-plane * projective-plane", lambda: (projective_plane(), projective_plane()),
     HomologyProfile(groups=(AbelianGroup(), AbelianGroup(), AbelianGroup(),
                             AbelianGroup(torsion=(2,)), AbelianGroup(torsion=(2,))))),
)


def prop_milnor_formula(config: RunConfig) -> PropertyResult:
    rng = _rng_for(config.seed, "milnor_formula")
    details = []
    ok = True
    cases = 0
    for label, build, expected in _MILNOR_FIXED:
        a, b = build()
        report = verify_milnor(a, b)
        agrees = report.passed and report.direct == expected
        ok = ok and agrees
        cases += 1
        profile = "; ".join(report.direct.render_lines())
        details.append(f"{label}: {'ok' if agrees else 'MISMATCH'} ({profile})")
    n = _cases(config, 50)
    failures = 0
    for a, b in corpus.milnor_pairs(rng, n):
        report = verify_milnor(a, b)
        cases += 1
        if not report.passed:
            failures += 1
            details.append(f"random pair FAIL: {report.name}")
    ok = ok and failures == 0
    details.append(f"random pairs: {n - failures}/{n} agree")
    return PropertyResult("milnor_formula", ok, cases, details)


def prop_index_additivity(config: RunConfig) -> PropertyResult:
    rng = _rng_for(config.seed, "index_additivity")
    n = _cases(config, 100)
    failures = 0
    indexed_seen = 0
    for cfg in corpus.random_configurations(rng, n):
        report = verify_index_sum(cfg)
        if not report.summed_index.is_zero:
            indexed_seen += 1
        if not report.passed:
            failures += 1
    details = (f"{n - failures}/{n} configurations additive; {indexed_seen} with positive index",)
    return PropertyResult("index_additivity", failures == 0, n, details)


_CENSUS = (  # label, tetrahedra, (tet, kind, mult) placements, summed index
    ("all normal pieces", 1, ((0, "TRI_0", 1), (0, "TRI_2", 2), (0, "QUAD_3", 1)), "ZERO"),
    ("one octagon", 1, ((0, "OCT_2", 1),), "INDEX(1)"),
    ("one tube", 1, ((0, "TUBE", 1),), "INDEX(1)"),
    ("octagon and tube apart", 2, ((0, "OCT_1", 1), (1, "TUBE", 1)), "INDEX(2)"),
    ("helical 12-gon", 1, ((0, "HELICAL_12GON", 1),), "INDEX(2)"),
    ("triple tube", 1, ((0, "TRIPLE_TUBE", 1),), "INDEX(2)"),
    ("octagon tubed to disk", 1, ((0, "OCT_TUBE_DISK", 1),), "INDEX(2)"),
    ("octagon tubed to itself", 1, ((0, "OCT_TUBE_SELF", 1),), "INDEX(2)"),
)

_EXPECTED_WEIGHTS = {
    "TRI_0": 3, "TRI_1": 3, "TRI_2": 3, "TRI_3": 3,
    "QUAD_1": 4, "QUAD_2": 4, "QUAD_3": 4,
    "OCT_1": 8, "OCT_2": 8, "OCT_3": 8,
    "TUBE": 6, "HELICAL_12GON": 12, "TRIPLE_TUBE": 9,
    "OCT_TUBE_DISK": 11, "OCT_TUBE_SELF": 8,
}


def prop_local_census(config: RunConfig) -> PropertyResult:
    details = []
    ok = True
    for kind, expected_weight in sorted(_EXPECTED_WEIGHTS.items()):
        p = piece(kind)
        good = p.weight == expected_weight
        ok = ok and good
        if not good:
            details.append(f"{kind}: weight {p.weight} != {expected_weight}")
    details.append(f"weights: all {len(_EXPECTED_WEIGHTS)} kinds as cataloged")
    for label, tets, pieces, expected in _CENSUS:
        placements = tuple(Placement(*p) for p in pieces)
        cfg = SurfaceConfiguration(TetGluing(tets), placements)
        report = verify_index_sum(cfg)
        good = report.passed and str(report.summed_index) == expected
        ok = ok and good
        details.append(
            f"{label}: sum {report.summed_index}, global {report.global_index}"
            + ("" if good else f" (expect {expected})")
        )
    return PropertyResult("local_census", ok, len(_CENSUS) + len(_EXPECTED_WEIGHTS), details)


def prop_dichotomy(config: RunConfig) -> PropertyResult:
    rng = _rng_for(config.seed, "dichotomy")
    n = _cases(config, 100)
    verdicts = {"Y_SMALL": 0, "TAU_FOUND": 0, "FAILURE": 0}
    for x, y in corpus.full_subcomplex_pairs(rng, n):
        witness = check_dichotomy(x, y)
        verdicts[witness.verdict] += 1
    details = (
        f"Y_SMALL {verdicts['Y_SMALL']}, TAU_FOUND {verdicts['TAU_FOUND']}, "
        f"FAILURE {verdicts['FAILURE']}",
    )
    return PropertyResult("dichotomy", verdicts["FAILURE"] == 0, n, details)


def prop_width_descent(config: RunConfig) -> PropertyResult:
    rng = _rng_for(config.seed, "width_descent")
    n = _cases(config, 1000)
    walks = min(_cases(config, 100), n)
    failures = 0
    for surface, move in corpus.surfaces_with_moves(rng, n):
        if not verify_width_decrease(surface, move).passed:
            failures += 1
    cap = 5000
    stuck = 0
    for _ in range(walks):
        surface = corpus.random_surface(rng)
        steps = 0
        while steps < cap:
            move = corpus.random_move(rng, surface)
            if move is None:
                break
            surface = apply_surgery(surface, move)
            steps += 1
        if steps >= cap:
            stuck += 1
    details = (
        f"{n - failures}/{n} moves strictly decrease width",
        f"{walks - stuck}/{walks} random walks terminate",
    )
    return PropertyResult("width_descent", failures == 0 and stuck == 0, n + walks, details)


def prop_constructions(config: RunConfig) -> PropertyResult:
    rng = _rng_for(config.seed, "constructions")
    details = []
    ok = True

    n_chi = _cases(config, 50)
    chi_bad = 0
    for _ in range(n_chi):
        k = corpus.random_complex(rng, max_vertices=6, max_facet_size=4, max_facets=6)
        if barycentric_subdivision(k).euler_characteristic() != k.euler_characteristic():
            chi_bad += 1
    ok = ok and chi_bad == 0
    details.append(f"subdivision Euler invariance: {n_chi - chi_bad}/{n_chi}")

    for n in range(1, 5):
        cube = cube_from_cone(n)
        base = cone_base_complex(n)
        labels = set(cube.labels.values())
        want = {"z"} | {f for f in (tuple(face) for face in base.all_faces())}
        good = len(cube.labels) == 2 ** n and labels == want
        ok = ok and good
        details.append(f"cone-to-cube corners n={n}: {'bijective' if good else 'MISMATCH'}")

    grid_bad = 0
    dual_bad = 0
    n_grid = max(_cases(config, 20), 1)
    for n, counts in corpus.random_grid_specs(rng, n_grid):
        grid = subdivide_cube(n, counts)
        tops = len(grid.cells_of_dim(n))
        verts = len(grid.cells_of_dim(0))
        if tops != math.prod(c + 1 for c in counts) or verts != math.prod(c + 2 for c in counts):
            grid_bad += 1
        dual = dual_cells(grid)
        for d in range(n + 1):
            # Apart from dual_cells' boundary search: an interior d-cell takes one of
            # c + 1 segments on each of d axes and one of c inner planes on the rest.
            interior_d = sum(math.prod(c + (i in axes) for i, c in enumerate(counts))
                             for axes in itertools.combinations(range(n), d))
            if len(dual.cells_of_dim(n - d)) != interior_d:
                dual_bad += 1
                break
    ok = ok and grid_bad == 0 and dual_bad == 0
    details.append(f"grid cell counts: {n_grid - grid_bad}/{n_grid}")
    details.append(f"dual cell-count correspondence: {n_grid - dual_bad}/{n_grid}")

    return PropertyResult("constructions", ok, n_chi + 4 + 2 * n_grid, details)


def prop_catalog_integrity(config: RunConfig) -> PropertyResult:
    details = []
    ok = True
    entries = catalog()
    for p in entries:
        try:
            validate_piece(p)
            details.append(f"{p.kind}: weight {p.weight}, euler {p.euler}, index {p.declared_index}")
        except ValueError as exc:
            ok = False
            details.append(f"FAIL {exc}")
    return PropertyResult("catalog_integrity", ok, len(entries), details)


def prop_determinism(config: RunConfig) -> PropertyResult:
    mini = RunConfig(seed=config.seed, counts=4)
    first = render_text(_run_properties(mini, _MINI_PROPERTIES))
    second = render_text(_run_properties(mini, _MINI_PROPERTIES))
    ok = first == second
    return PropertyResult(
        "determinism", ok, 1,
        (f"double run of a reduced suite: {'byte-identical' if ok else 'DIVERGED'}",),
    )


_PROPERTIES: tuple[tuple[str, Callable], ...] = (
    ("sphere_ladder", prop_sphere_ladder),
    ("milnor_formula", prop_milnor_formula),
    ("index_additivity", prop_index_additivity),
    ("local_census", prop_local_census),
    ("dichotomy", prop_dichotomy),
    ("width_descent", prop_width_descent),
    ("constructions", prop_constructions),
    ("catalog_integrity", prop_catalog_integrity),
    ("determinism", prop_determinism),
)

_MINI_PROPERTIES = tuple(
    (name, fn) for name, fn in _PROPERTIES
    if name in ("milnor_formula", "width_descent", "index_additivity")
)


def _run_properties(config: RunConfig, properties) -> SuiteReport:
    results = [fn(config) for _, fn in properties]
    return SuiteReport(seed=config.seed, counts=config.counts, results=results)


def run_suite(config: RunConfig = RunConfig()) -> SuiteReport:
    """Run every property."""
    return _run_properties(config, _PROPERTIES)


def render_text(report: SuiteReport) -> str:
    lines = [
        "verification suite",
        f"seed: {report.seed}",
        f"counts: {'default' if report.counts is None else report.counts}",
        "",
    ]
    for r in report.results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.cases} cases)")
        for d in r.details:
            lines.append(f"    {d}")
    lines.append("")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def report_json_dict(report: SuiteReport) -> dict:
    return {
        "seed": report.seed,
        "counts": report.counts,
        "overall": "PASS" if report.passed else "FAIL",
        "properties": [
            {
                "name": r.name,
                "passed": r.passed,
                "cases": r.cases,
                "details": list(r.details),
            }
            for r in report.results
        ],
    }
