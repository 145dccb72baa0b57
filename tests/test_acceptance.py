"""End-to-end acceptance checks, one per stated criterion.

Each test performs its full check, appends a single pass/fail line to
RESULTS (printed in the terminal summary), and asserts.  Random cases are
seeded, so every run sees the same corpus.
"""

import hashlib
import random
import time

import oracles

from diskplex.additivity import (
    Placement,
    SurfaceConfiguration,
    TetGluing,
    verify_index_sum,
)
from diskplex.cubes import cone_base_complex, cube_from_cone, dual_cells, subdivide_cube
from diskplex.dichotomy import check_dichotomy
from diskplex.homology import AbelianGroup, finite_index, homology_index
from diskplex.join_formula import verify_milnor
from diskplex.pieces import LocalPiece, catalog, check_normal_arcs, local_index
from diskplex.simplicial import barycentric_subdivision, boundary_of_simplex, from_facets
from diskplex.suite import RunConfig, prop_catalog_integrity, render_text, run_suite
from diskplex.width import apply_surgery, available_moves, verify_width_decrease
from diskplex import corpus, suite

RESULTS = []

RP2 = oracles.RP2


def record(n: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    RESULTS.append(f"[{status}] criterion {n}: {description}{suffix}")
    assert ok, f"criterion {n}: {description}{suffix}"


def test_criterion_1_sphere_ladder():
    ok = True
    worst = 0.0
    for k in range(1, 5):
        start = time.perf_counter()
        idx = homology_index(boundary_of_simplex(k + 2))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and idx == finite_index(k + 1) and elapsed < 1.0
    record(1, "sphere boundaries index as dimension plus one", ok,
           f"slowest {worst:.3f}s")


def test_criterion_2_milnor_formula():
    start = time.perf_counter()
    s0 = from_facets([["p"], ["q"]], name="two-points")
    rp2 = from_facets(RP2, name="projective-plane")

    fixed_ok = True
    rep = verify_milnor(s0, s0)
    fixed_ok &= rep.passed and rep.direct.group(1) == AbelianGroup(1, ())
    rep = verify_milnor(rp2, s0)
    fixed_ok &= rep.passed and rep.direct.group(2) == AbelianGroup(0, (2,))
    rep = verify_milnor(rp2, rp2)
    fixed_ok &= (
        rep.passed
        and rep.direct.group(3) == AbelianGroup(0, (2,))
        and rep.direct.group(4) == AbelianGroup(0, (2,))
    )

    rng = random.Random(20_24)
    agreed = sum(1 for a, b in corpus.milnor_pairs(rng, 50) if verify_milnor(a, b).passed)
    elapsed = time.perf_counter() - start
    ok = fixed_ok and agreed == 50 and elapsed < 30.0
    record(2, "join homology equals the tensor/Tor formula", ok,
           f"fixed cases + {agreed}/50 random pairs in {elapsed:.1f}s")


def test_criterion_3_index_additivity():
    rng = random.Random(7_77)
    good = 0
    for cfg in corpus.random_configurations(rng, 100):
        assert cfg.skeleton.tets <= 5
        r = verify_index_sum(cfg)
        if r.passed:
            good += 1
    record(3, "global index equals the sum of local indices", good == 100,
           f"{good}/100 configurations")


def census_config(pieces):
    tets = max(t for t, _ in pieces) + 1
    pls = tuple(Placement(t, kind, 1) for t, kind in pieces)
    return SurfaceConfiguration(TetGluing(tets, ()), pls)


def test_criterion_4_local_census():
    cases = [
        ([(0, "TRI_0"), (0, "TRI_1"), (0, "QUAD_2")], 0),
        ([(0, "TRI_0"), (1, "OCT_1")], 1),
        ([(0, "TUBE"), (1, "QUAD_1")], 1),
        ([(0, "OCT_3"), (1, "TUBE")], 2),
        ([(0, "OCT_1"), (1, "OCT_2")], 2),
        ([(0, "HELICAL_12GON")], 2),
        ([(0, "TRIPLE_TUBE")], 2),
        ([(0, "OCT_TUBE_DISK")], 2),
        ([(0, "OCT_TUBE_SELF")], 2),
    ]
    ok = True
    for pieces, expected in cases:
        r = verify_index_sum(census_config(pieces))
        want = "ZERO" if expected == 0 else f"INDEX({expected})"
        ok = ok and r.passed and str(r.global_index) == want
    record(4, "piece census reproduces indices 0, 1 and 2", ok,
           f"{len(cases)} configurations")


def test_criterion_5_dichotomy():
    rng = random.Random(31_41)
    verdicts = {"Y_SMALL": 0, "TAU_FOUND": 0, "FAILURE": 0}
    for x, y in corpus.full_subcomplex_pairs(rng, 100):
        assert y.dim <= 3 and len(y.vertices()) <= 8
        verdicts[check_dichotomy(x, y).verdict] += 1
    ok = verdicts["FAILURE"] == 0 and sum(verdicts.values()) == 100
    record(5, "every pair yields a small Y or a witness simplex", ok,
           f"Y_SMALL {verdicts['Y_SMALL']}, TAU_FOUND {verdicts['TAU_FOUND']}, "
           f"FAILURE {verdicts['FAILURE']}")


def test_criterion_6_width_descent():
    rng = random.Random(16_18)
    decreases = 0
    tried = 0
    while tried < 1000:
        surface = corpus.random_surface(rng)
        move = corpus.random_move(rng, surface)
        if move is None:
            continue
        tried += 1
        if verify_width_decrease(surface, move).passed:
            decreases += 1
    walks_ok = 0
    for _ in range(100):
        s = corpus.random_surface(rng)
        for _ in range(5000):
            moves = available_moves(s)
            if not moves:
                walks_ok += 1
                break
            s = apply_surgery(s, rng.choice(moves))
    ok = decreases == 1000 and walks_ok == 100
    record(6, "surgery strictly lowers width and always terminates", ok,
           f"{decreases}/1000 decreases, {walks_ok}/100 walks")


def test_criterion_7_constructions():
    rng = random.Random(27_18)
    chi_ok = 0
    for _ in range(50):
        k = corpus.random_complex(rng, max_vertices=5, max_facet_size=3)
        if barycentric_subdivision(k).euler_characteristic() == k.euler_characteristic():
            chi_ok += 1

    cone_ok = True
    for n in range(1, 5):
        cube = cube_from_cone(n)
        expected = {"z"} | set(cone_base_complex(n).all_faces())
        cone_ok = cone_ok and set(cube.labels.values()) == expected
        cone_ok = cone_ok and len(cube.labels) == len(expected) == 2 ** n

    grid_ok = True
    dual_ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        counts = [rng.randint(0, 3) for _ in range(n)]
        grid = subdivide_cube(n, counts)
        tops = 1
        for c in counts:
            tops *= c + 1
        grid_ok = grid_ok and len(grid.cells_of_dim(n)) == tops
        dual = dual_cells(grid)
        boundary = set(grid.boundary_cells())
        for d in range(n + 1):
            interior_d = sum(
                1 for c in grid.cells_of_dim(d) if c not in boundary
            )
            dual_ok = dual_ok and len(dual.cells_of_dim(n - d)) == interior_d

    ok = chi_ok == 50 and cone_ok and grid_ok and dual_ok
    record(7, "subdivision, cone-to-cube, grid and dual cell laws", ok,
           f"chi {chi_ok}/50, cones n<=4, 20 grids")


def test_criterion_8_catalog_integrity(monkeypatch):
    ok = True
    for p in catalog():
        ok = ok and local_index(p) == p.declared_index
        ok = ok and check_normal_arcs(p.face_arcs).passed
    ok = ok and len(catalog()) == len(oracles.PIECE_KINDS)

    # negative control: a tampered catalog must fail the suite's check
    tampered = list(catalog())
    first = tampered[0]
    tampered[0] = LocalPiece(first.kind, first.edge_weights, first.face_arcs, first.euler,
                             finite_index(3), first.model_complex)
    monkeypatch.setattr(suite, "catalog", lambda: tuple(tampered))
    bad = prop_catalog_integrity(RunConfig(counts=2))
    ok = ok and not bad.passed
    record(8, "catalog indices recompute and tampering is caught", ok,
           f"{len(oracles.PIECE_KINDS)} kinds + negative control")


# SHA-256 of the suite report text: the default seed's as recorded by the
# benchmark, and three more seeds recorded alongside it
SUITE_SHA256 = {
    1036: "370ea2e2e27c514b645a86ab0f386ac6e780d3104f96a50dcfa2d694184bd26a",
    1: "aeafab669583be3c4b65da94fc3e8029359283508562f28dcd5709b6cb880d0f",
    2: "d3f5f4e5e95a2d50d7d92b244ac627bbd872198d33311c3bc007459298d960c2",
    77: "70f1cab21a24221c047e3dec2a6e7b56b839f8251d0076353ba7a6a6d2a60478",
}


def test_criterion_9_determinism():
    first = run_suite(RunConfig(seed=1036))
    ok = render_text(first) == render_text(run_suite(RunConfig(seed=1036))) and first.exit_code == 0
    for seed, digest in SUITE_SHA256.items():
        text = render_text(first if seed == 1036 else run_suite(RunConfig(seed=seed)))
        ok = ok and hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    record(9, "same-seed suite runs are byte-identical and match the recorded reports", ok,
           f"seeds {sorted(SUITE_SHA256)}")
