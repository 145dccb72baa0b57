import random
import signal
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from diskplex import cubes
from diskplex.cubes import (
    CubicalComplex,
    cone_base_complex,
    cube_from_cone,
    dual_cells,
    subdivide_cube,
    validate_ball,
)
from diskplex.homology import reduced_homology
from diskplex.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    boundary_of_simplex,
    cone,
    empty_complex,
    from_facets,
    join,
    simplex_complex,
    vertex_key,
)


def test_unit_cube_counts_match_formula():
    for n in range(1, 5):
        cube = subdivide_cube(n, [0] * n)
        got = list(cube.counts_by_dim())
        expected = [oracles.cube_face_count(n, d) for d in range(n + 1)]
        assert got == expected
        assert cube.euler_characteristic() == 1


def test_grid_counts_match_formula():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 3)
        counts = [rng.randint(0, 3) for _ in range(n)]
        grid = subdivide_cube(n, counts)
        for d in range(n + 1):
            assert len(grid.cells_of_dim(d)) == oracles.grid_cell_count(counts, d)
        assert grid.euler_characteristic() == 1
        # the top cells, the cells under no other, are the n-cells
        assert [c for c in grid.cells if not grid.parents()[c]] == grid.cells_of_dim(n)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^need dimension at least 1$"):
        subdivide_cube(0, [])
    with pytest.raises(ValueError):
        subdivide_cube(2, [1])
    with pytest.raises(ValueError):
        subdivide_cube(1, [-1])
    # 63^3 = 250,047 cells fit the face budget of 2^18; 65^3 = 274,625 do not
    with pytest.raises(ValueError, match="grid would have 274625 cells"):
        subdivide_cube(3, [31, 31, 31])


def test_grid_coordinates_lie_in_unit_interval():
    grid = subdivide_cube(2, [2, 1])
    for v in grid.cells_of_dim(0):
        coords = oracles.grid_coordinates(v, [2, 1])
        assert all(0 <= c <= 1 for c in coords)
    with pytest.raises(ValueError):
        oracles.grid_coordinates(((0, 1), (0, 0)), [2, 1])


def test_cone_cube_labels_bijective_with_cone_faces():
    for n in range(1, 5):
        cube = cube_from_cone(n)
        base = cone_base_complex(n)
        apexed = cone(base, apex="z")
        labels = set(cube.labels.values())
        # corners are the apex plus every face of the base simplex
        expected = {"z"} | {f for f in base.all_faces()}
        assert labels == expected
        assert len(cube.labels) == 2 ** n
        # each labeled face, joined with the apex, is a face of the cone
        for label in labels:
            if label == "z":
                continue
            assert oracles.has_face(apexed, tuple(label) + ("z",))


def test_cone_cube_range():
    with pytest.raises(ValueError):
        cube_from_cone(0)
    with pytest.raises(ValueError):
        cube_from_cone(7)


def test_boundary_cells_of_square():
    cube = subdivide_cube(2, [0, 0])
    boundary = cube.boundary_cells()
    dims = sorted(cube.cell_dim[c] for c in boundary)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1]


def test_validate_ball_accepts_and_rejects():
    validate_ball(simplex_complex([1, 2, 3, 4]))
    with pytest.raises(ValueError, match=r"^empty complex is not a ball$"):
        validate_ball(empty_complex())
    validate_ball(subdivide_cube(3, [1, 0, 2]))
    circle = from_facets([[1, 2], [2, 3], [3, 1]])
    with pytest.raises(ValueError):
        validate_ball(circle)
    # pure but not a ball: sphere has euler 2
    from diskplex.simplicial import boundary_of_simplex

    with pytest.raises(ValueError):
        validate_ball(boundary_of_simplex(4))
    # impure complex
    with pytest.raises(ValueError):
        validate_ball(from_facets([[1, 2, 3], [3, 4]]))
    # the 6-vertex RP^2: pure with chi = 1, and its empty boundary has
    # chi 0, the value a 2-ball's boundary circle has
    rp2 = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
                       [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]])
    with pytest.raises(ValueError, match="empty boundary"):
        validate_ball(rp2)
    # a triangle and a disjoint annulus: pure, chi = 1, nonempty boundary
    # of chi 0, yet H~0 = H~1 = Z
    disk_annulus = from_facets([[0, 1, 2], [10, 11, 20], [11, 20, 21], [11, 12, 21],
                                [12, 21, 22], [12, 10, 22], [10, 22, 20]])
    with pytest.raises(ValueError, match=r"reduced homology H~0 = Z, H~1 = Z; not a ball"):
        validate_ball(disk_annulus)


def test_dual_cells_of_interval_path():
    # a path of 3 edges: interior = 2 inner vertices + 3 edges
    path = from_facets([[1, 2], [2, 3], [3, 4]])
    dual = dual_cells(path)
    assert list(dual.counts_by_dim()) == [3, 2]
    assert dual.euler_characteristic() == 1


def test_dual_cells_dimension_correspondence_on_grids():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 3)
        counts = [rng.randint(0, 2) for _ in range(n)]
        grid = subdivide_cube(n, counts)
        dual = dual_cells(grid)
        primal_interior = {}
        boundary = set(grid.boundary_cells())
        for c in grid.cells:
            if c not in boundary:
                d = grid.cell_dim[c]
                primal_interior[d] = primal_interior.get(d, 0) + 1
        for d, count in primal_interior.items():
            assert len(dual.cells_of_dim(n - d)) == count
        # dual vertices match top cells one to one
        assert len(dual.cells_of_dim(0)) == len(grid.cells_of_dim(n))


def test_dual_vertices_are_incident_top_cells():
    two = from_facets([[1, 2, 3], [2, 3, 4]])
    dual = dual_cells(two)
    edge = next(c for c in dual.cells if dual.cell_dim[c] == 1)
    assert dual.cell_vertices[edge] == frozenset(
        {("dual", (1, 2, 3)), ("dual", (2, 3, 4))}
    )


def test_dual_vertices_match_reference_on_grids_and_simplicial_balls():
    rng = random.Random(16)
    posets = []
    for _ in range(12):
        n = rng.randint(1, 3)
        grid = subdivide_cube(n, [rng.randint(0, 2) for _ in range(n)])
        posets.append((grid, grid.covers))
    for ball in (simplex_complex(range(5)), from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5]]),
                 cone(from_facets([[1, 2], [2, 3], [3, 4]]), apex="z"),
                 barycentric_subdivision(simplex_complex(range(3))),
                 join(from_facets([[1, 2], [2, 3]]), from_facets([["a", "b"]]))):
        posets.append((ball, oracles.face_covers(ball.facets)))
    for ball, covers in posets:
        dual = dual_cells(ball)
        for cell in dual.cells:
            want = {("dual", t) for t in oracles.dual_vertices(covers, cell[1])}
            assert dual.cell_vertices[cell] == want, (ball, cell)


def test_dual_cells_finds_the_boundary_once(monkeypatch):
    # a grid finds its boundary closure once; a simplicial ball lists no
    # face and builds no poset, since its checks read the facet masks
    calls = []
    boundary_cells = CubicalComplex.boundary_cells

    def counting(self):
        calls.append(self)
        return boundary_cells(self)

    monkeypatch.setattr(CubicalComplex, "boundary_cells", counting)
    dual_cells(subdivide_cube(2, [1, 2]))
    assert len(calls) == 1

    def listing(self):
        raise AssertionError("the ball checks listed faces")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", listing)
    monkeypatch.setattr(CubicalComplex, "boundary_cells", listing)
    two = from_facets([[1, 2, 3], [2, 3, 4]])
    validate_ball(two)
    assert dual_cells(two).counts_by_dim() == (2, 1, 0)


def test_dual_requires_ball():
    with pytest.raises(ValueError):
        dual_cells(from_facets([[1, 2], [2, 3], [3, 1]]))


def _grid_part(grid, tops, shift=0):
    """The cells of ``grid`` under the top cells ``tops``, every axis
    moved by ``shift``: (cells, cell_dim, covers)."""
    def moved(c):
        return tuple((lo + shift, hi + shift) for lo, hi in c)

    keep, todo = set(tops), list(tops)
    while todo:
        for f in grid.covers[todo.pop()]:
            if f not in keep:
                keep.add(f)
                todo.append(f)
    cells = sorted(keep)
    return ([moved(c) for c in cells], {moved(c): grid.cell_dim[c] for c in cells},
            {moved(c): tuple(map(moved, grid.covers[c])) for c in cells})


def _hand_built(n, *parts):
    cells, cell_dim, covers = [], {}, {}
    for part_cells, part_dim, part_covers in parts:
        cells += part_cells
        cell_dim.update(part_dim)
        covers.update(part_covers)
    return CubicalComplex("hand-built", n, tuple(cells), cell_dim, covers)


def test_annulus_plus_disjoint_square_is_not_a_ball():
    # pure, chi 0 + 1 = 1, boundary of three circles with chi 0: every
    # count passes, but the top cells fall into two classes
    grid = subdivide_cube(2, [2, 2])
    ring = [c for c in grid.cells_of_dim(2) if c != ((1, 2), (1, 2))]
    square = subdivide_cube(2, [0, 0])
    k = _hand_built(2, _grid_part(grid, ring), _grid_part(square, square.cells_of_dim(2), shift=10))
    assert k.euler_characteristic() == 1
    assert not oracles.is_strongly_connected(k.covers, k.cell_dim, 2)
    for check in (validate_ball, dual_cells):
        with pytest.raises(ValueError, match=r"1 of 9 top cells are not reached across 1-cells; "
                                             r"not strongly connected"):
            check(k)


def test_a_fin_on_an_interior_edge_is_not_a_pseudomanifold():
    # a fan disk with one more triangle on the edge from its centre to the
    # rim: contractible, and its boundary, the rim plus a hanging path, has
    # chi 0, so only the edge in three triangles shows it is no ball
    fan = [["c", i, i % 6 + 1] for i in range(1, 7)]
    validate_ball(from_facets(fan))
    with pytest.raises(ValueError, match=r"1-cell \(1, 'c'\) lies in 3 top cells; not a pseudomanifold"):
        validate_ball(from_facets([*fan, ["c", 1, "x"]]))
    # the same on a 2x2 grid: a square x-y on the edge from the rim vertex
    # (1, 0) to the centre (1, 1)
    grid = subdivide_cube(2, [1, 1])
    rim, centre, spoke = ((1, 1), (0, 0)), ((1, 1), (1, 1)), ((1, 1), (0, 1))
    fin_covers = {"x": (), "y": (), "rim-x": (rim, "x"), "centre-y": (centre, "y"), "x-y": ("x", "y"),
                  "fin": (spoke, "rim-x", "centre-y", "x-y")}
    fin_dim = {"x": 0, "y": 0, "rim-x": 1, "centre-y": 1, "x-y": 1, "fin": 2}
    k = _hand_built(2, _grid_part(grid, grid.cells_of_dim(2)), (list(fin_covers), fin_dim, fin_covers))
    assert k.euler_characteristic() == 1
    assert not oracles.is_pseudomanifold(k.covers, k.cell_dim, 2)
    with pytest.raises(ValueError, match=r"1-cell \(\(1, 1\), \(0, 1\)\) lies in 3 top cells"):
        validate_ball(k)


def test_ball_checks_on_grids_with_top_cells_removed_match_set_references():
    # grids with random top cells removed, alone or beside a square grid
    # with a hole: whatever validate_ball decides agrees with set-based
    # pseudomanifold and strong-connectivity references
    rng = random.Random(36)
    seen = {"accepted": 0, "not strongly connected": 0}
    for _ in range(200):
        n = rng.choice((1, 2, 2, 3))
        grid = subdivide_cube(n, [rng.randint(0, 3) for _ in range(n)])
        drop = rng.random() / 3
        parts = [_grid_part(grid, [c for c in grid.cells_of_dim(n) if rng.random() > drop]
                            or grid.cells_of_dim(n)[:1])]
        if n == 2 and rng.random() < 0.5:
            m = rng.randint(2, 3)
            ring = subdivide_cube(2, [m, m])
            a, b = rng.randint(1, m - 1), rng.randint(1, m - 1)
            hole = ((a, a + 1), (b, b + 1))
            parts.append(_grid_part(ring, [c for c in ring.cells_of_dim(2) if c != hole], shift=10))
        k = _hand_built(n, *parts)
        assert oracles.is_pseudomanifold(k.covers, k.cell_dim, n)  # grids never branch
        strong = oracles.is_strongly_connected(k.covers, k.cell_dim, n)
        try:
            validate_ball(k)
        except ValueError as e:
            if "strongly" in str(e):
                assert not strong
                seen["not strongly connected"] += 1
            continue
        assert strong
        seen["accepted"] += 1
    assert min(seen.values()) >= 10, seen


def _within(seconds, check):
    """``check()``, failing when it takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return check()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_dual_of_a_simplex_walks_only_its_interior():
    # all 2^18 - 2 proper faces of the 17-simplex lie in its boundary, and
    # its dual is one cell; listing the faces took about 11 s
    dual = _within(2, lambda: dual_cells(simplex_complex(range(18))))
    assert dual.cells == (("dual", tuple(range(18))),)
    assert dual.counts_by_dim() == (1,) + (0,) * 17
    with pytest.raises(ValueError, match="complex may have 524287 faces, over the face budget of 262144"):
        dual_cells(simplex_complex(range(19)))


def _face_poset(k):
    """``k`` as a CubicalComplex built from the set-based
    ``oracles.face_covers``, its cells in simplicial cell order: by
    dimension, then by vertex keys."""
    covers = oracles.face_covers(k.facets)
    cells = tuple(sorted(covers, key=lambda f: (len(f), [vertex_key(v) for v in f])))
    return CubicalComplex(k.name, k.dim, cells, {f: len(f) - 1 for f in cells}, covers)


def _dual_or_refusal(k):
    try:
        dual = dual_cells(k)
    except ValueError as e:
        return str(e)
    return dual.cells, dual.counts_by_dim(), dual.cell_vertices, dual.covers


def _random_pure(rng, d):
    """One or two disjoint pieces, each grown from a d-simplex by gluing
    d-simplices along ridges, with vertices drawn from d + 3."""
    facets = []
    for shift in range(0, rng.randint(1, 2) * 10, 10):
        piece = [[shift + i for i in range(d + 1)]]
        for _ in range(rng.randint(0, 8)):
            ridge = rng.choice(piece)[:]
            ridge.remove(rng.choice(ridge))
            piece.append(ridge + [rng.choice([shift + v for v in range(d + 3) if shift + v not in ridge])])
        facets += piece
    return from_facets(facets, name=f"pure-{d}")


def test_ball_checks_on_masks_match_the_face_poset_route():
    # the same complex handed in as a simplicial complex (facet masks) and
    # as a face poset (the cubical route) gets the same verdict, message
    # and dual, except where H~ or, from dimension 3, a vertex link alone
    # refuses it: only simplicial input is tested for those, so they are
    # exactly the cases that pass every count and are not acyclic, or are
    # acyclic and accepted as a poset
    rng = random.Random(21)
    seen = Counter()
    for _ in range(600):
        k = _random_pure(rng, rng.randint(1, 3))
        for case in (k, cone(k, "z")) + ((barycentric_subdivision(k),) if k.dim <= 2 else ()):
            masks, poset = _dual_or_refusal(case), _dual_or_refusal(_face_poset(case))
            counted = not isinstance(poset, str) or poset.endswith(("pseudomanifold", "strongly connected"))
            profile = reduced_homology(case)
            linked = isinstance(masks, str) and masks.startswith("link of vertex")
            assert (masks != poset) == (counted and (not profile.is_acyclic or linked)), (case.facets, masks, poset)
            if linked:
                assert case.dim >= 3 and profile.is_acyclic and not isinstance(poset, str), case.facets
            elif masks != poset:
                assert masks == f"reduced homology {', '.join(profile.render_lines())}; not a ball"
            kinds = ("link", "boundary", "Euler", "homology", "pseudomanifold", "connected")
            seen[next(w for w in kinds if w in masks) if isinstance(masks, str) else "accepted"] += 1
    # accepted, and refused by chi, the boundary's chi, H~, a branching
    # ridge and strong connectivity; and three refused by a vertex link
    assert seen.pop("link") >= 3 and len(seen) == 6 and min(seen.values()) >= 5, seen


# The cone, apex "a", over a strip of six triangles with its end vertices
# identified: pure, acyclic, its boundary has chi 2, each triangle lies in
# one or two tetrahedra and they connect; yet the link of "a" is the
# pinched strip, with H~1 = Z.
PINCHED_CONE = [[0, 1, 2, "a"], [0, 5, 6, "a"], [1, 2, 3, "a"], [2, 3, 4, "a"], [3, 4, 5, "a"], [4, 5, 6, "a"]]


def test_link_test_recurses_below_its_first_level():
    # coned once and twice more, the pinched cone is refused for the same
    # pinched strip, found two and three link levels down
    twice = cone(from_facets(PINCHED_CONE), "b")
    for k, message in (
        (twice, "link of vertex 'a' is not a 3-ball: "
                "link of vertex 'b' is not a 2-ball: reduced homology H~0 = 0, H~1 = Z; not a ball"),
        (cone(twice, "c"), "link of vertex 'a' is not a 4-ball: link of vertex 'b' is not a 3-ball: "
                           "link of vertex 'c' is not a 2-ball: reduced homology H~0 = 0, H~1 = Z; not a ball"),
    ):
        with pytest.raises(ValueError) as err:
            validate_ball(k)
        assert str(err.value) == message


def test_link_test_tests_each_face_link_once(monkeypatch):
    # the 3-edge path joined to a 2-sphere is a 4-ball and no cone, so
    # every vertex link is tested; the link of an edge is met through both
    # of its endpoints, and its homology is computed only the first time
    computed = []

    def counting(k):
        computed.append(k.facets)
        return reduced_homology(k)

    monkeypatch.setattr(cubes, "reduced_homology", counting)
    validate_ball(join(from_facets([["a", "b"], ["b", "c"], ["c", "d"]]), boundary_of_simplex(4)))
    assert len(computed) == len(set(computed)) > 1


def _grown_pure(seed, d):
    """A d-simplex with up to ten more glued on, each to a ridge that lies in
    one facet, its new vertex drawn from d + 4: disks and balls, pinched
    strips and branching ridges."""
    rng = random.Random(seed)
    facets = [tuple(range(d + 1))]
    for _ in range(rng.randint(1, 10)):
        count = Counter(f[:j] + f[j + 1:] for f in facets for j in range(d + 1))
        free = sorted(r for r, n in count.items() if n == 1)
        if not free:
            break
        ridge = rng.choice(free)
        face = tuple(sorted(ridge + (rng.choice([v for v in range(d + 4) if v not in ridge]),)))
        if face not in facets:
            facets.append(face)
    return from_facets(facets)


seeds = st.integers(0, 2 ** 32)


@settings(max_examples=100, deadline=None)
@given(st.one_of(seeds.map(lambda s: cone(_grown_pure(s, 2), "z")), seeds.map(lambda s: _grown_pure(s, 3))))
@example(from_facets(PINCHED_CONE))
@example(cone(boundary_of_simplex(4), "z"))
@example(barycentric_subdivision(simplex_complex(range(4))))
def test_link_test_matches_the_set_reference(k):
    # a 3-complex is accepted exactly when the set-based reference finds a
    # homology 3-manifold, acyclic, with a ball for some vertex link; one
    # refused only for a link names the vertex and what its link fails
    try:
        validate_ball(k)
        verdict = "ball"
    except ValueError as e:
        verdict = str(e)
    assert (verdict == "ball") == (oracles.manifold_shape(k.facets) == "ball"), (k.facets, verdict)
    if k.facets == from_facets(PINCHED_CONE).facets:
        assert verdict == "link of vertex 'a' is not a 2-ball: reduced homology H~0 = 0, H~1 = Z; not a ball"
