"""Deterministic random corpora for the verification suite and tests.

Every generator here, and the surface and move draws taken from
``width``, take an explicit ``random.Random``; nothing reads global state,
so a fixed seed reproduces every case byte for byte.  Set iteration never
feeds a draw (hash randomization must not leak into the corpora).
"""

from __future__ import annotations

import random

from .additivity import Gluing, Placement, SurfaceConfiguration, TetGluing, check_matching
from .homology import homology_index
from .pieces import piece
from .simplicial import SimplicialComplex, from_facets, full_subcomplex
from .width import random_move, random_surface


def random_complex(
    rng: random.Random,
    max_vertices: int = 7,
    max_facet_size: int = 4,
    max_facets: int = 9,
    allow_empty: bool = True,
) -> SimplicialComplex:
    n = rng.randint(0 if allow_empty else 1, max_vertices)
    if n == 0:
        return from_facets([], name="random-empty")
    vertices = list(range(1, n + 1))
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_size, n))
        facets.append(rng.sample(vertices, size))
    return from_facets(facets, name=f"random({n}v)")


def milnor_pairs(rng: random.Random, count: int):
    """Pairs for join-formula checks; empty factors appear occasionally.

    Facet sizes stay small so the joined complex's boundary matrices stay
    a desk-scale exact computation.
    """
    for _ in range(count):
        a = random_complex(rng, max_vertices=7, max_facet_size=3, max_facets=6, allow_empty=True)
        b = random_complex(rng, max_vertices=7, max_facet_size=3, max_facets=6,
                           allow_empty=(not a.is_empty))
        yield a, b


def full_subcomplex_pairs(rng: random.Random, count: int):
    """Pairs (X, Y) with X a full subcomplex of Y and X not acyclic."""
    made = 0
    while made < count:
        y = random_complex(rng, max_vertices=8, max_facet_size=4, max_facets=10, allow_empty=False)
        verts = list(y.vertices())
        keep = rng.sample(verts, rng.randint(0, len(verts)))
        x = full_subcomplex(y, keep)
        if homology_index(x).is_acyclic:
            continue
        made += 1
        yield x, y


def surfaces_with_moves(rng: random.Random, count: int):
    made = 0
    while made < count:
        surface = random_surface(rng)
        move = random_move(rng, surface)
        if move is None:
            continue
        made += 1
        yield surface, move


# ----------------------------------------------------- configurations

_INDEXED = ("OCT_1", "OCT_2", "OCT_3", "HELICAL_12GON", "OCT_TUBE_DISK", "OCT_TUBE_SELF",
            "TUBE", "TRIPLE_TUBE")


def _mirror_quad(kind: str, gluing: Gluing, outgoing: bool) -> str:
    """The one quad kind whose arcs match ``kind``'s across a gluing.

    ``kind`` sits on the gluing's a side when ``outgoing``, else on its b
    side; the match is ``check_matching``'s rule, slot i of face_a against
    slot perm[i] of face_b.  Each quad leaves one arc in a face, at a
    different corner per quad, so exactly one kind matches.
    """
    def matches(far: str) -> bool:
        a, b = (kind, far) if outgoing else (far, kind)
        arcs_a = piece(a).face_arcs[gluing.face_a].corners
        arcs_b = piece(b).face_arcs[gluing.face_b].corners
        return all(arcs_a[i] == arcs_b[gluing.perm[i]] for i in range(3))

    (far,) = [f"QUAD_{q}" for q in (1, 2, 3) if matches(f"QUAD_{q}")]
    return far


def random_configuration(rng: random.Random) -> SurfaceConfiguration:
    """A random valid configuration: gluing forest, triangle backbone,
    mirrored quad chains, and indexed pieces on unglued faces."""
    tets = rng.randint(1, 5)
    # each tetrahedron's unglued faces, ascending; when tb picks ta, ta has
    # at most 3 faces glued (to its parent and to tetrahedra in between)
    # and tb none, so no draw sees an empty list
    free = [[0, 1, 2, 3] for _ in range(tets)]
    gluings: list[Gluing] = []
    attached: dict[int, list[Gluing]] = {t: [] for t in range(tets)}
    for tb in range(1, tets):
        if rng.random() < 0.75:
            ta = rng.randrange(tb)
            fa = rng.choice(free[ta])
            fb = rng.choice(free[tb])
            perm = tuple(rng.sample(range(3), 3))
            g = Gluing(ta, fa, tb, fb, perm)
            gluings.append(g)
            attached[ta].append(g)
            attached[tb].append(g)
            free[ta].remove(fa)
            free[tb].remove(fb)
    skeleton = TetGluing(tets, tuple(gluings))

    counts: dict[tuple[int, str], int] = {}

    def put(tet: int, kind: str, mult: int = 1):
        counts[(tet, kind)] = counts.get((tet, kind), 0) + mult

    # uniform vertex-triangle backbone: matches any gluing
    backbone = rng.randint(0, 2)
    if backbone:
        for t in range(tets):
            for v in range(4):
                put(t, f"TRI_{v}", backbone)

    # a mirrored quad chain: propagate the forced quad type along the forest
    if rng.random() < 0.5:
        seed_tet = rng.randrange(tets)
        seed_quad = f"QUAD_{rng.randint(1, 3)}"
        todo = [(seed_tet, seed_quad, None)]
        while todo:
            t, kind, came_from = todo.pop()
            put(t, kind)
            for g in attached[t]:
                if g is came_from:
                    continue
                if g.tet_a == t:
                    todo.append((g.tet_b, _mirror_quad(kind, g, outgoing=True), g))
                else:
                    todo.append((g.tet_a, _mirror_quad(kind, g, outgoing=False), g))

    # indexed pieces where their arc-bearing faces are free
    budget = rng.randint(0, 3)
    placed = 0
    for _ in range(12):
        if placed >= budget:
            break
        kind = rng.choice(_INDEXED)
        needed = [f for f, arcs in enumerate(piece(kind).face_arcs) if any(arcs.corners)]
        # free lists ascend and each kind's arcs touch faces k..3, so a tail is a subset
        candidates = [t for t in range(tets) if free[t][-len(needed):] == needed]
        if candidates:
            mult = 1 if rng.random() < 0.8 else min(2, budget - placed)
            put(rng.choice(candidates), kind, mult)
            placed += mult

    placements = tuple(
        Placement(t, kind, m) for (t, kind), m in sorted(counts.items()) if m > 0
    )
    config = SurfaceConfiguration(skeleton, placements)
    report = check_matching(config)
    if not report.passed:
        raise AssertionError(f"generator produced an invalid configuration: {report.residuals!r}")
    return config


def random_configurations(rng: random.Random, count: int):
    for _ in range(count):
        yield random_configuration(rng)


def random_grid_specs(rng: random.Random, count: int):
    for _ in range(count):
        n = rng.randint(1, 3)
        yield n, [rng.randint(0, 3) for _ in range(n)]
