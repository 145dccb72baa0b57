import hashlib
import itertools
import json
import random
import signal

import pytest

import oracles

from diskplex.additivity import (
    Gluing,
    Placement,
    SurfaceConfiguration,
    TetGluing,
    check_matching,
    config_from_json_dict,
    euler_characteristic,
    global_complex,
    verify_index_sum,
)
from diskplex.homology import finite_index, homology_index
from diskplex.pieces import FACES, catalog, piece
from diskplex.simplicial import relabel
from diskplex import additivity, corpus
from diskplex.cli import main


def single(kind, tets=1, tet=0, mult=1):
    return SurfaceConfiguration(TetGluing(tets, ()), (Placement(tet, kind, mult),))


def test_gluing_validation():
    Gluing(0, 0, 1, 0, (2, 0, 1))
    with pytest.raises(ValueError):
        Gluing(0, 0, 0, 0, (0, 1, 2))  # same face to itself
    with pytest.raises(ValueError):
        Gluing(0, 4, 1, 0, (0, 1, 2))
    with pytest.raises(ValueError, match="face labels must be 0..3"):
        Gluing(0, 0, 1, 4, (0, 1, 2))
    with pytest.raises(ValueError):
        Gluing(0, 0, 1, 0, (0, 0, 1))
    with pytest.raises(ValueError):
        TetGluing(2, (Gluing(0, 0, 1, 0, (0, 1, 2)), Gluing(0, 0, 1, 1, (0, 1, 2))))
    with pytest.raises(ValueError):
        TetGluing(1, (Gluing(0, 0, 1, 0, (0, 1, 2)),))


def test_placement_validation():
    with pytest.raises(ValueError):
        SurfaceConfiguration(TetGluing(1, ()), (Placement(1, "TRI_0", 1),))
    with pytest.raises(ValueError):
        SurfaceConfiguration(TetGluing(1, ()), (Placement(0, "NOT_A_KIND", 1),))
    with pytest.raises(ValueError):
        Placement(0, "TRI_0", 0)


def test_single_piece_euler_matches_piece():
    # an unglued piece keeps its own Euler characteristic:
    # weight points minus one arc per point, plus the piece itself
    # tetrahedra that nothing names add nothing, however many there are
    for kind in oracles.PIECE_KINDS:
        for tets in (1, 10**9):
            cfg = single(kind, tets=tets)
            assert check_matching(cfg).passed
            assert euler_characteristic(cfg) == piece(kind).euler, kind


def test_matching_residuals_reported():
    g = Gluing(0, 0, 1, 0, (0, 1, 2))
    cfg = SurfaceConfiguration(
        TetGluing(2, (g,)),
        (Placement(0, "TRI_1", 1), Placement(1, "TRI_2", 1)),
    )
    # TRI_1 puts one arc at face 0 corner 1; TRI_2 at corner 2
    report = check_matching(cfg)
    assert not report.passed
    assert len(report.residuals) == 2
    with pytest.raises(ValueError):
        euler_characteristic(cfg)


def test_matching_with_permutation():
    # sending corner slots 1 -> 2 aligns TRI_1 against TRI_2 across face 0
    # (face 0 corners are (1, 2, 3): slots 0, 1, 2)
    g = Gluing(0, 0, 1, 0, (1, 0, 2))
    cfg = SurfaceConfiguration(
        TetGluing(2, (g,)),
        (Placement(0, "TRI_1", 1), Placement(1, "TRI_2", 1)),
    )
    assert check_matching(cfg).passed


def test_global_complex_joins_models():
    cfg = single("OCT_1", mult=2)
    g = global_complex(cfg)
    # two S^0 models join into a 4-cycle
    assert g.f_vector() == (4, 4)
    assert homology_index(g) == finite_index(2)
    r = verify_index_sum(cfg)
    assert r.passed
    assert r.global_index == finite_index(2)


def test_repeated_placement_entries_add_up():
    """Entries for one piece in one tetrahedron are one multiset: their
    joined copies are numbered across entries, so split and summed
    multiplicities give the same complex, index and Euler characteristic."""
    split = SurfaceConfiguration(TetGluing(1), (
        Placement(0, "OCT_1", 1), Placement(0, "TUBE", 1), Placement(0, "OCT_1", 1), Placement(0, "OCT_1", 1),
    ))
    whole = SurfaceConfiguration(TetGluing(1), (Placement(0, "OCT_1", 3), Placement(0, "TUBE", 1)))
    assert global_complex(split).facets == global_complex(whole).facets
    assert verify_index_sum(split) == verify_index_sum(whole)
    assert verify_index_sum(split).passed and verify_index_sum(split).global_index == finite_index(4)
    assert euler_characteristic(split) == euler_characteristic(whole) == 3


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


def test_oversized_configurations_are_refused_before_they_are_built(monkeypatch):
    """More piece copies than the face budget are refused before any copy
    is listed, and a join over the budget relabels no copy past the one
    that takes it there, so both refusals come at once."""
    calls = []
    monkeypatch.setattr(additivity, "relabel", lambda k, prefix: calls.append(prefix) or relabel(k, prefix))
    for kind, mult, message in (
        ("TRI_0", 10**12, "configuration has 1000000000000 piece copies, over the copy limit of 262144"),
        ("OCT_1", 100000, "join would have 524288 facets, over the face budget of 262144"),
    ):
        with pytest.raises(ValueError) as info:
            _within(1, lambda: verify_index_sum(single(kind, mult=mult)))
        assert str(info.value) == message
    assert len(calls) == 19
    # the limit itself is allowed
    assert global_complex(single("TRI_0", mult=2**18)).is_empty
    with pytest.raises(ValueError, match="262145 piece copies"):
        global_complex(single("TRI_0", mult=2**18 + 1))


def test_additivity_command_builds_edge_classes_once(tmp_path, monkeypatch, capsys):
    """One ``diskplex additivity`` call on a glued file runs the oriented
    union-find once, when the skeleton is built."""
    calls = []
    union_find = additivity._edge_identifications
    monkeypatch.setattr(additivity, "_edge_identifications", lambda g: calls.append(g) or union_find(g))
    backbone = [[t, f"TRI_{v}", 1] for t in (0, 1) for v in range(4)]
    path = tmp_path / "backbone.json"
    path.write_text(json.dumps({"tets": 2, "gluings": [[0, 0, 1, 0, [0, 1, 2]]], "pieces": backbone}))
    assert main(["additivity", str(path)]) == 0
    assert "euler characteristic: 5" in capsys.readouterr().out
    assert len(calls) == 1


def test_index_sum_with_normals_only():
    cfg = SurfaceConfiguration(
        TetGluing(1, ()),
        (Placement(0, "TRI_0", 2), Placement(0, "QUAD_1", 1)),
    )
    r = verify_index_sum(cfg)
    assert r.passed
    assert str(r.global_index) == "ZERO"


def test_random_configurations_always_match_and_add():
    rng = random.Random(77)
    for cfg in corpus.random_configurations(rng, 40):
        assert check_matching(cfg).passed
        euler_characteristic(cfg)
        r = verify_index_sum(cfg)
        assert r.passed, r.render_lines()


def counted_euler(cfg) -> int:
    """V - E + F of a matched configuration, counted cell by cell: V one
    point per crossing of each edge orbit, E one arc per arc of each face,
    a glued pair of faces counted once, F the pieces' own characteristics.
    A crossing count is read in the higher face at its edge."""
    def arcs(tet, f):
        return [sum(pl.multiplicity * piece(pl.kind).face_arcs[f].corners[i]
                    for pl in cfg.placements if pl.tet == tet) for i in range(3)]

    def crossings(tet, edge):
        f = max(f for f in range(4) if f not in edge)
        counts = arcs(tet, f)
        return counts[FACES[f].index(edge[0])] + counts[FACES[f].index(edge[1])]

    orbits = edge_orbits(cfg.skeleton.tets, cfg.skeleton.gluings)
    points = sum(crossings(*root) for root in set(orbits.values()))
    glued_b = [(g.tet_b, g.face_b) for g in cfg.skeleton.gluings]
    arc_count = sum(sum(arcs(t, f)) for t in range(cfg.skeleton.tets) for f in range(4)
                    if (t, f) not in glued_b)
    return points - arc_count + sum(pl.multiplicity * piece(pl.kind).euler for pl in cfg.placements)


def test_euler_characteristic_matches_a_cell_count():
    """Each piece's points and arcs cancel, so ``euler_characteristic``
    counts only what gluing merges; counting every cell gives the same."""
    rng = random.Random(11)
    glued = 0
    for cfg in corpus.random_configurations(rng, 300):
        glued += bool(cfg.skeleton.gluings)
        assert euler_characteristic(cfg) == counted_euler(cfg), cfg
    assert glued > 100


# SHA-256 of the reprs of random_configuration(Random(s)) for s in
# 0..2999, one per line, then the catalog's repr and each model complex's
# facet list: any change to a draw, a placement or a catalog entry moves it
CORPUS_SHA256 = "373e752585193f399b9bb41bf2241817519cb83a48f5eeeccf0a833148fab3d9"


def test_configuration_corpus_and_catalog_are_pinned():
    digest = hashlib.sha256()
    for s in range(3000):
        digest.update(repr(corpus.random_configuration(random.Random(s))).encode("utf-8") + b"\n")
    digest.update(repr(catalog()).encode("utf-8") + b"\n")
    for p in catalog():
        digest.update(repr(p.model_complex.facet_list()).encode("utf-8") + b"\n")
    assert digest.hexdigest() == CORPUS_SHA256


def test_config_json_round_trip():
    rng = random.Random(5)
    for cfg in corpus.random_configurations(rng, 10):
        data = oracles.config_to_json_dict(cfg)
        back = config_from_json_dict(data)
        assert back == cfg


def test_config_json_errors():
    # bare skeleton is the legal empty configuration
    empty = config_from_json_dict({"tets": 1})
    assert not empty.placements
    with pytest.raises(ValueError):
        config_from_json_dict({"gluings": []})
    with pytest.raises(ValueError):
        config_from_json_dict({"tets": 1, "gluings": [], "pieces": [[0, "XX", 1]]})
    with pytest.raises(ValueError):
        config_from_json_dict(
            {"tets": 2, "gluings": [[0, 0, 1, 0, [0, 0, 2]]], "pieces": []}
        )
    with pytest.raises(ValueError):
        config_from_json_dict({"tets": 2, "gluings": [[0, 0, 1]], "pieces": []})
    with pytest.raises(ValueError, match="gluings"):
        config_from_json_dict({"tets": 1, "gluings": 5})
    with pytest.raises(ValueError, match="pieces"):
        config_from_json_dict({"tets": 1, "pieces": {"0": "TRI_0"}})
    # only JSON integers (not bools) are read as integers, and the error
    # names the field; int() truncated 1.9 and read true as 1
    for data, message in (
        ({"tets": 1.9}, 'configuration field "tets" must be an integer, not 1.9'),
        ({"tets": True}, 'configuration field "tets" must be an integer, not True'),
        ({"tets": "2"}, "configuration field \"tets\" must be an integer, not '2'"),
        ({"tets": 2, "gluings": [[0, 0.5, 1, 0, [0, 1, 2]]]},
         "gluings[0]: face_a must be an integer, not 0.5"),
        ({"tets": 2, "gluings": [[True, 0, 1, 0, [0, 1, 2]]]},
         "gluings[0]: tet_a must be an integer, not True"),
        ({"tets": 2, "gluings": [[0, 0, 1.0, 0, [0, 1, 2]]]},
         "gluings[0]: tet_b must be an integer, not 1.0"),
        ({"tets": 2, "gluings": [[0, 0, 1, 0, [0, 1, 2.0]]]},
         "gluings[0]: perm[2] must be an integer, not 2.0"),
        ({"tets": 1, "pieces": [[0.0, "TRI_0", 1]]}, "pieces[0]: tet must be an integer, not 0.0"),
        ({"tets": 1, "pieces": [[0, "TRI_0", 1.5]]},
         "pieces[0]: multiplicity must be an integer, not 1.5"),
        ({"tets": 1, "pieces": [[0, "TRI_0", True]]},
         "pieces[0]: multiplicity must be an integer, not True"),
        ({"tets": 1, "pieces": [[0, 5, 1]]}, "pieces[0]: kind must be a string, not 5"),
        ({"tets": 1, "pieces": [[0, "NOPE", 1]]}, "pieces[0]: unknown piece kind 'NOPE'"),
    ):
        with pytest.raises(ValueError) as info:
            config_from_json_dict(data)
        assert str(info.value) == message, data


# --------------------------------------------------- two-tet closed gluings

def edge_orbit_count(tets: int, gluings) -> int:
    """Orbits of (tet, edge) pairs, by union-find written from scratch."""
    return len(set(edge_orbits(tets, gluings).values()))


def edge_orbits(tets: int, gluings) -> dict:
    """Each (tet, edge) pair mapped to a representative of its orbit."""
    pairs = [(t, e) for t in range(tets) for e in edges()]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        parent[find(p)] = find(q)

    for g in gluings:
        ca = FACES[g.face_a]
        cb = FACES[g.face_b]
        for i, j in itertools.combinations(range(3), 2):
            ea = tuple(sorted((ca[i], ca[j])))
            eb = tuple(sorted((cb[g.perm[i]], cb[g.perm[j]])))
            union((g.tet_a, ea), (g.tet_b, eb))
    return {p: find(p) for p in pairs}


def edges():
    return [tuple(sorted(e)) for e in itertools.combinations(range(4), 2)]


def all_tri_config(skeleton: TetGluing) -> SurfaceConfiguration:
    pls = [
        Placement(t, f"TRI_{c}", 1)
        for t in range(skeleton.tets)
        for c in range(4)
    ]
    return SurfaceConfiguration(skeleton, tuple(pls))


def closed_two_tet_gluings():
    """All face pairings of two tetrahedra: face f of tet 0 to face
    sigma(f) of tet 1, with one slot permutation per face.  Each is a
    plain tuple of gluings, since a skeleton that reverses an edge cannot
    be built."""
    for sigma in itertools.permutations(range(4)):
        for perms in itertools.product(itertools.permutations(range(3)), repeat=4):
            yield tuple(Gluing(0, f, 1, sigma[f], perms[f]) for f in range(4))


def plain_gluings(gluings) -> list[tuple]:
    return [(g.tet_a, g.face_a, g.tet_b, g.face_b, g.perm) for g in gluings]


def test_two_tet_closed_census():
    """Every closed two-tet gluing that reverses no edge satisfies
    chi = 2 * orbits - 4 for the configuration of all eight
    vertex-linking triangles, every other one is refused when its
    skeleton is built, and a gluing with exactly three edge orbits yields
    a chi = 2 link surface."""
    rng = random.Random(1)
    pool = list(closed_two_tet_gluings())
    assert len(pool) == 24 * 6 ** 4
    sample = rng.sample(pool, 200)
    found_three = None
    for gluings in pool:
        orbits = edge_orbit_count(2, gluings)
        if orbits == 3 and not oracles.edge_reversed_by_gluings(plain_gluings(gluings)):
            found_three = gluings
            break
    assert found_three is not None
    rejected = 0
    for gluings in sample + [found_three]:
        if oracles.edge_reversed_by_gluings(plain_gluings(gluings)):
            with pytest.raises(ValueError, match="with itself reversed"):
                TetGluing(2, gluings)
            rejected += 1
            continue
        cfg = all_tri_config(TetGluing(2, gluings))
        assert check_matching(cfg).passed
        chi = euler_characteristic(cfg)
        orbits = edge_orbit_count(2, gluings)
        # V = 2 per edge orbit, E = 3 arcs on each of 4 face classes,
        # F = 8 triangles
        assert chi == 2 * orbits - 4
    assert 0 < rejected < len(sample)
    assert euler_characteristic(all_tri_config(TetGluing(2, found_three))) == 2


def test_orientation_reversing_edge_self_identification_rejected():
    # face 0 (corners 1, 2, 3) onto face 1 (corners 0, 2, 3) of the same
    # tetrahedron, slots 1 and 2 swapped: edge 23 lands on itself reversed
    message = r"^gluings\[0\] identifies edge 23 of tetrahedron 0 with itself reversed$"
    with pytest.raises(ValueError, match=message):
        config_from_json_dict({"tets": 1, "gluings": [[0, 0, 0, 1, [0, 2, 1]]], "pieces": []})
    # the same faces glued without the swap keep every edge's direction
    cfg = config_from_json_dict({"tets": 1, "gluings": [[0, 0, 0, 1, [0, 1, 2]]], "pieces": []})
    assert euler_characteristic(cfg) == 0


def test_edge_reversal_matches_search_oracle():
    """Random open skeletons on up to three tetrahedra, self-gluings and
    cycles included: refused exactly when a directed-edge search finds
    an edge identified with its reverse, and otherwise as many edge
    classes as the unoriented union-find finds, each glued edge but a
    class's least mapped to that least edge."""
    rng = random.Random(6)
    verdicts = set()
    for _ in range(300):
        tets = rng.randint(1, 3)
        faces = [(t, f) for t in range(tets) for f in range(4)]
        rng.shuffle(faces)
        gluings = tuple(
            Gluing(*faces[2 * i], *faces[2 * i + 1], tuple(rng.sample(range(3), 3)))
            for i in range(rng.randint(1, len(faces) // 2))
        )
        reversed_ = oracles.edge_reversed_by_gluings(plain_gluings(gluings))
        verdicts.add(reversed_)
        if reversed_:
            with pytest.raises(ValueError, match="with itself reversed"):
                TetGluing(tets, gluings)
        else:
            roots = TetGluing(tets, gluings)._edge_roots
            assert 6 * tets - len(roots) == edge_orbit_count(tets, gluings)
            assert all(root < edge and root not in roots for edge, root in roots.items())
    assert verdicts == {True, False}


def test_mirror_quad_is_the_one_matching_quad():
    # 4 x 4 faces x 6 permutations x 3 quad kinds, each in both directions
    quads = ("QUAD_1", "QUAD_2", "QUAD_3")
    for fa, fb, perm in itertools.product(range(4), range(4), itertools.permutations(range(3))):
        g = Gluing(0, fa, 1, fb, perm)
        for kind in quads:
            for outgoing in (True, False):
                near, far = (0, 1) if outgoing else (1, 0)
                matching = [
                    q for q in quads
                    if check_matching(SurfaceConfiguration(
                        TetGluing(2, (g,)), (Placement(near, kind, 1), Placement(far, q, 1)),
                    )).passed
                ]
                assert matching == [corpus._mirror_quad(kind, g, outgoing)], (g, kind, outgoing)
