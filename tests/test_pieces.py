
import pytest

import oracles

from diskplex.homology import finite_index, homology_index
from diskplex.pieces import (
    EDGES,
    FACES,
    FaceArcs,
    LocalPiece,
    catalog,
    check_normal_arcs,
    local_index,
    piece,
    validate_catalog,
    validate_piece,
)

EXPECTED = {
    "TRI_0": (3, 1, "ZERO"),
    "TRI_1": (3, 1, "ZERO"),
    "TRI_2": (3, 1, "ZERO"),
    "TRI_3": (3, 1, "ZERO"),
    "QUAD_1": (4, 1, "ZERO"),
    "QUAD_2": (4, 1, "ZERO"),
    "QUAD_3": (4, 1, "ZERO"),
    "OCT_1": (8, 1, "INDEX(1)"),
    "OCT_2": (8, 1, "INDEX(1)"),
    "OCT_3": (8, 1, "INDEX(1)"),
    "TUBE": (6, 0, "INDEX(1)"),
    "HELICAL_12GON": (12, 1, "INDEX(2)"),
    "TRIPLE_TUBE": (9, -1, "INDEX(2)"),
    "OCT_TUBE_DISK": (11, 0, "INDEX(2)"),
    "OCT_TUBE_SELF": (8, -1, "INDEX(2)"),
}


def test_tetrahedron_face_tables():
    # face f is the triple omitting vertex f
    for f, corners in enumerate(FACES):
        assert f not in corners
        assert len(corners) == 3
    assert len(EDGES) == 6
    assert all(a < b for a, b in EDGES)


def test_catalog_covers_all_kinds_with_frozen_data():
    entries = catalog()
    assert len(entries) == len(oracles.PIECE_KINDS) == len(EXPECTED)
    for p in entries:
        w, chi, idx = EXPECTED[p.kind]
        assert p.weight == w, p.kind
        assert p.euler == chi, p.kind
        assert str(p.declared_index) == idx, p.kind


def test_edge_weight_equals_corner_arc_sums():
    # each edge weight equals the arc count at either of its corner cuts,
    # summed over the two faces meeting the edge at that corner
    for p in catalog():
        for e, (a, b) in enumerate(EDGES):
            w = p.edge_weights[e]
            for f in range(4):
                if a in FACES[f] and b in FACES[f]:
                    arcs = p.face_arcs[f].corners
                    got = arcs[FACES[f].index(a)] + arcs[FACES[f].index(b)]
                    assert got == w, (p.kind, e, f)


def test_local_index_recomputed_from_model():
    for p in catalog():
        assert local_index(p) == p.declared_index
        assert homology_index(p.model_complex) == p.declared_index


def test_check_normal_arcs_accepts_catalog():
    for p in catalog():
        report = check_normal_arcs(p.face_arcs)
        assert report.passed, (p.kind, report.problems)


def test_check_normal_arcs_rejects_bad_data():
    assert not check_normal_arcs([FaceArcs(corners=(1, -1, 0))]).passed
    assert not check_normal_arcs([FaceArcs(loops=1)]).passed
    report = check_normal_arcs([FaceArcs(), FaceArcs(), FaceArcs(non_normal=2)])
    assert report.problems == ("face 2: non-normal arc count 2",)
    assert check_normal_arcs([FaceArcs(corners=(2, 0, 1))]).passed


def test_tampered_piece_detected():
    good = piece("OCT_2")
    bad = LocalPiece(good.kind, good.edge_weights, good.face_arcs, good.euler, finite_index(2),
                     good.model_complex)
    with pytest.raises(ValueError):
        local_index(bad)
    with pytest.raises(ValueError, match="OCT_2: model index"):
        validate_piece(bad)
    heavy = LocalPiece(good.kind, (9,) + good.edge_weights[1:], good.face_arcs, good.euler,
                       good.declared_index, good.model_complex)
    with pytest.raises(ValueError, match="edge weight is 9"):
        validate_piece(heavy)
    # the refusals that come before the weight check: a non-normal arc and a
    # negative edge weight
    arcs = good.face_arcs[:3] + (FaceArcs(good.face_arcs[3].corners, non_normal=1),)
    stray = LocalPiece(good.kind, good.edge_weights, arcs, good.euler, good.declared_index,
                       good.model_complex)
    with pytest.raises(ValueError, match=r"^piece OCT_2: face 3: non-normal arc count 1$"):
        validate_piece(stray)
    negative = LocalPiece(good.kind, (-1,) + good.edge_weights[1:], good.face_arcs, good.euler,
                          good.declared_index, good.model_complex)
    with pytest.raises(ValueError, match=r"^piece OCT_2: negative edge weight$"):
        validate_piece(negative)
    with pytest.raises(ValueError, match="duplicate kind"):
        validate_catalog([good, good])


def test_piece_lookup_unknown_kind():
    with pytest.raises(ValueError):
        piece("DODECAGON")


def test_models_are_tiny_stand_ins():
    # normal disks carry the empty complex, index-1 pieces two points,
    # index-2 pieces a 4-cycle circle
    for p in catalog():
        idx = p.declared_index
        n_facets = len(p.model_complex.facet_list())
        if str(idx) == "ZERO":
            assert n_facets == 0
        elif idx == finite_index(1):
            assert n_facets == 2 and p.model_complex.dim == 0
        else:
            assert n_facets == 4 and p.model_complex.dim == 1
