"""Catalog of surface pieces inside a single tetrahedron.

Tetrahedron model: vertices 0..3; face f is the triangle omitting vertex
f; the six edges are the vertex pairs.  A normal arc in a face cuts off
exactly one corner, so arc types in a face are keyed by its three corner
vertices.  Every catalog entry states, per face, how many arcs of each
type its boundary leaves there; how many times it crosses each edge is
read off those arcs.

Arc derivations frozen here, with the edge weights they give:

* Vertex triangle at v: one arc cutting corner v in each face at v;
  crosses the three edges at v once.  Weight 3, disk.
* Quad of partition {a,b}|{c,d}: in face f its single arc cuts off the
  partner of f inside f's partition side, so it crosses the four edges
  joining the two sides once each (weight 4, disk).
* Octagon of the same partition: each face holds two arcs, one at each
  corner of the partition side avoiding that face; the two
  partition-interior edges are crossed twice and the four crossing edges
  once (weight 8).
* Tube piece: two parallel vertex triangles joined by an unknotted tube.
  Its arcs are twice the triangle's (weight 6); the tube drops the
  Euler characteristic to 0.
* Helical 12-gon: a disk whose boundary walks every face three times,
  one arc of each type in every face, so every edge is crossed twice
  (total weight 12); it is the unique solution at this weight.
* Triple tube: three parallel vertex triangles and two tubes (weight 9,
  Euler characteristic -1).
* Octagon tubed to a disk: octagon + vertex triangle + tube (weight 11,
  Euler characteristic 0).  Octagon tubed to itself: octagon arcs with a
  handle attached (weight 8, Euler characteristic -1).

Arc counts fix edge weights: for each face f and each edge e of f, the
arcs in f with an endpoint on e are exactly those cutting off one of e's
two corners, so their counts sum to the crossing weight of e.  The
catalog reads each weight in the lowest face holding its edge, and
validation checks the other face, so the boundary closes up across every
edge; it also checks each entry's model complex against its declared
index.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping

from . import _Value
from .homology import HomologyIndex, ZERO_INDEX, finite_index, homology_index
from .simplicial import SimplicialComplex, empty_complex, from_facets

FACES: tuple[tuple[int, int, int], ...] = tuple(
    tuple(v for v in range(4) if v != f) for f in range(4)
)
EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)
EDGE_INDEX = {e: i for i, e in enumerate(EDGES)}

# quad/oct type q pairs vertex 0 with vertex q
_PARTITIONS = {q: ((0, q), tuple(v for v in (1, 2, 3) if v != q)) for q in (1, 2, 3)}


class FaceArcs(_Value):
    """Arc counts in one face: per-corner normal counts plus defect slots.

    ``corners`` follows the face's corner vertices in ascending order.
    ``loops`` and ``non_normal`` count closed curves and non-normal arcs;
    both must be zero for catalog data.
    """

    _fields = ("corners", "loops", "non_normal")

    def __init__(self, corners: tuple[int, int, int] = (0, 0, 0), loops: int = 0, non_normal: int = 0):
        self.__dict__.update(corners=tuple(corners), loops=loops, non_normal=non_normal)


class ArcCheck(_Value):
    _fields = ("passed", "problems")

    def __init__(self, passed: bool, problems: tuple[str, ...] = ()):
        self.__dict__.update(passed=passed, problems=tuple(problems))


def check_normal_arcs(face_arcs: Iterable[FaceArcs]) -> ArcCheck:
    """Pass iff every face carries only the three normal arc types."""
    problems = []
    for f, arcs in enumerate(face_arcs):
        if any(c < 0 for c in arcs.corners):
            problems.append(f"face {f}: negative arc count")
        if arcs.loops:
            problems.append(f"face {f}: loop count {arcs.loops}")
        if arcs.non_normal:
            problems.append(f"face {f}: non-normal arc count {arcs.non_normal}")
    return ArcCheck(passed=not problems, problems=problems)


class LocalPiece(_Value):
    """One catalog entry: combinatorial boundary data plus its index model.

    Equality and hashing leave out ``model_complex``.
    """

    _fields = ("kind", "edge_weights", "face_arcs", "euler", "declared_index", "model_complex")

    def __init__(self, kind: str, edge_weights: tuple[int, int, int, int, int, int],
                 face_arcs: tuple[FaceArcs, FaceArcs, FaceArcs, FaceArcs], euler: int,
                 declared_index: HomologyIndex, model_complex: SimplicialComplex):
        self.__dict__.update(kind=kind, edge_weights=tuple(edge_weights), face_arcs=tuple(face_arcs),
                             euler=euler, declared_index=declared_index, model_complex=model_complex)

    def _key(self) -> tuple:
        return (self.kind, self.edge_weights, self.face_arcs, self.euler, self.declared_index)

    @property
    def weight(self) -> int:
        return sum(self.edge_weights)

    def edge_weight(self, edge: tuple[int, int]) -> int:
        return self.edge_weights[EDGE_INDEX[tuple(sorted(edge))]]


def _model_empty() -> SimplicialComplex:
    return empty_complex("no-move model")


def _model_two_points() -> SimplicialComplex:
    return from_facets([["d0"], ["d1"]], name="two-move model")


def _model_circle() -> SimplicialComplex:
    ring = [["c0", "c1"], ["c1", "c2"], ["c2", "c3"], ["c0", "c3"]]
    return from_facets(ring, name="move-cycle model")


def _arcs_from_corner_counts(counts: Mapping[int, Mapping[int, int]]) -> list[FaceArcs]:
    out = []
    for f in range(4):
        per = counts.get(f, {})
        out.append(FaceArcs(corners=[per.get(c, 0) for c in FACES[f]]))
    return out


def _crossings(face_arcs, edge: tuple[int, int]) -> int:
    """Crossings of ``edge``: the arcs at its two corners in the lowest face that holds it."""
    face = min(f for f in range(4) if f not in edge)
    corners, arcs = FACES[face], face_arcs[face].corners
    return arcs[corners.index(edge[0])] + arcs[corners.index(edge[1])]


def _tri_arcs(v: int):
    return _arcs_from_corner_counts({f: {v: 1} for f in range(4) if f != v})


def _quad_arcs(q: int):
    side_a, side_b = _PARTITIONS[q]
    arcs = {}
    for f in range(4):
        side = side_a if f in side_a else side_b
        partner = next(v for v in side if v != f)
        arcs[f] = {partner: 1}
    return _arcs_from_corner_counts(arcs)


def _oct_arcs(q: int):
    side_a, side_b = _PARTITIONS[q]
    arcs = {}
    for f in range(4):
        far_side = side_b if f in side_a else side_a
        arcs[f] = {v: 1 for v in far_side}
    return _arcs_from_corner_counts(arcs)


def _scale(arcs, factor: int):
    return [FaceArcs(corners=[c * factor for c in fa.corners]) for fa in arcs]


def _add(arcs_1, arcs_2):
    return [FaceArcs(corners=[a + b for a, b in zip(fa.corners, fb.corners)]) for fa, fb in zip(arcs_1, arcs_2)]


def _helical_arcs():
    return _arcs_from_corner_counts({f: {c: 1 for c in FACES[f]} for f in range(4)})


@functools.lru_cache(maxsize=1)
def catalog() -> tuple[LocalPiece, ...]:
    """The validated catalog, one entry per piece kind, its edge weights
    read off its arcs."""
    entries = (  # kind, arcs, euler, declared index, model
        *((f"TRI_{v}", _tri_arcs(v), 1, ZERO_INDEX, _model_empty()) for v in range(4)),
        *((f"QUAD_{q}", _quad_arcs(q), 1, ZERO_INDEX, _model_empty()) for q in (1, 2, 3)),
        *((f"OCT_{q}", _oct_arcs(q), 1, finite_index(1), _model_two_points()) for q in (1, 2, 3)),
        ("TUBE", _scale(_tri_arcs(0), 2), 0, finite_index(1), _model_two_points()),
        ("HELICAL_12GON", _helical_arcs(), 1, finite_index(2), _model_circle()),
        ("TRIPLE_TUBE", _scale(_tri_arcs(0), 3), -1, finite_index(2), _model_circle()),
        ("OCT_TUBE_DISK", _add(_oct_arcs(1), _tri_arcs(0)), 0, finite_index(2), _model_circle()),
        ("OCT_TUBE_SELF", _oct_arcs(1), -1, finite_index(2), _model_circle()),
    )
    pieces = tuple(LocalPiece(kind, [_crossings(arcs, e) for e in EDGES], arcs, *rest)
                   for kind, arcs, *rest in entries)
    validate_catalog(pieces)
    return pieces


@functools.lru_cache(maxsize=None)
def piece(kind: str) -> LocalPiece:
    for p in catalog():
        if p.kind == kind:
            return p
    raise ValueError(f"unknown piece kind {kind!r}")


def local_index(p: LocalPiece) -> HomologyIndex:
    """Recompute the model complex's index and check it against the declaration."""
    computed = homology_index(p.model_complex)
    if computed != p.declared_index:
        raise ValueError(
            f"piece {p.kind}: model index {computed} does not match declared {p.declared_index}"
        )
    return computed


def validate_piece(p: LocalPiece) -> None:
    """Raise naming the piece if its arcs, weights or model index disagree."""
    verdict = check_normal_arcs(p.face_arcs)
    if not verdict.passed:
        raise ValueError(f"piece {p.kind}: {verdict.problems[0]}")
    if any(w < 0 for w in p.edge_weights):
        raise ValueError(f"piece {p.kind}: negative edge weight")
    # a face's arcs ending on an edge must match its crossing count; a catalog
    # weight was read in the edge's lower face, so this checks the boundary
    # closes up across the edge in the other
    for f in range(4):
        corners, arcs = FACES[f], p.face_arcs[f].corners
        for a in range(3):
            for b in range(a + 1, 3):
                e = (corners[a], corners[b])
                endpoint_arcs = arcs[a] + arcs[b]
                if endpoint_arcs != p.edge_weight(e):
                    raise ValueError(
                        f"piece {p.kind}: face {f} leaves {endpoint_arcs} endpoints "
                        f"on edge {e} but the edge weight is {p.edge_weight(e)}"
                    )
    local_index(p)


def validate_catalog(pieces: Iterable[LocalPiece]) -> None:
    """Raise naming the offending piece on any catalog inconsistency."""
    seen = set()
    for p in pieces:
        if p.kind in seen:
            raise ValueError(f"piece {p.kind}: duplicate kind")
        seen.add(p.kind)
        validate_piece(p)
