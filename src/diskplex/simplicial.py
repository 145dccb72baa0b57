"""Finite abstract simplicial complexes stored by their maximal faces.

A complex is determined by its facet set (an antichain under inclusion);
every subset of a facet is a face.  Vertices are opaque tokens: ints,
strings, or nested tuples of those.  Mixed token types inside one complex
are ordered ints-before-strings-before-tuples so that every face has a
canonical sorted form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

Vertex = Any


def vertex_key(v: Vertex):
    """Total order on vertex tokens (ints, strings, tuples thereof)."""
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    return (0, v)


def _canonical_face(vertices: Iterable[Vertex]) -> tuple:
    return tuple(sorted(vertices, key=vertex_key))


@dataclass(frozen=True)
class Simplex:
    """A single abstract simplex: strictly sorted, nonempty vertex tuple."""

    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a simplex needs at least one vertex")
        canon = _canonical_face(self.vertices)
        if len(set(canon)) != len(canon):
            raise ValueError(f"repeated vertex in simplex {self.vertices!r}")
        object.__setattr__(self, "vertices", canon)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


def as_simplex(s) -> Simplex:
    if isinstance(s, Simplex):
        return s
    return Simplex(tuple(s))


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex, represented by its facets.

    Equality and hashing use the facet set only; ``name`` is a label.
    Face enumeration is computed on demand and memoized.

    Invariant: every facet is a tuple sorted by ``vertex_key`` without
    repeats.  ``from_facets`` establishes it and every other constructor
    reuses the facets of an existing complex.  Subsets of a facet taken
    in order are therefore canonical faces, and comparing faces by the
    ranks of their vertices in ``vertices()`` orders them exactly as
    comparing their ``vertex_key`` tuples would.
    """

    facets: frozenset
    name: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def facet_list(self) -> list[tuple]:
        """Facets in canonical (lexicographic) order."""
        return sorted(self.facets, key=self._face_order())

    def vertices(self) -> tuple:
        if "vertices" not in self._cache:
            seen = set()
            for f in self.facets:
                seen.update(f)
            self._cache["vertices"] = tuple(sorted(seen, key=vertex_key))
        return self._cache["vertices"]

    def _face_order(self):
        """Sort key for faces of this complex: the tuple of vertex ranks."""
        rank = {v: i for i, v in enumerate(self.vertices())}
        return lambda face: tuple(map(rank.__getitem__, face))

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return max(len(f) for f in self.facets) - 1

    def faces_by_dim(self) -> dict[int, list[tuple]]:
        """All faces grouped by dimension, each group in canonical order."""
        if "faces" not in self._cache:
            groups: dict[int, set] = {}
            for facet in self.facets:
                for r in range(1, len(facet) + 1):
                    groups.setdefault(r - 1, set()).update(itertools.combinations(facet, r))
            key = self._face_order()
            self._cache["faces"] = {d: sorted(g, key=key) for d, g in sorted(groups.items())}
        return self._cache["faces"]

    def faces(self, d: int) -> list[tuple]:
        return self.faces_by_dim().get(d, [])

    def all_faces(self) -> list[tuple]:
        out = []
        for d in sorted(self.faces_by_dim()):
            out.extend(self.faces(d))
        return out

    def has_face(self, vertices: Iterable[Vertex]) -> bool:
        want = set(vertices)
        return any(want <= set(f) for f in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        groups = self.faces_by_dim()
        if not groups:
            return ()
        return tuple(len(groups.get(d, [])) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))

    def edges(self) -> set[frozenset]:
        if "edges" not in self._cache:
            self._cache["edges"] = {frozenset(e) for e in self.faces(1)}
        return self._cache["edges"]

    def __repr__(self):
        label = self.name or "complex"
        return f"<{label}: {len(self.facets)} facets, dim {self.dim}>"


def _antichain(faces: Iterable[tuple]) -> frozenset:
    """The maximal faces, duplicates dropped.

    A dominated face lies inside a maximal face, which is longer, so each
    face is tested only against the longer faces already kept.
    """
    by_length: dict[int, set] = {}
    for f in faces:
        by_length.setdefault(len(f), set()).add(f)
    keep: list[tuple] = []
    longer: list[set] = []
    for n in sorted(by_length, reverse=True):
        kept = [f for f in by_length[n] if not any(g.issuperset(f) for g in longer)]
        keep.extend(kept)
        longer.extend(map(set, kept))
    return frozenset(keep)


def from_facets(candidate_faces: Iterable[Iterable[Vertex]], name: str = "") -> SimplicialComplex:
    """Build a complex from candidate maximal faces.

    Dominated faces and duplicates are dropped; an empty list gives the
    empty complex.  Faces with a repeated vertex are rejected.
    """
    canon = []
    for face in candidate_faces:
        face = tuple(face)
        if not face:
            raise ValueError("faces must be nonempty")
        sorted_face = _canonical_face(face)
        if len(set(sorted_face)) != len(sorted_face):
            raise ValueError(f"repeated vertex in face {face!r}")
        canon.append(sorted_face)
    return SimplicialComplex(_antichain(canon), name=name)


def empty_complex(name: str = "empty") -> SimplicialComplex:
    return SimplicialComplex(frozenset(), name=name)


def point(v: Vertex = 0, name: str = "") -> SimplicialComplex:
    return from_facets([[v]], name=name or f"point({v!r})")


def simplex_complex(vertices: Iterable[Vertex], name: str = "") -> SimplicialComplex:
    """The full simplex on the given vertices."""
    verts = tuple(vertices)
    return from_facets([verts], name=name or f"simplex{len(verts) - 1}")


def boundary_of_simplex(n_vertices: int, name: str = "") -> SimplicialComplex:
    """Boundary of the simplex on ``n_vertices`` vertices (a sphere)."""
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices for a boundary sphere")
    verts = range(n_vertices)
    facets = itertools.combinations(verts, n_vertices - 1)
    return from_facets(facets, name=name or f"sphere_dim_{n_vertices - 2}")


def relabel(k: SimplicialComplex, prefix: str) -> SimplicialComplex:
    """Namespace every vertex of ``k`` as ``(prefix, v)``."""
    facets = [tuple((prefix, v) for v in f) for f in k.facet_list()]
    return from_facets(facets, name=f"{prefix}:{k.name}" if k.name else prefix)


def join(a: SimplicialComplex, b: SimplicialComplex, *, relabel_on_collision: bool = False) -> SimplicialComplex:
    """Simplicial join: facets are unions of one facet from each side.

    Joining with the empty complex returns the other complex unchanged.
    Overlapping vertex sets are rejected unless ``relabel_on_collision``
    is set, in which case both sides are namespaced and the relabeling is
    recorded in the result's name.
    """
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    overlap = set(a.vertices()) & set(b.vertices())
    relabeled = ""
    if overlap:
        if not relabel_on_collision:
            shown = sorted(overlap, key=vertex_key)[:4]
            raise ValueError(f"join operands share vertices {shown!r}")
        a, b = relabel(a, "L"), relabel(b, "R")
        relabeled = " [relabeled L:/R:]"
    name = f"({a.name or '?'}) * ({b.name or '?'}){relabeled}"
    facets = [fa + fb for fa in a.facets for fb in b.facets]
    return from_facets(facets, name=name)


def join_all(complexes: Sequence[SimplicialComplex], name: str = "") -> SimplicialComplex:
    """Iterated join; empty operands act as identities."""
    out = empty_complex()
    for k in complexes:
        out = join(out, k)
    if name:
        out = SimplicialComplex(out.facets, name=name)
    return out


def cone(k: SimplicialComplex, apex: Vertex) -> SimplicialComplex:
    """Join with a single new vertex.  The cone over the empty complex is a point."""
    if any(apex in f for f in k.facets):
        raise ValueError(f"cone apex {apex!r} already a vertex of the complex")
    return join(k, point(apex), relabel_on_collision=False)


def link(k: SimplicialComplex, s) -> SimplicialComplex:
    """Link of a simplex: faces disjoint from ``s`` whose union with ``s`` is a face."""
    s = as_simplex(s)
    sv = set(s.vertices)
    if not k.has_face(sv):
        raise ValueError(f"{tuple(s)!r} is not a simplex of the complex")
    rest = [tuple(v for v in f if v not in sv) for f in k.facets if sv <= set(f)]
    return from_facets([f for f in rest if f], name=f"link({k.name}, {s.vertices!r})")


def star(k: SimplicialComplex, s) -> SimplicialComplex:
    """Closed star of a simplex: all facets containing it, with their faces."""
    s = as_simplex(s)
    sv = set(s.vertices)
    if not k.has_face(sv):
        raise ValueError(f"{tuple(s)!r} is not a simplex of the complex")
    facets = [f for f in k.facets if sv <= set(f)]
    return from_facets(facets, name=f"star({k.name}, {s.vertices!r})")


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision.

    New vertices are the faces of ``k`` (as sorted tuples); new facets are
    the maximal chains of faces inside each facet.
    """
    new_facets = []
    for facet in k.facet_list():
        for perm in itertools.permutations(facet):
            chain = [_canonical_face(perm[: i + 1]) for i in range(len(perm))]
            new_facets.append(tuple(chain))
    return from_facets(new_facets, name=f"sd({k.name})")


def full_subcomplex(k: SimplicialComplex, vertex_subset: Iterable[Vertex]) -> SimplicialComplex:
    """Full (induced) subcomplex on a vertex subset."""
    keep = set(vertex_subset)
    faces = [tuple(v for v in f if v in keep) for f in k.facets]
    return from_facets([f for f in faces if f], name=f"{k.name}|induced")


def is_subcomplex(x: SimplicialComplex, y: SimplicialComplex) -> bool:
    return all(y.has_face(f) for f in x.facets)


def is_full_subcomplex(x: SimplicialComplex, y: SimplicialComplex) -> bool:
    """True when ``x`` equals the induced subcomplex of ``y`` on x's vertices."""
    if not set(x.vertices()) <= set(y.vertices()):
        return False
    return full_subcomplex(y, x.vertices()).facets == x.facets


def adjacency_subcomplex(x: SimplicialComplex, y: SimplicialComplex, tau) -> SimplicialComplex:
    """Vertices of ``x`` adjacent in ``y`` to every vertex of ``tau`` outside ``x``.

    Returns the full subcomplex of ``x`` induced on that vertex set.  When
    ``tau`` lies inside ``x`` the condition is vacuous and all of ``x``
    comes back.  Monotone: enlarging ``tau`` can only shrink the result.
    """
    tau = as_simplex(tau)
    if not is_full_subcomplex(x, y):
        raise ValueError("x is not a full subcomplex of y")
    if not y.has_face(tau.vertices):
        raise ValueError(f"{tau.vertices!r} is not a simplex of y")
    xverts = set(x.vertices())
    outside = [v for v in tau.vertices if v not in xverts]
    edges = y.edges()
    keep = [
        v
        for v in x.vertices()
        if all(frozenset((v, w)) in edges for w in outside)
    ]
    out = full_subcomplex(x, keep)
    return SimplicialComplex(out.facets, name=f"adjacency({x.name}; {tau.vertices!r})")
