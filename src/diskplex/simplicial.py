"""Finite abstract simplicial complexes stored by their maximal faces.

A complex is determined by its facet set (an antichain under inclusion);
every subset of a facet is a face.  Vertices are opaque tokens: ints,
strings, or nested tuples of those.  Mixed token types inside one complex
are ordered ints-before-strings-before-tuples so that every face has a
canonical sorted form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Collection, Iterable, Sequence

from . import _Value

Vertex = Any

# Most faces an enumeration may meet, by the bound sum(2^|f| - 1) over the
# facets; ``_face_groups`` (so every face listing), the ball checks and
# ``cubes.subdivide_cube`` refuse larger inputs, ``join_all`` and
# ``barycentric_subdivision`` refuse to build more facets, and ``homology``
# holds the strong-collapse core to it.  The boundary of the simplex on 15 vertices
# (bound 245,745) is accepted and its homology, one cell relative to a
# vertex star, takes about 0.0003 s on a 2-core Xeon under Python 3.11; on
# 16 vertices (bound 524,272) it is refused.
_FACE_BUDGET = 1 << 18


def vertex_key(v: Vertex):
    """Total order on vertex tokens (ints, strings, tuples thereof)."""
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    return (0, v)


def _ranks(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class SimplicialComplex(_Value):
    """Abstract simplicial complex, represented by its facets.

    Equality and hashing use the facet set only; ``name`` is a label.
    Face enumeration is computed on demand and memoized.

    Invariant: every facet is a tuple sorted by ``vertex_key`` without
    repeats, and so is ``vertices()``, the frame.  A vertex's rank is its
    position there, so rank order is ``vertex_key`` order.  Every complex
    holds its frame and ``_masks()``, the facets as int bitmasks over the
    ranks, from birth, and ``_maximal`` makes every complex.
    ``SimplicialComplex(...)`` normalises and refuses what it is given as
    ``from_facets`` does, through ``_frame`` and ``_maximal``, and binds
    the canonical facet tuples; every other complex (each ``from_facets``
    result, link, star, subcomplex, collapse core and relabelling) is
    re-ranked rather than rebuilt, and makes its facet tuples on first
    read.  Facet-set operations work on the masks and map them back
    through ascending ranks, so facets are canonical and faces sort by
    their ranks.  ``is_empty``, ``dim`` and the face bound read the
    masks, so the homology path makes no facet tuple.
    """

    _fields = ("facets",)

    def __init__(self, facets: frozenset, name: str = ""):
        k = _maximal(*_frame(facets), name)
        self.__dict__.update(facets=k.facets, name=name, _cache=k._cache)

    @functools.cached_property
    def facets(self) -> frozenset:
        """The facets of a complex made from masks, made on first read;
        ``__init__`` binds ``facets`` itself, which hides this."""
        verts = self.vertices()
        return frozenset(tuple(verts[i] for i in _ranks(m)) for m in self._masks())

    @property
    def is_empty(self) -> bool:
        return not self._masks()

    def facet_list(self) -> list[tuple]:
        """Facets in canonical (lexicographic) order."""
        verts = self.vertices()
        return [tuple(map(verts.__getitem__, r)) for r in sorted(map(_ranks, self._masks()))]

    def vertices(self) -> tuple:
        return self._cache["vertices"]

    def _vertex_ranks(self) -> dict:
        """Each vertex's position in ``vertices()``, memoised."""
        if "ranks" not in self._cache:
            self._cache["ranks"] = {v: i for i, v in enumerate(self.vertices())}
        return self._cache["ranks"]

    def _masks(self) -> list[int]:
        """Facet bitmasks over the ranks of ``vertices()``, in no set order."""
        return self._cache["masks"]

    @property
    def dim(self) -> int:
        return max(map(int.bit_count, self._masks()), default=0) - 1

    def _check_face_budget(self) -> None:
        """Raise ValueError when the complex may have more faces than the budget."""
        bound = sum((1 << m.bit_count()) - 1 for m in self._masks())
        if bound > _FACE_BUDGET:
            raise ValueError(f"complex may have {bound} faces, over the face budget of {_FACE_BUDGET}")

    def _face_groups(self):
        """Each dimension's faces in canonical order, one dimension at a time.

        A dimension is listed only when the caller reaches it.  Raises
        ValueError before the first group when the complex may have more
        faces than the budget.
        """
        self._check_face_budget()
        verts, ranks = self.vertices(), [_ranks(m) for m in self._masks()]
        for r in range(1, self.dim + 2):
            faces = sorted({c for f in ranks for c in itertools.combinations(f, r)})
            yield [tuple(map(verts.__getitem__, c)) for c in faces]

    def faces_by_dim(self) -> dict[int, list[tuple]]:
        """All faces grouped by dimension, each group in canonical order.

        Raises ValueError when the complex may have more faces than the budget.
        """
        if "faces" not in self._cache:
            self._cache["faces"] = dict(enumerate(self._face_groups()))
        return self._cache["faces"]

    def all_faces(self) -> list[tuple]:
        return [f for group in self.faces_by_dim().values() for f in group]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.faces_by_dim().values()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))

    def __repr__(self):
        label = self.name or "complex"
        return f"<{label}: {len(self.facets)} facets, dim {self.dim}>"


def _frame(faces: Collection[tuple]) -> tuple[list[int], tuple]:
    """Each face's bitmask over the ranks of the vertices of ``faces``, and
    those vertices in ``vertex_key`` order, each ordered once.  An empty
    face, or one with a repeated vertex, is rejected, the first such face
    in input order."""
    verts = tuple(sorted({v for f in faces for v in f}, key=vertex_key))
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = []
    for face in faces:
        m = 0
        for v in face:
            m |= bit[v]
        if not m:
            raise ValueError("faces must be nonempty")
        if m.bit_count() != len(face):  # a repeated vertex sets its bit once
            raise ValueError(f"repeated vertex in face {face!r}")
        masks.append(m)
    return masks, verts


def _maximal(masks: Iterable[int], verts: tuple, name: str) -> SimplicialComplex:
    """The complex whose facets are the maximal ``masks``, ranks into ``verts``.

    Duplicates are dropped.  A dominated mask lies inside a maximal mask,
    which has more bits, so each mask is tested only against the longer
    masks already kept; nothing is longer than the longest masks, so they
    are kept untested.  When the kept masks leave ranks unused, they are
    re-ranked onto the used vertices, whose ascending ranks keep
    ``vertex_key`` order; so the result's frame is exactly its vertices,
    as for every complex, and it makes its facet tuples on first read.
    """
    by_size: dict[int, set[int]] = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), set()).add(m)
    keep: list[int] = []
    for n in sorted(by_size, reverse=True):
        keep += [m for m in by_size[n] if not any(g & m == m for g in keep)] if keep else by_size[n]
    used = _ranks(functools.reduce(int.__or__, keep, 0))
    if len(used) != len(verts):
        rerank = {i: 1 << j for j, i in enumerate(used)}
        keep = [sum(map(rerank.__getitem__, _ranks(m))) for m in keep]
        verts = tuple(map(verts.__getitem__, used))
    out = SimplicialComplex.__new__(SimplicialComplex)
    out.__dict__.update(name=name, _cache={"vertices": verts, "masks": keep})
    return out


def from_facets(candidate_faces: Iterable[Iterable[Vertex]], name: str = "") -> SimplicialComplex:
    """Build a complex from candidate maximal faces.

    Dominated faces and duplicates are dropped; an empty list gives the
    empty complex, and ``_frame`` refuses a bad face.
    ``SimplicialComplex(frozenset(faces))`` normalises and refuses alike.
    """
    return _maximal(*_frame([tuple(face) for face in candidate_faces]), name)


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
    """Namespace every vertex of ``k`` as ``(prefix, v)``.  Those sort by
    ``vertex_key`` as the ``v`` do, so the result keeps ``k``'s masks."""
    verts = tuple((prefix, v) for v in k.vertices())
    return _maximal(k._masks(), verts, f"{prefix}:{k.name}" if k.name else prefix)


def join(a: SimplicialComplex, b: SimplicialComplex, *, relabel_on_collision: bool = False) -> SimplicialComplex:
    """Simplicial join: facets are unions of one facet from each side.

    The two-operand case of ``join_all``.  Overlapping vertex sets are
    rejected unless ``relabel_on_collision`` is set, in which case both
    sides are namespaced first and the relabeling is recorded in the
    result's name.
    """
    if relabel_on_collision and not set(a.vertices()).isdisjoint(b.vertices()):
        a, b = relabel(a, "L"), relabel(b, "R")
        return join_all([a, b], name=f"({a.name}) * ({b.name}) [relabeled L:/R:]")
    return join_all([a, b])


def join_all(complexes: Sequence[SimplicialComplex], name: str = "") -> SimplicialComplex:
    """Join of all operands, built in one product of their facets.

    Empty operands act as identities, and a single operand comes back as
    is; so, as from a left fold of binary joins, operands that are all
    empty give the last.  Without ``name`` the result is named as that
    fold would name it.  Before any facet is built, a ValueError refuses
    the first operand at which the facet count, the product of the counts
    so far, exceeds the face budget (every facet is a face), or the first
    that shares vertices with the operands before it.
    """
    parts = [k for k in complexes if not k.is_empty] or list(complexes[-1:]) or [empty_complex()]
    first = parts[0]
    if len(parts) == 1:
        return _maximal(first._masks(), first.vertices(), name) if name else first
    n, seen, label = len(first.facets), set(first.vertices()), first.name
    for k in parts[1:]:
        n *= len(k.facets)
        if n > _FACE_BUDGET:
            raise ValueError(f"join would have {n} facets, over the face budget of {_FACE_BUDGET}")
        overlap = seen.intersection(k.vertices())
        if overlap:
            shown = sorted(overlap, key=vertex_key)[:4]
            raise ValueError(f"join operands share vertices {shown!r}")
        seen.update(k.vertices())
        label = f"({label or '?'}) * ({k.name or '?'})"
    facets = itertools.product(*(k.facets for k in parts))
    return from_facets(map(itertools.chain.from_iterable, facets), name=name or label)


def cone(k: SimplicialComplex, apex: Vertex) -> SimplicialComplex:
    """Join with a single new vertex.  The cone over the empty complex is a point."""
    return join(k, point(apex))


def _face_mask(k: SimplicialComplex, vertices: Iterable[Vertex], where: str) -> tuple[int, tuple]:
    """The face given by a vertex iterable, as its bitmask over ``k``'s ranks and
    its ``vertex_key``-sorted tuple; ValueError when it is empty, repeats a
    vertex or is not a face of ``k``.
    """
    given = tuple(vertices)
    if not given:
        raise ValueError("a simplex needs at least one vertex")
    face = tuple(sorted(given, key=vertex_key))
    if len(set(face)) != len(face):
        raise ValueError(f"repeated vertex in simplex {given!r}")
    rank = k._vertex_ranks()
    if all(v in rank for v in face):
        m = sum(1 << rank[v] for v in face)
        if any(f & m == m for f in k._masks()):
            return m, face
    raise ValueError(f"{face!r} is not a simplex of {where}")


def link(k: SimplicialComplex, s) -> SimplicialComplex:
    """Link of the face ``s`` (any vertex iterable): faces disjoint from it whose union with it is a face."""
    m, face = _face_mask(k, s, "the complex")
    rest = [f ^ m for f in k._masks() if f & m == m and f != m]
    return _maximal(rest, k.vertices(), f"link({k.name}, {face!r})")


def star(k: SimplicialComplex, s) -> SimplicialComplex:
    """Closed star of the face ``s`` (any vertex iterable): all facets containing it, with their faces."""
    m, face = _face_mask(k, s, "the complex")
    facets = [f for f in k._masks() if f & m == m]
    return _maximal(facets, k.vertices(), f"star({k.name}, {face!r})")


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision.

    New vertices are the faces of ``k`` (as sorted tuples); new facets are
    the maximal chains of faces inside each facet, |f|! of them per facet
    f.  Raises ValueError, before building any, when they exceed the face budget.
    """
    total = sum(math.factorial(len(f)) for f in k.facets)
    if total > _FACE_BUDGET:
        raise ValueError(f"subdivision would have {total} facets, over the face budget of {_FACE_BUDGET}")
    rank = k._vertex_ranks().__getitem__
    new_facets = []
    for facet in k.facets:
        for perm in itertools.permutations(facet):
            chain = [tuple(sorted(perm[: i + 1], key=rank)) for i in range(len(perm))]
            new_facets.append(tuple(chain))
    return from_facets(new_facets, name=f"sd({k.name})")


def full_subcomplex(k: SimplicialComplex, vertex_subset: Iterable[Vertex]) -> SimplicialComplex:
    """Full (induced) subcomplex on a vertex subset; vertices not in ``k`` are ignored."""
    rank = k._vertex_ranks()
    keep = sum(1 << rank[v] for v in set(vertex_subset) if v in rank)
    faces = [f & keep for f in k._masks() if f & keep]
    return _maximal(faces, k.vertices(), f"{k.name}|induced")


def is_full_subcomplex(x: SimplicialComplex, y: SimplicialComplex) -> bool:
    """True when ``x`` equals the induced subcomplex of ``y`` on x's vertices."""
    # A vertex of x outside y is missing from that subcomplex, so the facets differ.
    return full_subcomplex(y, x.vertices()).facets == x.facets


def adjacency_subcomplex(x: SimplicialComplex, y: SimplicialComplex, tau) -> SimplicialComplex:
    """Vertices of ``x`` adjacent in ``y`` to every vertex of ``tau`` outside ``x``.

    Returns the full subcomplex of ``x`` induced on that vertex set.  When
    ``tau`` lies inside ``x`` the condition is vacuous and all of ``x``
    comes back.  Monotone: enlarging ``tau`` can only shrink the result.
    ``tau`` is any vertex iterable, refused before ``x`` is checked.
    """
    t, face = _face_mask(y, tau, "y")
    if not is_full_subcomplex(x, y):
        raise ValueError("x is not a full subcomplex of y")
    masks = y._masks()
    rank = y._vertex_ranks()
    near = sum(1 << rank[v] for v in x.vertices())
    for b in _ranks(t & ~near):  # keep what shares a facet, so an edge, with each b outside x
        near &= functools.reduce(int.__or__, [f for f in masks if f >> b & 1])
    faces = [f & near for f in masks if f & near]  # x is full in y: this is x induced on near
    return _maximal(faces, y.vertices(), f"adjacency({x.name}; {face!r})")
