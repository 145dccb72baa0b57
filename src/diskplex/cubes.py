"""Cube decompositions: cone-to-cube identification, grid subdivisions,
and dual cell structures of combinatorial balls.

Grid cells are tuples of per-axis integer ranges (lo, hi) with hi - lo
in {0, 1}; dimension is the number of unit axes.  The cone over an
(n-1)-simplex maps onto the unit n-cube with the apex at the origin,
the i-th base vertex at e_i, and the barycenter of each base face at the
sum of its vertices' corners, so cube corners are labeled bijectively by
the apex together with the faces of the base simplex.

Dual structures: in a combinatorial n-ball, every d-cell not contained in
the boundary sphere receives a dual (n-d)-cell, with incidence reversed;
cells lying entirely in the boundary get no dual.  The dual of a single
n-cube is a single vertex at its center; two squares glued along an edge
dualize to two vertices joined through the shared edge's dual.  A
simplicial ball is checked and dualized from its facet bitmasks, so the
cost follows its interior: the dual of a simplex lists no boundary face.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import prod
from typing import Sequence

from . import _Value
from .homology import reduced_homology
from .simplicial import _FACE_BUDGET, SimplicialComplex, _maximal, _ranks, simplex_complex


class CubicalComplex(_Value):
    """Cell complex with explicit dimensions and covering faces.

    ``covers[c]`` lists the codimension-1 faces of cell ``c``; transitive
    incidence follows by closure.  ``labels`` optionally tags 0-cells.
    Only dual cells keep vertex sets: ``dual_cells`` fills
    ``cell_vertices``, and every other complex leaves it empty.  Two
    complexes are equal only when they are the same object.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, dim: int, cells: tuple, cell_dim: dict, covers: dict,
                 cell_vertices: dict | None = None, labels: dict | None = None):
        self.__dict__.update(name=name, dim=dim, cells=cells, cell_dim=cell_dim, covers=covers,
                             cell_vertices={} if cell_vertices is None else cell_vertices,
                             labels={} if labels is None else labels)

    def cells_of_dim(self, d: int) -> list:
        return [c for c in self.cells if self.cell_dim[c] == d]

    def counts_by_dim(self) -> tuple[int, ...]:
        out = [0] * (self.dim + 1)
        for c in self.cells:
            out[self.cell_dim[c]] += 1
        return tuple(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.counts_by_dim()))

    def parents(self) -> dict:
        if "_parents" not in self.__dict__:
            par: dict = {c: [] for c in self.cells}
            for c in self.cells:
                for f in self.covers[c]:
                    par[f].append(c)
            self.__dict__["_parents"] = par
        return self._parents

    def boundary_cells(self) -> set:
        """Closure of the codim-1 cells met by at most one top cell."""
        par = self.parents()
        frontier = [c for c in self.cells if self.cell_dim[c] == self.dim - 1 and len(par[c]) <= 1]
        seen = set(frontier)
        while frontier:
            c = frontier.pop()
            for f in self.covers[c]:
                if f not in seen:
                    seen.add(f)
                    frontier.append(f)
        return seen

    def __repr__(self):
        return f"<{self.name or 'cubical'}: {self.counts_by_dim()} cells>"


def subdivide_cube(n: int, counts: Sequence[int], name: str = "") -> CubicalComplex:
    """Unit n-cube cut by ``counts[i]`` interior planes orthogonal to axis i.

    Axis i splits into counts[i] + 1 unit cells; lattice vertex x sits at
    coordinates x(i) / (counts[i] + 1).  Top cells number the product of
    (counts[i] + 1); vertices the product of (counts[i] + 2).  Raises
    ValueError when the cells, the product of (2 * counts[i] + 3), would
    exceed the face budget.
    """
    if n < 1:
        raise ValueError("need dimension at least 1")
    counts = list(counts)
    if len(counts) != n:
        raise ValueError(f"expected {n} subdivision counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("subdivision counts cannot be negative")
    total = prod(2 * c + 3 for c in counts)
    if total > _FACE_BUDGET:
        raise ValueError(f"grid would have {total} cells, over the face budget of {_FACE_BUDGET}")

    per_axis = []
    for c in counts:
        segs = [(j, j + 1) for j in range(c + 1)]
        pts = [(j, j) for j in range(c + 2)]
        per_axis.append(pts + segs)

    cells = [tuple(choice) for choice in product(*per_axis)]
    cell_dim = {c: sum(1 for lo, hi in c if hi > lo) for c in cells}
    covers = {}
    for c in cells:
        faces = []
        for axis, (lo, hi) in enumerate(c):
            if hi > lo:
                faces.append(c[:axis] + ((lo, lo),) + c[axis + 1 :])
                faces.append(c[:axis] + ((hi, hi),) + c[axis + 1 :])
        covers[c] = tuple(faces)
    cells.sort()
    return CubicalComplex(
        name=name or f"grid{tuple(counts)}",
        dim=n,
        cells=tuple(cells),
        cell_dim=cell_dim,
        covers=covers,
    )


def cube_from_cone(n: int) -> CubicalComplex:
    """The unit n-cube as the cone over an (n-1)-simplex, corners labeled.

    The corner with support S (as a 0/1 vector) is labeled by the face of
    the base simplex spanned by {v_i : i in S}, sitting at that face's
    barycenter; the origin is labeled by the apex ``z``.  The labeling is
    a bijection onto {apex} + faces of the base, equivalently onto the
    faces of the cone that contain the apex.
    """
    if not (1 <= n <= 6):
        raise ValueError("cone-to-cube identification supported for 1 <= n <= 6")
    cube = subdivide_cube(n, [0] * n, name=f"cone-cube-{n}")
    labels = {}
    for corner in product((0, 1), repeat=n):
        support = tuple(i + 1 for i, x in enumerate(corner) if x)
        labels[corner] = "z" if not support else support
    return CubicalComplex(cube.name, cube.dim, cube.cells, cube.cell_dim, cube.covers, labels=labels)


def cone_base_complex(n: int) -> SimplicialComplex:
    """The base (n-1)-simplex whose cone the labeled cube models."""
    return simplex_complex(range(1, n + 1), name=f"base-simplex-{n - 1}")


# ----------------------------------------------------------------- duals

def _below(c: tuple) -> list:
    """The codimension-1 faces of a face given by its ranks."""
    return [c[:j] + c[j + 1:] for j in range(len(c))]


def _ridges(tops: list) -> tuple[dict, dict]:
    """The facets, given by their ranks, of each codimension-1 face, and
    each vertex's link: the codimension-1 faces that leave it out."""
    ridges, links = {}, {}
    for f in tops:
        for i, r in zip(f, _below(f)):
            ridges.setdefault(r, []).append(f)
            links.setdefault(i, []).append(r)
    return ridges, links


def _ball_poset(ball) -> tuple:
    """Refuse what ``validate_ball`` refuses; else return the name, the
    dimension n, the interior cells in cell order with their parents, and
    functions giving a cell's dimension and label.  The checks read the top
    cells, the top cells of each (n-1)-cell (ridge) and the interior's
    parents: a ``CubicalComplex`` off its poset, a ``SimplicialComplex`` off
    the ranks of its facet masks, listing no boundary face."""
    if isinstance(ball, SimplicialComplex):
        ball._check_face_budget()
        if ball.is_empty:
            raise ValueError("empty complex is not a ball")
        name, n, verts = ball.name or "simplicial", ball.dim, ball.vertices()
        below = _below
        tops = [tuple(_ranks(f)) for f in ball._masks()]  # each facet's ranks, ascending
        ridges, links = _ridges(tops)
        held = [set() for _ in verts]  # rank -> the one-facet (boundary) ridges holding it
        for r in (r for r, ts in ridges.items() if len(ts) == 1):
            for i in r:
                held[i].add(r)
        interior, todo = {f: [] for f in tops}, list(tops)  # walk down, stop at boundary faces
        while todo:
            c = todo.pop()
            for g in below(c) if len(c) > 1 else ():
                if g in interior:
                    interior[g].append(c)
                elif not set.intersection(*map(held.__getitem__, g)):
                    interior[g] = [c]
                    todo.append(g)
        profile = reduced_homology(ball)
        chi = 1 + sum((-1) ** d * g.rank for d, g in enumerate(profile.groups))
        order = lambda c: (len(c), c)  # cell order: dimension, then ranks
        interior = {c: interior[c] for c in sorted(interior, key=order)}
        dim, first = (lambda c: len(c) - 1), partial(min, key=order)
        label = lambda c: tuple(verts[i] for i in c)
    else:  # a cubical complex lists its cells in cell order
        name, n, par = ball.name, ball.dim, ball.parents()
        tops = [c for c in ball.cells if not par[c]]
        ridges = {c: par[c] for c in ball.cells_of_dim(n - 1)}
        boundary = ball.boundary_cells()
        interior = {c: par[c] for c in ball.cells if c not in boundary}
        chi, profile = ball.euler_characteristic(), None
        dim, label, first = ball.cell_dim.__getitem__, (lambda c: c), (lambda cells: cells[0])
        below = ball.covers.__getitem__
    impure = [c for c in tops if dim(c) != n]
    if impure:
        c = first(impure)
        raise ValueError(f"not pure: maximal cell {label(c)!r} has dimension {dim(c)}")
    if chi != 1:
        raise ValueError(f"Euler characteristic {chi} != 1; not a ball")
    if n >= 1:
        if not any(len(ts) == 1 for ts in ridges.values()):
            # A closed manifold with chi = 1 (RP^2) would pass the chi test:
            # an empty boundary has chi 0, like the circle a 2-ball needs.
            raise ValueError("empty boundary; a closed complex is not a ball")
        chi -= sum((-1) ** dim(c) for c in interior)  # now the boundary's
        expected = 1 + (1 if (n - 1) % 2 == 0 else -1)
        if chi != expected:
            raise ValueError(f"boundary Euler characteristic {chi} != {expected}; boundary is not a sphere")
    # A disk plus a disjoint annulus passes every count above.  Grids are
    # balls by construction.
    if profile is not None and not profile.is_acyclic:
        raise ValueError(f"reduced homology {', '.join(profile.render_lines())}; not a ball")
    # A hand-built CubicalComplex gets no homology test: an annulus plus a
    # disjoint square passes every count above, and is not strongly
    # connected.  Purity gives each (n-1)-cell at least one top cell.
    branching = [r for r, ts in ridges.items() if len(ts) > 2]
    if branching:
        r = first(branching)
        raise ValueError(f"{n - 1}-cell {label(r)!r} lies in {len(ridges[r])} top cells; not a pseudomanifold")
    _check_strongly_connected(first(tops), len(tops), below, ridges, n)
    if profile is not None and n >= 3:
        _check_links(len(tops), ridges, links, verts, n, set())
    return name, n, interior, dim, label


def _check_strongly_connected(start, count: int, below, ridges: dict, n: int) -> None:
    """Refuse unless all ``count`` top cells are reached from the top cell
    ``start`` across shared (n-1)-cells."""
    reached = {start}
    todo = [start]
    while todo:
        for r in below(todo.pop()):
            for t in ridges[r]:
                if t not in reached:
                    reached.add(t)
                    todo.append(t)
    if len(reached) != count:
        raise ValueError(f"{count - len(reached)} of {count} top cells are not reached "
                         f"across {n - 1}-cells; not strongly connected")


def _check_links(count: int, ridges: dict, links: dict, verts: tuple, n: int, seen: set) -> None:
    """Refuse unless each vertex link of a pure n-complex, given by its
    facet count, ridge map and vertex links (rank tuples into ``verts``),
    is a homology (n-1)-ball at a vertex of a one-facet ridge, else a
    homology (n-1)-sphere: strongly connected, with the reduced homology of
    a point or of the sphere, and for n >= 4 with its own vertex links
    passing in turn.  A link inherits from the pseudomanifold it lies in
    that it is pure, with each ridge in one or two facets, and in two for a
    sphere; the Euler characteristics that ``_ball_poset`` counts follow,
    as an acyclic homology manifold has a homology sphere for boundary and
    an acyclic strongly connected 2-pseudomanifold is a disk.  A vertex in
    one facet has a simplex for its link.  A cone is tested at its apex
    alone: another vertex's link is the cone over its link in the apex's.
    ``seen`` holds the links that have passed, so the link of a face met
    through each of its vertices in turn is tested once."""
    boundary = {i for r, ts in ridges.items() if len(ts) == 1 for i in r}
    apexes = [i for i, link in links.items() if len(link) == count]
    for i in sorted(apexes)[:1] or sorted(links):
        link = links[i]
        if len(link) == 1:
            continue
        shape = "ball" if i in boundary else "sphere"
        key = (shape, frozenset(link))
        if key in seen:
            continue
        try:
            sub_ridges, sub_links = _ridges(link)
            first = min(link)
            _check_strongly_connected(first, len(link), _below, sub_ridges, n - 1)
            # A sphere's ridges lie in two facets that connect, so its H~ is
            # the sphere's exactly when it is acyclic less one facet, which
            # for a sphere is a ball: the collapse core shrinks it fast.
            rest = link if shape == "ball" else [f for f in link if f != first]
            if not reduced_homology(_complex(rest, verts)).is_acyclic:
                profile = reduced_homology(_complex(link, verts))
                raise ValueError(f"reduced homology {', '.join(profile.render_lines())}; not a {shape}")
            if n > 3:
                _check_links(len(link), sub_ridges, sub_links, verts, n - 1, seen)
        except ValueError as e:
            raise ValueError(f"link of vertex {verts[i]!r} is not a {n - 1}-{shape}: {e}") from None
        seen.add(key)


def _complex(tops: list, verts: tuple) -> SimplicialComplex:
    """The complex whose facets are ``tops``, ascending rank tuples into ``verts``."""
    return _maximal([sum(map((1).__lshift__, f)) for f in tops], verts, "")


def validate_ball(complexe) -> None:
    """Refuse what is not an n-ball.  The checks: pure, Euler characteristic
    1, for n >= 1 a nonempty boundary with the Euler characteristic of an
    (n-1)-sphere, for a simplicial complex zero reduced homology, and a
    strongly connected pseudomanifold: each (n-1)-cell lies in one or two
    top cells, and top cells sharing (n-1)-cells connect them all.  For
    n <= 2 these identify balls exactly.  For a simplicial complex with
    n >= 3, each vertex link must then pass the (n-1)-dimensional test: a
    homology ball at a vertex of a boundary (n-1)-cell, else a homology
    sphere, that is, strongly connected, with the reduced homology of a
    point or of the (n-1)-sphere, and from dimension 3 with each of its
    own vertex links passing in turn.  For n = 3 the links are
    2-dimensional and their test is exact, so what passes is an acyclic
    3-manifold whose boundary is a 2-sphere; only fakes that are not
    simply connected, such as a homology 3-sphere less a tetrahedron, are
    not balls.  For n >= 4 this is a homology-manifold condition.  Cubical
    input has no homology or link test, and ``subdivide_cube`` grids are
    balls by construction."""
    _ball_poset(complexe)


def dual_cells(ball) -> CubicalComplex:
    """Dual cell structure on the interior of a combinatorial ball.

    Each primal d-cell not contained in the boundary yields a dual
    (n-d)-cell whose vertices are the top cells containing it; incidence
    is the primal incidence reversed.  Boundary-only primal cells have no
    duals, so the dual complex covers a smaller concentric ball.  One
    sweep down the interior, in descending dimension, gives the vertex
    sets: a parent of an interior cell is interior; a top cell's set is
    itself, any other cell's the union of its parents' sets.
    """
    name, n, parents, dim, label = _ball_poset(ball)
    dual_ids = {c: ("dual", label(c)) for c in parents}
    cell_vertices: dict = {}
    for c in sorted(parents, key=dim, reverse=True):
        above = [cell_vertices[dual_ids[p]] for p in parents[c]]
        cell_vertices[dual_ids[c]] = frozenset().union(*above) if above else frozenset({dual_ids[c]})
    cell_dim = {dual_ids[c]: n - dim(c) for c in parents}
    cells = tuple(sorted(dual_ids.values(), key=repr))
    place = {d: i for i, d in enumerate(cells)}.__getitem__  # repr order, one repr per cell
    covers = {dual_ids[c]: tuple(sorted((dual_ids[p] for p in parents[c]), key=place)) for c in parents}
    return CubicalComplex(f"dual({name})", n, cells, cell_dim, covers, cell_vertices)
