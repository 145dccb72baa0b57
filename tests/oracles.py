"""Independent cross-checking routines for the test suite.

Everything here works on plain data (lists of facets, lists of matrix
rows) and is implemented from first principles, by different routes than
the library: ranks by Gaussian elimination over Fraction or GF(p),
invariant factors by determinantal divisors, components by union-find,
grid cell counts by closed-form sums.  No imports from the package: the
few helpers that take library objects read only their plain fields.
The fixtures and the alarm that several test files share live here too.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
from collections import defaultdict
from fractions import Fraction
from math import comb, gcd


# the catalog's piece kinds, in catalog order
PIECE_KINDS: tuple[str, ...] = (
    "TRI_0", "TRI_1", "TRI_2", "TRI_3",
    "QUAD_1", "QUAD_2", "QUAD_3",
    "OCT_1", "OCT_2", "OCT_3",
    "TUBE",
    "HELICAL_12GON",
    "TRIPLE_TUBE",
    "OCT_TUBE_DISK",
    "OCT_TUBE_SELF",
)

# the 6-vertex real projective plane: chi = 1, H~1 = Z/2, no boundary
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


@contextlib.contextmanager
def within(seconds: float):
    """Fail the ``with`` block when it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------ linear algebra

def matrix_fields(rows, cols: int | None = None) -> tuple[int, int, tuple]:
    """The ``IntegerMatrix`` fields (rows, cols, entries) of dense rows of ints."""
    rows = [[int(v) for v in r] for r in rows]
    if cols is None:
        cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise ValueError("column count mismatch")
    entries = tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows)
    return len(rows), cols, entries


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by straightforward Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [x * inv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def mod_p_rank(rows: list[list[int]], p: int) -> int:
    """Rank over the prime field GF(p)."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    pivot_row = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] % p != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = pow(m[pivot_row][col], -1, p)
        m[pivot_row] = [(x * inv) % p for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] % p != 0:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def invariant_factors_by_minors(rows: list[list[int]]) -> list[int]:
    """Nontrivial-and-trivial invariant factors via determinantal divisors.

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Exponential in the matrix size, so only used on small
    matrices, but an entirely different computation than row reduction.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        d_k = 0
        for rset in itertools.combinations(range(n_rows), k):
            for cset in itertools.combinations(range(n_cols), k):
                sub = [[rows[r][c] for c in cset] for r in rset]
                d_k = gcd(d_k, _det(sub))
            if d_k == 1:
                break
        if d_k == 0:
            break
        factors.append(d_k // prev)
        prev = d_k
    return factors


def _det(m: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion (matrices are tiny)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


# ------------------------------------------------------------ homology

def normalize_facets(facets) -> list[tuple[int, ...]]:
    """Relabel arbitrary vertices as integers; maximal faces only."""
    verts = sorted({v for f in facets for v in f}, key=repr)
    idx = {v: i for i, v in enumerate(verts)}
    sets = [frozenset(idx[v] for v in f) for f in facets]
    maximal = [s for s in sets if not any(s < t for t in sets)]
    return sorted(set(tuple(sorted(s)) for s in maximal))


def maximal_faces(faces) -> frozenset:
    """The faces, as given, that no other face strictly contains."""
    return frozenset(f for f in faces if not any(set(f) < set(g) for g in faces))


def all_faces(facets) -> list[tuple[int, ...]]:
    faces = set()
    for f in normalize_facets(facets):
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return sorted(faces, key=lambda f: (len(f), f))


def faces_of_dim(facets, d: int) -> list[tuple[int, ...]]:
    return [f for f in all_faces(facets) if len(f) == d + 1]


def boundary_matrix_rows(facets, d: int) -> list[list[int]]:
    """Rows of the boundary map C_d -> C_{d-1}; d = 0 maps to the
    augmentation, matching the reduced chain complex."""
    top = faces_of_dim(facets, d)
    if d == 0:
        return [[1] * len(top)] if top else []
    low = faces_of_dim(facets, d - 1)
    low_index = {f: i for i, f in enumerate(low)}
    rows = [[0] * len(top) for _ in low]
    for j, f in enumerate(top):
        for i in range(len(f)):
            face = f[:i] + f[i + 1 :]
            rows[low_index[face]][j] += (-1) ** i
    return rows


def reduced_betti(facets, d: int, rank_fn=rational_rank) -> int:
    """Reduced Betti number in degree d over Q (or GF(p) via rank_fn)."""
    f_d = len(faces_of_dim(facets, d))
    if f_d == 0:
        return 0
    rank_d = rank_fn(boundary_matrix_rows(facets, d))
    above = boundary_matrix_rows(facets, d + 1)
    rank_up = rank_fn(above) if above else 0
    return f_d - rank_d - rank_up


def reduced_betti_mod_p(facets, d: int, p: int) -> int:
    return reduced_betti(facets, d, rank_fn=lambda rows: mod_p_rank(rows, p))


def component_count(facets) -> int:
    """Connected components by union-find over the edges."""
    faces = normalize_facets(facets)
    verts = sorted({v for f in faces for v in f})
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in faces:
        for a, b in zip(f, f[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in verts})


def euler_characteristic(facets) -> int:
    return sum((-1) ** (len(f) - 1) for f in all_faces(facets))


def has_face(k, vertices) -> bool:
    """The vertices span a face of complex ``k``."""
    want = set(vertices)
    return any(want <= set(f) for f in k.facets)


def is_subcomplex(x, y) -> bool:
    """Every facet of complex ``x`` is a face of complex ``y``."""
    return all(has_face(y, f) for f in x.facets)


def torsion_count_divisible_by(group, p: int) -> int:
    """Torsion factors of an ``AbelianGroup`` that ``p`` divides."""
    return sum(1 for d in group.torsion if d % p == 0)


def maximal_sets(faces) -> set[frozenset]:
    """The distinct faces, as vertex sets, that no other face strictly contains."""
    sets = {frozenset(f) for f in faces}
    return {s for s in sets if not any(s < t for t in sets)}


def full_subcomplex_sets(facets, keep) -> set[frozenset]:
    """Facets of the subcomplex induced on the vertices in ``keep``."""
    keep = set(keep)
    return maximal_sets([set(f) & keep for f in facets if set(f) & keep])


def link_sets(facets, s) -> set[frozenset]:
    """Facets of the link of face ``s``: every face disjoint from ``s``
    whose union with ``s`` is a face, kept when maximal."""
    s = set(s)
    faces = {frozenset(c) for f in facets if s <= set(f) for r in range(1, len(f) + 1)
             for c in itertools.combinations(f, r)}
    return maximal_sets([c for c in faces if not c & s and (c | s) in faces])


def manifold_shape(facets) -> str | None:
    """``"ball"`` or ``"sphere"`` when the complex is a homology manifold
    of that shape, else None, read off sets alone.  It must be pure; at
    dimension 0 it is one point (a ball) or two (a sphere); above, every
    vertex link has a shape in turn, and the reduced homology over GF(2)
    and GF(3) is that of a point when some link is a ball, else that of
    the sphere.  Betti numbers over Q are at most those over GF(2), and on
    the few vertices the tests use no torsion escapes both fields."""
    facets = maximal_sets(facets)
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        return None
    d = sizes.pop() - 1
    verts = set().union(*facets)
    if d == 0:
        return {1: "ball", 2: "sphere"}.get(len(verts))
    links = set()
    for v in verts:
        links.add(manifold_shape(link_sets(facets, [v])))
        if None in links:
            return None
    shape = "ball" if "ball" in links else "sphere"
    want = (0,) * d + (int(shape == "sphere"),)
    if any(tuple(reduced_betti_mod_p(facets, i, p) for i in range(d + 1)) != want for p in (2, 3)):
        return None
    return shape


def star_sets(facets, s) -> set[frozenset]:
    """Facets of the closed star of face ``s``: the facets that contain it."""
    return maximal_sets([f for f in facets if set(s) <= set(f)])


def busiest_vertex(facets, key):
    """The vertex in the most facets, then with the most vertices in the
    union of those facets, then the lowest by ``key`` (the package's
    vertex order), counted on vertex sets."""
    facets = maximal_sets(facets)

    def order(v):
        holding = [f for f in facets if v in f]
        return -len(holding), -len(frozenset().union(*holding)), key(v)

    return min(frozenset().union(*facets), key=order)


def adjacency_sets(x_facets, y_facets, tau) -> set[frozenset]:
    """Facets of V_tau: the subcomplex of X induced on the vertices of X
    that share an edge of Y with every vertex of ``tau`` outside X."""
    x_verts = {v for f in x_facets for v in f}
    edges = {frozenset(e) for f in y_facets for e in itertools.combinations(f, 2)}
    keep = [v for v in x_verts
            if all(frozenset((v, w)) in edges for w in tau if w not in x_verts)]
    return full_subcomplex_sets(x_facets, keep)


def join_facets(fa, fb):
    """Facets of the join: unions of one facet from each side."""
    return [tuple(a) + tuple(b) for a in fa for b in fb]


def sphere_facets(n_vertices: int):
    """Boundary of the simplex on 0..n_vertices-1."""
    return list(itertools.combinations(range(n_vertices), n_vertices - 1))


# ------------------------------------------------------------ grids

def grid_cell_count(counts: list[int], d: int) -> int:
    """Number of d-cells in a unit cube cut by counts[i] planes per axis.

    Each axis contributes either a segment (counts[i] + 1 ways) or a
    point (counts[i] + 2 ways); a d-cell picks d segment axes.
    """
    n = len(counts)
    total = 0
    for segs in itertools.combinations(range(n), d):
        prod = 1
        for i in range(n):
            prod *= counts[i] + 1 if i in segs else counts[i] + 2
        total += prod
    return total


def cube_face_count(n: int, d: int) -> int:
    """d-dimensional faces of the unit n-cube: C(n, d) * 2^(n-d)."""
    return comb(n, d) * 2 ** (n - d)


def grid_coordinates(vertex: tuple, counts) -> tuple[Fraction, ...]:
    """Coordinates in the unit cube of a lattice vertex, given as lattice
    integers or as a vertex cell of degenerate ``(j, j)`` intervals."""
    coords = []
    for x, c in zip(vertex, counts):
        if isinstance(x, tuple):
            lo, hi = x
            if lo != hi:
                raise ValueError(f"not a vertex cell: axis interval {x}")
            x = lo
        coords.append(Fraction(x, c + 1))
    return tuple(coords)


def face_covers(facets) -> dict:
    """Each face of the facets (tuples as given) to its codimension-1 faces."""
    faces = {f for facet in facets for r in range(1, len(facet) + 1)
             for f in itertools.combinations(facet, r)}
    return {f: tuple(itertools.combinations(f, len(f) - 1)) if len(f) > 1 else () for f in faces}


def dual_vertices(covers: dict, c) -> set:
    """The top cells (faces of no cell) whose downward closure holds ``c``,
    walking down from each top cell through ``covers``."""
    covered = {f for faces in covers.values() for f in faces}
    found = set()
    for top in covers:
        if top in covered:
            continue
        seen, todo = {top}, [top]
        while todo:
            for f in covers[todo.pop()]:
                if f not in seen:
                    seen.add(f)
                    todo.append(f)
        if c in seen:
            found.add(top)
    return found


def ridge_sets(covers: dict, cell_dim: dict, n: int) -> list[frozenset]:
    """Each n-cell's set of (n-1)-cells, one set per n-cell."""
    return [frozenset(covers[c]) for c in covers if cell_dim[c] == n]


def is_pseudomanifold(covers: dict, cell_dim: dict, n: int) -> bool:
    """Whether every (n-1)-cell lies in one or two n-cells, counted by
    membership in each n-cell's ridge set."""
    tops = ridge_sets(covers, cell_dim, n)
    return all(1 <= sum(c in t for t in tops) <= 2 for c in covers if cell_dim[c] == n - 1)


def is_strongly_connected(covers: dict, cell_dim: dict, n: int) -> bool:
    """Whether the n-cells form one class when two n-cells that share an
    (n-1)-cell are joined: grow one union of ridge sets by every ridge
    set that meets it, until nothing more meets it."""
    tops = ridge_sets(covers, cell_dim, n)
    if not tops:
        return False
    grown, rest = set(tops[0]), tops[1:]
    while True:
        left = []
        for t in rest:
            if t & grown:
                grown |= t
            else:
                left.append(t)
        if len(left) == len(rest):
            return not rest
        rest = left


# ------------------------------------------------------------ configurations

def config_to_json_dict(config) -> dict:
    """A ``SurfaceConfiguration`` in the configuration file schema."""
    return {
        "tets": config.skeleton.tets,
        "gluings": [
            [g.tet_a, g.face_a, g.tet_b, g.face_b, list(g.perm)]
            for g in config.skeleton.gluings
        ],
        "pieces": [[pl.tet, pl.kind, pl.multiplicity] for pl in config.placements],
    }


def edge_reversed_by_gluings(gluings) -> bool:
    """True when face gluings ``(tet_a, face_a, tet_b, face_b, perm)``
    identify some tetrahedron edge with itself reversed.

    A search over directed edges ``(tet, tail, head)``: each gluing links
    a directed edge of face_a with its image in face_b, and an edge is
    reversed when both of its directions land in one component.
    """
    links = defaultdict(list)
    for ta, fa, tb, fb, perm in gluings:
        ca = [v for v in range(4) if v != fa]
        cb = [v for v in range(4) if v != fb]
        image = {ca[k]: cb[perm[k]] for k in range(3)}
        for u, v in itertools.permutations(ca, 2):
            x, y = (ta, u, v), (tb, image[u], image[v])
            links[x].append(y)
            links[y].append(x)
    component = {}
    for start in links:
        if start in component:
            continue
        component[start] = start
        stack = [start]
        while stack:
            for y in links[stack.pop()]:
                if y not in component:
                    component[y] = start
                    stack.append(y)
    return any(component[(t, u, v)] == component[(t, v, u)] for t, u, v in component)


# ------------------------------------------------------------ surgery moves

def surgery_moves(surface) -> list[tuple]:
    """Every surgery move from a surface of (euler, weight) pairs, as
    (kind, target, split, k) tuples in the library's order, by nested
    enumeration with every split condition tested explicitly."""
    moves = []
    for idx, (euler, weight) in enumerate(surface):
        if euler <= 0:
            moves.append(("HONEST_COMPRESS_NONSEP", idx, None, None))
            moves.append(("HONEST_BOUNDARY_COMPRESS", idx, None, None))
            for total in (euler + 2, euler + 1):
                for e1 in range(euler + 1, 3):
                    e2 = total - e1
                    if e2 < euler + 1 or e2 > 2 or e1 > e2:
                        continue
                    for w1 in range(weight + 1):
                        moves.append(("HONEST_COMPRESS_SEP", idx, ((e1, w1), (e2, weight - w1)), None))
        for k in range(1, weight + 1):
            moves.append(("DISHONEST", idx, None, k))
    return moves
