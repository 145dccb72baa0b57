"""Independent cross-checking routines for the test suite.

Everything here works on plain data (lists of facets, lists of matrix
rows) and is implemented from first principles, by different routes than
the library: ranks by Gaussian elimination over Fraction or GF(p),
invariant factors by determinantal divisors, components by union-find,
grid cell counts by closed-form sums.  No imports from the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd


# ------------------------------------------------------------ linear algebra

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
