"""Reduced integer homology of simplicial complexes, exactly.

``reduced_homology`` answers the empty complex, cones and complexes whose
strong-collapse core is a graph without a matrix, peels each vertex whose
deletion is a cone by taking its link one degree down, and otherwise
reduces the core's boundary maps over Z; its docstring lists the steps
and the face budget.  ``boundary_matrices`` builds the maps sparse from
the facet bitmasks that ``simplicial`` keeps, ``smith_normal_form`` takes
each map's invariant factors, skipping the rows that the map below split
off, and ``divisor_chain`` normalises a multiset of factors.
``AbelianGroup`` and ``HomologyProfile`` keep results in normal form, and
``HomologyIndex`` reads the three-way index off a profile.

Homology is reduced throughout: the degree-0 boundary map is the
augmentation to Z, or has no row relative to a star, so a single point
has trivial homology everywhere.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import and_, or_
from typing import Collection, Iterable

from . import _Value
from .simplicial import SimplicialComplex, Vertex, _face_mask, _maximal, _ranks


# ---------------------------------------------------------------- groups

def divisor_chain(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize a multiset of integers into a divisor chain; 0s are dropped.

    diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)).  One pass
    exchanges each entry with every later one: afterwards vals[i] divides
    all later entries, and later exchanges only replace those by gcds and
    lcms of multiples of vals[i].  So the pass leaves the invariant
    factors, each dividing the next and so in ascending order.  A 1
    divides everything, so 1s are set aside and put back in front.
    """
    vals = sorted(map(abs, values))
    ones = vals.count(1)
    del vals[: vals.count(0) + ones]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[j] % vals[i]:
                g = gcd(vals[i], vals[j])
                vals[i], vals[j] = g, vals[i] // g * vals[j]
    return (1,) * ones + tuple(vals)


class AbelianGroup(_Value):
    """Finitely generated abelian group: Z^rank + sum of Z/d with d1 | d2 | ..."""

    _fields = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        torsion = tuple(torsion)
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {torsion} is not a divisor chain")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be at least 2")
        self.__dict__.update(rank=rank, torsion=torsion)

    @classmethod
    def from_parts(cls, rank: int, factors: Iterable[int]) -> "AbelianGroup":
        return cls(rank, [d for d in divisor_chain(factors) if d > 1])

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)


TRIVIAL_GROUP = AbelianGroup()


# --------------------------------------------------------------- matrices

class IntegerMatrix(_Value):
    """Sparse exact integer matrix.

    ``entries`` holds one tuple per row of that row's nonzero
    ``(column, value)`` pairs, columns ascending.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[tuple[int, int], ...], ...]):
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            last = -1
            for j, v in row:
                if not last < j < cols:
                    raise ValueError("column indices must ascend within the column range")
                if not v:
                    raise ValueError("stored zero entry")
                last = j
        self.__dict__.update(rows=rows, cols=cols, entries=entries)


def smith_normal_form(
    matrix: IntegerMatrix, *, skip: Collection[int] = (), split: set[int] | None = None
) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (ascending divisor chain).

    The length of the result is the rank; trivial factors 1 are included.

    Peel.  A column pj whose only live entry is p = ±1 at row pi splits
    off a factor 1: the column operations that clear row pi add multiples
    of column pj, which is zero outside row pi, so they touch no other
    row and make no fill-in (a coreduction; Mrozek & Batko, "Coreduction
    homology algorithm", 2009).  Row pi and column pj are dropped and the
    rest of the matrix is unchanged.  One pass lists the live row
    numbers of each column and puts the (row, column) of every entry
    other than ±1 into one set; a column's count starts at its list's
    length.  A stack holds the columns with count 1, ascending at the
    start, and dropping row pi lowers the count of each of its columns,
    so a column that reaches 1 is pushed.  A popped column's live row is
    the first listed one still live; a non-unit there stays.  Only the
    rows left after the peel are copied into the working dicts.

    Loop.  Each sweep takes m, the smallest |value| left, visits the rows
    shortest first and pivots on an entry of |value| m in each, taking
    its sparsest column; a step that splits nothing ends the sweep.  The
    loop ends: no step adds a row, so there are at most as many splits as
    rows.  A sweep pivots at least once, since the first row that held an
    m-entry at its start is unchanged until something is pivoted.  A step
    that splits nothing leaves an entry smaller than m (a remainder, or
    an entry skipped with quotient 0), so between splits m strictly falls.

    Clearing (Kaczynski, Mrozek & Slusarek, "Homology computation by
    reduction of chain complexes", 1998).  Rows whose index is in
    ``skip`` are left out.  When ``split`` is a set, it receives the
    column pj of every factor split off before the first step that splits
    nothing.  For a chain pair d_k d_{k+1} = 0, the rows of d_{k+1} named
    by d_k's ``split`` can be skipped without changing d_{k+1}'s factors:

    - Elimination turns d_k into P d_k Q with P and Q unimodular.  P
      never reaches d_{k+1}; Q turns it into Q^-1 d_{k+1}.
    - Each column operation of a splitting step, a peel included, adds
      a multiple of its pivot column pj to another column, so Q^-1 only
      adds rows of d_{k+1} to the rows of S, the split columns: in the
      order (S, the rest) Q^-1 is [[A, B], [0, I]] with A unimodular.
    - Once (pi, pj) is split, row pi of P d_k Q is p at pj and nothing
      else, and P d_k Q Q^-1 d_{k+1} = 0, so row pj of Q^-1 d_{k+1} is
      zero.  Hence A d_S + B d_rest = 0: the rows of S lie in the Z-span
      of the rest, and dropping them keeps the row lattice and with it
      the invariant factors.
    - A step that splits nothing may have reduced row pi by column
      operations and left its column pj unsplit; Q^-1 then changes row
      pj, which is outside S, and the block form fails.  So recording
      stops there.  Boundary maps almost never take such a step.
    """
    entries = matrix.entries
    live = {i for i, r in enumerate(entries) if r and i not in skip}
    col_rows: list[list[int]] = [[] for _ in range(matrix.cols)]  # column -> its rows
    nonunit = set()  # (row, column) of every entry other than ±1
    for i in live:
        for j, v in entries[i]:
            col_rows[j].append(i)
            if v != 1 and v != -1:
                nonunit.add((i, j))
    count = [len(r) for r in col_rows]  # live rows of each column
    stack = [j for j, n in enumerate(count) if n == 1]
    factors: list[int] = []
    while stack:
        pj = stack.pop()
        if count[pj] != 1:
            continue
        for pi in col_rows[pj]:
            if pi in live:
                break
        if (pi, pj) in nonunit:
            continue
        live.discard(pi)
        factors.append(1)
        if split is not None:
            split.add(pj)
        for j, _ in entries[pi]:
            count[j] -= 1
            if count[j] == 1:
                stack.append(j)
    rows = {i: dict(entries[i]) for i in live}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    while rows:
        m = min(abs(v) for row in rows.values() for v in row.values())
        for pi in sorted(rows, key=lambda i: (len(rows[i]), i)):
            if pi not in rows:
                continue
            pj = min((j for j, v in rows[pi].items() if v == m or v == -m),
                     key=lambda j: (len(cols[j]), j), default=None)
            if pj is None:
                continue
            factor = _pivot_step(rows, cols, pi, pj)
            if not factor:
                split = None
                break
            factors.append(factor)
            if split is not None:
                split.add(pj)
    return divisor_chain(factors)


def _pivot_step(rows: dict[int, dict[int, int]], cols: dict[int, set[int]], pi: int, pj: int) -> int:
    """Pivot on p at (pi, pj); return |p| if it was split off, else 0.

    Row operations row_i -= (a_i // p) * row_pi leave a_i mod p in column
    pj, so a unit p clears it exactly.  A row whose quotient is 0 (a_i of
    the sign of p and smaller, which a sweep at |p| can meet after an
    earlier step left a remainder) is left as it is, so any p is a valid
    pivot: that entry keeps the column and the step splits nothing.  Once
    the column is clear, column operations reduce row pi mod p and touch
    no other row.  If the row is then clear too, the matrix is diag(|p|)
    plus the rest: row pi and column pj stay dropped.  Otherwise row pi
    goes back with p in place and the smaller remainders are left for the
    next pivot.  ``rows`` and ``cols`` are updated in place.
    """
    pivot_row = rows[pi]
    p = pivot_row[pj]
    for i in list(cols[pj]):
        if i == pi:
            continue
        row = rows[i]
        q = row[pj] // p
        if not q:
            continue
        for j, v in pivot_row.items():
            w = row.get(j, 0) - q * v
            if w:
                row[j] = w
                cols[j].add(i)
            else:
                del row[j]
                cols[j].discard(i)
        if not row:
            del rows[i]
    if len(cols[pj]) > 1:
        return 0
    del rows[pi]
    rest = {}
    for j, v in pivot_row.items():
        cols[j].discard(pi)
        if not cols[j]:
            del cols[j]
        if v % p:
            rest[j] = v % p
    if not rest:
        return abs(p)
    rows[pi] = rest
    rest[pj] = p
    for j in rest:
        cols.setdefault(j, set()).add(pi)
    return 0


# --------------------------------------------------------------- homology

def boundary_matrices(k: SimplicialComplex, apex: Vertex | None = None) -> list[IntegerMatrix]:
    """Boundary maps [d_0, d_1, ..., d_dim] of ``k``, or of the pair
    (k, closed star of ``apex``) when ``apex`` is given.

    Built sparse from the top degree down, on ``k._masks()``, int bitmasks
    over the ranks of ``k.vertices()``; no face tuple is formed.  The
    columns of d_dim are the top facets in ascending mask order.  A d-face
    f gives its (d-1)-faces f ^ b for b its set bits from the lowest, with
    signs +1, -1, +1, ...: dropping the v-th vertex in canonical order
    gives (-1)^v.  A row is numbered the first time its face is met, and
    the (d-1)-dimensional facets, which no d-face contains, follow in
    ascending mask order.  That row order is the column order of d_{d-1},
    so the rows that clearing skips in one map are the columns split off
    in the map below.  A vertex's one face is the empty face, so d_0 is
    the augmentation to Z.

    Relative to the star, the cells are the faces that neither hold
    ``apex`` nor lie in its link, and a boundary drops its terms in the
    link: only the facets that miss ``apex`` are walked, and before each
    level the link's faces one size down are listed, top down from the
    facets that hold ``apex``; a link face gets no row, and the listing
    stops once no cell is left to meet it.  The empty face is in the
    star, so d_0 has no row.  The star is a cone, so the exact sequence
    of the pair gives H~_n(k) = H_n(k, st(apex)) in every degree.  Rows
    and columns are ordered by first encounter, not by canonical face
    order; the invariant factors do not depend on it.
    """
    if k.is_empty:
        raise ValueError("empty complex has no boundary matrices")
    bit = 0 if apex is None else _face_mask(k, (apex,), "the complex")[0]
    by_size: dict[int, list[int]] = {}  # size -> the facets that miss apex
    in_link: dict[int, list[int]] = {}  # size -> the link's facets
    for f in k._masks():
        if f & bit:
            in_link.setdefault(f.bit_count() - 1, []).append(f ^ bit)
        else:
            by_size.setdefault(f.bit_count(), []).append(f)
    top = k.dim + 1
    lowest = min(by_size, default=top)  # no cell lies below this size
    level = sorted(by_size.get(top, ()))
    link: set[int] = set()  # the link's faces one size below the level
    out = []
    for size in range(top, 0, -1):
        if level or size > lowest:
            below = set(in_link.get(size - 1, ()))
            for f in link:
                rest = f
                while rest:
                    low = rest & -rest
                    rest ^= low
                    below.add(f ^ low)
            link = below
        rows: dict[int, list[tuple[int, int]]] = {}  # (size-1)-face -> its row
        get = rows.get
        for j, f in enumerate(level):
            pos, neg, rest = (j, 1), (j, -1), f
            while rest:
                low = rest & -rest
                rest ^= low
                face = f ^ low
                row = get(face)
                if row is not None:
                    row.append(pos)
                elif face not in link:
                    rows[face] = [pos]
                pos, neg = neg, pos
        facets = sorted(by_size.get(size - 1, ()))
        entries = tuple(map(tuple, rows.values())) + ((),) * len(facets)
        out.append(IntegerMatrix(len(entries), len(level), entries))
        level = [*rows, *facets]
    out.reverse()
    return out


class HomologyProfile(_Value):
    """Reduced homology groups in degrees 0..dim.

    The constructor drops trailing trivial groups, so equal homology gives
    equal profiles whatever degree the caller stopped at.

    The empty complex gets a distinguished marker (``empty_complex``): by
    convention its reduced homology is a single Z in degree -1, which the
    index machinery treats as the value ZERO rather than as a group here.
    """

    _fields = ("groups", "empty_complex")

    def __init__(self, groups: tuple[AbelianGroup, ...] = (), empty_complex: bool = False):
        groups = tuple(groups)
        while groups and groups[-1].is_trivial:
            groups = groups[:-1]
        self.__dict__.update(groups=groups, empty_complex=empty_complex)

    def group(self, k: int) -> AbelianGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return TRIVIAL_GROUP

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    @property
    def is_acyclic(self) -> bool:
        return not self.empty_complex and not self.groups

    def render_lines(self) -> list[str]:
        if self.empty_complex:
            return ["empty complex (reduced H~(-1) = Z)"]
        if not self.groups:
            return ["H~0 = 0"]
        return [f"H~{k} = {g}" for k, g in enumerate(self.groups)]

    def to_json(self):
        if self.empty_complex:
            return {"empty_complex": True, "groups": []}
        return {
            "empty_complex": False,
            "groups": [{"rank": g.rank, "torsion": list(g.torsion)} for g in self.groups],
        }


EMPTY_PROFILE = HomologyProfile(empty_complex=True)


def _collapse_core(k: SimplicialComplex) -> tuple[SimplicialComplex, dict, list]:
    """The strong-collapse core of a nonempty ``k``, and the facet index
    it was found on: facet id -> bitmask over the ranks of
    ``k.vertices()``, and rank -> the ids of the facets that hold it.

    A vertex v is dominated by w != v when every facet that contains v
    also contains w.  Deleting v is then a strong collapse, which keeps
    the homotopy type, so the reduced homology is unchanged (Barmak &
    Minian, "Strong homotopy types, nerves and collapses", 2012).  One
    pass indexes ``k._masks()``; ``_collapse`` deletes on the index.

    Returns ``k`` itself when nothing is dominated, so its memoised masks
    are reused.  ``_apex_and_peel`` reads its two ranks off the index,
    and ``_link_index`` turns it into a link's, in the same frame.
    """
    verts = k.vertices()
    facets = dict(enumerate(k._masks()))
    holders = [[] for _ in verts]  # rank -> ids of the facets holding it
    for n, mask in facets.items():
        rest = mask
        while rest:  # top bit first: two int operations per bit, against _ranks' three
            i = rest.bit_length() - 1
            rest ^= 1 << i
            holders[i].append(n)
    core = _maximal(facets.values(), verts, k.name) if _collapse(facets, holders) else k
    return core, facets, holders


def _collapse(facets: dict, holders: list) -> bool:
    """Delete dominated vertices from a facet index in place, until none
    is left; whether any was deleted.

    The AND of the facets that contain v is v's meet, and v is dominated
    when its meet holds another bit.  One test, ``dominated``, ANDs a
    vertex's facets and stops once the meet is its bit alone.  A worklist
    holds the vertices to check, at first the dominated ones.  Each check
    takes the meet over the facets as they are at that moment, so every
    deletion is a strong collapse of the complex left by the ones before
    it.  Deleting v shrinks each facet that held v; a shrunk facet that
    lies in another facet is dropped, and any such facet holds all of its
    vertices, so only the facets of its least-held vertex are tested.  A
    vertex's meet over the remaining vertices grows only when one of its
    facets is dropped, so only the vertices of dropped facets go back on
    the worklist.  The holders become sets once any vertex is dominated.
    """
    def dominated(i: int) -> bool:
        bit, meet = 1 << i, -1
        for n in holders[i]:
            meet &= facets[n]
            if meet == bit:
                return False
        return True

    todo = [i for i in range(len(holders) - 1, -1, -1) if holders[i] and dominated(i)]
    if not todo:
        return False
    holders[:] = map(set, holders)
    queued = set(todo)
    while todo:
        i = todo.pop()
        queued.discard(i)
        if not dominated(i):
            continue
        bit = 1 << i
        ids, holders[i] = holders[i], set()
        for n in ids:
            f = facets[n] ^ bit
            members = _ranks(f)
            least = min(members, key=lambda j: len(holders[j]))
            if any(m != n and facets[m] & f == f for m in holders[least]):
                del facets[n]
                for j in members:
                    holders[j].discard(n)
                    if j not in queued:
                        queued.add(j)
                        todo.append(j)
            else:
                facets[n] = f
    return True


def _link_index(facets: dict, holders: list, i: int) -> tuple[dict, list]:
    """The facet index of the link of rank ``i``, in the same frame: each
    facet that holds ``i``, less its bit, under the same id.  Those are
    the link's facets, since the facets that hold ``i`` form an antichain
    and lose the same bit."""
    bit, ids = 1 << i, set(holders[i])
    links = [ids.intersection(h) for h in holders]
    links[i] = set()
    return {n: facets[n] ^ bit for n in ids}, links


def _apex_and_peel(holders: list, facets: dict) -> tuple[int, int | None]:
    """The busiest rank of a facet index, and the first rank in the same
    order whose deletion, the faces that miss it, is a nonempty cone (or
    None).

    The order is the apex key order: most facets, then most link vertices
    (bits of the OR of the rank's facets), then lowest rank.  The first
    two keys do not depend on the labels; without the second, a 6-cycle
    vertex and a torus vertex of C6 * T (36 facets each) would tie,
    leaving 385 or 377 cells.  ``boundary_matrices`` takes the busiest
    vertex as its apex.

    If the deletion D of v is a cone with apex c, every facet that misses
    v holds c, so count(v) + count(c) >= F, the facet count: only the
    vertices that pass this go to ``_deletion_is_cone``, in key order.
    """
    counts = list(map(len, holders))
    most = max(counts)
    second = sorted(counts)[-2] if len(counts) > 1 else 0  # the most facets of another vertex
    total = len(facets)
    near = {i: reduce(or_, map(facets.__getitem__, holders[i])).bit_count()  # link vertices
            for i, n in enumerate(counts) if n == most or n and n + most >= total}
    order = sorted(near, key=lambda i: (-counts[i], -near[i], i))
    masks = set(facets.values())
    peel = next((i for i in order if counts[i] + (second if counts[i] == most else most) >= total
                 and _deletion_is_cone(facets, holders, masks, i)), None)
    return order[0], peel


def _deletion_is_cone(facets: dict, holders: list, masks: set, i: int) -> bool:
    """Whether the deletion D of rank ``i``, the faces that miss it, is a
    nonempty cone, read off a facet index; ``masks`` is the set of its
    facets.

    m, the AND of the facets that miss v, must be nonzero.  D's other
    facets are among the r = f ^ bit(v) for the facets f that hold v;
    such an r that lacks a bit of m is ANDed into m unless r | m is
    itself a facet, which holds r and m.  If m is still nonzero, every
    facet of D holds m, so D is a cone.  The test may miss a cone whose
    facets r lie in a larger facet than r | m, but it accepts nothing
    else.
    """
    bit = 1 << i
    missing = [f for f in masks if not f & bit]
    m = reduce(and_, missing) if missing else 0
    for n in holders[i]:
        r = facets[n] ^ bit
        if r & m != m and r | m not in masks:
            m &= r
    return m != 0


def _graph_profile(k: SimplicialComplex) -> HomologyProfile:
    """Reduced homology of a nonempty graph by union-find over its rank
    masks: a spanning forest of c trees on V vertices has V - c edges, and
    each of the other E - V + c edges closes one independent cycle."""
    parent = list(range(len(k.vertices())))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    edges = [f for f in k._masks() if f & (f - 1)]
    for f in edges:
        parent[find((f & -f).bit_length() - 1)] = find(f.bit_length() - 1)
    c = sum(i == p for i, p in enumerate(parent))
    cycles = len(edges) - len(parent) + c
    return HomologyProfile(groups=(AbelianGroup(c - 1), AbelianGroup(cycles)))


def reduced_homology(k: SimplicialComplex) -> HomologyProfile:
    """Reduced homology over Z, answered by the first of these steps that applies.

    1. The empty complex gets ``EMPTY_PROFILE``.
    2. A cone, some vertex in every facet (the AND of the facet masks is
       nonzero), is acyclic.
    3. From dimension 2 up, ``k`` is replaced by its strong-collapse core.
    4. A complex or core of dimension <= 1 is a graph: with c components,
       V vertices and E edges, H~0 = Z^(c-1) and H~1 = Z^(E-V+c).
    5. A core with a vertex v whose deletion D, the faces that miss v, is
       a nonempty cone is replaced by the link of v, one degree down, and
       steps 2 to 6 go again on the link (step 3 at any dimension).
       K = st(v) u D with st(v) n D = lk(v), and st(v) and D are acyclic,
       so the Mayer-Vietoris sequence gives H~_n(K) = H~_(n-1)(lk v) in
       every degree; the peeled degrees come back as trivial groups in
       front.  A suspension peels to its base, and the boundary of a
       simplex to a circle, with no matrix.  The links are taken on the
       core's facet index, and one complex is built after the last.
    6. Otherwise Smith forms of the core's boundary maps relative to the
       closed star of its busiest vertex, each skipping the rows that the
       map below split off.  The star is an acyclic cone, so the exact
       sequence of the pair gives H~_n(K) = H_n(K, st v): only the faces
       outside the star are assembled.

    Raises ValueError when the first core of dimension 2 or more may have
    more faces than the budget, before any step 5: a link and its core
    have fewer faces, so no later check refuses.  The steps before it
    list no face and answer at any size.
    """
    if k.is_empty:
        return EMPTY_PROFILE
    if reduce(and_, k._masks()):
        return HomologyProfile()
    if k.dim <= 1:
        return _graph_profile(k)
    verts = k.vertices()
    k, facets, holders = _collapse_core(k)
    shift = 0
    if k.dim >= 2:
        k._check_face_budget()
        apex, peel = _apex_and_peel(holders, facets)
        while peel is not None:
            facets, holders = _link_index(facets, holders, peel)
            shift += 1
            if reduce(and_, facets.values()):
                return HomologyProfile()
            _collapse(facets, holders)
            if max(map(int.bit_count, facets.values())) <= 2:
                break
            apex, peel = _apex_and_peel(holders, facets)
        if shift:
            k = _maximal(facets.values(), verts, k.name)
    groups = _graph_profile(k).groups if k.dim <= 1 else _relative_groups(k, verts[apex])
    return HomologyProfile((TRIVIAL_GROUP,) * shift + groups)


def _relative_groups(k: SimplicialComplex, apex: Vertex) -> tuple[AbelianGroup, ...]:
    """The groups of ``k`` in degrees 0..dim from the Smith forms of its
    boundary maps relative to the closed star of ``apex``."""
    mats = boundary_matrices(k, apex)
    factors = []
    split: set[int] = set()
    for m in mats:
        skip, split = split, set()
        factors.append(smith_normal_form(m, skip=skip, split=split))
    factors.append(())
    groups = []
    for d, m in enumerate(mats):
        free = m.cols - len(factors[d]) - len(factors[d + 1])  # m.cols: the d-cells
        groups.append(AbelianGroup(free, [f for f in factors[d + 1] if f > 1]))  # Smith chains ascend
    return tuple(groups)


# ----------------------------------------------------------------- index

ZERO_TAG, INDEX_TAG, ACYCLIC_TAG = "ZERO", "INDEX", "ACYCLIC"


class HomologyIndex(_Value):
    """Three-way index: ZERO (empty complex), INDEX(n), or ACYCLIC.

    INDEX(n) means n is the smallest positive integer whose degree-(n-1)
    reduced homology is nonzero.  ACYCLIC marks nonempty complexes with
    trivial reduced homology in every degree; such complexes carry no
    index value and never satisfy an upper bound.
    """

    _fields = ("tag", "n")

    def __init__(self, tag: str, n: int | None = None):
        if tag not in (ZERO_TAG, INDEX_TAG, ACYCLIC_TAG):
            raise ValueError(f"bad index tag {tag!r}")
        if tag == INDEX_TAG:
            if n is None or n < 1:
                raise ValueError("INDEX requires n >= 1")
        elif n is not None:
            raise ValueError(f"{tag} carries no value")
        self.__dict__.update(tag=tag, n=n)

    @property
    def is_zero(self) -> bool:
        return self.tag == ZERO_TAG

    @property
    def is_acyclic(self) -> bool:
        return self.tag == ACYCLIC_TAG

    @property
    def value(self) -> int:
        """Numeric index: 0 for ZERO, n for INDEX(n); ACYCLIC has none."""
        if self.tag == ZERO_TAG:
            return 0
        if self.tag == INDEX_TAG:
            return self.n
        raise ValueError("ACYCLIC has no numeric index")

    def at_most(self, bound: int) -> bool:
        """Whether the index is defined and at most ``bound``."""
        if self.tag == ACYCLIC_TAG:
            return False
        return self.value <= bound

    def __str__(self):
        if self.tag == INDEX_TAG:
            return f"INDEX({self.n})"
        return self.tag


ZERO_INDEX = HomologyIndex(ZERO_TAG)
ACYCLIC_INDEX = HomologyIndex(ACYCLIC_TAG)


def finite_index(n: int) -> HomologyIndex:
    return HomologyIndex(INDEX_TAG, n)


def index_of_profile(profile: HomologyProfile) -> HomologyIndex:
    if profile.empty_complex:
        return ZERO_INDEX
    for k, g in enumerate(profile.groups):
        if not g.is_trivial:
            return finite_index(k + 1)
    return ACYCLIC_INDEX


def homology_index(k: SimplicialComplex) -> HomologyIndex:
    """Index of a complex: smallest n with nontrivial reduced H~(n-1)."""
    return index_of_profile(reduced_homology(k))
