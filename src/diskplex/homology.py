"""Reduced integer homology of simplicial complexes, exactly.

Boundary matrices are built sparse, straight from the face lists, over Z
with Python's arbitrary-precision ints.  Smith reduction is one loop over
one pivot step.  Simplicial boundary maps are sparse and nearly all their
pivots are units, so the loop takes ±1 pivots first, short rows and
sparse columns first; each clears its column by exact row operations and
splits off a factor 1.  Only when no unit is left does it pivot on an
entry of minimal |value|, which either splits off its factor or leaves
smaller remainders for the next pivot.  A gcd/lcm pass normalizes the
split-off factors into a divisor chain.

Homology is reduced throughout: the degree-0 boundary map is the
augmentation to Z, so a single point has trivial homology everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .simplicial import SimplicialComplex


# ---------------------------------------------------------------- groups

def divisor_chain(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize a multiset of nonzero integers into a divisor chain.

    diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)); repeating that
    exchange until stable yields the invariant factors, in ascending order.
    A 1 divides everything, so 1s are set aside and put back in front.
    """
    vals = sorted(abs(v) for v in values if v)
    ones = vals.count(1)
    del vals[:ones]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i]:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] // g * vals[j]
                    changed = True
        vals.sort()
    return (1,) * ones + tuple(vals)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank + sum of Z/d with d1 | d2 | ..."""

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion orders must be at least 2")

    @classmethod
    def from_parts(cls, rank: int, factors: Iterable[int]) -> "AbelianGroup":
        chain = tuple(d for d in divisor_chain(factors) if d > 1)
        return cls(rank, chain)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_parts(self.rank + other.rank, self.torsion + other.torsion)

    def torsion_count_divisible_by(self, p: int) -> int:
        return sum(1 for d in self.torsion if d % p == 0)

    def render(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)

    def __str__(self):
        return self.render()


TRIVIAL_GROUP = AbelianGroup()


# --------------------------------------------------------------- matrices

@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse exact integer matrix.

    ``entries`` holds one tuple per row of that row's nonzero
    ``(column, value)`` pairs, columns ascending.
    """

    rows: int
    cols: int
    entries: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            last = -1
            for j, v in row:
                if not last < j < self.cols:
                    raise ValueError("column indices must ascend within the column range")
                if not v:
                    raise ValueError("stored zero entry")
                last = j

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        """Sparse matrix from dense rows of ints."""
        rows = [[int(v) for v in r] for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("column count mismatch")
        entries = tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows)
        return cls(len(rows), cols, entries)


def smith_normal_form(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (ascending divisor chain).

    The length of the result is the rank; trivial factors 1 are included.

    Each sweep visits the rows shortest first and pivots on a ±1 entry of
    each, taking its sparsest column.  A sweep that finds no unit is
    followed by one pivot on an entry of minimal |value|, ties broken by
    fill (Markowitz cost), then position.  The loop ends: no step adds a
    row, a unit step always splits off its factor and its row, and a
    non-unit step that splits off nothing leaves an entry smaller than
    |p|, so the global minimum |value| drops.
    """
    rows = {i: dict(r) for i, r in enumerate(matrix.entries) if r}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    factors: list[int] = []
    while rows:
        found_unit = False
        for pi in sorted(rows, key=lambda i: (len(rows[i]), i)):
            if pi not in rows:
                continue
            pj = min(
                (j for j, v in rows[pi].items() if v == 1 or v == -1),
                key=lambda j: (len(cols[j]), j),
                default=None,
            )
            if pj is not None:
                factors.append(_pivot_step(rows, cols, pi, pj))
                found_unit = True
        if not found_unit:
            _, _, pi, pj = min(
                (abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
                for i, row in rows.items()
                for j, v in row.items()
            )
            factor = _pivot_step(rows, cols, pi, pj)
            if factor:
                factors.append(factor)
    return divisor_chain(factors)


def _pivot_step(rows: dict[int, dict[int, int]], cols: dict[int, set[int]], pi: int, pj: int) -> int:
    """Pivot on p at (pi, pj); return |p| if it was split off, else 0.

    Row operations row_i -= (a_i // p) * row_pi leave a_i mod p in column
    pj, so a unit p clears it exactly.  Once the column is clear, column
    operations reduce row pi mod p and touch no other row.  If the row is
    then clear too, the matrix is diag(|p|) plus the rest: row pi and
    column pj stay dropped.  Otherwise row pi goes back with p in place
    and the smaller remainders are left for the next pivot.  ``rows`` and
    ``cols`` are updated in place.
    """
    pivot_row = rows[pi]
    p = pivot_row[pj]
    for i in list(cols[pj]):
        if i == pi:
            continue
        row = rows[i]
        q = row[pj] // p
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

def boundary_matrices(k: SimplicialComplex) -> list[IntegerMatrix]:
    """Boundary maps [d_0, d_1, ..., d_dim] with d_0 the augmentation to Z.

    Built sparse from the face lists: d-face j has entry (-1)^v in the row
    of the (d-1)-face that drops its v-th vertex.
    """
    if k.is_empty:
        raise ValueError("empty complex has no boundary matrices")
    groups = k.faces_by_dim()
    n0 = len(groups[0])
    out = [IntegerMatrix(1, n0, (tuple((j, 1) for j in range(n0)),))]
    for d in range(1, k.dim + 1):
        lower = {f: i for i, f in enumerate(groups[d - 1])}
        entries: list[list[tuple[int, int]]] = [[] for _ in lower]
        for j, face in enumerate(groups[d]):
            for v in range(len(face)):
                entries[lower[face[:v] + face[v + 1 :]]].append((j, -1 if v % 2 else 1))
        out.append(IntegerMatrix(len(lower), len(groups[d]), tuple(map(tuple, entries))))
    return out


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology groups in degrees 0..dim, trailing trivials trimmed.

    The empty complex gets a distinguished marker (``empty_complex``): by
    convention its reduced homology is a single Z in degree -1, which the
    index machinery treats as the value ZERO rather than as a group here.
    """

    groups: tuple[AbelianGroup, ...] = ()
    empty_complex: bool = False

    def group(self, k: int) -> AbelianGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return TRIVIAL_GROUP

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    @property
    def is_acyclic(self) -> bool:
        return not self.empty_complex and all(g.is_trivial for g in self.groups)

    def render_lines(self) -> list[str]:
        if self.empty_complex:
            return ["empty complex (reduced H~(-1) = Z)"]
        if not self.groups:
            return ["H~0 = 0"]
        return [f"H~{k} = {g.render()}" for k, g in enumerate(self.groups)]

    def to_json(self):
        if self.empty_complex:
            return {"empty_complex": True, "groups": []}
        return {
            "empty_complex": False,
            "groups": [{"rank": g.rank, "torsion": list(g.torsion)} for g in self.groups],
        }


EMPTY_PROFILE = HomologyProfile(empty_complex=True)


def _trim(groups: list[AbelianGroup]) -> tuple[AbelianGroup, ...]:
    while groups and groups[-1].is_trivial:
        groups.pop()
    return tuple(groups)


def reduced_homology(k: SimplicialComplex) -> HomologyProfile:
    """Smith-form reduced homology over Z."""
    if k.is_empty:
        return EMPTY_PROFILE
    mats = boundary_matrices(k)
    factors = [smith_normal_form(m) for m in mats]
    ranks = [len(f) for f in factors]
    groups = []
    fvec = k.f_vector()
    for d in range(k.dim + 1):
        rank_in = ranks[d + 1] if d + 1 <= k.dim else 0
        free = fvec[d] - ranks[d] - rank_in
        torsion = factors[d + 1] if d + 1 <= k.dim else ()
        if free < 0:
            raise AssertionError("negative free rank: boundary ranks inconsistent")
        groups.append(AbelianGroup.from_parts(free, torsion))
    return HomologyProfile(groups=_trim(groups))


# ----------------------------------------------------------------- index

ZERO_TAG, INDEX_TAG, ACYCLIC_TAG = "ZERO", "INDEX", "ACYCLIC"


@dataclass(frozen=True)
class HomologyIndex:
    """Three-way index: ZERO (empty complex), INDEX(n), or ACYCLIC.

    INDEX(n) means n is the smallest positive integer whose degree-(n-1)
    reduced homology is nonzero.  ACYCLIC marks nonempty complexes with
    trivial reduced homology in every degree; such complexes carry no
    index value and never satisfy an upper bound.
    """

    tag: str
    n: int | None = None

    def __post_init__(self):
        if self.tag not in (ZERO_TAG, INDEX_TAG, ACYCLIC_TAG):
            raise ValueError(f"bad index tag {self.tag!r}")
        if self.tag == INDEX_TAG:
            if self.n is None or self.n < 1:
                raise ValueError("INDEX requires n >= 1")
        elif self.n is not None:
            raise ValueError(f"{self.tag} carries no value")

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
