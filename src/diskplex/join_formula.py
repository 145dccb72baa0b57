"""Homology of joins from the homology of the factors, and index additivity.

The graded formula: for nonempty complexes A and B,

    H~k(A * B)  =  sum over i+j = k-1 of  H~i(A) (x) H~j(B)
                +  sum over i+j = k-2 of  Tor(H~i(A), H~j(B))

with reduced homology on both sides and empty sums read as 0.  Tensor and
Tor of cyclic groups: Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e), free
ranks multiply under tensor, and Tor kills free parts.

The index consequence: the empty complex (ZERO) is the identity, an
acyclic factor makes the join acyclic (every term in the formula acquires
a trivial factor), and otherwise the join's index is at least the sum of
the indices.  With ind(A) = a and ind(B) = b, every term below degree
a+b-1 has a trivial factor, and in degree a+b-1 only
H~(a-1)(A) (x) H~(b-1)(B) is left, so the index is exactly a+b when that
tensor is nonzero, and larger, possibly ACYCLIC, when it is zero.  Free
groups never tensor to zero; coprime torsion does: RP^2 (Z/2 in degree 1)
joined with a mod-3 Moore space (Z/3 in degree 1) is acyclic, not INDEX(4).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from . import _Value
from .homology import (
    ACYCLIC_INDEX,
    AbelianGroup,
    HomologyIndex,
    HomologyProfile,
    ZERO_INDEX,
    finite_index,
    reduced_homology,
)
from .simplicial import SimplicialComplex, join


def tensor(g: AbelianGroup, h: AbelianGroup) -> AbelianGroup:
    """Tensor product over Z."""
    factors = []
    for d in g.torsion:
        factors.extend([d] * h.rank)
    for e in h.torsion:
        factors.extend([e] * g.rank)
    for d in g.torsion:
        for e in h.torsion:
            factors.append(gcd(d, e))
    return AbelianGroup.from_parts(g.rank * h.rank, factors)


def tor(g: AbelianGroup, h: AbelianGroup) -> AbelianGroup:
    """Torsion product over Z; free parts contribute nothing."""
    factors = [gcd(d, e) for d in g.torsion for e in h.torsion]
    return AbelianGroup.from_parts(0, factors)


def join_homology_via_formula(a: HomologyProfile, b: HomologyProfile) -> HomologyProfile:
    """Graded join homology computed purely from the factor profiles."""
    if a.empty_complex or b.empty_complex:
        raise ValueError("formula applies to nonempty factors; join with the empty complex is the identity")
    groups = []
    for k in range(a.top_degree + b.top_degree + 3):
        parts = [tensor(a.group(i), b.group(k - 1 - i)) for i in range(k)]
        parts += [tor(a.group(i), b.group(k - 2 - i)) for i in range(k - 1)]
        groups.append(AbelianGroup.from_parts(sum(g.rank for g in parts), [d for g in parts for d in g.torsion]))
    return HomologyProfile(groups)


def index_sum_law(indices: Iterable[HomologyIndex]) -> HomologyIndex:
    """Sum of indices under join: ZERO is identity, ACYCLIC absorbs, values add.

    This is a lower bound on the index of the join.  It is the join's
    index exactly when the tensor product of the lowest nontrivial groups
    of the factors with a finite index is nonzero, as it is when those
    groups are free; coprime torsion (Z/2 against Z/3) gives a larger
    index or an acyclic join.
    """
    total = 0
    saw_acyclic = False
    saw_finite = False
    for ind in indices:
        if ind.is_acyclic:
            saw_acyclic = True
        elif not ind.is_zero:
            saw_finite = True
            total += ind.value
    if saw_acyclic:
        return ACYCLIC_INDEX
    if not saw_finite:
        return ZERO_INDEX
    return finite_index(total)


class MilnorReport(_Value):
    """Comparison of direct join homology against the graded formula."""

    _fields = ("name", "direct", "formula", "identity_rule", "mismatches")

    def __init__(self, name: str, direct: HomologyProfile, formula: HomologyProfile | None,
                 identity_rule: bool, mismatches: tuple[int, ...]):
        self.__dict__.update(name=name, direct=direct, formula=formula, identity_rule=identity_rule,
                             mismatches=tuple(mismatches))

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def render_lines(self) -> list[str]:
        out = [f"join check: {self.name}"]
        if self.identity_rule:
            out.append("  empty factor: join is the other complex (identity rule)")
        for line in self.direct.render_lines():
            out.append(f"  direct   {line}")
        if self.formula is not None:
            for line in self.formula.render_lines():
                out.append(f"  formula  {line}")
        out.append(f"  verdict: {'PASS' if self.passed else 'FAIL at degrees %s' % list(self.mismatches)}")
        return out

    def to_json(self):
        return {
            "name": self.name,
            "direct": self.direct.to_json(),
            "formula": None if self.formula is None else self.formula.to_json(),
            "identity_rule": self.identity_rule,
            "mismatches": list(self.mismatches),
            "passed": self.passed,
        }


def verify_milnor(a: SimplicialComplex, b: SimplicialComplex) -> MilnorReport:
    """Join the complexes, compute homology both ways, compare groupwise."""
    name = f"{a.name or 'A'} * {b.name or 'B'}"
    joined = join(a, b, relabel_on_collision=True)
    direct = reduced_homology(joined)
    if a.is_empty or b.is_empty:
        return MilnorReport(name=name, direct=direct, formula=None, identity_rule=True, mismatches=())
    formula = join_homology_via_formula(reduced_homology(a), reduced_homology(b))
    top = max(direct.top_degree, formula.top_degree)
    mismatches = [k for k in range(top + 1) if direct.group(k) != formula.group(k)]
    return MilnorReport(name=name, direct=direct, formula=formula, identity_rule=False, mismatches=mismatches)
