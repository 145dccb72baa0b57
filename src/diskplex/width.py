"""Surface width bookkeeping and the strict-descent surgery laws.

A surface is a list of component models, each carrying an Euler
characteristic and a crossing weight.  The width of a surface is the
multiset of per-component pairs (-euler, weight), compared by sorting
each multiset in non-increasing order and comparing lexicographically;
when one sorted sequence is a proper prefix of the other, the shorter one
is smaller.  The empty surface has width {(0, 0)}.

Surgery moves:

* HONEST_COMPRESS_NONSEP compresses along a non-separating curve: the
  target's Euler characteristic rises by 2.
* HONEST_COMPRESS_SEP compresses along a separating curve: the target
  splits into two declared components whose Euler characteristics sum to
  the original plus 2, each with strictly smaller -euler.  A boundary
  compression along a separating arc is folded into this move with the
  sum equal to the original plus 1.
* HONEST_BOUNDARY_COMPRESS compresses along a non-separating arc: the
  Euler characteristic rises by 1.
* DISHONEST is an exchange move that pushes the surface off k crossing
  points: the target's weight drops by k and the sphere split off lies in
  a ball, so it is discarded.

Every legal move strictly decreases width.  The two draws,
``random_surface`` and ``random_move``, take an explicit ``random.Random``
and build no set, so a fixed seed reproduces them.

A bookkeeping caveat not modeled here: when the relevant boundary is a
torus, boundary compressions pair up (the two sides of the compressing
arc balance Euler characteristic), so the number of boundary moves in a
full cascade is even.  The width order does not need that parity and the
move validator does not enforce it.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, Sequence

from . import _Value


class SurfaceComponentModel(_Value):
    """One surface component: Euler characteristic and crossing weight.

    ``_moves`` counts its moves at birth: NONSEP, BOUNDARY and weight + 1
    SEP moves for each of 1 - euler Euler splits when euler <= 0 (a sphere
    or disk has no essential curve or arc), then a DISHONEST per crossing."""

    _fields = ("euler", "weight")

    def __init__(self, euler: int, weight: int):
        if weight < 0:
            raise ValueError("component weight cannot be negative")
        moves = weight if euler > 0 else 2 + (weight + 1) * (1 - euler) + weight
        self.__dict__.update(euler=euler, weight=weight, _moves=moves)

    @property
    def width_pair(self) -> tuple[int, int]:
        return (-self.euler, self.weight)


Surface = Sequence[SurfaceComponentModel]


class Width(_Value):
    """Multiset of (-euler, weight) pairs, given in any order and stored sorted non-increasing."""

    _fields = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.__dict__.update(pairs=tuple(sorted(pairs, reverse=True)))

    def __str__(self):
        return "{" + ", ".join(f"({a}, {b})" for a, b in self.pairs) + "}"


def width(surface: Surface) -> Width:
    if not surface:
        return Width(pairs=((0, 0),))
    return Width(pairs=(c.width_pair for c in surface))


class Ordering(Enum):
    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


def compare_width(a: Width, b: Width) -> Ordering:
    """Lexicographic comparison of the sorted pair sequences; proper
    prefixes count as smaller (Python's tuple order)."""
    if a.pairs < b.pairs:
        return Ordering.LESS
    if a.pairs > b.pairs:
        return Ordering.GREATER
    return Ordering.EQUAL


class MoveKind(Enum):
    HONEST_COMPRESS_NONSEP = "HONEST_COMPRESS_NONSEP"
    HONEST_COMPRESS_SEP = "HONEST_COMPRESS_SEP"
    HONEST_BOUNDARY_COMPRESS = "HONEST_BOUNDARY_COMPRESS"
    DISHONEST = "DISHONEST"


class SurgeryMove(_Value):
    """A move applied to ``surface[target]``.

    ``split`` ((euler, weight), (euler, weight)) is required for the
    separating compression; ``k`` (points removed) for the dishonest move.
    """

    _fields = ("kind", "target", "split", "k")

    def __init__(self, kind: MoveKind, target: int,
                 split: tuple[tuple[int, int], tuple[int, int]] | None = None, k: int | None = None):
        self.__dict__.update(kind=kind, target=target, split=split, k=k)

    def describe(self) -> str:
        extra = ""
        if self.kind is MoveKind.HONEST_COMPRESS_SEP:
            extra = f" split={self.split}"
        elif self.kind is MoveKind.DISHONEST:
            extra = f" k={self.k}"
        return f"{self.kind.value}@{self.target}{extra}"


def apply_surgery(surface: Surface, move: SurgeryMove) -> tuple[SurfaceComponentModel, ...]:
    """Apply one move, validating its arithmetic; returns the new surface."""
    surface = tuple(surface)
    if not (0 <= move.target < len(surface)):
        raise ValueError(f"no component {move.target} in a surface of {len(surface)}")
    comp = surface[move.target]

    if move.kind is MoveKind.HONEST_COMPRESS_NONSEP:
        new = (SurfaceComponentModel(comp.euler + 2, comp.weight),)
    elif move.kind is MoveKind.HONEST_BOUNDARY_COMPRESS:
        new = (SurfaceComponentModel(comp.euler + 1, comp.weight),)
    elif move.kind is MoveKind.HONEST_COMPRESS_SEP:
        if move.split is None:
            raise ValueError("separating compression needs a declared split")
        (e1, w1), (e2, w2) = move.split
        # disk compression raises total euler by 2; the folded-in
        # separating boundary compression raises it by 1
        if e1 + e2 not in (comp.euler + 1, comp.euler + 2):
            raise ValueError(
                f"invalid split arithmetic: euler {e1}+{e2} vs original {comp.euler}"
            )
        if w1 + w2 != comp.weight or w1 < 0 or w2 < 0:
            raise ValueError(f"invalid split arithmetic: weights {w1}+{w2} vs {comp.weight}")
        if not (-e1 < -comp.euler and -e2 < -comp.euler):
            raise ValueError("invalid split arithmetic: both parts need strictly smaller -euler")
        new = (SurfaceComponentModel(e1, w1), SurfaceComponentModel(e2, w2))
    elif move.kind is MoveKind.DISHONEST:
        if move.k is None or move.k < 1:
            raise ValueError("dishonest move needs k >= 1")
        if move.k > comp.weight:
            raise ValueError(f"k={move.k} exceeds target weight {comp.weight}")
        # the sphere pushed off lies in a ball and is discarded
        new = (SurfaceComponentModel(comp.euler, comp.weight - move.k),)
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")

    return surface[: move.target] + new + surface[move.target + 1 :]


class DecreaseVerdict(_Value):
    _fields = ("passed", "before", "after", "move")

    def __init__(self, passed: bool, before: Width, after: Width, move: SurgeryMove):
        self.__dict__.update(passed=passed, before=before, after=after, move=move)

    def render_lines(self) -> list[str]:
        return [
            f"move:   {self.move.describe()}",
            f"before: {self.before}",
            f"after:  {self.after}",
            f"verdict: {'strict decrease' if self.passed else 'NO DECREASE'}",
        ]


def verify_width_decrease(surface: Surface, move: SurgeryMove) -> DecreaseVerdict:
    """Check that the move strictly lowers the width."""
    before = width(surface)
    after = width(apply_surgery(surface, move))
    passed = compare_width(after, before) is Ordering.LESS
    return DecreaseVerdict(passed=passed, before=before, after=after, move=move)


def _component_move(target: int, comp: SurfaceComponentModel, j: int) -> SurgeryMove:
    """The j-th of ``comp._moves`` moves on ``comp = surface[target]``, the
    last ``weight`` DISHONEST.  SEP runs over the Euler splits
    euler < e1 <= e2 <= 2: the (euler + 2) // 2 - euler summing to euler + 2,
    then those summing to euler + 1, e1 ascending; w1 = 0..weight in each."""
    if comp.euler <= 0:
        if j == 0:
            return SurgeryMove(MoveKind.HONEST_COMPRESS_NONSEP, target)
        if j == 1:
            return SurgeryMove(MoveKind.HONEST_BOUNDARY_COMPRESS, target)
        s, w1 = divmod(j - 2, comp.weight + 1)
        if s < 1 - comp.euler:
            disk = (comp.euler + 2) // 2 - comp.euler
            total = comp.euler + 2 if s < disk else comp.euler + 1
            e1 = comp.euler + 1 + (s if s < disk else s - disk)
            return SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, target,
                               split=((e1, w1), (total - e1, comp.weight - w1)))
    return SurgeryMove(MoveKind.DISHONEST, target, k=j + 1 + comp.weight - comp._moves)


def available_moves(surface: Surface) -> list[SurgeryMove]:
    """Every structurally valid move from a surface, component by component."""
    return [_component_move(target, comp, j)
            for target, comp in enumerate(surface) for j in range(comp._moves)]


def random_surface(rng: random.Random) -> tuple[SurfaceComponentModel, ...]:
    comps = []
    for _ in range(rng.randint(1, 6)):
        comps.append(SurfaceComponentModel(euler=rng.randint(-10, 2), weight=rng.randint(0, 20)))
        rng.random()  # a draw nothing reads, kept so seeded corpora stay the same
    return tuple(comps)


def random_move(rng: random.Random, surface: Surface) -> SurgeryMove | None:
    """A uniform draw from ``available_moves(surface)``, building only the
    drawn move: one ``rng.randrange`` over the components' move total,
    decoded against their counts; no draw is made when there is no move."""
    total = sum(comp._moves for comp in surface)
    if not total:
        return None
    j = rng.randrange(total)
    for target, comp in enumerate(surface):
        if j < comp._moves:
            return _component_move(target, comp, j)
        j -= comp._moves
