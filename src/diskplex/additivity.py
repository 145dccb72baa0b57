"""Gluing tetrahedra, matching piece boundaries, and index additivity.

A skeleton is a set of tetrahedra with some faces glued in pairs; each
gluing carries a permutation of the three arc types (equivalently, the
corner correspondence of the identified triangles).  A configuration
places catalog pieces with multiplicities in the tetrahedra.  Matching
requires arc counts on glued faces to agree under the permutation; the
Euler characteristic is then V - E + F over crossing points, arcs and
pieces.  Each piece's boundary is closed curves, so its own points and
arcs cancel: every arc has two ends, and every crossing point ends one
arc in each of its edge's two faces.  What is left is each piece's Euler
characteristic times its multiplicity, less the points that gluing
merges on glued edges (the skeleton finds its edge classes once, when it
is built), plus the arcs it merges on glued faces.  The index of the
configuration's joined model complex must equal the sum of the local
declared indices.
"""

from __future__ import annotations

from . import _Value
from .homology import HomologyIndex, homology_index
from .io import read_json
from .join_formula import index_sum_law
from .pieces import FACES, LocalPiece, piece
from .simplicial import _FACE_BUDGET, SimplicialComplex, join_all, relabel


class Gluing(_Value):
    """Face ``face_a`` of ``tet_a`` glued to ``face_b`` of ``tet_b``.

    ``perm`` sends arc-type slots of face_a to arc-type slots of face_b;
    slot i of a face is its i-th corner vertex in ascending order.
    """

    _fields = ("tet_a", "face_a", "tet_b", "face_b", "perm")

    def __init__(self, tet_a: int, face_a: int, tet_b: int, face_b: int, perm: tuple[int, int, int]):
        perm = tuple(perm)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"perm {perm!r} is not a permutation of (0, 1, 2)")
        if not (0 <= face_a <= 3 and 0 <= face_b <= 3):
            raise ValueError("face labels must be 0..3")
        if (tet_a, face_a) == (tet_b, face_b):
            raise ValueError("a face cannot be glued to itself")
        self.__dict__.update(tet_a=tet_a, face_a=face_a, tet_b=tet_b, face_b=face_b, perm=perm)


class TetGluing(_Value):
    """Gluing skeleton: ``tets`` tetrahedra, faces glued at most once, and
    no edge identified with itself reversed.  ``_edge_roots`` maps each
    glued ``(tet, edge)`` other than its edge class's least to that least.
    """

    _fields = ("tets", "gluings")

    def __init__(self, tets: int, gluings: tuple[Gluing, ...] = ()):
        gluings = tuple(gluings)
        if tets < 1:
            raise ValueError("need at least one tetrahedron")
        used = set()
        for g in gluings:
            for side in ((g.tet_a, g.face_a), (g.tet_b, g.face_b)):
                if not (0 <= side[0] < tets):
                    raise ValueError(f"gluing references missing tetrahedron {side[0]}")
                if side in used:
                    raise ValueError(f"face {side} glued more than once")
                used.add(side)
        self.__dict__.update(tets=tets, gluings=gluings, _edge_roots=_edge_identifications(gluings))


def _edge_identifications(gluings: tuple[Gluing, ...]) -> dict:
    """Each glued ``(tet, edge)`` other than its class's least, mapped to that least.

    An oriented union-find over the glued edges alone: ``parent`` holds each
    non-root with the parity of its direction against its parent's, so a
    gluing that identifies an edge with itself reversed is rejected.
    """
    parent = {}

    def find(x):
        """Root of x's class and x's direction parity against the root."""
        path = []
        while x in parent:
            path.append(x)
            x = parent[x][0]
        flip = 0
        for y in reversed(path):
            flip ^= parent[y][1]
            parent[y] = (x, flip)
        return x, flip

    for n, g in enumerate(gluings):
        ca, cb = FACES[g.face_a], FACES[g.face_b]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a, b = cb[g.perm[i]], cb[g.perm[j]]
            ra, pa = find((g.tet_a, (ca[i], ca[j])))
            rb, pb = find((g.tet_b, (min(a, b), max(a, b))))
            flip = pa ^ pb ^ (a > b)
            if ra != rb:
                parent[max(ra, rb)] = (min(ra, rb), flip)
            elif flip:
                raise ValueError(
                    f"gluings[{n}] identifies edge {ca[i]}{ca[j]} of tetrahedron {g.tet_a} "
                    "with itself reversed"
                )
    return {x: find(x)[0] for x in parent}


class Placement(_Value):
    _fields = ("tet", "kind", "multiplicity")

    def __init__(self, tet: int, kind: str, multiplicity: int):
        piece(kind)  # raises on unknown kinds
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        self.__dict__.update(tet=tet, kind=kind, multiplicity=multiplicity)


class SurfaceConfiguration(_Value):
    _fields = ("skeleton", "placements")

    def __init__(self, skeleton: TetGluing, placements: tuple[Placement, ...] = ()):
        placements = tuple(placements)
        for pl in placements:
            if not (0 <= pl.tet < skeleton.tets):
                raise ValueError(f"placement references missing tetrahedron {pl.tet}")
        self.__dict__.update(skeleton=skeleton, placements=placements)


def _pieces_by_tet(config: SurfaceConfiguration) -> dict[int, list[tuple[LocalPiece, int]]]:
    """Each tetrahedron that holds a placement, with its ``(piece, multiplicity)`` pairs."""
    out: dict = {}
    for pl in config.placements:
        out.setdefault(pl.tet, []).append((piece(pl.kind), pl.multiplicity))
    return out


def _face_arc_vector(by_tet, tet: int, f: int) -> list[int]:
    """Arc counts on one face by corner slot, summed over placed pieces."""
    totals = [0, 0, 0]
    for p, mult in by_tet.get(tet, ()):
        for slot, count in enumerate(p.face_arcs[f].corners):
            totals[slot] += mult * count
    return totals


def _edge_weight(by_tet, tet: int, edge: tuple[int, int]) -> int:
    return sum(mult * p.edge_weight(edge) for p, mult in by_tet.get(tet, ()))


class MatchingReport(_Value):
    _fields = ("passed", "residuals")

    def __init__(self, passed: bool, residuals: tuple[tuple, ...] = ()):
        self.__dict__.update(passed=passed, residuals=tuple(residuals))  # (gluing, slot, count_a, count_b)

    def render_lines(self) -> list[str]:
        if self.passed:
            return ["matching: PASS"]
        out = ["matching: FAIL"]
        for g, slot, ca, cb in self.residuals:
            out.append(
                f"  tet {g.tet_a} face {g.face_a} slot {slot} has {ca} arcs, "
                f"tet {g.tet_b} face {g.face_b} slot {g.perm[slot]} has {cb}"
            )
        return out

    def to_json(self):
        return {
            "passed": self.passed,
            "residuals": [
                {
                    "tet_a": g.tet_a, "face_a": g.face_a,
                    "tet_b": g.tet_b, "face_b": g.face_b,
                    "slot": slot, "count_a": ca, "count_b": cb,
                }
                for g, slot, ca, cb in self.residuals
            ],
        }


def check_matching(config: SurfaceConfiguration) -> MatchingReport:
    """Arc counts on glued faces must agree under each gluing's permutation."""
    by_tet = _pieces_by_tet(config)
    residuals = []
    for g in config.skeleton.gluings:
        va = _face_arc_vector(by_tet, g.tet_a, g.face_a)
        vb = _face_arc_vector(by_tet, g.tet_b, g.face_b)
        for slot in range(3):
            if va[slot] != vb[g.perm[slot]]:
                residuals.append((g, slot, va[slot], vb[g.perm[slot]]))
    return MatchingReport(passed=not residuals, residuals=residuals)


def euler_characteristic(config: SurfaceConfiguration) -> int:
    """Euler characteristic V - E + F of the assembled surface; a
    configuration that fails matching is refused.

    Each piece's own points and arcs cancel (summing ``validate_piece``'s
    endpoint equality over its faces gives sum of edge weights = sum of
    arcs), leaving F, each piece's Euler characteristic times its
    multiplicity, less the points that gluing merges (those on each glued
    edge that is not its class's root) plus the arcs it merges (those on
    each gluing's face_a)."""
    report = check_matching(config)
    if not report.passed:
        raise ValueError("matching failed; residuals: " + "; ".join(report.render_lines()[1:]))

    by_tet = _pieces_by_tet(config)
    chi = sum(pl.multiplicity * piece(pl.kind).euler for pl in config.placements)
    for edge, root in config.skeleton._edge_roots.items():
        weight = _edge_weight(by_tet, *edge)
        # Unreachable once matching passes: a gluing's two edges weigh the
        # arcs at their matched corners (``validate_piece`` ties each edge's
        # weight to its face's corner counts), and classes join such pairs.
        if weight != _edge_weight(by_tet, *root):
            raise ValueError(f"inconsistent crossing counts around the edge class of {root}")
        chi -= weight  # merged crossing points
    for g in config.skeleton.gluings:
        chi += sum(_face_arc_vector(by_tet, g.tet_a, g.face_a))  # merged arcs
    return chi


def _ordered(config: SurfaceConfiguration) -> list[Placement]:
    """The placements by tetrahedron and kind; a ValueError refuses more
    piece copies than the face budget, before any copy is listed."""
    total = sum(pl.multiplicity for pl in config.placements)
    if total > _FACE_BUDGET:
        raise ValueError(f"configuration has {total} piece copies, over the copy limit of {_FACE_BUDGET}")
    return sorted(config.placements, key=lambda pl: (pl.tet, pl.kind))


def global_complex(config: SurfaceConfiguration) -> SimplicialComplex:
    """Join of the placed pieces' model complexes, one namespaced copy per unit
    of multiplicity, numbered across repeated entries.  Empty models act as
    join identities.  Copies stop at the first whose facets take the join
    over the face budget, which ``join_all`` then refuses."""
    parts = []
    copies: dict = {}
    facets = 1  # of the join of the copies so far
    ordered = _ordered(config)
    for pl in ordered:
        model = piece(pl.kind).model_complex
        first = copies.get((pl.tet, pl.kind), 0)
        copies[pl.tet, pl.kind] = first + pl.multiplicity
        if model.is_empty:
            continue
        for c in range(first, first + pl.multiplicity):
            if facets > _FACE_BUDGET:
                break
            facets *= len(model._masks())
            parts.append(relabel(model, f"t{pl.tet}.{pl.kind}.{c}"))
    label = " * ".join(f"t{pl.tet}:{pl.kind}x{pl.multiplicity}" for pl in ordered) or "empty"
    return join_all(parts, name=f"config[{label}]")


class IndexSumReport(_Value):
    _fields = ("global_index", "summed_index", "local_indices")

    def __init__(self, global_index: HomologyIndex, summed_index: HomologyIndex,
                 local_indices: tuple[HomologyIndex, ...]):
        self.__dict__.update(global_index=global_index, summed_index=summed_index,
                             local_indices=tuple(local_indices))

    @property
    def passed(self) -> bool:
        return self.global_index == self.summed_index

    def render_lines(self) -> list[str]:
        locals_str = ", ".join(str(i) for i in self.local_indices) or "(none)"
        return [
            f"local indices: {locals_str}",
            f"sum law:      {self.summed_index}",
            f"global join:  {self.global_index}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]

    def to_json(self):
        return {
            "local_indices": [str(i) for i in self.local_indices],
            "summed_index": str(self.summed_index),
            "global_index": str(self.global_index),
            "passed": self.passed,
        }


def verify_index_sum(config: SurfaceConfiguration) -> IndexSumReport:
    """Compare the joined model complex's index with the local sum."""
    locals_ = [piece(pl.kind).declared_index for pl in _ordered(config) for _ in range(pl.multiplicity)]
    summed = index_sum_law(locals_)
    direct = homology_index(global_complex(config))
    return IndexSumReport(global_index=direct, summed_index=summed, local_indices=locals_)


# ------------------------------------------------------------- file format

def config_from_json_dict(data: dict) -> SurfaceConfiguration:
    """Schema: {"tets": N, "gluings": [[tA, fA, tB, fB, [p0, p1, p2]], ...],
    "pieces": [[tet, "KIND", mult], ...]}."""
    if not isinstance(data, dict):
        raise ValueError("configuration file must hold a JSON object")
    if "tets" not in data:
        raise ValueError('configuration needs an integer "tets" field')
    tets = _json_int(data["tets"], 'configuration field "tets"')
    for name in ("gluings", "pieces"):
        if not isinstance(data.get(name, []), list):
            raise ValueError(f'configuration field "{name}" must be a list')
    gluings = []
    for i, entry in enumerate(data.get("gluings", [])):
        try:
            ta, fa, tb, fb, perm = entry
            fields = [_json_int(v, name) for name, v in zip(Gluing._fields, (ta, fa, tb, fb))]
            perm = tuple(_json_int(p, f"perm[{k}]") for k, p in enumerate(perm))
            gluings.append(Gluing(*fields, perm))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"gluings[{i}]: {exc}") from None
    placements = []
    for i, entry in enumerate(data.get("pieces", [])):
        try:
            tet, kind, mult = entry
            tet = _json_int(tet, "tet")
            if not isinstance(kind, str):
                raise ValueError(f"kind must be a string, not {kind!r}")
            placements.append(Placement(tet, kind, _json_int(mult, "multiplicity")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pieces[{i}]: {exc}") from None
    return SurfaceConfiguration(TetGluing(tets, gluings), placements)


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer (a bool is not); else ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


def load_config(path) -> SurfaceConfiguration:
    """Read a configuration file; building its skeleton refuses a gluing
    that identifies an edge with itself reversed."""
    return config_from_json_dict(read_json(path))
