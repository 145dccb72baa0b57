"""Gluing tetrahedra, matching piece boundaries, and index additivity.

A skeleton is a set of tetrahedra with some faces glued in pairs; each
gluing carries a permutation of the three arc types (equivalently, the
corner correspondence of the identified triangles).  A configuration
places catalog pieces with multiplicities in the tetrahedra.  Matching
requires arc counts on glued faces to agree under the permutation; the
Euler characteristic then comes from counting crossing points, arcs and
piece contributions after the identifications; and the index of the
configuration's joined model complex must equal the sum of the local
declared indices.
"""

from __future__ import annotations

from . import _Value
from .homology import HomologyIndex, homology_index
from .io import read_json
from .join_formula import index_sum_law
from .pieces import EDGES, FACES, LocalPiece, piece
from .simplicial import SimplicialComplex, join_all, relabel


class Gluing(_Value):
    """Face ``face_a`` of ``tet_a`` glued to ``face_b`` of ``tet_b``.

    ``perm`` sends arc-type slots of face_a to arc-type slots of face_b;
    slot i of a face is its i-th corner vertex in ascending order.
    """

    _fields = ("tet_a", "face_a", "tet_b", "face_b", "perm")

    def __init__(self, tet_a: int, face_a: int, tet_b: int, face_b: int, perm: tuple[int, int, int]):
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"perm {perm!r} is not a permutation of (0, 1, 2)")
        if not (0 <= face_a <= 3 and 0 <= face_b <= 3):
            raise ValueError("face labels must be 0..3")
        if (tet_a, face_a) == (tet_b, face_b):
            raise ValueError("a face cannot be glued to itself")
        object.__setattr__(self, "tet_a", tet_a)
        object.__setattr__(self, "face_a", face_a)
        object.__setattr__(self, "tet_b", tet_b)
        object.__setattr__(self, "face_b", face_b)
        object.__setattr__(self, "perm", perm)


class TetGluing(_Value):
    """Gluing skeleton: ``tets`` tetrahedra, faces glued at most once."""

    _fields = ("tets", "gluings")

    def __init__(self, tets: int, gluings: tuple[Gluing, ...] = ()):
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
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "gluings", gluings)

    def glued_faces(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each glued ``(tet, face)`` mapped to the face it is glued to."""
        out = {}
        for g in self.gluings:
            out[(g.tet_a, g.face_a)] = (g.tet_b, g.face_b)
            out[(g.tet_b, g.face_b)] = (g.tet_a, g.face_a)
        return out


class Placement(_Value):
    _fields = ("tet", "kind", "multiplicity")

    def __init__(self, tet: int, kind: str, multiplicity: int):
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        object.__setattr__(self, "tet", tet)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "multiplicity", multiplicity)


class SurfaceConfiguration(_Value):
    _fields = ("skeleton", "placements")

    def __init__(self, skeleton: TetGluing, placements: tuple[Placement, ...] = ()):
        for pl in placements:
            if not (0 <= pl.tet < skeleton.tets):
                raise ValueError(f"placement references missing tetrahedron {pl.tet}")
            piece(pl.kind)  # raises on unknown kinds
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "placements", placements)

    def pieces_in(self, tet: int) -> list[tuple[LocalPiece, int]]:
        return [(piece(pl.kind), pl.multiplicity) for pl in self.placements if pl.tet == tet]


def _face_arc_vector(config: SurfaceConfiguration, tet: int, f: int) -> tuple[int, int, int]:
    """Arc counts on one face by corner slot, summed over placed pieces."""
    totals = [0, 0, 0]
    for p, mult in config.pieces_in(tet):
        for slot in range(3):
            totals[slot] += mult * p.face_arcs[f].corners[slot]
    return tuple(totals)


def _edge_weight(config: SurfaceConfiguration, tet: int, edge: tuple[int, int]) -> int:
    return sum(mult * p.edge_weight(edge) for p, mult in config.pieces_in(tet))


class MatchingReport(_Value):
    _fields = ("passed", "residuals")

    def __init__(self, passed: bool, residuals: tuple[tuple, ...] = ()):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "residuals", residuals)  # (gluing, slot, count_a, count_b)

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
    residuals = []
    for g in config.skeleton.gluings:
        va = _face_arc_vector(config, g.tet_a, g.face_a)
        vb = _face_arc_vector(config, g.tet_b, g.face_b)
        for slot in range(3):
            if va[slot] != vb[g.perm[slot]]:
                residuals.append((g, slot, va[slot], vb[g.perm[slot]]))
    return MatchingReport(passed=not residuals, residuals=tuple(residuals))


def _edge_identifications(skeleton: TetGluing, tets):
    """Classes of the edges of ``tets`` induced by the face gluings.

    An oriented union-find: each edge keeps the parity of its direction
    against its parent's, so a gluing that identifies an edge with itself
    reversed is found and rejected.
    """
    parent = {(t, e): ((t, e), 0) for t in tets for e in EDGES}

    def find(x):
        """Root of x's class and x's direction parity against the root."""
        path = []
        while parent[x][0] != x:
            path.append(x)
            x = parent[x][0]
        for y in reversed(path):
            up, flip = parent[y]
            parent[y] = (x, flip ^ parent[up][1])
        return x, parent[path[0]][1] if path else 0

    for n, g in enumerate(skeleton.gluings):
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

    classes: dict = {}
    for key in parent:
        classes.setdefault(find(key)[0], []).append(key)
    return list(classes.values())


def euler_characteristic(config: SurfaceConfiguration) -> int:
    """Euler characteristic of the assembled surface.

    Crossing points are identified around edge orbits, arcs in glued
    faces are identified in pairs, and every piece contributes its own
    Euler characteristic as its face value (1 for the disk pieces).
    """
    report = check_matching(config)
    if not report.passed:
        raise ValueError("matching failed; residuals: " + "; ".join(report.render_lines()[1:]))

    glued = config.skeleton.glued_faces()
    # a tetrahedron no gluing or placement names adds no crossing, arc or piece
    tets = sorted({t for t, _ in glued} | {pl.tet for pl in config.placements})

    vertices = 0
    for cls in _edge_identifications(config.skeleton, tets):
        weights = {_edge_weight(config, t, e) for t, e in cls}
        if len(weights) != 1:
            raise ValueError(f"inconsistent crossing counts around edge class {sorted(cls)}")
        vertices += weights.pop()

    edges = 0
    for t in tets:
        for f in range(4):
            arcs_here = sum(_face_arc_vector(config, t, f))
            partner = glued.get((t, f))
            if partner is None or (t, f) < partner:
                edges += arcs_here

    faces = sum(pl.multiplicity * piece(pl.kind).euler for pl in config.placements)
    return vertices - edges + faces


def global_complex(config: SurfaceConfiguration) -> SimplicialComplex:
    """Join of the placed pieces' model complexes, one namespaced copy per unit
    of multiplicity.  Empty models act as join identities."""
    parts = []
    ordered = sorted(config.placements, key=lambda pl: (pl.tet, pl.kind))
    for pl in ordered:
        model = piece(pl.kind).model_complex
        for copy in range(pl.multiplicity):
            if model.is_empty:
                continue
            parts.append(relabel(model, f"t{pl.tet}.{pl.kind}.{copy}"))
    label = " * ".join(f"t{pl.tet}:{pl.kind}x{pl.multiplicity}" for pl in ordered) or "empty"
    return join_all(parts, name=f"config[{label}]")


class IndexSumReport(_Value):
    _fields = ("global_index", "summed_index", "local_indices")

    def __init__(self, global_index: HomologyIndex, summed_index: HomologyIndex,
                 local_indices: tuple[HomologyIndex, ...]):
        object.__setattr__(self, "global_index", global_index)
        object.__setattr__(self, "summed_index", summed_index)
        object.__setattr__(self, "local_indices", local_indices)

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
    locals_ = []
    for pl in sorted(config.placements, key=lambda pl: (pl.tet, pl.kind)):
        locals_.extend([piece(pl.kind).declared_index] * pl.multiplicity)
    summed = index_sum_law(locals_)
    direct = homology_index(global_complex(config))
    return IndexSumReport(global_index=direct, summed_index=summed, local_indices=tuple(locals_))


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
            piece(kind)  # raises on unknown kinds
            placements.append(Placement(tet, kind, _json_int(mult, "multiplicity")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pieces[{i}]: {exc}") from None
    return SurfaceConfiguration(TetGluing(tets, tuple(gluings)), tuple(placements))


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer (a bool is not); else ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


def load_config(path) -> SurfaceConfiguration:
    """Read a configuration file, rejecting a skeleton that glues an edge
    to itself reversed before any piece is looked at."""
    config = config_from_json_dict(read_json(path))
    _edge_identifications(config.skeleton, sorted({t for t, _ in config.skeleton.glued_faces()}))
    return config
