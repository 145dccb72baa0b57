"""Value semantics of every immutable record type.

Each type compares equal only to an instance of the same class with
equal compare fields, hashes as the tuple of those fields, renders as
``Name(field=value, ...)`` unless it defines its own repr, refuses
assignment and deletion, and rejects bad data with a fixed message.
``CubicalComplex`` alone compares by identity.
"""

import pytest

from diskplex.additivity import (
    Gluing,
    IndexSumReport,
    MatchingReport,
    Placement,
    SurfaceConfiguration,
    TetGluing,
    euler_characteristic,
)
from diskplex.cubes import CubicalComplex, subdivide_cube
from diskplex.dichotomy import DichotomyWitness
from diskplex.homology import (
    AbelianGroup,
    HomologyIndex,
    HomologyProfile,
    IntegerMatrix,
    finite_index,
)
from diskplex.join_formula import MilnorReport
from diskplex.pieces import ArcCheck, FaceArcs, LocalPiece
from diskplex.simplicial import SimplicialComplex
from diskplex.suite import PropertyResult, RunConfig, SuiteReport
from diskplex.width import DecreaseVerdict, MoveKind, SurfaceComponentModel, SurgeryMove, Width

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
EDGE = SimplicialComplex(frozenset({(1, 2)}), "e")
GLUE = Gluing(0, 1, 1, 2, (1, 0, 2))
ARCS = FaceArcs((1, 0, 0))
INDEX2 = finite_index(2)
PROFILE = HomologyProfile((Z2,))
WIDTH = Width(((2, 1), (0, 3)))
MOVE = SurgeryMove(MoveKind.DISHONEST, 0, None, 1)
RESULT = PropertyResult("p", True, 3)

# (class, sample fields, compare fields, overrides that make it unequal,
#  overrides of non-compare fields that keep it equal, expected repr)
CASES = [
    (SimplicialComplex, dict(facets=frozenset({(1, 2)}), name="e"), ("facets",),
     [dict(facets=frozenset({(1,)}))], [dict(name="f")],
     "<e: 1 facets, dim 1>"),
    (AbelianGroup, dict(rank=1, torsion=(2, 4)), ("rank", "torsion"),
     [dict(rank=0), dict(torsion=(2,))], [],
     "AbelianGroup(rank=1, torsion=(2, 4))"),
    (IntegerMatrix, dict(rows=1, cols=2, entries=(((0, 1), (1, -1)),)), ("rows", "cols", "entries"),
     [dict(cols=3), dict(entries=(((0, 1),),))], [],
     "IntegerMatrix(rows=1, cols=2, entries=(((0, 1), (1, -1)),))"),
    (HomologyProfile, dict(groups=(Z, Z2), empty_complex=False), ("groups", "empty_complex"),
     [dict(groups=(Z,)), dict(empty_complex=True)], [],
     "HomologyProfile(groups=(AbelianGroup(rank=1, torsion=()), AbelianGroup(rank=0, torsion=(2,))),"
     " empty_complex=False)"),
    (HomologyIndex, dict(tag="INDEX", n=2), ("tag", "n"),
     [dict(n=3), dict(tag="ACYCLIC", n=None)], [],
     "HomologyIndex(tag='INDEX', n=2)"),
    (MilnorReport, dict(name="A * B", direct=PROFILE, formula=None, identity_rule=True, mismatches=()),
     ("name", "direct", "formula", "identity_rule", "mismatches"),
     [dict(name="B"), dict(formula=PROFILE), dict(mismatches=(1,))], [],
     "MilnorReport(name='A * B', direct=HomologyProfile(groups=(AbelianGroup(rank=0, torsion=(2,)),),"
     " empty_complex=False), formula=None, identity_rule=True, mismatches=())"),
    (DichotomyWitness, dict(verdict="TAU_FOUND", index_x=INDEX2, index_y=INDEX2, tau=(5,),
                            index_vtau=INDEX2, failure_archive=()),
     ("verdict", "index_x", "index_y", "tau", "index_vtau", "failure_archive"),
     [dict(verdict="Y_SMALL"), dict(tau=(6,)), dict(failure_archive=((None, PROFILE),))], [],
     "DichotomyWitness(verdict='TAU_FOUND', index_x=HomologyIndex(tag='INDEX', n=2),"
     " index_y=HomologyIndex(tag='INDEX', n=2), tau=(5,), index_vtau=HomologyIndex(tag='INDEX', n=2),"
     " failure_archive=())"),
    (Gluing, dict(tet_a=0, face_a=1, tet_b=1, face_b=2, perm=(1, 0, 2)),
     ("tet_a", "face_a", "tet_b", "face_b", "perm"),
     [dict(tet_a=2), dict(face_b=3), dict(perm=(0, 1, 2))], [],
     "Gluing(tet_a=0, face_a=1, tet_b=1, face_b=2, perm=(1, 0, 2))"),
    (TetGluing, dict(tets=2, gluings=(GLUE,)), ("tets", "gluings"),
     [dict(tets=3), dict(gluings=())], [],
     "TetGluing(tets=2, gluings=(Gluing(tet_a=0, face_a=1, tet_b=1, face_b=2, perm=(1, 0, 2)),))"),
    (Placement, dict(tet=1, kind="TRI_0", multiplicity=2), ("tet", "kind", "multiplicity"),
     [dict(tet=0), dict(kind="TRI_1"), dict(multiplicity=1)], [],
     "Placement(tet=1, kind='TRI_0', multiplicity=2)"),
    (SurfaceConfiguration, dict(skeleton=TetGluing(1), placements=(Placement(0, "TUBE", 1),)),
     ("skeleton", "placements"),
     [dict(skeleton=TetGluing(2)), dict(placements=())], [],
     "SurfaceConfiguration(skeleton=TetGluing(tets=1, gluings=()),"
     " placements=(Placement(tet=0, kind='TUBE', multiplicity=1),))"),
    (MatchingReport, dict(passed=False, residuals=((GLUE, 0, 1, 2),)), ("passed", "residuals"),
     [dict(passed=True), dict(residuals=())], [],
     "MatchingReport(passed=False, residuals=((Gluing(tet_a=0, face_a=1, tet_b=1, face_b=2,"
     " perm=(1, 0, 2)), 0, 1, 2),))"),
    (IndexSumReport, dict(global_index=INDEX2, summed_index=INDEX2, local_indices=(INDEX2,)),
     ("global_index", "summed_index", "local_indices"),
     [dict(global_index=finite_index(1)), dict(local_indices=())], [],
     "IndexSumReport(global_index=HomologyIndex(tag='INDEX', n=2),"
     " summed_index=HomologyIndex(tag='INDEX', n=2), local_indices=(HomologyIndex(tag='INDEX', n=2),))"),
    (FaceArcs, dict(corners=(1, 0, 0), loops=0, non_normal=1), ("corners", "loops", "non_normal"),
     [dict(corners=(0, 1, 0)), dict(loops=1), dict(non_normal=0)], [],
     "FaceArcs(corners=(1, 0, 0), loops=0, non_normal=1)"),
    (ArcCheck, dict(passed=False, problems=("x",)), ("passed", "problems"),
     [dict(passed=True), dict(problems=())], [],
     "ArcCheck(passed=False, problems=('x',))"),
    (LocalPiece, dict(kind="K", edge_weights=(1, 0, 0, 0, 0, 0), face_arcs=(ARCS,) * 4, euler=1,
                      declared_index=INDEX2, model_complex=EDGE),
     ("kind", "edge_weights", "face_arcs", "euler", "declared_index"),
     [dict(kind="L"), dict(euler=0), dict(declared_index=finite_index(1))],
     [dict(model_complex=SimplicialComplex(frozenset({(3,)})))],
     "LocalPiece(kind='K', edge_weights=(1, 0, 0, 0, 0, 0), face_arcs=("
     + ", ".join(["FaceArcs(corners=(1, 0, 0), loops=0, non_normal=0)"] * 4)
     + "), euler=1, declared_index=HomologyIndex(tag='INDEX', n=2),"
     " model_complex=<e: 1 facets, dim 1>)"),
    (SurfaceComponentModel, dict(euler=-2, weight=3), ("euler", "weight"),
     [dict(euler=0), dict(weight=0)], [],
     "SurfaceComponentModel(euler=-2, weight=3)"),
    (Width, dict(pairs=((2, 1), (0, 3))), ("pairs",), [dict(pairs=((2, 1),))], [],
     "Width(pairs=((2, 1), (0, 3)))"),
    (SurgeryMove, dict(kind=MoveKind.DISHONEST, target=0, split=None, k=1), ("kind", "target", "split", "k"),
     [dict(kind=MoveKind.HONEST_COMPRESS_NONSEP), dict(target=1), dict(split=((0, 0), (0, 0))), dict(k=2)],
     [], "SurgeryMove(kind=<MoveKind.DISHONEST: 'DISHONEST'>, target=0, split=None, k=1)"),
    (DecreaseVerdict, dict(passed=True, before=WIDTH, after=Width(((0, 3),)), move=MOVE),
     ("passed", "before", "after", "move"),
     [dict(passed=False), dict(after=WIDTH), dict(move=SurgeryMove(MoveKind.DISHONEST, 1, None, 1))], [],
     "DecreaseVerdict(passed=True, before=Width(pairs=((2, 1), (0, 3))), after=Width(pairs=((0, 3),)),"
     " move=SurgeryMove(kind=<MoveKind.DISHONEST: 'DISHONEST'>, target=0, split=None, k=1))"),
    (RunConfig, dict(seed=7, counts=2), ("seed", "counts"), [dict(seed=8), dict(counts=None)], [],
     "RunConfig(seed=7, counts=2)"),
    (PropertyResult, dict(name="p", passed=True, cases=3, details=("d",)), ("name", "passed", "cases", "details"),
     [dict(name="q"), dict(passed=False), dict(cases=4), dict(details=())], [],
     "PropertyResult(name='p', passed=True, cases=3, details=('d',))"),
    (SuiteReport, dict(seed=1, counts=None, results=(RESULT,)), ("seed", "counts", "results"),
     [dict(seed=2), dict(counts=1), dict(results=())], [],
     "SuiteReport(seed=1, counts=None, results=(PropertyResult(name='p', passed=True, cases=3, details=()),))"),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(case):
    cls, fields, compare, differ, ignored, text = case
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in compare))
    assert {a: 1}[b] == 1
    assert repr(a) == text
    for override in differ:
        other = cls(**{**fields, **override})
        assert other != a and not other == a, override
    for override in ignored:
        same = cls(**{**fields, **override})
        assert same == a and hash(same) == hash(a), override
    assert a != compare and a.__eq__(object()) is NotImplemented
    for name in (*compare, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)


def test_positional_order_and_defaults():
    assert SimplicialComplex(frozenset()).name == ""
    assert AbelianGroup() == AbelianGroup(0, ())
    assert HomologyProfile() == HomologyProfile((), False)
    assert HomologyIndex("ZERO").n is None
    assert TetGluing(1).gluings == ()
    assert SurfaceConfiguration(TetGluing(1)).placements == ()
    assert MatchingReport(True).residuals == ()
    assert FaceArcs() == FaceArcs((0, 0, 0), 0, 0)
    assert ArcCheck(True).problems == ()
    assert DichotomyWitness("Y_SMALL", INDEX2, INDEX2) == DichotomyWitness(
        "Y_SMALL", INDEX2, INDEX2, None, None, ())
    assert SurgeryMove(MoveKind.DISHONEST, 0) == SurgeryMove(MoveKind.DISHONEST, 0, None, None)
    assert RunConfig() == RunConfig(1036, None)
    assert PropertyResult("p", True, 3) == RESULT
    # classes without defaults take every field positionally
    assert IntegerMatrix(0, 0, ()).rows == 0
    assert Placement(0, "TUBE", 1).kind == "TUBE"
    assert SurfaceComponentModel(1, 2).weight == 2
    assert Width(((1, 1),)).pairs == ((1, 1),)
    assert Gluing(0, 0, 1, 0, (0, 1, 2)).tet_b == 1
    assert IndexSumReport(INDEX2, INDEX2, ()).passed
    assert DecreaseVerdict(True, WIDTH, WIDTH, MOVE).move is MOVE
    assert MilnorReport("n", PROFILE, None, True, ()).passed
    assert SuiteReport(1, None, ()).passed
    assert LocalPiece("K", (0,) * 6, (ARCS,) * 4, 1, INDEX2, EDGE).model_complex is EDGE


# The fields typed ``tuple[...]`` that the cases above give as tuples.
# ``IntegerMatrix.entries`` is left out: only ``boundary_matrices`` builds one.
SEQUENCE_FIELDS = {
    Width: ("pairs",), FaceArcs: ("corners",), ArcCheck: ("problems",),
    LocalPiece: ("edge_weights", "face_arcs"), MatchingReport: ("residuals",),
    IndexSumReport: ("local_indices",), MilnorReport: ("mismatches",),
    DichotomyWitness: ("failure_archive",), PropertyResult: ("details",), SuiteReport: ("results",),
}


def test_sequence_fields_are_stored_as_tuples():
    """A list given for a sequence field is stored as a tuple, so the
    value hashes and equals the one built from a tuple."""
    assert hash(HomologyProfile([Z])) == hash(HomologyProfile((Z,)))
    assert HomologyProfile([Z]) == HomologyProfile((Z,)) and HomologyProfile([Z]).groups == (Z,)
    assert AbelianGroup(0, [2]) == AbelianGroup(0, (2,)) == Z2
    assert hash(AbelianGroup(0, [2])) == hash(Z2) and AbelianGroup(0, [2]).torsion == (2,)

    def generator(items):
        yield from items

    checked = set()
    for cls, fields, *_ in CASES:
        for make in (list, generator) if cls in SEQUENCE_FIELDS else ():
            value = cls(**{**fields, **{name: make(fields[name]) for name in SEQUENCE_FIELDS[cls]}})
            assert value == cls(**fields) and hash(value) == hash(cls(**fields)), (cls, make)
            for name in SEQUENCE_FIELDS[cls]:
                assert type(getattr(value, name)) is tuple and getattr(value, name) == fields[name]
            checked.add(cls)
    assert checked == set(SEQUENCE_FIELDS)


def test_surface_sequences_are_stored_as_tuples():
    """A generator or list given for ``perm``, ``gluings`` or ``placements``
    is stored as a tuple: the constructor's own checks do not use it up,
    and the value hashes and equals the one built from a tuple."""
    perm = (0, 1, 2)
    gluings = (Gluing(0, 0, 1, 0, perm),)
    placements = tuple(Placement(t, f"TRI_{v}", 1) for t in (0, 1) for v in range(4))

    def generator(items):
        yield from items

    configs = [
        SurfaceConfiguration(TetGluing(2, make(gluings)), make(placements))
        for make in (tuple, list, generator)
    ] + [SurfaceConfiguration(TetGluing(2, [Gluing(0, 0, 1, 0, make(perm))]), placements)
         for make in (list, generator)]
    for config in configs:
        assert config == configs[0] and hash(config) == hash(configs[0])
        assert config.placements == placements and config.skeleton.gluings == gluings
        assert config.skeleton.gluings[0].perm == perm
        assert euler_characteristic(config) == 5


def test_profile_drops_trailing_trivial_groups():
    """Equal homology gives equal profiles, however many trivial degrees
    the caller listed."""
    zero = AbelianGroup()
    padded, trimmed = HomologyProfile((zero, Z2, zero, zero)), HomologyProfile((zero, Z2))
    assert padded == trimmed and hash(padded) == hash(trimmed) and padded.groups == (zero, Z2)
    assert padded.render_lines() == trimmed.render_lines() and padded.to_json() == trimmed.to_json()
    assert padded.top_degree == 1 and not padded.is_acyclic
    acyclic = HomologyProfile((zero, zero))
    assert acyclic == HomologyProfile() and acyclic.is_acyclic and acyclic.render_lines() == ["H~0 = 0"]


def test_cubical_complex_compares_by_identity():
    a, b = subdivide_cube(1, [0]), subdivide_cube(1, [0])
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert repr(a) == "<grid(0,): (2, 1) cells>"
    c = CubicalComplex("c", 0, ((0,),), {(0,): 0}, {(0,): ()})
    assert c.cell_vertices == {} and c.labels == {} and c.cell_vertices is not b.cell_vertices
    assert c.parents() == {(0,): []} and c.parents() is c.parents()
    for name in ("name", "labels", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, name, 0)
        with pytest.raises(AttributeError):
            delattr(c, name)


def test_cache_is_per_instance():
    a, b = SimplicialComplex(frozenset({(1,)})), SimplicialComplex(frozenset({(1,)}))
    assert a.vertices() == (1,)
    a.faces_by_dim()
    assert a._cache is not b._cache and "faces" in a._cache
    assert b._cache == {"vertices": (1,), "masks": [1]}  # its own frame, and no face memo


BAD = [
    (lambda: AbelianGroup(rank=-1), "negative rank"),
    (lambda: AbelianGroup(rank=0, torsion=(3, 2)), "torsion (3, 2) is not a divisor chain"),
    (lambda: AbelianGroup(0, (1, 2)), "torsion orders must be at least 2"),
    (lambda: IntegerMatrix(2, 1, ()), "row count mismatch"),
    (lambda: IntegerMatrix(1, 2, (((1, 1), (0, 1)),)), "column indices must ascend within the column range"),
    (lambda: IntegerMatrix(1, 2, (((2, 1),),)), "column indices must ascend within the column range"),
    (lambda: IntegerMatrix(1, 2, (((0, 0),),)), "stored zero entry"),
    (lambda: HomologyIndex("BIG"), "bad index tag 'BIG'"),
    (lambda: HomologyIndex("INDEX"), "INDEX requires n >= 1"),
    (lambda: HomologyIndex("INDEX", 0), "INDEX requires n >= 1"),
    (lambda: HomologyIndex("ACYCLIC", 1), "ACYCLIC carries no value"),
    (lambda: Gluing(0, 0, 1, 0, (0, 0, 1)), "perm (0, 0, 1) is not a permutation of (0, 1, 2)"),
    (lambda: Gluing(0, 4, 1, 0, (0, 1, 2)), "face labels must be 0..3"),
    (lambda: Gluing(0, 1, 0, 1, (0, 1, 2)), "a face cannot be glued to itself"),
    (lambda: TetGluing(0), "need at least one tetrahedron"),
    (lambda: TetGluing(1, (GLUE,)), "gluing references missing tetrahedron 1"),
    (lambda: TetGluing(3, (GLUE, Gluing(2, 0, 0, 1, (0, 1, 2)))), "face (0, 1) glued more than once"),
    (lambda: Placement(0, "TUBE", 0), "multiplicity must be positive"),
    (lambda: Placement(0, "NOPE", 1), "unknown piece kind 'NOPE'"),
    (lambda: SurfaceConfiguration(TetGluing(1), (Placement(1, "TUBE", 1),)),
     "placement references missing tetrahedron 1"),
    (lambda: SurfaceComponentModel(0, -1), "component weight cannot be negative"),
    (lambda: SimplicialComplex(frozenset({(1, 1, 2)})), "repeated vertex in face (1, 1, 2)"),
    (lambda: SimplicialComplex(frozenset({()})), "faces must be nonempty"),
    (lambda: RunConfig(counts=-1), "counts must be nonnegative, got -1"),
]


@pytest.mark.parametrize("make, message", BAD, ids=[m for _, m in BAD])
def test_construction_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_unknown_piece_kind_is_rejected():
    with pytest.raises(ValueError):
        SurfaceConfiguration(TetGluing(1), (Placement(0, "NOPE", 1),))
