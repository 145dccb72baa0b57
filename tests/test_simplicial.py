import functools
import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from diskplex import simplicial
from diskplex.homology import _collapse_core, reduced_homology
from diskplex.simplicial import (
    SimplicialComplex,
    adjacency_subcomplex,
    barycentric_subdivision,
    boundary_of_simplex,
    cone,
    empty_complex,
    from_facets,
    full_subcomplex,
    is_full_subcomplex,
    join,
    join_all,
    link,
    point,
    relabel,
    simplex_complex,
    star,
    vertex_key,
)
from diskplex import corpus


PATH = from_facets([[1, 2], [2, 3]], "path")
FACE_CALLS = [
    ("link", lambda face: link(PATH, face), "the complex"),
    ("star", lambda face: star(PATH, face), "the complex"),
    ("adjacency_subcomplex", lambda face: adjacency_subcomplex(full_subcomplex(PATH, [1]), PATH, face), "y"),
]
BAD_FACES = [
    ((), "a simplex needs at least one vertex"),
    ((1, 1), "repeated vertex in simplex (1, 1)"),
    ((3, 1), "(1, 3) is not a simplex of {}"),
]


@pytest.mark.parametrize("face, message", BAD_FACES, ids=[m.replace(" of {}", "") for _, m in BAD_FACES])
@pytest.mark.parametrize("call, where", [c[1:] for c in FACE_CALLS], ids=[c[0] for c in FACE_CALLS])
def test_face_arguments_keep_their_messages(call, where, face, message):
    """Each function taking a face refuses a bad one with a fixed message,
    whatever iterable carries it."""
    for carrier in (tuple, list, iter):
        with pytest.raises(ValueError) as err:
            call(carrier(face))
        assert str(err.value) == message.format(where)


REFUSED_FACES = [
    ([[1, 2], [], [3, 3]], "faces must be nonempty"),
    ([[1, 2], [3, 3], []], "repeated vertex in face (3, 3)"),
    ([[1, ("x", (0, "b")), 2, ("x", (0, "b"))]], "repeated vertex in face (1, ('x', (0, 'b')), 2, ('x', (0, 'b')))"),
    ([[0, 1, 2], [2, 1, 0, 1]], "repeated vertex in face (2, 1, 0, 1)"),
    ([[]], "faces must be nonempty"),
]


def test_from_facets_antichain():
    k = from_facets([[1, 2], [2, 1], [1], [3]])
    assert sorted(k.facet_list()) == [(1, 2), (3,)]
    for faces, message in REFUSED_FACES:  # the first bad face in input order, as given
        with pytest.raises(ValueError) as err:
            from_facets(faces)
        assert str(err.value) == message
    # a complex built by hand is normalised as from_facets normalises it:
    # kept, the dominated edge (1, 2) of RP^2 would add a Z to H~1
    by_hand = SimplicialComplex(frozenset(RP2 + [(1, 2)]))
    assert by_hand == from_facets(RP2) and by_hand.facets == frozenset(RP2)
    assert reduced_homology(by_hand).render_lines() == ["H~0 = 0", "H~1 = Z/2"]
    rng, shuffle = random.Random(43), random.Random(44)
    for _ in range(300):
        faces = []
        for _ in range(rng.randint(1, 30)):
            if faces and rng.random() < 0.4:  # a duplicate or a dominated face
                face = rng.choice(faces)
                faces.append(tuple(sorted(rng.sample(face, rng.randint(1, len(face))))))
            else:
                faces.append(tuple(sorted(rng.sample(range(9), rng.randint(1, 6)))))
        k = from_facets(faces)
        assert k.facets == oracles.maximal_faces(faces), faces
        by_hand = SimplicialComplex(frozenset(tuple(shuffle.sample(f, len(f))) for f in faces))
        assert by_hand == k and hash(by_hand) == hash(k) and by_hand.facets == k.facets, faces
        assert by_hand.facet_list() == k.facet_list() and by_hand.faces_by_dim() == k.faces_by_dim()
        assert reduced_homology(by_hand) == reduced_homology(k)
        verts = sorted({v for f in faces for v in f})  # the oracle labels vertices by rank
        edges = set()
        for w in verts:  # w's neighbours: the vertices adjacent in k to tau = (w,) outside x
            x = full_subcomplex(k, [v for v in verts if v != w])
            edges.update(frozenset((v, w)) for v in adjacency_subcomplex(x, k, (w,)).vertices())
        assert edges == {frozenset(verts[i] for i in e) for e in oracles.faces_of_dim(faces, 1)}


# ints, strings and nested tuples, few enough that faces overlap
mixed_vertices = st.sampled_from(
    [0, 1, 2, 7, "a", "b", "c", ("x", 1), ("x", ("y", 0)), (1,), ((0, "b"),)]
)
mixed_faces = st.lists(st.lists(mixed_vertices, min_size=1, max_size=4, unique=True), max_size=10)


def _assert_matches(k, expected):
    # read before the facets, so a complex made from masks answers from them
    assert "facets" not in k.__dict__ and all(m < 1 << len(k.vertices()) for m in k._masks())
    assert k.is_empty == (not expected)
    assert k.dim == max(map(len, expected), default=0) - 1
    bound = sum(2 ** len(f) - 1 for f in expected)
    with mock.patch.object(simplicial, "_FACE_BUDGET", bound - 1):
        with pytest.raises(ValueError, match=f"^complex may have {bound} faces,"):
            k._check_face_budget()
    assert {frozenset(f) for f in k.facets} == expected
    for f in k.facets:
        assert list(f) == sorted(f, key=vertex_key)
    assert list(k.vertices()) == sorted({v for f in expected for v in f}, key=vertex_key)


@settings(max_examples=200, deadline=None)
@given(mixed_faces, st.data())
def test_mask_operations_match_set_references(faces, data):
    k = from_facets(faces)
    _assert_matches(k, oracles.maximal_sets(faces))
    keep = data.draw(st.lists(mixed_vertices, max_size=6))  # may name vertices outside k
    _assert_matches(full_subcomplex(k, keep), oracles.full_subcomplex_sets(faces, keep))
    if k.is_empty:
        return
    facet = data.draw(st.sampled_from(k.facet_list()))
    s = data.draw(st.lists(st.sampled_from(facet), min_size=1, unique=True))
    x_keep = data.draw(st.lists(st.sampled_from(k.vertices()), unique=True))
    x = full_subcomplex(k, x_keep)
    x_facets = oracles.full_subcomplex_sets(faces, x_keep)
    shown = tuple(sorted(s, key=vertex_key))  # each result's name prints the sorted face
    for carrier in (list, tuple, iter):  # the face is any vertex iterable
        got = link(k, carrier(s))
        _assert_matches(got, oracles.link_sets(faces, s))
        assert got.name == f"link({k.name}, {shown!r})"
        got = star(k, carrier(s))
        _assert_matches(got, oracles.star_sets(faces, s))
        assert got.name == f"star({k.name}, {shown!r})"
        got = adjacency_subcomplex(x, k, carrier(s))
        _assert_matches(got, oracles.adjacency_sets(x_facets, faces, s))
        assert got.name == f"adjacency({x.name}; {shown!r})"


RP2 = oracles.RP2


def test_homology_makes_no_facet_tuple_of_a_from_facets_result():
    """A complex derived from masks (a ``from_facets`` result, a
    relabelling, a proper collapse core) holds its masks and makes its
    facet tuples on first read, as the same frozenset an eager complex
    holds."""
    pendant = [(-1, 0, 1)] + RP2  # its core drops -1 and 0, the two lowest ranks
    core, _ = _collapse_core(from_facets(pendant, "pendant"))
    for faces, k in ((RP2, from_facets(RP2, "rp2")),
                     (list(itertools.combinations(range(7), 6)), boundary_of_simplex(7)),
                     ([tuple(("t", v) for v in f) for f in RP2], relabel(from_facets(RP2), "t")),
                     (RP2, core)):
        reduced_homology(k)
        assert "facets" not in k.__dict__, k.name
        assert list(k.vertices()) == sorted({v for f in faces for v in f}, key=vertex_key)
        assert k.facets == oracles.maximal_faces(faces)
        eager = SimplicialComplex(frozenset(faces), "eager")
        assert k == eager and hash(k) == hash(eager)
        assert k.facet_list() == eager.facet_list() and k.faces_by_dim() == eager.faces_by_dim()


def test_from_facets_orders_each_vertex_once(monkeypatch):
    """sd(RP^2) joined with S^0, all vertices tuples: ``vertex_key`` sees
    each vertex of the complex once, whatever it recurses into."""
    rp2 = from_facets(RP2)
    s0 = from_facets([[("s", 0)], [("s", 1)]])
    facets = [fa + fb for fa in barycentric_subdivision(rp2).facets for fb in s0.facets]
    calls = Counter()
    key = simplicial.vertex_key

    def counting_key(v):
        calls[v] += 1
        return key(v)

    monkeypatch.setattr(simplicial, "vertex_key", counting_key)
    k = from_facets(facets)
    monkeypatch.undo()
    assert len(k.facets) == len(facets) == 120
    verts = set(k.vertices())
    assert len(verts) == 33 and {v: calls[v] for v in verts} == dict.fromkeys(verts, 1)


def test_mixed_vertex_ordering():
    k = from_facets([["b", 2], [1, "a"]])
    # ints sort before strings, so each facet is well ordered
    assert (1, "a") in k.facet_list()
    assert (2, "b") in k.facet_list()

    # ints, strings and nested tuples together: faces come straight from
    # the canonical facets and must reproduce the vertex_key order
    facets = [["b", 2, ("x", 1)], [1, "a", ("x", 1)], [("a", (2, "c")), 3, "a", 1], [("x", 0)]]
    mixed = from_facets(facets)
    groups = mixed.faces_by_dim()
    for d, group in groups.items():
        assert group == sorted(group, key=lambda f: tuple(vertex_key(v) for v in f))
        for face in group:
            assert list(face) == sorted(face, key=vertex_key)
        assert len(group) == len(oracles.faces_of_dim(facets, d))
    assert set(groups) == {0, 1, 2, 3}


def test_faces_and_f_vector():
    k = simplex_complex([1, 2, 3])
    assert k.f_vector() == (3, 3, 1)
    assert k.euler_characteristic() == 1
    assert oracles.has_face(k, (1, 3))
    assert not oracles.has_face(k, (1, 4))
    boundary = boundary_of_simplex(4)
    assert boundary.f_vector() == (4, 6, 4)
    assert boundary.euler_characteristic() == 2


def test_empty_and_point():
    assert empty_complex().is_empty
    assert empty_complex().dim == -1
    assert point("p").f_vector() == (1,)


def test_join_identities_and_collisions():
    a = from_facets([[1], [2]])
    e = empty_complex()
    assert join(a, e) == a
    assert join(e, a) == a
    with pytest.raises(ValueError):
        join(a, a)
    j = join(a, a, relabel_on_collision=True)
    assert len(j.vertices()) == 4
    assert j.dim == 1

    b = relabel(a, "x")
    j2 = join(a, b)
    # S^0 * S^0 is a 4-cycle
    assert j2.f_vector() == (4, 4)
    # every facet of a join is a face, so |A|·|B| facets over the face
    # budget are refused before any is built, overlapping operands included
    a = from_facets([[("a", i)] for i in range(513)])
    b = from_facets([[("b", i)] for i in range(512)])
    for left, right in ((a, b), (b, a), (a, a)):
        n = len(left.facets) * len(right.facets)
        with pytest.raises(ValueError, match=rf"^join would have {n} facets, over the face budget of 262144$"):
            join(left, right, relabel_on_collision=True)


def test_join_matches_oracle_product():
    rng = random.Random(5)
    for _ in range(25):
        a = corpus.random_complex(rng, max_vertices=4, max_facet_size=3, allow_empty=False)
        b = corpus.random_complex(rng, max_vertices=4, max_facet_size=3, allow_empty=False)
        j = join(relabel(a, "L"), relabel(b, "R"))
        expected = oracles.normalize_facets(
            oracles.join_facets(
                [tuple(("L", v) for v in f) for f in a.facet_list()],
                [tuple(("R", v) for v in f) for f in b.facet_list()],
            )
        )
        assert oracles.normalize_facets(j.facet_list()) == expected


def test_join_all_associative_shape():
    parts = [from_facets([[i]]) for i in range(3)]
    assert join_all(parts).f_vector() == (3, 3, 1)
    # three S^0 factors give an octahedron sphere
    parts = [from_facets([[(i, 0)], [(i, 1)]]) for i in range(3)]
    j = join_all(parts)
    assert j.dim == 2
    assert len(j.facet_list()) == 8
    assert j.euler_characteristic() == 2


def test_join_all_is_one_product_matching_a_fold_of_binary_joins(monkeypatch):
    built = []
    real = simplicial.from_facets
    monkeypatch.setattr(simplicial, "from_facets", lambda *args, **kw: built.append(1) or real(*args, **kw))
    rng = random.Random(19)
    for _ in range(80):
        parts = [relabel(corpus.random_complex(rng, max_vertices=3, max_facet_size=3, max_facets=3), f"p{i}")
                 for i in range(rng.randint(0, 5))]
        fold = functools.reduce(join, parts, empty_complex())
        built.clear()
        got = join_all(parts)
        assert (got.facets, got.name, got.vertices()) == (fold.facets, fold.name, fold.vertices())
        nonempty = [k for k in parts if not k.is_empty]
        assert len(built) == (len(nonempty) >= 2)
        if len(nonempty) == 1:
            assert got is nonempty[0]
        named = join_all(parts, name="named")
        assert (named.facets, named.name) == (fold.facets, "named")
    a, b, c = from_facets([[1], [2]]), from_facets([["x"]]), from_facets([[2, "x"], [5]])
    with pytest.raises(ValueError, match=r"^join operands share vertices \[2, 'x'\]$"):
        join_all([a, b, c])
    # only the first four shared vertices are shown
    with pytest.raises(ValueError, match=r"^join operands share vertices \[1, 2, 3, 4\]$"):
        join_all([simplex_complex(range(1, 6)), simplex_complex(range(1, 7))])
    e1, e2 = empty_complex("e1"), empty_complex("e2")
    assert join_all([e1, e2]) is e2 is functools.reduce(join, [e1, e2], empty_complex())


def test_cone_link_star():
    circle = from_facets([[1, 2], [2, 3], [3, 1]])
    disk = cone(circle, apex="c")
    assert disk.euler_characteristic() == 1
    assert link(disk, ("c",)).facets == circle.facets
    st = star(disk, (1,))
    assert oracles.has_face(st, (1, "c"))
    assert not oracles.has_face(st, (2, 3))
    with pytest.raises(ValueError):
        link(disk, (99,))
    # the apex check is join_all's shared-vertex refusal
    with pytest.raises(ValueError, match=r"^join operands share vertices \['c'\]$"):
        cone(disk, "c")


def test_barycentric_subdivision_counts_and_euler():
    tri = simplex_complex([1, 2, 3])
    sd = barycentric_subdivision(tri)
    assert sd.f_vector() == (7, 12, 6)
    assert sd.euler_characteristic() == tri.euler_characteristic()
    rng = random.Random(11)
    for _ in range(20):
        k = corpus.random_complex(rng, max_vertices=5, max_facet_size=3)
        sd = barycentric_subdivision(k)
        assert sd.euler_characteristic() == k.euler_characteristic()
        assert oracles.euler_characteristic(
            [list(f) for f in sd.facet_list()]
        ) == k.euler_characteristic() or k.is_empty


def test_barycentric_subdivision_refuses_over_the_face_budget(monkeypatch):
    # sd makes |f|! facets of each facet f: 9! = 362,880 and 11! are over
    # 2^18 and refused before a facet is built; at the budget it builds
    simplices = [simplex_complex(range(n)) for n in (9, 11)]
    built = []
    monkeypatch.setattr(simplicial, "from_facets", lambda *args, **kwargs: built.append(args))
    with oracles.within(2):
        for k, total in zip(simplices, (362880, 39916800)):
            with pytest.raises(ValueError, match=f"subdivision would have {total} facets, "
                                                 "over the face budget of 262144"):
                barycentric_subdivision(k)
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(simplicial, "_FACE_BUDGET", 720)
    assert len(barycentric_subdivision(simplex_complex(range(6))).facets) == 720
    with pytest.raises(ValueError, match="subdivision would have 726 facets, over the face budget of 720"):
        barycentric_subdivision(from_facets([range(6), ["a", "b", "c"]]))


def test_full_subcomplex():
    y = boundary_of_simplex(4)
    x = full_subcomplex(y, [0, 1, 2])
    # three vertices of the sphere span a triangle face
    assert x.f_vector() == (3, 3, 1)
    assert oracles.is_subcomplex(x, y)
    assert is_full_subcomplex(x, y)
    circle = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    not_full = from_facets([[1], [2]])
    assert oracles.is_subcomplex(not_full, circle)
    assert not is_full_subcomplex(not_full, circle)


def test_adjacency_subcomplex():
    # Y a 4-cycle, X the induced S^0 on {1, 3}
    y = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    x = full_subcomplex(y, [1, 3])
    v = adjacency_subcomplex(x, y, (2,))
    assert sorted(v.facet_list()) == [(1,), (3,)]
    # tau must be a simplex of y, and is refused before x is checked
    with pytest.raises(ValueError, match=r"^\(2, 4\) is not a simplex of y$"):
        adjacency_subcomplex(x, y, (2, 4))
    not_full = from_facets([[1], [2]])
    with pytest.raises(ValueError, match=r"^\(2, 4\) is not a simplex of y$"):
        adjacency_subcomplex(not_full, y, (2, 4))
    with pytest.raises(ValueError, match="^x is not a full subcomplex of y$"):
        adjacency_subcomplex(not_full, y, (2,))
    # an edge tau keeps only x-vertices adjacent to its outside endpoint
    y2 = from_facets([[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [2, 4]])
    x2 = full_subcomplex(y2, [1, 3])
    v2 = adjacency_subcomplex(x2, y2, (2, 4))
    assert sorted(v2.facet_list()) == [(3,)]


def test_relabel_round_shape():
    k = from_facets([[1, 2], [3]])
    r = relabel(k, "t")
    assert sorted(r.vertices()) == [("t", 1), ("t", 2), ("t", 3)]
    assert r.f_vector() == k.f_vector()
