import random

import pytest

import oracles

from diskplex.simplicial import (
    Simplex,
    adjacency_subcomplex,
    barycentric_subdivision,
    boundary_of_simplex,
    cone,
    empty_complex,
    from_facets,
    full_subcomplex,
    is_full_subcomplex,
    is_subcomplex,
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


def test_simplex_canonical_and_distinct():
    s = Simplex((1, 2, 3))
    assert s.dim == 2
    assert Simplex((2, 1)).vertices == (1, 2)
    with pytest.raises(ValueError):
        Simplex((1, 1, 2))
    with pytest.raises(ValueError):
        Simplex(())


def test_from_facets_antichain():
    k = from_facets([[1, 2], [2, 1], [1], [3]])
    assert sorted(k.facet_list()) == [(1, 2), (3,)]
    with pytest.raises(ValueError):
        from_facets([[1, 1]])
    with pytest.raises(ValueError):
        from_facets([[]])
    rng = random.Random(43)
    for _ in range(300):
        faces = []
        for _ in range(rng.randint(1, 30)):
            if faces and rng.random() < 0.4:  # a duplicate or a dominated face
                face = rng.choice(faces)
                faces.append(tuple(sorted(rng.sample(face, rng.randint(1, len(face))))))
            else:
                faces.append(tuple(sorted(rng.sample(range(9), rng.randint(1, 6)))))
        assert from_facets(faces).facets == oracles.maximal_faces(faces), faces


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
    assert k.has_face((1, 3))
    assert not k.has_face((1, 4))
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


def test_cone_link_star():
    circle = from_facets([[1, 2], [2, 3], [3, 1]])
    disk = cone(circle, apex="c")
    assert disk.euler_characteristic() == 1
    assert link(disk, ("c",)).facets == circle.facets
    st = star(disk, (1,))
    assert st.has_face((1, "c"))
    assert not st.has_face((2, 3))
    with pytest.raises(ValueError):
        link(disk, (99,))


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


def test_full_subcomplex():
    y = boundary_of_simplex(4)
    x = full_subcomplex(y, [0, 1, 2])
    # three vertices of the sphere span a triangle face
    assert x.f_vector() == (3, 3, 1)
    assert is_subcomplex(x, y)
    assert is_full_subcomplex(x, y)
    circle = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    not_full = from_facets([[1], [2]])
    assert is_subcomplex(not_full, circle)
    assert not is_full_subcomplex(not_full, circle)


def test_adjacency_subcomplex():
    # Y a 4-cycle, X the induced S^0 on {1, 3}
    y = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    x = full_subcomplex(y, [1, 3])
    v = adjacency_subcomplex(x, y, (2,))
    assert sorted(v.facet_list()) == [(1,), (3,)]
    # tau must be a simplex of y
    with pytest.raises(ValueError):
        adjacency_subcomplex(x, y, (2, 4))
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
