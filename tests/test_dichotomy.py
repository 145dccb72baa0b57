import random

import pytest

import oracles

from diskplex.dichotomy import DichotomyWitness, check_dichotomy
from diskplex.homology import finite_index
from diskplex.simplicial import (
    boundary_of_simplex,
    from_facets,
    full_subcomplex,
)
from diskplex import corpus


def test_y_small_when_y_index_within_bound():
    # X = Y: bound n equals ind(Y), so Y itself is small enough
    y = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    w = check_dichotomy(y, y)
    assert w.verdict == "Y_SMALL"
    assert w.tau is None


def test_tau_found_vertex_case():
    y = from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    x = full_subcomplex(y, [1, 3])
    w = check_dichotomy(x, y)
    assert w.verdict == "TAU_FOUND"
    assert w.index_x == finite_index(1)
    assert w.index_y == finite_index(2)
    assert w.dim_tau == 0
    # the combined bound holds: ind(V_tau) + dim(tau) <= ind(X)
    assert w.index_vtau.value + w.dim_tau <= w.index_x.value


def test_empty_x_with_zero_index():
    y = boundary_of_simplex(4)
    x = full_subcomplex(y, [])
    w = check_dichotomy(x, y)
    # ZERO bound: either Y has index 0 (it does not) or some tau has
    # empty adjacency complex
    assert w.verdict == "TAU_FOUND"
    assert str(w.index_vtau) == "ZERO"


def test_acyclic_x_rejected():
    y = boundary_of_simplex(4)
    x = full_subcomplex(y, [0])
    with pytest.raises(ValueError):
        check_dichotomy(x, y)


def test_non_full_subcomplex_rejected():
    y = from_facets([[1, 2], [2, 3], [3, 1]])
    x = from_facets([[1], [2]])  # 1 and 2 span an edge of y
    with pytest.raises(ValueError):
        check_dichotomy(x, y)


def test_x_not_inside_y_rejected():
    y = from_facets([[1, 2]])
    x = from_facets([[9]])
    with pytest.raises(ValueError):
        check_dichotomy(x, y)


def test_random_full_pairs_never_fail():
    rng = random.Random(4242)
    for x, y in corpus.full_subcomplex_pairs(rng, 40):
        w = check_dichotomy(x, y)
        assert w.verdict in ("Y_SMALL", "TAU_FOUND")
        if w.verdict == "TAU_FOUND":
            assert oracles.has_face(y, w.tau)
            assert w.index_vtau.at_most(w.index_x.value - w.dim_tau)


def test_failure_witness_rendering_and_archive():
    # exercise the failure pathway directly: the report carries profiles
    from diskplex.homology import reduced_homology

    y = boundary_of_simplex(3)
    prof = reduced_homology(y)
    w = DichotomyWitness(
        verdict="FAILURE",
        index_x=finite_index(1),
        index_y=finite_index(2),
        failure_archive=(("X", prof), ("Y", prof)),
    )
    lines = w.render_lines()
    assert any("FAILURE" in line for line in lines)
    data = w.to_json()
    assert data["verdict"] == "FAILURE"
    assert len(data["failure_archive"]) == 2


def test_first_witness_is_smallest():
    # two candidate vertices; the verifier reports the lexicographically
    # first tau of minimal dimension
    y = from_facets([[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    x = full_subcomplex(y, [1, 3])
    w = check_dichotomy(x, y)
    if w.verdict == "TAU_FOUND":
        outside = sorted(v for v in y.vertices() if v not in x.vertices())
        candidates = [v for v in outside]
        assert w.tau[0] in candidates
        assert w.tau == (min(candidates),) or w.dim_tau > 0


def test_each_profile_is_computed_once(monkeypatch):
    import diskplex.dichotomy
    import diskplex.homology

    real = diskplex.homology.reduced_homology
    computed = []

    def counting(k):
        computed.append(k.facets)
        return real(k)

    monkeypatch.setattr(diskplex.homology, "reduced_homology", counting)
    monkeypatch.setattr(diskplex.dichotomy, "reduced_homology", counting)
    rng = random.Random(5)
    missed = 0
    for x, y in corpus.full_subcomplex_pairs(rng, 60):
        computed.clear()
        w = check_dichotomy(x, y)
        assert len(computed) == len(set(computed)) + (x.facets == y.facets), (x, y)
        missed += w.verdict == "TAU_FOUND" and len(computed) > 3
    assert missed


def test_tau_search_lists_faces_one_dimension_at_a_time(monkeypatch):
    # X = two points, Y = X joined with the 15-simplex: the outside
    # subcomplex has 65,535 faces, and the first vertex is already a witness
    from diskplex.simplicial import SimplicialComplex, join, simplex_complex

    x = from_facets([["p"], ["q"]])
    y = join(x, simplex_complex(range(16)))

    def refuse(self):
        raise AssertionError("faces_by_dim enumerates every dimension")

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", refuse)
    w = check_dichotomy(x, y)
    assert w.verdict == "TAU_FOUND" and w.tau == (0,)


def test_tau_candidates_keep_the_face_order():
    from diskplex.dichotomy import _outside_simplices

    rng = random.Random(11)
    for x, y in corpus.full_subcomplex_pairs(rng, 40):
        outside = [v for v in y.vertices() if v not in set(x.vertices())]
        assert list(_outside_simplices(x, y)) == full_subcomplex(y, outside).all_faces()
