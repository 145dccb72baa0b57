import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from diskplex.homology import (
    ACYCLIC_INDEX,
    AbelianGroup,
    ZERO_INDEX,
    finite_index,
    index_of_profile,
    reduced_homology,
)
from diskplex.join_formula import (
    index_sum_law,
    join_homology_via_formula,
    tensor,
    tor,
    verify_milnor,
)
from diskplex.simplicial import boundary_of_simplex, empty_complex, from_facets, join, point
from diskplex import corpus

RP2 = oracles.RP2


def _moore3_facets():
    """The mod-3 Moore space M(Z/3, 1) on 13 vertices.

    A disk whose boundary 9-cycle wraps three times around the triangle
    b0 b1 b2: the triangles b_i b_i+1 c_i and b_i+1 c_i c_i+1 join the
    wrapped boundary to a ring c0..c8, and c_i c_i+1 z cone the ring off.
    Nothing but the boundary is identified, so H~1 = Z/3 and H~2 = 0.
    """
    b = [("b", i % 3) for i in range(10)]
    c = [("c", i % 9) for i in range(10)]
    facets = []
    for i in range(9):
        facets += [[b[i], b[i + 1], c[i]], [b[i + 1], c[i], c[i + 1]], [c[i], c[i + 1], "z"]]
    return facets


MOORE3 = _moore3_facets()


def test_tensor_and_tor_on_cyclic_parts():
    z = AbelianGroup(1, ())
    z2 = AbelianGroup(0, (2,))
    z4 = AbelianGroup(0, (4,))
    z6 = AbelianGroup(0, (6,))
    assert tensor(z, z) == AbelianGroup(1, ())
    assert tensor(z, z2) == z2
    assert tensor(z2, z4) == AbelianGroup(0, (2,))
    assert tensor(z4, z6) == AbelianGroup(0, (2,))
    assert tor(z, z2).is_trivial
    assert tor(z2, z2) == AbelianGroup(0, (2,))
    assert tor(z4, z6) == AbelianGroup(0, (2,))
    mixed = AbelianGroup(1, (2,))
    assert tensor(mixed, mixed) == AbelianGroup(1, (2, 2, 2))


def test_formula_fixed_cases():
    s0 = from_facets([["p"], ["q"]])
    rp2 = from_facets(RP2)

    j = verify_milnor(s0, s0)
    assert j.passed
    assert j.direct.group(1) == AbelianGroup(1, ())
    assert j.direct.group(0).is_trivial

    j2 = verify_milnor(rp2, s0)
    assert j2.passed
    assert j2.direct.group(2) == AbelianGroup(0, (2,))

    j3 = verify_milnor(rp2, rp2)
    assert j3.passed
    assert j3.direct.group(3) == AbelianGroup(0, (2,))
    assert j3.direct.group(4) == AbelianGroup(0, (2,))
    assert j3.direct.group(2).is_trivial


def test_formula_spheres_shift_dimension():
    for ka in (1, 2):
        for kb in (1, 2):
            a = boundary_of_simplex(ka + 2)
            b = boundary_of_simplex(kb + 2)
            expected = reduced_homology(
                boundary_of_simplex(ka + kb + 3)
            )
            got = join_homology_via_formula(reduced_homology(a), reduced_homology(b))
            for d in range(ka + kb + 2):
                assert got.group(d) == expected.group(d)


def test_formula_rejects_empty_factors():
    with pytest.raises(ValueError):
        join_homology_via_formula(
            reduced_homology(empty_complex()), reduced_homology(point())
        )


def test_verify_milnor_empty_factor_identity():
    a = from_facets([[1, 2]])
    rep = verify_milnor(a, empty_complex())
    assert rep.passed
    assert rep.identity_rule
    assert rep.formula is None


def test_random_pairs_agree():
    rng = random.Random(2024)
    for a, b in corpus.milnor_pairs(rng, 30):
        rep = verify_milnor(a, b)
        assert rep.passed, rep.render_lines()


def test_index_sum_law_cases():
    assert index_sum_law([]) == ZERO_INDEX
    assert index_sum_law([ZERO_INDEX, ZERO_INDEX]) == ZERO_INDEX
    assert index_sum_law([finite_index(1), ZERO_INDEX]) == finite_index(1)
    assert index_sum_law([finite_index(1), finite_index(2)]) == finite_index(3)
    assert index_sum_law([ACYCLIC_INDEX, finite_index(5)]) == ACYCLIC_INDEX
    assert index_sum_law([ZERO_INDEX, ACYCLIC_INDEX]) == ACYCLIC_INDEX


def test_index_sum_law_matches_join_on_examples():
    # ind(S^0) = 1 and joining spheres adds indices
    s0 = from_facets([["p"], ["q"]])
    from diskplex.homology import homology_index

    j = join(s0, s0, relabel_on_collision=True)
    assert homology_index(j) == index_sum_law([homology_index(s0)] * 2)
    jj = join(j, from_facets(RP2), relabel_on_collision=True)
    expected = index_sum_law([homology_index(j), finite_index(2)])
    assert homology_index(jj) == expected == finite_index(4)


def test_coprime_torsion_join_is_acyclic_above_the_index_sum():
    rp2, moore = from_facets(RP2, name="RP2"), from_facets(MOORE3, name="M(Z/3,1)")
    assert len(moore.vertices()) == 13
    assert reduced_homology(moore).groups == (AbelianGroup(), AbelianGroup(0, (3,)))
    # Z/2 (x) Z/3 = Tor(Z/2, Z/3) = 0: every group of the join vanishes
    assert index_sum_law([finite_index(2), finite_index(2)]) == finite_index(4)
    report = verify_milnor(rp2, moore)
    assert report.passed and report.direct.is_acyclic


def _index_key(ind):
    """ZERO < INDEX(1) < INDEX(2) < ... < ACYCLIC."""
    return float("inf") if ind.is_acyclic else ind.value


# Random facet lists mostly have a dominated vertex, and so does their
# join, which then collapses; the fixed shapes (S^0, a circle, S^2 and
# RP^2) have none, so their joins keep deep chain complexes with torsion.
small_complexes = st.one_of(
    st.sampled_from([[["p"], ["q"]], [[0, 1], [1, 2], [0, 2]],
                     [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], RP2]),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True), min_size=1, max_size=5),
).map(from_facets)


@settings(max_examples=100, deadline=None)
@given(small_complexes, small_complexes)
# H~2 of the join gathers Z/3 from one tensor part and Z/2 from another: Z/6
@example(from_facets(RP2 + [[9]]), from_facets(MOORE3 + [["w"]]))
def test_join_homology_matches_the_formula(a, b):
    direct = reduced_homology(join(a, b, relabel_on_collision=True))
    assert direct == join_homology_via_formula(reduced_homology(a), reduced_homology(b))


# The Moore space's Z/3 against RP^2's Z/2 is where the sum is only a bound.
sum_law_complexes = st.one_of(
    st.sampled_from([[], [["p"], ["q"]], [[0, 1], [1, 2], [0, 2]], RP2, MOORE3]),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True), min_size=1, max_size=5),
).map(from_facets)


@settings(max_examples=100, deadline=None)
@given(sum_law_complexes, sum_law_complexes)
@example(from_facets(RP2), from_facets(MOORE3))
def test_join_index_is_at_least_the_sum_and_equal_when_the_tensor_is_nonzero(a, b):
    pa, pb = reduced_homology(a), reduced_homology(b)
    ia, ib = index_of_profile(pa), index_of_profile(pb)
    joined = index_of_profile(reduced_homology(join(a, b, relabel_on_collision=True)))
    law = index_sum_law([ia, ib])
    assert _index_key(joined) >= _index_key(law)
    exact = (
        ia.is_zero or ib.is_zero or ia.is_acyclic or ib.is_acyclic
        or not tensor(pa.group(ia.value - 1), pb.group(ib.value - 1)).is_trivial
    )
    if exact:
        assert joined == law
    else:
        assert _index_key(joined) > _index_key(law)
