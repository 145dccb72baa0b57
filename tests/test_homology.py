import random

import pytest

import oracles

from diskplex.homology import (
    ACYCLIC_INDEX,
    AbelianGroup,
    IntegerMatrix,
    ZERO_INDEX,
    boundary_matrices,
    divisor_chain,
    finite_index,
    homology_index,
    index_of_profile,
    reduced_homology,
    smith_normal_form,
)
from diskplex.simplicial import (
    barycentric_subdivision,
    boundary_of_simplex,
    empty_complex,
    from_facets,
    join,
    join_all,
    point,
    simplex_complex,
)
from diskplex import corpus

RP2 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
       [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]

TORUS = [[1, 2, 4], [2, 4, 5], [2, 3, 5], [3, 5, 6], [1, 3, 6], [1, 4, 6],
         [4, 5, 7], [5, 7, 8], [5, 6, 8], [6, 8, 9], [4, 6, 9], [4, 7, 9],
         [1, 7, 8], [1, 2, 8], [2, 8, 9], [2, 3, 9], [3, 7, 9], [1, 3, 7]]


def test_divisor_chain():
    assert divisor_chain([2, 3]) == (1, 6)
    assert divisor_chain([4, 6]) == (2, 12)
    assert divisor_chain([2, 2]) == (2, 2)
    assert divisor_chain([]) == ()
    assert divisor_chain([1] * 3000 + [2, 3]) == (1,) * 3001 + (6,)


def test_abelian_group_contract():
    g = AbelianGroup.from_parts(1, [1, 2, 1])
    assert g.torsion == (2,)
    assert not g.is_trivial
    assert AbelianGroup.from_parts(0, []).is_trivial
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, torsion=(3, 2))  # not a divisor chain
    assert str(AbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


def test_snf_matches_determinantal_oracle():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        data = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        ours = smith_normal_form(IntegerMatrix.from_rows(data))
        expected = tuple(oracles.invariant_factors_by_minors(data))
        assert ours == expected, (data, ours, expected)


def test_snf_fixed_cases():
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 2]])) == (2, 2)
    assert smith_normal_form(IntegerMatrix.from_rows([[0, 0], [0, 0]])) == ()
    assert smith_normal_form(IntegerMatrix.from_rows([[6, 4], [4, 6]])) == (2, 10)
    # one unit pivot leaves the non-unit residue [[-2]]
    residue = [[1, 1], [1, -1]]
    assert smith_normal_form(IntegerMatrix.from_rows(residue)) == (1, 2)
    assert tuple(oracles.invariant_factors_by_minors(residue)) == (1, 2)
    # no unit entry: units appear only after a gcd step
    for rows, expected in (
        ([[6, 10, 15]], (1,)),
        ([[2, 3], [3, 5]], (1, 1)),
        ([[4, 6], [6, 9]], (1,)),
        ([[2, 4], [6, 8]], (2, 4)),
    ):
        assert smith_normal_form(IntegerMatrix.from_rows(rows)) == expected, rows
        assert tuple(oracles.invariant_factors_by_minors(rows)) == expected, rows


def test_integer_matrix_is_sparse_and_validated():
    m = IntegerMatrix.from_rows([[0, 3, 0], [0, 0, 0], [-1, 0, 2]])
    assert (m.rows, m.cols) == (3, 3)
    assert m.entries == (((1, 3),), (), ((0, -1), (2, 2)))
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix(1, 2, (((0, 1), (0, 2)),))  # repeated column
    with pytest.raises(ValueError):
        IntegerMatrix(1, 2, (((2, 1),),))  # column out of range
    with pytest.raises(ValueError):
        IntegerMatrix(1, 2, (((1, 0),),))  # stored zero
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, (((0, 1),),))  # row count


def _dense(m: IntegerMatrix) -> list[list[int]]:
    rows = [[0] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.entries):
        for j, v in row:
            rows[i][j] = v
    return rows


def _small_surfaces():
    """RP^2, the torus and their first barycentric subdivisions."""
    for facets in (RP2, TORUS):
        k = from_facets(facets)
        yield k
        yield barycentric_subdivision(k)


def test_snf_of_scaled_boundary_maps():
    # c * M has every entry divisible by c, so the non-unit pivot step does
    # all the work, at the size of real boundary maps
    for k in _small_surfaces():
        for m in boundary_matrices(k):
            factors = smith_normal_form(m)
            for c in (2, 3):
                scaled = IntegerMatrix(m.rows, m.cols, tuple(
                    tuple((j, c * v) for j, v in row) for row in m.entries
                ))
                assert smith_normal_form(scaled) == tuple(c * f for f in factors)


def test_snf_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def sympy_factors(rows):
        diag = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        return divisor_chain(abs(int(diag[i, i])) for i in range(min(diag.shape)))

    rng = random.Random(41)
    matrices = []
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 25), rng.randint(1, 30)
        density = rng.uniform(0.05, 0.4)
        matrices.append([
            [rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3, -3)) if rng.random() < density else 0
             for _ in range(n_cols)]
            for _ in range(n_rows)
        ])
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.uniform(0.1, 0.5)
        matrices.append([
            [rng.choice((2, -2, 3, -3, 4, -4, 6, -6, 9, -9)) if rng.random() < density else 0
             for _ in range(n_cols)]
            for _ in range(n_rows)
        ])
    matrices.extend(_dense(m) for k in _small_surfaces() for m in boundary_matrices(k))
    for rows in matrices:
        ours = smith_normal_form(IntegerMatrix.from_rows(rows))
        assert ours == sympy_factors(rows), rows


def test_reduced_homology_of_large_known_shapes():
    z2 = AbelianGroup(0, (2,))
    trivial = AbelianGroup()
    rp2 = from_facets(RP2)

    # Suspension shifts reduced homology up one degree: H~1(RP^2) = Z/2.
    sd2 = barycentric_subdivision(barycentric_subdivision(rp2))
    suspension = join(sd2, from_facets([["north"], ["south"]]))
    assert reduced_homology(suspension).groups == (trivial, trivial, z2)

    # C4 * C4 = S^3, and S^3 * RP^2 is the fourfold suspension of RP^2.
    c4 = [[0, 1], [1, 2], [2, 3], [3, 0]]
    c4_c4_rp2 = join_all([from_facets(c4), from_facets([[v + 4 for v in e] for e in c4]),
                          from_facets([[v + 7 for v in f] for f in RP2])])
    assert reduced_homology(c4_c4_rp2).groups == (trivial,) * 5 + (z2,)

    assert homology_index(simplex_complex(range(11))) == ACYCLIC_INDEX
    assert reduced_homology(boundary_of_simplex(11)).groups == (trivial,) * 9 + (AbelianGroup(1, ()),)


def test_reduced_homology_frozen_profiles():
    assert reduced_homology(empty_complex()).empty_complex
    assert reduced_homology(point()).is_acyclic
    two = from_facets([["p"], ["q"]])
    prof = reduced_homology(two)
    assert prof.group(0) == AbelianGroup(1, ())
    for k in range(1, 5):
        sphere = boundary_of_simplex(k + 2)
        prof = reduced_homology(sphere)
        assert prof.group(k) == AbelianGroup(1, ())
        assert all(prof.group(i).is_trivial for i in range(k))

    rp2 = reduced_homology(from_facets(RP2))
    assert rp2.group(0).is_trivial
    assert rp2.group(1) == AbelianGroup(0, (2,))
    assert rp2.group(2).is_trivial

    torus = reduced_homology(from_facets(TORUS))
    assert torus.group(1) == AbelianGroup(2, ())
    assert torus.group(2) == AbelianGroup(1, ())


def test_reduced_homology_matches_field_oracles():
    rng = random.Random(17)
    for _ in range(40):
        k = corpus.random_complex(rng, max_vertices=6, max_facet_size=4, allow_empty=False)
        prof = reduced_homology(k)
        facets = [list(f) for f in k.facet_list()]
        for d in range(0, k.dim + 1):
            g = prof.group(d)
            assert g.rank == oracles.reduced_betti(facets, d)
            for p in (2, 3, 5):
                t_here = g.torsion_count_divisible_by(p)
                t_below = prof.group(d - 1).torsion_count_divisible_by(p) if d else 0
                expected = g.rank + t_here + t_below
                assert oracles.reduced_betti_mod_p(facets, d, p) == expected


def test_connected_components_against_union_find():
    rng = random.Random(23)
    for _ in range(40):
        k = corpus.random_complex(rng, max_vertices=7, allow_empty=False)
        facets = [list(f) for f in k.facet_list()]
        b0 = reduced_homology(k).group(0).rank
        assert b0 == oracles.component_count(facets) - 1


def test_homology_index_taxonomy():
    assert homology_index(empty_complex()) == ZERO_INDEX
    assert homology_index(point()) == ACYCLIC_INDEX
    assert homology_index(from_facets([[1], [2]])) == finite_index(1)
    assert homology_index(from_facets([[1, 2], [2, 3], [3, 1]])) == finite_index(2)
    assert homology_index(from_facets(RP2)) == finite_index(2)
    assert homology_index(simplex_complex([1, 2, 3])) == ACYCLIC_INDEX


def test_index_bounds_and_values():
    assert ZERO_INDEX.value == 0
    assert ZERO_INDEX.at_most(0)
    assert finite_index(2).at_most(2)
    assert not finite_index(2).at_most(1)
    assert not ACYCLIC_INDEX.at_most(10)
    with pytest.raises(ValueError):
        ACYCLIC_INDEX.value
    with pytest.raises(ValueError):
        finite_index(0)
    assert str(ZERO_INDEX) == "ZERO"
    assert str(ACYCLIC_INDEX) == "ACYCLIC"
    assert str(finite_index(3)) == "INDEX(3)"


def test_index_of_profile_consistency():
    rng = random.Random(29)
    for _ in range(30):
        k = corpus.random_complex(rng)
        prof = reduced_homology(k)
        assert index_of_profile(prof) == homology_index(k)


def test_euler_characteristic_agrees_with_betti_alternation():
    rng = random.Random(31)
    for _ in range(30):
        k = corpus.random_complex(rng, allow_empty=False)
        prof = reduced_homology(k)
        alt = sum((-1) ** d * prof.group(d).rank for d in range(k.dim + 1))
        assert k.euler_characteristic() == 1 + alt
