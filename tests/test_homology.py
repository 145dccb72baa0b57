import itertools
import os
import random
import signal
import subprocess
import sys
import time
from functools import reduce
from operator import and_

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from diskplex.homology import (
    ACYCLIC_INDEX,
    AbelianGroup,
    IntegerMatrix,
    ZERO_INDEX,
    _collapse_core,
    boundary_matrices,
    divisor_chain,
    finite_index,
    homology_index,
    index_of_profile,
    reduced_homology,
    smith_normal_form,
)
from diskplex.simplicial import (
    adjacency_subcomplex,
    barycentric_subdivision,
    boundary_of_simplex,
    cone,
    empty_complex,
    from_facets,
    join,
    join_all,
    point,
    simplex_complex,
    vertex_key,
)
from diskplex import corpus
from diskplex.additivity import global_complex
from diskplex.cubes import cone_base_complex
from diskplex.pieces import catalog

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
    # zeros are dropped and signs are ignored
    assert divisor_chain([0, -1, 1, -4, 6, 0]) == (1, 1, 2, 12)
    assert divisor_chain([0, 0]) == ()
    assert divisor_chain([-1, -3]) == (1, 3)


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
        ours = smith_normal_form(IntegerMatrix(*oracles.matrix_fields(data)))
        expected = tuple(oracles.invariant_factors_by_minors(data))
        assert ours == expected, (data, ours, expected)


def test_snf_fixed_cases():
    assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields([[2, 0], [0, 3]]))) == (1, 6)
    assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields([[2, 0], [0, 2]]))) == (2, 2)
    assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields([[0, 0], [0, 0]]))) == ()
    assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields([[6, 4], [4, 6]]))) == (2, 10)
    # one unit pivot leaves the non-unit residue [[-2]]
    residue = [[1, 1], [1, -1]]
    assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields(residue))) == (1, 2)
    assert tuple(oracles.invariant_factors_by_minors(residue)) == (1, 2)
    # no unit entry: units appear only after a gcd step
    for rows, expected in (
        ([[6, 10, 15]], (1,)),
        ([[2, 3], [3, 5]], (1, 1)),
        ([[4, 6], [6, 9]], (1,)),
        ([[2, 4], [6, 8]], (2, 4)),
        # no unit entry, and the first pivot, the 4 in row 0, splits nothing
        ([[0, 0, 4, -6], [0, 9, 4, 0], [6, 4, 6, -6]], (1, 2, 6)),
        # peel: the 1 is alone in column 0, and its row also holds a 2 and a 3
        ([[1, 2, 3], [0, 4, 0], [0, 0, 6]], (1, 2, 12)),
        # the 2 is alone in column 0 but is not a unit, so it is not peeled
        ([[2, 1], [0, 1]], (1, 2)),
        # bidiagonal chain: each peel leaves the next column a singleton,
        # until the 2 at the end
        ([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, -1, 1], [0, 0, 0, 2]], (1, 1, 1, 2)),
        # the peel stops after column 0 and the loop finishes with torsion
        ([[1, 1, 0], [0, 1, 1], [0, 1, -1]], (1, 1, 2)),
        # peeling column 0 leaves the 2 alone in column 1, and it stays
        ([[1, 1], [0, 2]], (1, 2)),
        # column 1 lists row 0 first, which is peeled before column 1 is
        # popped, so its one live row is the second it lists
        ([[1, 1], [0, 1]], (1, 1)),
        ([[1, 1, 1], [0, 1, 0], [0, 0, 3]], (1, 1, 3)),
        # empty columns, between and after the others
        ([[0, 1, 0, 2, 0], [0, 0, 0, 3, 0]], (1, 3)),
        ([[0, 0, 0]], ()),
        # a split at |value| 2 leaves a smaller entry in a later row, and
        # the next pivot at 2 meets a row of its sign with quotient 0
        ([[0, 3, 3, 0], [0, -2, 6, 2], [4, -4, 0, 2], [0, 3, 3, -4]], (1, 2, 4, 48)),
        ([[2, -4, 4, 3], [0, 6, 0, -3], [-2, 0, -2, 6], [-4, 0, -3, -2], [0, -3, -3, 0]],
         (1, 1, 1, 6)),
    ):
        assert smith_normal_form(IntegerMatrix(*oracles.matrix_fields(rows))) == expected, rows
        assert tuple(oracles.invariant_factors_by_minors(rows)) == expected, rows


def test_snf_matches_minors_on_unit_free_and_mixed_matrices(monkeypatch):
    # without units every pivot is above 1, and sweeps at one |value| meet
    # the smaller remainders their own steps leave; a step that splits
    # nothing ends its sweep, so the next pivot is smaller
    import diskplex.homology as homology

    steps = []
    pivot_step = homology._pivot_step

    def recording(rows, cols, pi, pj):
        p = abs(rows[pi][pj])
        steps.append((p, pivot_step(rows, cols, pi, pj)))
        return steps[-1][1]

    monkeypatch.setattr(homology, "_pivot_step", recording)
    rng = random.Random(2024)
    stopped = 0
    for n in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        values = (2, -2, 3, -3, 4, -4, 6, -6) if n % 2 else (1, -1, 2, -2, 3, -3, 5)
        data = [[rng.choice(values) if rng.random() < 0.5 else 0 for _ in range(cols)]
                for _ in range(rows)]
        steps.clear()
        ours = smith_normal_form(IntegerMatrix(*oracles.matrix_fields(data)))
        assert ours == tuple(oracles.invariant_factors_by_minors(data)), data
        for (p, factor), (q, _) in zip(steps, steps[1:]):
            stopped += not factor
            assert factor or q < p, (data, steps)
    assert stopped >= 1000, stopped


def test_snf_of_unit_free_boundary_maps_is_fast():
    # sd^3 of RP^2 with every entry doubled has no unit, so every pivot
    # step is a non-unit one; a loop that scanned every entry for each
    # such step took about 16 s on a 2-core Xeon, one sweep per |value|
    # takes about 0.3 s
    def expire(signum, frame):
        raise TimeoutError("unit-free elimination did not finish within 5 s")

    k = from_facets(RP2)
    for _ in range(3):
        k = barycentric_subdivision(k)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        factors = [smith_normal_form(IntegerMatrix(m.rows, m.cols, tuple(
            tuple((j, 2 * v) for j, v in row) for row in m.entries
        ))) for m in boundary_matrices(k)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert factors == [(2,), (2,) * 1080, (2,) * 2159 + (4,)]


def test_integer_matrix_is_sparse_and_validated():
    m = IntegerMatrix(*oracles.matrix_fields([[0, 3, 0], [0, 0, 0], [-1, 0, 2]]))
    assert (m.rows, m.cols) == (3, 3)
    assert m.entries == (((1, 3),), (), ((0, -1), (2, 2)))
    with pytest.raises(ValueError):
        IntegerMatrix(*oracles.matrix_fields([[1, 2], [3]]))
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


def _scrambled_pair(rng, lower, upper, scales=(2, 3, 5)):
    """(D·lower·Q, Q⁻¹·upper) for a chain pair with lower·upper = 0.

    Q is a random product of elementary column operations (at most 300,
    so entries stay small), whose inverses act on the rows of ``upper``;
    D scales each row of ``lower`` by one of ``scales``.  The product
    stays 0.  With the default scales no entry of the first matrix is a
    unit, and many pivot steps split nothing; with ``scales=(1,)`` the
    ±1 entries left alone in their columns are peeled.
    """
    a, b = _dense(lower), _dense(upper)
    n = lower.cols
    for _ in range(min(4 * n, 300)):
        s, t = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in a:
            row[t] += c * row[s]
        b[s] = [x - c * y for x, y in zip(b[s], b[t])]
    a = [[p * v for v in row] for p, row in zip((rng.choice(scales) for _ in a), a)]
    return (IntegerMatrix(*oracles.matrix_fields(a, n)),
            IntegerMatrix(*oracles.matrix_fields(b, upper.cols)))


def test_clearing_keeps_factors_on_scrambled_chain_pairs():
    # The rows of d_{k+1} that d_k's elimination split off can be skipped,
    # also when a step of d_k splits nothing and recording has to stop,
    # and when the split comes from the peel (unscaled pairs).
    rng = random.Random(97)
    stopped = 0
    for k in _small_surfaces():
        mats = boundary_matrices(k)
        for lower, upper in zip(mats, mats[1:]):
            for scales in ((2, 3, 5),) * 10 + ((1,),) * 10:
                a, b = _scrambled_pair(rng, lower, upper, scales)
                split = set()
                rank = len(smith_normal_form(a, split=split))
                stopped += len(split) < rank
                assert smith_normal_form(b, skip=split) == smith_normal_form(b), (k, lower.rows)
    assert stopped >= 40, stopped


@st.composite
def small_matrices(draw):
    """Up to 4x4 integer matrices, half of them with no unit entry."""
    entry = draw(st.sampled_from([
        st.integers(-6, 6),
        st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]),
    ]))
    cols = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_snf_property_against_minors_and_sympy(rows):
    ours = smith_normal_form(IntegerMatrix(*oracles.matrix_fields(rows)))
    assert ours == tuple(oracles.invariant_factors_by_minors(rows))
    assert _sympy_factors(rows) in (None, ours)


def _sympy_factors(rows):
    """Invariant factors by sympy, the nonzero diagonal of its Smith form
    as it comes, or None when sympy is not installed."""
    try:
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    except ImportError:
        return None
    diag = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    return tuple(d for d in (abs(int(diag[i, i])) for i in range(min(diag.shape))) if d)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12), st.integers(-720, 720)),
                min_size=1, max_size=8))
def test_divisor_chain_is_the_smith_form_of_the_diagonal(values):
    """One exchange pass gives the invariant factors of diag(values)."""
    pytest.importorskip("sympy")
    rows = [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]
    assert divisor_chain(values) == _sympy_factors(rows)


def test_snf_agrees_with_sympy():
    pytest.importorskip("sympy")
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
        ours = smith_normal_form(IntegerMatrix(*oracles.matrix_fields(rows)))
        assert ours == _sympy_factors(rows), rows


def _uncollapsed(k):
    """(rank, torsion) in degrees 0..dim from k's own boundary maps, each
    eliminated whole: no collapse and no clearing."""
    factors = [smith_normal_form(m) for m in boundary_matrices(k)] + [()]
    fvec = k.f_vector()
    return [
        (fvec[d] - len(factors[d]) - len(factors[d + 1]), tuple(f for f in factors[d + 1] if f > 1))
        for d in range(k.dim + 1)
    ]


def _collapse_cases():
    """Every corpus generator, plus subdivisions, joins, cones and the
    one-facet shapes where every vertex dominates every other."""
    rng = random.Random(61)
    yield from (from_facets([[1, 2]]), simplex_complex(range(6)), point(), from_facets([["a"], ["b"]]))
    for _ in range(80):
        yield corpus.random_complex(rng, allow_empty=False)
    for a, b in corpus.milnor_pairs(rng, 12):
        yield from (k for k in (a, b, join(a, b, relabel_on_collision=True)) if not k.is_empty)
    for x, y in corpus.full_subcomplex_pairs(rng, 12):
        outside = [v for v in y.vertices() if v not in x.vertices()]
        yield from (k for k in (x, y) if not k.is_empty)
        for v in outside[:2]:
            vtau = adjacency_subcomplex(x, y, (v,))
            if not vtau.is_empty:
                yield vtau
    for config in corpus.random_configurations(rng, 4):
        k = global_complex(config)
        if not k.is_empty and len(k.vertices()) <= 12:
            yield k
    yield from (p.model_complex for p in catalog() if not p.model_complex.is_empty)
    yield from (cone_base_complex(n) for n in (1, 2, 3))
    for _ in range(12):
        k = corpus.random_complex(rng, max_vertices=5, max_facet_size=3, max_facets=4, allow_empty=False)
        yield barycentric_subdivision(k)
        yield cone(k, "apex")
        yield join(k, corpus.random_complex(rng, max_vertices=3, max_facet_size=2, allow_empty=False),
                   relabel_on_collision=True)
    yield barycentric_subdivision(from_facets(RP2))


def _assert_profile_matches_whole_maps_and_oracles(k):
    """reduced_homology(k), which collapses and clears, against
    _uncollapsed(k) and the field Betti numbers; returns the profile."""
    expected = _uncollapsed(k)
    prof = reduced_homology(k)
    assert [(prof.group(d).rank, prof.group(d).torsion) for d in range(k.dim + 1)] == expected, k
    facets = [list(f) for f in k.facet_list()]
    for d, (rank, torsion) in enumerate(expected):
        assert oracles.reduced_betti(facets, d) == rank, (k, d)
        below = expected[d - 1][1] if d else ()
        assert oracles.reduced_betti_mod_p(facets, d, 2) == rank + sum(
            t % 2 == 0 for t in torsion + below), (k, d)
    return prof


def test_strong_collapse_keeps_every_profile():
    reduced = kept = 0
    for k in _collapse_cases():
        core, _ = _collapse_core(k)
        if core is k:
            kept += 1
        else:
            reduced += 1
            assert core.facets and set(core.vertices()) < set(k.vertices()), k
        _assert_profile_matches_whole_maps_and_oracles(k)
    assert reduced >= 120 and kept >= 40, (reduced, kept)


def test_collapse_cores_have_no_dominated_vertex():
    # the core is minimal: every vertex w != v misses some facet holding v
    for k in _collapse_cases():
        core, _ = _collapse_core(k)
        facets = [set(f) for f in core.facet_list()]
        for v in core.vertices():
            holding = [f for f in facets if v in f]
            assert set.intersection(*holding) == {v}, (k, v)


def _product_is_zero(lower: IntegerMatrix, upper: IntegerMatrix) -> bool:
    """Whether lower · upper = 0, multiplied sparse."""
    for row in lower.entries:
        acc: dict[int, int] = {}
        for j, v in row:
            for c, w in upper.entries[j]:
                acc[c] = acc.get(c, 0) + v * w
        if any(acc.values()):
            return False
    return True


def test_boundary_assembly_is_a_chain_complex_of_the_right_shape():
    # rows and columns come in first-encounter order, so d_k · d_{k+1} = 0
    # holds only when each map's rows line up with the next map's columns
    for k in _collapse_cases():
        mats = boundary_matrices(k)
        facets = [list(f) for f in k.facet_list()]
        assert len(mats) == k.dim + 1, k
        for d, m in enumerate(mats):
            f_d = len(oracles.faces_of_dim(facets, d))
            assert m.cols == f_d and m.rows == (len(oracles.faces_of_dim(facets, d - 1)) if d else 1), (k, d)
            assert sum(map(len, m.entries)) == (d + 1) * f_d, (k, d)
        for lower, upper in zip(mats, mats[1:]):
            assert lower.cols == upper.rows
            assert _product_is_zero(lower, upper), k


def _relative_shape(k, apex):
    """Each dimension's count of faces of k outside the closed star of apex."""
    facets = [list(f) for f in k.facet_list()]
    star = [list(f) for f in oracles.star_sets(facets, (apex,))]
    faces = [len(f) for f in oracles.all_faces(facets)]
    in_star = [len(f) for f in oracles.all_faces(star)]
    return [faces.count(d + 1) - in_star.count(d + 1) for d in range(k.dim + 1)]


def _assert_relative_complex(k, apex):
    """boundary_matrices(k, apex) is a chain complex on the faces outside
    the closed star of apex, with no augmentation row; returns the maps."""
    mats = boundary_matrices(k, apex)
    assert [m.cols for m in mats] == _relative_shape(k, apex), (k, apex)
    assert mats[0].rows == 0, (k, apex)
    for lower, upper in zip(mats, mats[1:]):
        assert lower.cols == upper.rows and _product_is_zero(lower, upper), (k, apex)
    return mats


def test_relative_complex_leaves_out_the_closed_star():
    # with the apex that reduced_homology takes, on every core, and with
    # every vertex of the small complexes: a link face left in the rows
    # adds a row and, one degree down, a column; the empty face gives d_0
    # a row
    every = 0
    for k in _collapse_cases():
        core, apex = _collapse_core(k)
        _assert_relative_complex(core, apex)
        if len(k.vertices()) <= 7 and k.dim >= 1:
            every += 1
            for v in k.vertices():
                _assert_relative_complex(k, v)
    for facets in (RP2, TORUS):
        k = from_facets(facets)
        for v in k.vertices():
            _assert_relative_complex(k, v)
    assert every >= 30, every


def test_relative_complex_lists_the_link_past_empty_levels():
    # the boundary of the 4-simplex on 0..4 with a pendant edge {1, 5},
    # relative to the star of 0: the 3-face {1, 2, 3, 4} has only link
    # faces, so level 3 is empty, yet the edge still needs the link at
    # size 1 to leave out its vertex 1
    k = from_facets([*boundary_of_simplex(5).facets, (1, 5)])
    mats = _assert_relative_complex(k, 0)
    assert [m.entries for m in mats[:2]] == [(), (((0, 1),),)]
    # a cone point: no facet misses the apex, so no map has a column
    mats = _assert_relative_complex(simplex_complex(range(4)), 0)
    assert [(m.rows, m.cols) for m in mats] == [(0, 0)] * 4


def test_relative_assembly_stops_listing_the_link_with_the_cells():
    # the link of a vertex of the boundary of the simplex on n vertices is
    # the boundary of the simplex on n - 1: listing all of it for one cell
    # made n = 15 about 70 times slower than n = 9, where both assemble
    # one cell; a ratio of times in one process holds as the machine's
    # speed drifts
    def best(k):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            reduced_homology(k)
            times.append(time.perf_counter() - start)
        return min(times)

    large, small = boundary_of_simplex(15), boundary_of_simplex(9)
    ratio = best(large) / best(small)
    assert ratio < 8, ratio


def test_empty_complex_has_no_boundary_matrices():
    with pytest.raises(ValueError, match="empty complex has no boundary matrices"):
        boundary_matrices(empty_complex())


def _apex_and_cells(k):
    """The apex that reduced_homology(k) passes to boundary_matrices, and
    the relative cells of each degree."""
    import diskplex.homology as homology

    calls = []
    build = homology.boundary_matrices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "boundary_matrices",
                   lambda k, apex=None: calls.append((apex, build(k, apex))) or calls[-1][1])
        reduced_homology(k)
    (apex, mats), = calls
    return apex, [m.cols for m in mats]


def test_reduced_homology_takes_the_busiest_vertex_as_apex():
    # RP^2 joined with two points that sort first: an RP^2 vertex lies in
    # 10 facets with 7 link vertices, each suspension point in 10 with 6
    k = join(from_facets(RP2), from_facets([[-1], [0]]))
    assert _collapse_core(k) == (k, 1)
    assert _apex_and_cells(k) == (1, [0, 5, 15, 10])
    # a suspension point of sd(RP^2) lies in 60 of its 120 facets, any
    # other vertex in at most 20: the apex is one of the two
    k = join(barycentric_subdivision(from_facets(RP2)), from_facets([["n"], ["s"]]))
    assert _apex_and_cells(k) == ("n", [1, 31, 90, 60])
    # the boundary of a simplex leaves one cell, the facet opposite its apex
    assert _apex_and_cells(boundary_of_simplex(11)) == (0, [0] * 9 + [1])


def test_relative_complex_size_does_not_depend_on_the_labels():
    # a 4-cycle vertex and an RP^2 vertex of C4 * C4 * RP^2 both lie in 80
    # of its 160 facets, with 12 and 13 link vertices: as labelled (the
    # 4-cycles first) and shuffled, the apex is an RP^2 vertex, with 810
    # of the 2,591 faces; a 4-cycle vertex would leave 864
    c4 = [[0, 1], [1, 2], [2, 3], [3, 0]]
    k = join_all([from_facets(c4), from_facets([[v + 4 for v in e] for e in c4]),
                  from_facets([[v + 7 for v in f] for f in RP2])])
    assert len(k.all_faces()) == 2591
    rng = random.Random(5)
    for labels in [list(range(14))] + [rng.sample(range(100), 14) for _ in range(6)]:
        apex, cells = _apex_and_cells(from_facets([[labels[v] for v in f] for f in k.facet_list()]))
        assert labels.index(apex) >= 8 and sum(cells) == 810, (labels, apex)


def test_busiest_vertex_matches_the_set_oracle():
    # the apex that the collapse core reads off its facet index, against
    # counts and unions of vertex sets; the relabellings of C4 * C4 * RP^2
    # tie on facet count (80), and those of sd(RP^2) * S^0 tie on both keys
    # (the two suspension points), so the vertex order decides
    checked = 0
    for k in _collapse_cases():
        core, apex = _collapse_core(k)
        assert oracles.busiest_vertex(core.facet_list(), vertex_key) == apex, k
        checked += 1
    c4 = [[0, 1], [1, 2], [2, 3], [3, 0]]
    c4c4rp2 = join_all([from_facets(c4), from_facets([[v + 4 for v in e] for e in c4]),
                        from_facets([[v + 7 for v in f] for f in RP2])]).facet_list()
    sd_susp = join(barycentric_subdivision(from_facets(RP2)), from_facets([["n"], ["s"]])).facet_list()
    rng = random.Random(35)
    for facets in (c4c4rp2, sd_susp):
        verts = sorted({v for f in facets for v in f}, key=repr)
        for r in range(8):
            labels = rng.sample(range(1000), len(verts))
            if r % 2:
                labels = [f"v{x}" if x % 3 else ("t", x) for x in labels]
            mapping = dict(zip(verts, labels))
            relabelled = [[mapping[v] for v in f] for f in facets]
            apex = _collapse_core(from_facets(relabelled))[1]
            assert oracles.busiest_vertex(relabelled, vertex_key) == apex, (labels, apex)
            checked += 1
    assert checked >= 200, checked


ASSEMBLE_STRINGS = """
from diskplex.homology import boundary_matrices
from diskplex.simplicial import (adjacency_subcomplex, barycentric_subdivision, from_facets,
                                 full_subcomplex, link, star)
k = from_facets([["b", "a", "c"], ["c", "d"], ["a", "e", "d"], ["e", ("n", "x")]])
print([m.entries for m in boundary_matrices(barycentric_subdivision(k))])
t = from_facets([[("p", 1), ("q",), "r"], [("q",), "r", ("p", ("s", 0))], [("p", 1), "r", "b"],
                 ["b", ("q",)], ["z", ("p", 1)], [("q",), "r"]])
x = full_subcomplex(t, [("p", 1), ("p", ("s", 0)), "b", "z", "not a vertex"])
for c in (k, t, x, full_subcomplex(k, "acd"), link(k, ["a"]), star(k, ["e"]),
          link(t, ["r"]), star(t, [("q",)]), link(t, [("p", 1), "r"]),
          adjacency_subcomplex(x, t, ["r"]), adjacency_subcomplex(x, t, [("q",), "r"])):
    print(c.facet_list(), c.vertices())
"""


def test_assembly_does_not_depend_on_the_hash_seed():
    """Boundary maps, and the facets and vertices of every facet-set
    operation on string and tuple vertices, print the same under two
    hash seeds."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", ASSEMBLE_STRINGS], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1000


def test_homology_path_enumerates_no_face_tuples():
    for k in (from_facets(RP2), from_facets(TORUS), boundary_of_simplex(7)):
        assert _collapse_core(k)[0] is k
        reduced_homology(k)
        assert "faces" not in k._cache, k


facet_lists = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                       min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(facet_lists)
@example([[0, 1], [0, 2, 3], [3, 4], [4, 1, 2]])  # the link is needed below an empty level
def test_collapse_and_clearing_keep_every_profile(facets):
    _assert_profile_matches_whole_maps_and_oracles(from_facets(facets))


def _graph_with_hanging_triangles(seed):
    """Facets of a seeded random graph with filled triangles hung off it,
    each by one of its vertices or by a new edge: 2-dimensional, and its
    strong-collapse core is a graph."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    facets = [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(1, 10))]
    facets = [sorted(set(f)) for f in facets]
    fresh = n
    for _ in range(rng.randint(1, 3)):
        anchor = rng.randrange(n)
        if rng.random() < 0.5:
            facets.append([anchor, fresh])
            anchor, fresh = fresh, fresh + 1
        facets.append([anchor, fresh, fresh + 1])
        fresh += 2
    return facets


graphs = st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True),
                  min_size=1, max_size=14)
cones = facet_lists.map(lambda facets: [f + [99] for f in facets])


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs, cones, st.integers(0, 2 ** 32).map(_graph_with_hanging_triangles)))
def test_cones_and_graph_cores_are_answered_without_matrices(facets):
    # both shortcuts against the whole maps and the oracles; a cone must not
    # reach the collapse, nor a graph, and no shortcut may build a matrix
    import diskplex.homology as homology

    def refuse(k):
        raise AssertionError(f"boundary matrices built for {k}")

    k = from_facets(facets)
    collapsed = []
    collapse = homology._collapse_core
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "boundary_matrices", refuse)
        mp.setattr(homology, "_collapse_core", lambda k: collapsed.append(k) or collapse(k))
        prof = _assert_profile_matches_whole_maps_and_oracles(k)
    is_cone = bool(reduce(and_, k._masks()))
    assert is_cone or k.dim <= 1 or _collapse_core(k)[0].dim <= 1, k
    if is_cone or k.dim <= 1:
        assert not collapsed, k
    assert prof.group(0).rank == oracles.component_count(facets) - 1
    assert prof.group(1).rank == oracles.reduced_betti(facets, 1)


def test_matrices_are_built_only_for_cores_of_dimension_two_or_more(monkeypatch):
    # a lost shortcut still answers right, only slower: this is its guard
    import diskplex.homology as homology
    from diskplex.suite import RunConfig, run_suite

    built = []
    build = homology.boundary_matrices
    monkeypatch.setattr(homology, "boundary_matrices", lambda k, apex=None: built.append(k) or build(k, apex))
    run_suite(RunConfig(seed=1036, counts=4))
    assert built
    for k in built:
        assert _collapse_core(k)[0] is k, k
        assert not reduce(and_, k._masks()), k
        assert k.dim >= 2, k


def test_each_smith_chain_is_normalised_once(monkeypatch):
    # smith_normal_form returns a divisor chain, and reduced_homology keeps
    # its non-unit factors as they are: one divisor_chain call per Smith form
    import diskplex.homology as homology

    calls = {"divisor_chain": 0, "smith_normal_form": 0}

    def counted(name):
        fn = getattr(homology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(homology, name, wrapper)

    counted("divisor_chain")
    counted("smith_normal_form")
    rp2, torus = from_facets(RP2), from_facets(TORUS)
    assert reduced_homology(rp2).render_lines() == ["H~0 = 0", "H~1 = Z/2"]
    assert reduced_homology(join(rp2, torus, relabel_on_collision=True)).groups[4] == AbelianGroup(0, (2,))
    assert calls["smith_normal_form"] >= 5
    assert calls["divisor_chain"] == calls["smith_normal_form"]


def test_graphs_are_answered_over_the_face_budget():
    # the complete graph on 420 vertices may have 263970 faces, over the
    # budget that guards only the matrix route
    k = from_facets(itertools.combinations(range(420), 2))

    def expire(signum, frame):
        raise TimeoutError("the graph path did not finish within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        assert reduced_homology(k).render_lines() == ["H~0 = 0", "H~1 = Z^87571"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert "faces" not in k._cache


def test_core_and_face_budget_on_simplices_and_their_boundaries():
    # a simplex collapses to one vertex, however large
    for n in (1, 2, 12, 40):
        core, _ = _collapse_core(simplex_complex(range(n)))
        assert len(core.facets) == 1 and len(core.vertices()) == 1
    assert homology_index(simplex_complex(range(40))) == ACYCLIC_INDEX
    # the boundary of a simplex has no dominated vertex: 2^n - 2 faces
    sphere = boundary_of_simplex(6)
    assert _collapse_core(sphere)[0] is sphere
    with pytest.raises(ValueError, match=r"\b46137322\b.*\b262144\b"):
        reduced_homology(boundary_of_simplex(22))


def test_boundaries_of_simplices_are_peeled_whole(monkeypatch):
    # with clearing, every pivot of a sphere's whole boundary maps is a ±1
    # alone in its column at some point of the peel, so the loop takes no
    # step; a peel that stopped early would hand the rest to the loop,
    # whose fill-in makes large spheres take minutes.  reduced_homology
    # itself eliminates one cell, the facet opposite its apex
    import diskplex.homology as homology

    steps = []
    pivot_step = homology._pivot_step

    def counting(*args):
        steps.append(args[2:])
        return pivot_step(*args)

    monkeypatch.setattr(homology, "_pivot_step", counting)
    rng = random.Random(17)
    spheres = [boundary_of_simplex(m) for m in (4, 8, 11)]
    for m in (4, 8, 11):
        labels = rng.sample(range(100), m)
        spheres.append(from_facets([[str(labels[v]) for v in f] for f in boundary_of_simplex(m).facets]))
    # a peel that never lowers a count re-pops its column for ever; all
    # six spheres take well under a second
    def expire(signum, frame):
        raise TimeoutError("the peel did not finish within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for k in spheres:
            m = len(k.vertices())
            assert reduced_homology(k).render_lines()[-1] == f"H~{m - 2} = Z"
            assert _apex_and_cells(k)[1] == [0] * (m - 2) + [1]
            mats, split, ranks = boundary_matrices(k), set(), []
            for mat in mats:
                skip, split = split, set()
                ranks.append(len(smith_normal_form(mat, skip=skip, split=split)))
            assert mats[-1].cols - ranks[-1] == 1, m  # H~(m-2) = Z
            assert steps == [], (m, len(steps))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_long_paths_and_trees_collapse_to_a_point_at_once():
    # each deletion frees only the next leaf, so a pass that rescanned
    # every facet per layer would be quadratic here
    rng = random.Random(83)
    path = from_facets([[i, i + 1] for i in range(4000)])
    tree = from_facets([[i, rng.randrange(i)] for i in range(1, 3000)])
    start = time.perf_counter()
    cores = [_collapse_core(k)[0] for k in (path, tree)]
    assert time.perf_counter() - start < 2.0
    for k, core in zip((path, tree), cores):
        assert len(core.facets) == 1 and len(core.vertices()) == 1
        assert reduced_homology(k).is_acyclic


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
    with pytest.raises(ValueError, match="need at least 2 vertices for a boundary sphere"):
        boundary_of_simplex(1)
    for k in range(0, 5):
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
                t_here = oracles.torsion_count_divisible_by(g, p)
                t_below = oracles.torsion_count_divisible_by(prof.group(d - 1), p) if d else 0
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
