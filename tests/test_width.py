import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from diskplex.width import (
    DecreaseVerdict,
    MoveKind,
    Ordering,
    SurfaceComponentModel,
    SurgeryMove,
    Width,
    apply_surgery,
    available_moves,
    compare_width,
    verify_width_decrease,
    width,
)
from diskplex import corpus

# the package's ``width`` attribute is the function, not the module
width_module = importlib.import_module("diskplex.width")


def comp(e, w):
    return SurfaceComponentModel(euler=e, weight=w)


def test_width_pairs_sorted_non_increasing():
    s = (comp(1, 4), comp(-2, 8), comp(0, 3))
    assert width(s).pairs == ((2, 8), (0, 3), (-1, 4))
    assert width(()).pairs == ((0, 0),)


def test_compare_width_lex_and_prefix():
    a = Width(((2, 8), (0, 3)))
    b = Width(((2, 8), (0, 2)))
    assert compare_width(a, b) == Ordering.GREATER
    assert compare_width(b, a) == Ordering.LESS
    assert compare_width(a, a) == Ordering.EQUAL
    # a strict prefix is smaller
    c = Width(((2, 8),))
    assert compare_width(c, a) == Ordering.LESS
    d = Width(((3, 0),))
    assert compare_width(d, a) == Ordering.GREATER
    # pairs given in any order are sorted, so a multiset has one Width
    unsorted = Width(((0, 1), (5, 0)))
    assert unsorted == Width(((5, 0), (0, 1))) and unsorted.pairs == ((5, 0), (0, 1))
    assert compare_width(unsorted, Width(((5, 0),))) == Ordering.GREATER


def test_compare_width_reads_pairs_in_any_order():
    """``compare_width`` of Widths built from shuffled pairs agrees with
    ``width()`` of the same components."""
    rng = random.Random(30)
    outcomes = set()
    for _ in range(500):
        a, b = ([comp(rng.randint(-2, 1), rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
                for _ in range(2))
        shuffled = [Width(rng.sample([c.width_pair for c in s], len(s))) for s in (a, b)]
        assert shuffled == [width(a), width(b)], (a, b)
        outcome = compare_width(*shuffled)
        assert outcome == compare_width(width(a), width(b)), (a, b)
        outcomes.add(outcome)
    assert outcomes == set(Ordering)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        comp(0, -1)


def test_nonsep_compression():
    s = (comp(-2, 5),)
    out = apply_surgery(s, SurgeryMove(MoveKind.HONEST_COMPRESS_NONSEP, 0))
    assert out == (comp(0, 5),)


def test_boundary_compression():
    s = (comp(-1, 5),)
    out = apply_surgery(s, SurgeryMove(MoveKind.HONEST_BOUNDARY_COMPRESS, 0))
    assert out == (comp(0, 5),)


def test_sep_compression_splits():
    s = (comp(-2, 6),)
    mv = SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0, split=((0, 2), (0, 4)))
    out = apply_surgery(s, mv)
    assert sorted((c.euler, c.weight) for c in out) == [(0, 2), (0, 4)]
    # euler sum must be chi + 1 or chi + 2
    with pytest.raises(ValueError):
        apply_surgery(s, SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0, split=((1, 2), (2, 4))))
    # weights must sum to the original
    with pytest.raises(ValueError):
        apply_surgery(s, SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0, split=((0, 1), (0, 1))))
    # each side must strictly drop -euler
    with pytest.raises(ValueError):
        apply_surgery(s, SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0, split=((-2, 3), (2, 3))))


def test_decrease_verdict_renders_its_lines():
    # demo 05 prints these lines, but only in a subprocess; a verdict that
    # keeps the width is built by hand, as no valid move makes one
    surface = (comp(-2, 10), comp(0, 4))
    verdict = verify_width_decrease(surface, SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0, split=((0, 6), (0, 4))))
    assert verdict.render_lines() == [
        "move:   HONEST_COMPRESS_SEP@0 split=((0, 6), (0, 4))",
        "before: {(2, 10), (0, 4)}",
        "after:  {(0, 6), (0, 4), (0, 4)}",
        "verdict: strict decrease",
    ]
    kept = DecreaseVerdict(False, width(surface), width(surface), SurgeryMove(MoveKind.DISHONEST, 1, k=3))
    assert kept.render_lines() == [
        "move:   DISHONEST@1 k=3",
        "before: {(2, 10), (0, 4)}",
        "after:  {(2, 10), (0, 4)}",
        "verdict: NO DECREASE",
    ]


def test_dishonest_weight_drop_and_sphere_discard():
    s = (comp(1, 4), comp(0, 9))
    out = apply_surgery(s, SurgeryMove(MoveKind.DISHONEST, 1, k=3))
    assert out == (comp(1, 4), comp(0, 6))
    with pytest.raises(ValueError):
        apply_surgery(s, SurgeryMove(MoveKind.DISHONEST, 1, k=10))
    # the pushed-off sphere is discarded; the component itself survives
    s2 = (comp(2, 3),)
    out2 = apply_surgery(s2, SurgeryMove(MoveKind.DISHONEST, 0, k=3))
    assert out2 == (comp(2, 0),)
    assert width(out2).pairs == ((-2, 0),)


def test_apply_surgery_refuses_incomplete_moves():
    s = (comp(-2, 6),)
    with pytest.raises(ValueError, match=r"^separating compression needs a declared split$"):
        apply_surgery(s, SurgeryMove(MoveKind.HONEST_COMPRESS_SEP, 0))
    for k in (None, 0, -1):
        with pytest.raises(ValueError, match=r"^dishonest move needs k >= 1$"):
            apply_surgery(s, SurgeryMove(MoveKind.DISHONEST, 0, k=k))
    with pytest.raises(ValueError, match=r"^unknown move kind 'FLIP'$"):
        apply_surgery(s, SurgeryMove("FLIP", 0))


def test_compressions_require_nonpositive_euler():
    s = (comp(1, 3),)
    kinds = {m.kind for m in available_moves(s)}
    assert kinds == {MoveKind.DISHONEST}
    s2 = (comp(0, 3),)
    kinds2 = {m.kind for m in available_moves(s2)}
    assert MoveKind.HONEST_COMPRESS_NONSEP in kinds2
    assert MoveKind.HONEST_BOUNDARY_COMPRESS in kinds2


def test_every_available_move_strictly_decreases():
    rng = random.Random(99)
    for _ in range(150):
        s = corpus.random_surface(rng)
        for mv in available_moves(s):
            verdict = verify_width_decrease(s, mv)
            assert verdict.passed, (s, mv.describe(), verdict.before, verdict.after)


def test_walks_terminate():
    rng = random.Random(123)
    for _ in range(50):
        s = corpus.random_surface(rng)
        steps = 0
        while True:
            ms = available_moves(s)
            if not ms:
                break
            s = apply_surgery(s, rng.choice(ms))
            steps += 1
            assert steps < 5000
        # nothing left to cut: all components are positive-euler
        # weight-0 survivors
        assert all(c.euler > 0 and c.weight == 0 for c in s)


def test_move_target_bounds():
    s = (comp(0, 3),)
    with pytest.raises(ValueError):
        apply_surgery(s, SurgeryMove(MoveKind.DISHONEST, 5, k=1))


def _plain(move):
    return None if move is None else (move.kind.value, move.target, move.split, move.k)


def test_move_table_and_rng_stream_match_reference():
    rng = random.Random(4)
    fixed = [(), (comp(1, 0),), (comp(2, 0), comp(3, 0)), (comp(3, 4),), (comp(0, 0),),
             (comp(-1, 0), comp(3, 2)), (comp(-3, 5), comp(1, 0), comp(0, 1)),
             # moves only after, between or before components with none
             (comp(1, 0), comp(2, 0), comp(-2, 1)), (comp(1, 0), comp(0, 2), comp(3, 0)),
             (comp(2, 3), comp(1, 0), comp(2, 0))]
    surfaces = fixed + [corpus.random_surface(rng) for _ in range(400)]
    draws, ref_draws = random.Random(8), random.Random(8)
    for s in surfaces:
        ref = oracles.surgery_moves([(c.euler, c.weight) for c in s])
        assert [_plain(m) for m in available_moves(s)] == ref
        for _ in range(3):
            want = ref[ref_draws.randrange(len(ref))] if ref else None
            assert _plain(corpus.random_move(draws, s)) == want
            # no draw at all when there is no move
            assert draws.getstate() == ref_draws.getstate()


def test_random_move_builds_only_the_drawn_move(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return SurgeryMove(*args, **kwargs)

    monkeypatch.setattr(width_module, "SurgeryMove", counting)
    rng = random.Random(5)
    for _ in range(200):
        before = len(built)
        move = corpus.random_move(rng, corpus.random_surface(rng))
        assert len(built) - before == (move is not None)


@settings(deadline=None)
@given(euler=st.integers(-200, 2), weight=st.integers(0, 30))
def test_move_count_and_decoder_match_enumeration(euler, weight):
    # wider than random_surface's euler range -10..2
    c = comp(euler, weight)
    ref = oracles.surgery_moves([(euler, weight)])
    assert c._moves == len(ref)
    assert [_plain(m) for m in available_moves((c,))] == ref
