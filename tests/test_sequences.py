import itertools

import pytest

from ultrafraisse.sequences import (
    InverseSequence,
    SequenceArrow,
    apply_sequence_arrow,
    check_coherent,
    is_thread_of,
)
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, identity

from oracles import limit_threads


def space(name, *points):
    return FiniteSpace(id=name, points=points)


def seq_125():
    a = space("a", "a0")
    b = space("b", "b0", "b1")
    c = space("c", "c0", "c1", "c2", "c3", "c4")
    s0 = Surjection(b, a, {"b0": "a0", "b1": "a0"})
    s1 = Surjection(c, b, {"c0": "b0", "c1": "b1", "c2": "b1", "c3": "b1", "c4": "b0"})
    return InverseSequence((a, b, c), (s0, s1))


def binary_seq(depth):
    spaces = [space(f"s{a}", *[format(i, f"0{a}b") if a else "" for i in range(2**a)]) for a in range(depth + 1)]
    steps = tuple(
        Surjection(spaces[a + 1], spaces[a], {p: p[:-1] for p in spaces[a + 1].points})
        for a in range(depth)
    )
    return InverseSequence(tuple(spaces), steps)


def test_wiring_is_validated():
    a, b = space("a", "a0"), space("b", "b0")
    step = Surjection(b, a, {"b0": "a0"})
    with pytest.raises(ValueError):
        InverseSequence((a, b), ())
    with pytest.raises(ValueError):
        InverseSequence((b, a), (step,))


def test_single_step_sequence_is_coherent():
    a, b = space("a", "a0"), space("b", "b0", "b1")
    seq = InverseSequence((a, b), (Surjection(b, a, {"b0": "a0", "b1": "a0"}),))
    assert check_coherent(seq).ok


def test_non_surjective_step_is_reported():
    a, b = space("a", "a0", "a1"), space("b", "b0", "b1")
    seq = InverseSequence((a, b), (PointMap(b, a, {"b0": "a0", "b1": "a0"}),))
    report = check_coherent(seq)
    assert not report.ok
    assert "step 0" in report.issues[0] and "a1" in report.issues[0]


def test_composed_four_level_sequence_is_coherent():
    seq = binary_seq(4)
    report = check_coherent(seq)
    assert report.ok
    for a in range(5):
        for b in range(a, 5):
            for c in range(b, 5):
                lhs = seq.bonding(a, c)
                rhs = {p: seq.bonding(a, b)(seq.bonding(b, c)(p)) for p in seq.spaces[c].points}
                assert lhs.mapping == rhs


def test_limit_threads_singleton_sequence():
    a = space("a", "a0", "a1", "a2")
    seq = InverseSequence((a,), ())
    threads = limit_threads(seq)
    assert threads == [("a0",), ("a1",), ("a2",)]


def test_limit_threads_binary_depth3():
    threads = limit_threads(binary_seq(3))
    assert len(threads) == 8


def _enumerate_compatible(seq):
    return [
        tup
        for tup in itertools.product(*[sp.points for sp in seq.spaces])
        if all(seq.steps[a](tup[a + 1]) == tup[a] for a in range(seq.length))
    ]


def test_limit_threads_fixture_125_matches_enumeration():
    seq = seq_125()
    threads = limit_threads(seq)
    assert len(threads) == 5
    assert {t[1] for t in threads} == {"b0", "b1"}
    # closure: exactly the compatible tuples, no duplicates, none missing
    assert sorted(threads) == sorted(_enumerate_compatible(seq))
    assert len(set(threads)) == len(threads)


def test_limit_threads_closure_on_binary_sequence():
    seq = binary_seq(3)
    threads = limit_threads(seq)
    assert sorted(threads) == sorted(_enumerate_compatible(seq))


def test_incoherent_sequence_rejected_by_limit():
    a, b = space("a", "a0", "a1"), space("b", "b0")
    seq = InverseSequence((a, b), (PointMap(b, a, {"b0": "a0"}),))
    with pytest.raises(ValueError, match="incoherent"):
        limit_threads(seq)


def test_identity_arrow_preserves_threads():
    seq = binary_seq(3)
    arrow = SequenceArrow(
        src=seq,
        dst=seq,
        reindex=tuple(range(4)),
        maps=tuple(identity(sp) for sp in seq.spaces),
    )
    for t in limit_threads(seq):
        assert apply_sequence_arrow(arrow, t) == t


def test_truncation_arrow_gives_prefix():
    src = binary_seq(3)
    dst = InverseSequence(src.spaces[:3], src.steps[:2])
    arrow = SequenceArrow(
        src=src,
        dst=dst,
        reindex=(0, 1, 2),
        maps=tuple(identity(sp) for sp in dst.spaces),
    )
    for t in limit_threads(src):
        assert apply_sequence_arrow(arrow, t) == t[:3]


def test_gapped_arrow_is_natural_and_applies():
    src = binary_seq(4)
    dst = InverseSequence((src.spaces[0], src.spaces[2]), (src.bonding(0, 2),))
    arrow = SequenceArrow(
        src=src,
        dst=dst,
        reindex=(0, 2),
        maps=(identity(src.spaces[0]), identity(src.spaces[2])),
    )
    for t in limit_threads(src):
        out = apply_sequence_arrow(arrow, t)
        assert is_thread_of(out, dst)
        assert out == (t[0], t[2])


def test_naturality_is_enforced():
    src = binary_seq(2)
    twisted = Surjection(src.spaces[1], src.spaces[1], {"0": "1", "1": "0"})
    with pytest.raises(ValueError, match="naturality"):
        SequenceArrow(
            src=src,
            dst=src,
            reindex=(0, 1, 2),
            maps=(identity(src.spaces[0]), twisted, identity(src.spaces[2])),
        )


def test_reindex_must_be_nondecreasing():
    src = binary_seq(2)
    dst = InverseSequence((src.spaces[0],), ())
    SequenceArrow(src=src, dst=dst, reindex=(0,), maps=(identity(src.spaces[0]),))
    with pytest.raises(ValueError, match="nondecreasing"):
        SequenceArrow(
            src=src,
            dst=InverseSequence((src.spaces[1], src.spaces[1]), (identity(src.spaces[1]),)),
            reindex=(1, 0),
            maps=(identity(src.spaces[1]), identity(src.spaces[1])),
        )


def test_thread_validity_check():
    seq = seq_125()
    good = limit_threads(seq)[0]
    assert is_thread_of(good, seq)
    assert not is_thread_of(("a0", "b0", "c1"), seq)
    assert not is_thread_of(("a0", "b0"), seq)


def test_random_natural_arrows_preserve_threads():
    # random arrows built from reindex gaps: dst levels are a random
    # nondecreasing selection of src levels with the induced bondings
    import random

    src = binary_seq(4)
    rng = random.Random(17)
    for _ in range(20):
        picks = sorted(rng.sample(range(5), rng.randint(1, 5)))
        dst = InverseSequence(
            tuple(src.spaces[i] for i in picks),
            tuple(src.bonding(picks[j], picks[j + 1]) for j in range(len(picks) - 1)),
        )
        arrow = SequenceArrow(
            src=src,
            dst=dst,
            reindex=tuple(picks),
            maps=tuple(identity(src.spaces[i]) for i in picks),
        )
        for t in limit_threads(src):
            out = apply_sequence_arrow(arrow, t)
            assert is_thread_of(out, dst)
            # application commutes with projection
            for a in range(len(picks)):
                assert out[a] == arrow.maps[a](t[arrow.reindex[a]])
