import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse import engine
from ultrafraisse.engine import (
    PaddingSchedule,
    build_fraisse,
    dominate_arrow,
    make_padded_object,
    pad_routes,
    split_task,
    verify_fraisse,
)
from ultrafraisse.errors import DepthError
from ultrafraisse.sequences import InverseSequence, SlicedSequence, check_coherent
from ultrafraisse.slices import SliceArrow, SliceObject
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, compose

import oracles
from oracles import dominating_arrow, identity_arrow, leafset, point_value, random_tree


def test_padding_schedule_default_doubles():
    s = PaddingSchedule()
    assert [s.pad(g) for g in range(4)] == [2, 4, 8, 16]
    assert s.min_index_for(5) == 2
    with pytest.raises(ValueError):
        PaddingSchedule(base=1)
    with pytest.raises(ValueError):
        PaddingSchedule(growth=1)


def test_padded_object_counts(tree_k4, schedule):
    p00 = make_padded_object(tree_k4, 0, 0, schedule)
    assert len(p00.object.target) == 1 + 2
    p11 = make_padded_object(tree_k4, 1, 1, schedule)
    assert len(p11.object.target) == 2 + 4
    assert p11.object.target.points == ("0", "1", "p0", "p1", "p2", "p3")


def test_padded_object_preimage_law(tree_k4, schedule):
    p = make_padded_object(tree_k4, 1, 1, schedule)
    table = {x: point_value(p.object, x) for x in p.object.base.points}
    for label in tree_k4.levels[1].points:
        assert {x for x, v in table.items() if v == label} == leafset(tree_k4, 1, label)
    # pads are unreached
    assert not set(table.values()) & set(p.pad_labels)


def test_splitter_round_robin(tree_k4, schedule):
    # two balls and two pads below: the four points take turns, ball before pad
    low = make_padded_object(tree_k4, 1, 0, schedule)
    targets = ["0", "p0", "1", "p1"]
    # pad sizes 2 -> 4: each fiber a singleton
    assert pad_routes(4, low) == targets
    # pad sizes 2 -> 8: each of the four targets has fiber size two
    routes = pad_routes(8, low)
    assert all(routes.count(y) == 2 for y in targets)
    # odd positions keep a lower pad, even positions go to a ball
    assert routes[1::2] == ["p0", "p1"] * 2 and routes[0::2] == ["0", "1"] * 2


def test_splitter_same_index_is_tagged_identity(tree_k4, schedule):
    pads = make_padded_object(tree_k4, 2, 0, schedule).pad_labels
    for alpha in (0, 2):  # two pads cannot cover the four level-2 balls, nor need to
        arrow = dominating_arrow(tree_k4, (alpha, 0), (2, 0), schedule)
        assert all(arrow.q(x) == x for x in pads)


def test_ball_cover(tree_k4, schedule):
    one = pad_routes(2 * 2, make_padded_object(tree_k4, 0, 0, schedule))
    assert set(one[0::2]) == {""}
    two = pad_routes(2 * 4, make_padded_object(tree_k4, 1, 1, schedule))
    assert [two[0::2].count(b) for b in tree_k4.levels[1].points] == [2, 2]
    low = make_padded_object(tree_k4, 2, 0, schedule)
    with pytest.raises(DepthError, match="cover"):
        pad_routes(4, low)  # 2 pads cannot cover 4 balls
    with pytest.raises(DepthError, match="cover"):
        dominating_arrow(tree_k4, (2, 0), (2, 1), schedule)


def test_dominate_arrow_refuses_pads_that_cannot_cover_balls(tree_k4, schedule):
    # no candidate block would ever reach every ball, so none is tried
    padded = make_padded_object(tree_k4, 2, 0, schedule)
    with pytest.raises(DepthError, match="cover"):
        dominate_arrow(identity_arrow(padded.object), padded, schedule)


def test_padded_objects_share_pad_labels(tree_k4, tree_b3, schedule):
    small = make_padded_object(tree_k4, 0, 1, schedule).pad_labels
    large = make_padded_object(tree_b3, 3, 3, schedule).pad_labels
    assert large[: len(small)] == small
    assert all(x is y for x, y in zip(small, large))


def test_pad_labels_survive_racing_growth(monkeypatch):
    # every thread grows the shared table from empty; growth that extended
    # it in place could duplicate or reorder labels under a race
    monkeypatch.setattr(engine, "_pad_table", ())
    counts = [2 * 3**k for k in range(8)]
    wrong = []

    def grow(offset):
        for count in counts[offset:] + counts[:offset]:
            if engine._pad_labels(count) != tuple(f"p{i}" for i in range(count)):
                wrong.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_dominating_arrow_identity(tree_k4, schedule):
    arrow = dominating_arrow(tree_k4, (1, 1), (1, 1), schedule)
    assert all(arrow.q(x) == x for x in arrow.src.target.points)


def test_dominating_arrow_k4_step(tree_k4, schedule):
    arrow = dominating_arrow(tree_k4, (0, 0), (1, 1), schedule)
    # both level-1 balls land on the root ball
    assert arrow.q("0") == "" and arrow.q("1") == ""
    pads = [x for x in arrow.src.target.points if x.startswith("p")]
    to_pads = [x for x in pads if arrow.q(x).startswith("p")]
    to_root = [x for x in pads if arrow.q(x) == ""]
    assert len(to_pads) == 2 and len(to_root) == 2
    assert arrow.q.is_surjective()
    # triangle over the base
    for leaf in tree_k4.points:
        assert arrow.q(point_value(arrow.src, leaf)) == point_value(arrow.dst, leaf)


@pytest.mark.parametrize("low_level,low_pad", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("bump_level,bump_pad", [(0, 1), (1, 1), (0, 2), (2, 2)])
def test_dominating_arrows_surjective_with_exact_triangle(
    tree_k4, schedule, low_level, low_pad, bump_level, bump_pad
):
    high = (min(low_level + bump_level, tree_k4.depth), low_pad + bump_pad)
    arrow = dominating_arrow(tree_k4, (low_level, low_pad), high, schedule)
    assert arrow.q.is_surjective()
    for leaf in tree_k4.points:
        assert arrow.q(point_value(arrow.src, leaf)) == point_value(arrow.dst, leaf)


def test_dominating_arrow_composites_stay_in_category(tree_k4, schedule):
    hi = dominating_arrow(tree_k4, (1, 1), (2, 2), schedule)
    lo = dominating_arrow(tree_k4, (0, 0), (1, 1), schedule)
    composite = compose(lo.q, hi.q)
    # a valid arrow between the endpoints, though not the canonical one
    SliceArrow(hi.src, lo.dst, composite)


def test_dominate_arrow_identity_absorbs(tree_k4, schedule):
    dst = make_padded_object(tree_k4, 1, 1, schedule)
    padded, g = dominate_arrow(identity_arrow(dst.object), dst, schedule)
    assert (padded.ball_level, padded.pad_index) == (2, 2)
    canonical = dominating_arrow(tree_k4, (1, 1), (2, 2), schedule)
    assert g.q == canonical.q


def test_arrows_into_padded_objects_need_unreached_points(tree_k4, schedule):
    # the image lands in the ball part, so the pads need preimages outside it;
    # a source without unreached points admits no arrow into a padded object
    dst = make_padded_object(tree_k4, 0, 0, schedule)
    target = FiniteSpace("y", ("y0", "y1"))
    h = SliceObject(
        base=tree_k4,
        level=1,
        target=target,
        quotient_map=PointMap(tree_k4.levels[1], target, {"0": "y0", "1": "y1"}),
    )
    with pytest.raises(ValueError, match="misses"):
        Surjection(h.target, dst.object.target, {"y0": "", "y1": ""})
    # routing part of the image over a pad breaks commutation instead
    wide = FiniteSpace("y3", ("y0", "y1", "a0"))
    h2 = SliceObject(
        base=tree_k4,
        level=1,
        target=wide,
        quotient_map=PointMap(tree_k4.levels[1], wide, {"0": "y0", "1": "y1"}),
    )
    with pytest.raises(ValueError, match="commute"):
        SliceArrow(
            h2, dst.object, Surjection(wide, dst.object.target, {"y0": "", "y1": "p0", "a0": "p1"})
        )


def test_dominate_arrow_splits_fibers_between_image_and_rest(tree_k4, schedule):
    dst = make_padded_object(tree_k4, 0, 0, schedule)
    wide = FiniteSpace("y", ("y0", "y1", "a0", "a1", "a2"))
    h = SliceObject(
        base=tree_k4,
        level=1,
        target=wide,
        quotient_map=PointMap(tree_k4.levels[1], wide, {"0": "y0", "1": "y1"}),
    )
    # a2 shares the ball fiber with the image; a0, a1 cover the pads
    q = Surjection(
        wide, dst.object.target, {"y0": "", "y1": "", "a2": "", "a0": "p0", "a1": "p1"}
    )
    arrow = SliceArrow(h, dst.object, q)
    padded, g = dominate_arrow(arrow, dst, schedule)
    canonical = dominating_arrow(tree_k4, (0, 0), (padded.ball_level, padded.pad_index), schedule)
    assert compose(arrow.q, g.q) == canonical.q
    for leaf in tree_k4.points:
        assert g.q(point_value(padded.object, leaf)) == point_value(h, leaf)
    assert g.q.is_surjective()


def test_dominate_arrow_with_image_only_ball_fibers(tree_k4, schedule):
    # every ball fiber consists of reached points; unreached points sit over pads
    dst = make_padded_object(tree_k4, 0, 0, schedule)
    wide = FiniteSpace("y", ("y0", "y1", "a0", "a1"))
    h = SliceObject(
        base=tree_k4,
        level=1,
        target=wide,
        quotient_map=PointMap(tree_k4.levels[1], wide, {"0": "y0", "1": "y1"}),
    )
    q = Surjection(wide, dst.object.target, {"y0": "", "y1": "", "a0": "p0", "a1": "p1"})
    arrow = SliceArrow(h, dst.object, q)
    padded, g = dominate_arrow(arrow, dst, schedule)
    assert compose(arrow.q, g.q) == dominating_arrow(
        tree_k4, (0, 0), (padded.ball_level, padded.pad_index), schedule
    ).q
    assert g.q.is_surjective()
    # the split-pad fibers map only into the reached part of the ball fiber
    tag0 = [x for x in padded.pad_labels if g.q(x) in ("y0", "y1")]
    assert tag0 and all(g.q(x) in ("y0", "y1") for x in tag0)


def test_build_pure_spine(tree_k4, schedule):
    build = build_fraisse(tree_k4, 3, schedule)
    assert [len(sp) for sp in build.sequence.seq.spaces] == [3, 6, 12, 20]
    assert [(p.ball_level, p.pad_index) for p in build.padded] == [(0, 0), (1, 1), (2, 2), (2, 3)]
    assert check_coherent(build.sequence.seq).ok
    # each step is the canonical surjection between consecutive padded objects
    for t in range(3):
        canonical = dominating_arrow(
            tree_k4,
            (build.padded[t].ball_level, build.padded[t].pad_index),
            (build.padded[t + 1].ball_level, build.padded[t + 1].pad_index),
            schedule,
        )
        assert build.sequence.seq.steps[t] == canonical.q


def test_build_pad_split_task(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, ((1, "p0"),))
    tag = "split:1:p0"
    witness = build.witnesses[tag]
    task = dict(build.tasks)[tag]
    bond = build.sequence.seq.bonding(task.stage, witness.beta)
    assert compose(task.arrow.q, witness.mapping) == bond
    assert witness.mapping.is_surjective()
    # the pad block grew to absorb the doubled fiber
    assert build.padded[2].pad_index > 2


def test_build_ball_split_task(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, ((1, "0"),))
    witness = build.witnesses["split:1:0"]
    task = dict(build.tasks)[witness.tag]
    assert compose(task.arrow.q, witness.mapping) == build.sequence.seq.bonding(1, witness.beta)


def test_build_reports_unserviceable_schedule(tree_k4, schedule):
    with pytest.raises(DepthError, match="unserviced"):
        build_fraisse(tree_k4, 2, schedule, ((2, "p0"),))


def test_build_is_deterministic(tree_k4, schedule):
    sched = ((1, "p0"), (0, "p1"))
    b1 = build_fraisse(tree_k4, 4, schedule, sched)
    b2 = build_fraisse(tree_k4, 4, schedule, sched)
    assert b1.sequence == b2.sequence
    assert b1.log == b2.log
    assert {t: w.mapping.mapping for t, w in b1.witnesses.items()} == {
        t: w.mapping.mapping for t, w in b2.witnesses.items()
    }


def test_build_growth_is_monotone(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, ((1, "p0"),))
    sizes = [len(sp) for sp in build.sequence.seq.spaces]
    assert sizes == sorted(sizes)
    for t, padded in enumerate(build.padded):
        balls = len(tree_k4.levels[min(t, tree_k4.depth)])
        assert len(padded.object.target) == balls + schedule.pad(padded.pad_index)


def constant_probe(tree):
    pt = FiniteSpace("pt", ("pt",))
    return SliceObject(
        base=tree,
        level=0,
        target=pt,
        quotient_map=Surjection(tree.levels[0], pt, {b: "pt" for b in tree.levels[0].points}),
    )


def test_verify_constant_probe_at_stage_zero(tree_k4, schedule):
    build = build_fraisse(tree_k4, 3, schedule)
    report = verify_fraisse(build.sequence, probes=[constant_probe(tree_k4)])
    assert report.probes[0].status == "witnessed"
    assert report.probes[0].level == 0


def test_verify_certifies_own_build(tree_k4, schedule):
    sched = ((1, "p0"), (1, "0"), (2, "p1"))
    build = build_fraisse(tree_k4, 4, schedule, sched)
    report = verify_fraisse(build.sequence, [t for _, t in build.tasks], [constant_probe(tree_k4)])
    assert report.ok
    for result in report.tasks:
        assert result.status == "witnessed"
        task = build.tasks[result.index][1]
        assert compose(task.arrow.q, result.mapping) == build.sequence.seq.bonding(
            task.stage, result.beta
        )


def test_verify_rejects_corrupted_bonding(tree_k4, schedule):
    sched = ((1, "p0"),)
    build = build_fraisse(tree_k4, 4, schedule, sched)
    task = dict(build.tasks)["split:1:p0"]
    seq = build.sequence.seq
    # redirect every preimage of the split pad, so no stage can reach it
    bad_step = dict(seq.steps[1].mapping)
    for x, v in bad_step.items():
        if v == "p0":
            bad_step[x] = "p1"
    corrupted = SlicedSequence(
        InverseSequence(
            seq.spaces,
            (seq.steps[0], PointMap(seq.spaces[2], seq.spaces[1], bad_step)) + seq.steps[2:],
        ),
        build.sequence.phis,
    )
    report = verify_fraisse(corrupted, [task])
    assert report.tasks[0].status == "failed"
    assert "p0" in report.tasks[0].detail


def test_build_over_deeper_base(schedule):
    # the ball track saturates at the base depth and keeps absorbing afterwards
    from ultrafraisse.fixtures import binary_tree

    tree = binary_tree(3)
    sched = ((2, "p0"), (3, "000"))
    build = build_fraisse(tree, 5, schedule, sched)
    assert [p.ball_level for p in build.padded] == [0, 1, 2, 3, 3, 3]
    assert check_coherent(build.sequence.seq).ok
    report = verify_fraisse(build.sequence, [t for _, t in build.tasks])
    assert report.ok


def test_verify_finds_no_witness_for_foreign_task(tree_k4, schedule):
    # a task never absorbed by a too-short build still gets searched honestly
    build = build_fraisse(tree_k4, 2, schedule)
    task = split_task(build.sequence.phis[1], 1, "p0")
    report = verify_fraisse(build.sequence, [task])
    # the split point doubles a fiber the short spine cannot cover
    assert report.tasks[0].status == "failed"


schedules = st.builds(PaddingSchedule, st.integers(2, 3), st.integers(2, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), schedules, st.data())
def test_dominating_arrow_matches_pad_block_oracle(seed, schedule, data):
    # the canonical map dominate_arrow checks itself against: balls up the
    # `above` column, pads along `pad_routes`
    tree = random_tree(seed, max_depth=3, max_points=12)
    beta = data.draw(st.integers(0, tree.depth))
    alpha = data.draw(st.integers(0, beta))
    xi = data.draw(st.integers(0, 3))
    delta = data.draw(st.integers(xi + 1, xi + 3))
    dst = make_padded_object(tree, alpha, xi, schedule)
    pads = make_padded_object(tree, beta, delta, schedule).pad_labels
    try:
        want = dominating_arrow(tree, (alpha, xi), (beta, delta), schedule).q.mapping
    except DepthError:
        with pytest.raises(DepthError, match="cover"):
            pad_routes(len(pads), dst)
        return
    canonical = tree.above(beta, alpha)
    canonical.update(zip(pads, pad_routes(len(pads), dst)))
    assert canonical == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), schedules, st.integers(0, 1), st.data())
def test_dominate_arrow_matches_pad_block_oracle(seed, schedule, extra, data):
    # every call the build makes, split tasks amalgamated, against the oracle
    tree = random_tree(seed, max_depth=3, max_points=8)
    depth = tree.depth + extra + 1
    stages = build_fraisse(tree, depth, schedule).sequence.seq.spaces[:depth]
    choices = [(s, p) for s, space in enumerate(stages) for p in space.points]
    picked = data.draw(st.lists(st.sampled_from(choices), max_size=3, unique=True))
    calls = []

    def spy(arrow, dst, schedule, **options):
        out = real(arrow, dst, schedule, **options)
        calls.append((arrow, dst, options, out))
        return out

    real = engine.dominate_arrow
    with mock.patch.object(engine, "dominate_arrow", spy):
        build = build_fraisse(tree, depth, schedule, picked)
    assert len(calls) == depth
    # and each task arrow on its own, at the default ball level and floor
    for _, task in build.tasks:
        dst = build.padded[task.stage]
        calls.append((task.arrow, dst, {}, dominate_arrow(task.arrow, dst, schedule)))
    for arrow, dst, options, (padded, g) in calls:
        want_padded, want_map = oracles.dominate_arrow(arrow, dst, schedule, **options)
        assert padded.pad_index == want_padded.pad_index
        assert g.q.mapping == want_map
