import pytest

from ultrafraisse.engine import (
    FraisseTask,
    PaddingSchedule,
    TaskSchedule,
    build_fraisse,
    dominate_arrow,
    dominating_arrow,
    make_ball_cover,
    make_padded_object,
    make_splitter,
    point_split_task,
    verify_fraisse,
)
from ultrafraisse.errors import DepthError
from ultrafraisse.sequences import InverseSequence, SlicedSequence, check_coherent
from ultrafraisse.slices import SliceArrow, SliceObject, identity_arrow
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, compose


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
    table = p.object.point_table()
    for label in tree_k4.levels[1].points:
        assert {x for x, v in table.items() if v == label} == tree_k4.leafset(1, label)
    # pads are unreached
    assert not set(table.values()) & set(p.pad_labels)


def test_splitter_round_robin(schedule):
    # pad sizes 2 -> 4: four targets, each fiber a singleton
    r = make_splitter(0, 1, schedule)
    targets = [(p, t) for p in ("p0", "p1") for t in (0, 1)]
    assert sorted(r.values()) == sorted(targets)
    # pad sizes 2 -> 8: each of the four targets has fiber size two
    r = make_splitter(0, 2, schedule)
    for tgt in targets:
        assert sum(1 for v in r.values() if v == tgt) == 2


def test_splitter_same_index_is_tagged_identity(schedule):
    r = make_splitter(2, 2, schedule)
    assert all(v == (x, 1) for x, v in r.items())


def test_ball_cover(tree_k4, schedule):
    one = make_ball_cover(tree_k4, 0, 0, schedule)
    assert set(one.mapping.values()) == {""}
    two = make_ball_cover(tree_k4, 1, 1, schedule)
    assert [len(two.fiber(b)) for b in tree_k4.levels[1].points] == [2, 2]
    with pytest.raises(DepthError, match="cover"):
        make_ball_cover(tree_k4, 2, 0, schedule)  # 2 pads cannot cover 4 balls


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
        assert arrow.q(arrow.src.point_value(leaf)) == arrow.dst.point_value(leaf)


@pytest.mark.parametrize("low_level,low_pad", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("bump_level,bump_pad", [(0, 1), (1, 1), (0, 2), (2, 2)])
def test_dominating_arrows_surjective_with_exact_triangle(
    tree_k4, schedule, low_level, low_pad, bump_level, bump_pad
):
    high = (min(low_level + bump_level, tree_k4.depth), low_pad + bump_pad)
    arrow = dominating_arrow(tree_k4, (low_level, low_pad), high, schedule)
    assert arrow.q.is_surjective()
    for leaf in tree_k4.points:
        assert arrow.q(arrow.src.point_value(leaf)) == arrow.dst.point_value(leaf)


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
        assert g.q(padded.object.point_value(leaf)) == h.point_value(leaf)
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


def test_build_identity_task(tree_k4, schedule):
    def identity_task(current):
        if current.seq.length < 1:
            return None
        return FraisseTask(stage=1, arrow=identity_arrow(current.phis[1]))

    build = build_fraisse(tree_k4, 3, schedule, TaskSchedule((("id@1", identity_task),)))
    witness = build.witnesses["id@1"]
    assert witness.beta == 2
    assert compose(identity_arrow(build.sequence.phis[1]).q, witness.mapping) == (
        build.sequence.seq.bonding(1, 2)
    )
    # identity task costs nothing: same sizes as the pure spine
    assert [len(sp) for sp in build.sequence.seq.spaces] == [3, 6, 12, 20]


def test_build_pad_split_task(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, TaskSchedule((point_split_task(1, "p0"),)))
    tag = "split:1:p0"
    witness = build.witnesses[tag]
    task = dict(build.tasks)[tag]
    bond = build.sequence.seq.bonding(task.stage, witness.beta)
    assert compose(task.arrow.q, witness.mapping) == bond
    assert witness.mapping.is_surjective()
    # the pad block grew to absorb the doubled fiber
    assert build.padded[2].pad_index > 2


def test_build_ball_split_task(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, TaskSchedule((point_split_task(1, "0"),)))
    witness = build.witnesses["split:1:0"]
    task = dict(build.tasks)[witness.tag]
    assert compose(task.arrow.q, witness.mapping) == build.sequence.seq.bonding(1, witness.beta)


def test_build_reports_unserviceable_schedule(tree_k4, schedule):
    with pytest.raises(DepthError, match="unserviced"):
        build_fraisse(tree_k4, 2, schedule, TaskSchedule((point_split_task(2, "p0"),)))


def test_build_is_deterministic(tree_k4, schedule):
    sched = TaskSchedule((point_split_task(1, "p0"), point_split_task(0, "p1")))
    b1 = build_fraisse(tree_k4, 4, schedule, sched)
    b2 = build_fraisse(tree_k4, 4, schedule, sched)
    assert b1.sequence == b2.sequence
    assert b1.log == b2.log
    assert {t: w.mapping.mapping for t, w in b1.witnesses.items()} == {
        t: w.mapping.mapping for t, w in b2.witnesses.items()
    }


def test_build_growth_is_monotone(tree_k4, schedule):
    build = build_fraisse(tree_k4, 4, schedule, TaskSchedule((point_split_task(1, "p0"),)))
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
    sched = TaskSchedule(
        (point_split_task(1, "p0"), point_split_task(1, "0"), point_split_task(2, "p1"))
    )
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
    sched = TaskSchedule((point_split_task(1, "p0"),))
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
    sched = TaskSchedule((point_split_task(2, "p0"), point_split_task(3, "000")))
    build = build_fraisse(tree, 5, schedule, sched)
    assert [p.ball_level for p in build.padded] == [0, 1, 2, 3, 3, 3]
    assert check_coherent(build.sequence.seq).ok
    report = verify_fraisse(build.sequence, [t for _, t in build.tasks])
    assert report.ok


def test_verify_finds_no_witness_for_foreign_task(tree_k4, schedule):
    # a task never absorbed by a too-short build still gets searched honestly
    build = build_fraisse(tree_k4, 2, schedule)
    tag, gen = point_split_task(1, "p0")
    task = gen(build.sequence)
    report = verify_fraisse(build.sequence, [task])
    # the split point doubles a fiber the short spine cannot cover
    assert report.tasks[0].status == "failed"
