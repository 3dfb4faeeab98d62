import random

import pytest

from ultrafraisse.slices import (
    SliceArrow,
    SliceObject,
    amalgamate_slice,
)
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, pair_label

from oracles import identity_arrow, point_value, value_on_ball


def slice_obj(tree, level, name, values, extra=()):
    """Slice object from a ball-label -> value table, target ordered by first use."""
    seen = list(dict.fromkeys(values.values())) + [t for t in extra if t not in values.values()]
    target = FiniteSpace(id=name, points=tuple(seen))
    return SliceObject(
        base=tree,
        level=level,
        target=target,
        quotient_map=PointMap(tree.levels[level], target, values),
    )


def test_slice_object_levels_checked(tree_k4):
    target = FiniteSpace(id="t", points=("v",))
    with pytest.raises(ValueError, match="out of range"):
        SliceObject(
            base=tree_k4,
            level=9,
            target=target,
            quotient_map=PointMap(tree_k4.levels[0], target, {"": "v"}),
        )


def test_slice_values_via_ancestors(tree_k4):
    f = slice_obj(tree_k4, 1, "t", {"0": "u", "1": "v"})
    assert f.values(1) == {"0": "u", "1": "v"}
    assert list(f.values(2).items()) == [("00", "u"), ("01", "u"), ("10", "v"), ("11", "v")]
    with pytest.raises(ValueError, match="too coarse"):
        f.values(0)


def test_arrow_commutation_enforced(tree_k4):
    f = slice_obj(tree_k4, 1, "fine", {"0": "u0", "1": "u1"})
    g = slice_obj(tree_k4, 0, "coarse", {"": "w"})
    SliceArrow(f, g, Surjection(f.target, g.target, {"u0": "w", "u1": "w"}))
    h = slice_obj(tree_k4, 1, "other", {"0": "a", "1": "b"})
    with pytest.raises(ValueError, match="commute"):
        SliceArrow(f, h, Surjection(f.target, h.target, {"u0": "b", "u1": "a"}))


def test_amalgamate_along_identities(tree_k4):
    f = slice_obj(tree_k4, 1, "f", {"0": "u", "1": "v"})
    ida = identity_arrow(f)
    k, f1, g1 = amalgamate_slice(f, f, f, ida, ida)
    # the amalgam is f itself up to pair relabelling
    assert len(k.target) == len(f.target)
    for b in tree_k4.levels[1].points:
        val = f.quotient_map(b)
        assert k.quotient_map(b) == pair_label(val, val)


def test_amalgamate_level_one_cospan(tree_k4):
    # both legs factor at level 1 with the same induced map
    f = slice_obj(tree_k4, 1, "f", {"0": "x0", "1": "x1"})
    g = slice_obj(tree_k4, 1, "g", {"0": "y0", "1": "y1"})
    h = slice_obj(tree_k4, 0, "h", {"": "z"})
    q1 = SliceArrow(f, h, Surjection(f.target, h.target, {"x0": "z", "x1": "z"}))
    q2 = SliceArrow(g, h, Surjection(g.target, h.target, {"y0": "z", "y1": "z"}))
    k, f1, g1 = amalgamate_slice(f, g, h, q1, q2)
    # pullback over a point is the full product
    assert len(k.target) == 4
    # joint fibers: the pair map is defined on every level-1 ball
    for b in ("0", "1"):
        assert k.quotient_map(b) == pair_label(f.quotient_map(b), g.quotient_map(b))
    # square commutes exactly
    for p in k.target.points:
        assert q1.q(f1.q(p)) == q2.q(g1.q(p))
    # triangles commute on the base
    for leaf in tree_k4.points:
        assert f1.q(point_value(k, leaf)) == point_value(f, leaf)
        assert g1.q(point_value(k, leaf)) == point_value(g, leaf)


def test_amalgamate_equal_legs_hits_pullback_size(tree_k4):
    # both legs are the same level-1 object along the same arrow
    f = slice_obj(tree_k4, 1, "f", {"0": "x0", "1": "x1"}, extra=("x2",))
    h = slice_obj(tree_k4, 0, "h", {"": "z0"}, extra=("z1",))
    q = SliceArrow(f, h, Surjection(f.target, h.target, {"x0": "z0", "x1": "z0", "x2": "z1"}))
    k, f1, g1 = amalgamate_slice(f, f, h, q, q)
    expected = sum(
        len([x for x in f.target.points if q.q(x) == z]) ** 2 for z in h.target.points
    )
    assert len(k.target) == expected
    for b in tree_k4.levels[1].points:
        val = f.quotient_map(b)
        assert k.quotient_map(b) == pair_label(val, val)


def test_amalgamate_over_singleton_is_directedness(tree_k4):
    f = slice_obj(tree_k4, 1, "f", {"0": "x0", "1": "x1"})
    g = slice_obj(tree_k4, 2, "g", {"00": "a", "01": "a", "10": "b", "11": "c"})
    h = slice_obj(tree_k4, 0, "h", {"": "z"})
    q1 = SliceArrow(f, h, Surjection(f.target, h.target, {p: "z" for p in f.target.points}))
    q2 = SliceArrow(g, h, Surjection(g.target, h.target, {p: "z" for p in g.target.points}))
    k, f1, g1 = amalgamate_slice(f, g, h, q1, q2)
    # over a point the amalgam is the full product of the two targets
    assert k.target.points == tuple(
        pair_label(x, y) for x in f.target.points for y in g.target.points
    )
    assert k.level == 2


def test_amalgamate_rejects_mismatched_cospan(tree_k4):
    f = slice_obj(tree_k4, 1, "f", {"0": "x0", "1": "x1"})
    h = slice_obj(tree_k4, 0, "h", {"": "z"})
    other = slice_obj(tree_k4, 0, "other", {"": "w"})
    q1 = SliceArrow(f, h, Surjection(f.target, h.target, {"x0": "z", "x1": "z"}))
    q2 = SliceArrow(f, other, Surjection(f.target, other.target, {"x0": "w", "x1": "w"}))
    with pytest.raises(ValueError, match="cospan"):
        amalgamate_slice(f, f, h, q1, q2)


def random_cospan(tree, rng, max_size=5):
    """A commuting cospan q1: f -> h <- g :q2 with targets of bounded size."""
    hsize = rng.randint(1, max_size)
    hlevel = rng.randint(0, tree.depth)
    hvals = {b: f"z{rng.randrange(hsize)}" for b in tree.levels[hlevel].points}
    h = slice_obj(tree, hlevel, "h", hvals, extra=[f"z{i}" for i in range(hsize)])
    out = []
    for name in ("f", "g"):
        size = rng.randint(len(h.target), max_size)
        level = rng.randint(hlevel, tree.depth)
        qmap = {}
        points = [f"{name}{i}" for i in range(size)]
        for i, p in enumerate(points):
            qmap[p] = h.target.points[i % len(h.target)]
        target = FiniteSpace(id=name, points=tuple(points))
        q = Surjection(target, h.target, qmap)
        fibers = {z: q.fiber(z) for z in h.target.points}
        vals = {}
        for b in tree.levels[level].points:
            hv = value_on_ball(h, level, b)
            vals[b] = rng.choice(fibers[hv])
        obj = SliceObject(base=tree, level=level, target=target, quotient_map=PointMap(tree.levels[level], target, vals))
        out.append(SliceArrow(obj, h, q))
    q1, q2 = out
    return q1.src, q2.src, h, q1, q2


def test_random_cospans_amalgamate(tree_k4):
    rng = random.Random(5)
    for _ in range(25):
        f, g, h, q1, q2 = random_cospan(tree_k4, rng)
        k, f1, g1 = amalgamate_slice(f, g, h, q1, q2)
        for p in k.target.points:
            assert q1.q(f1.q(p)) == q2.q(g1.q(p))
        for leaf in tree_k4.points:
            assert f1.q(point_value(k, leaf)) == point_value(f, leaf)
            assert g1.q(point_value(k, leaf)) == point_value(g, leaf)
        assert f1.q.is_surjective() and g1.q.is_surjective()


def test_amalgamate_is_deterministic(tree_k4):
    rng1, rng2 = random.Random(9), random.Random(9)
    a = random_cospan(tree_k4, rng1)
    b = random_cospan(tree_k4, rng2)
    ka = amalgamate_slice(*a)
    kb = amalgamate_slice(*b)
    assert ka[0].target == kb[0].target
    assert ka[0].quotient_map == kb[0].quotient_map
