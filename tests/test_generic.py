import random

import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse import generic
from ultrafraisse.balltree import (
    BallTree,
    is_uniformly_nowhere_dense,
    validate_witness,
)
from ultrafraisse.engine import PaddingSchedule, verify_fraisse
from ultrafraisse.errors import DepthError, InputError
from ultrafraisse.fixtures import binary_tree
from ultrafraisse.generic import (
    GenericPresentation,
    PartialHomeo,
    brute_force_lift_oracle,
    embed_generic,
    extend_homeo,
    lift_through_generic,
    presentation_from_subset,
    retract_onto,
    retraction_table,
)
from ultrafraisse.sequences import apply_sequence_arrow
from ultrafraisse.slices import SliceObject
from ultrafraisse.spaces import FiniteSpace, Surjection

from oracles import apply_level_maps, limit_threads, random_tree, thread_embedding


def one_point_tree():
    a = FiniteSpace("pt", ("o",))
    return BallTree(levels=(a, a), parents=(Surjection(a, a, {"o": "o"}),))


@pytest.fixture
def pres_k4(tree_k4, schedule):
    return embed_generic(tree_k4, 4, schedule)


def test_embed_one_point_tree(schedule):
    pres = embed_generic(one_point_tree(), 3, schedule)
    assert list(pres.eta) == ["o"]
    image = [pres.eta_point("o")]
    witness = is_uniformly_nowhere_dense(pres.ambient, image)
    assert witness.target_levels == tuple(range(1, pres.ambient.depth + 1))
    assert validate_witness(pres.ambient, image, witness).ok


def test_embed_k4_injective_and_certified(pres_k4, tree_k4):
    tops = {pres_k4.eta_point(x) for x in tree_k4.points}
    assert len(tops) == 4
    witness = is_uniformly_nowhere_dense(pres_k4.ambient, tops)
    assert witness.target_levels == tuple(range(1, pres_k4.ambient.depth + 1))
    assert validate_witness(pres_k4.ambient, tops, witness).ok


def test_embed_is_deterministic(tree_k4, schedule):
    a = embed_generic(tree_k4, 4, schedule)
    b = embed_generic(tree_k4, 4, schedule)
    assert a.eta == b.eta
    assert a.sliced == b.sliced
    image = [a.eta_point(x) for x in tree_k4.points]
    assert is_uniformly_nowhere_dense(a.ambient, image) == is_uniformly_nowhere_dense(
        b.ambient, image
    )


def test_embed_rejects_shallow_depth(tree_k4, schedule):
    with pytest.raises(DepthError, match="separate"):
        embed_generic(tree_k4, 1, schedule)


def test_subset_presentation_rejects_clopen_ball(tree_b3):
    with pytest.raises(InputError, match="not uniformly nowhere dense"):
        presentation_from_subset(tree_b3, ["000", "001"])


def test_subset_presentation_singleton(tree_b3):
    pres = presentation_from_subset(tree_b3, ["000"])
    assert pres.eta_point("000") == "000"
    assert pres.space.depth == tree_b3.depth
    witness = is_uniformly_nowhere_dense(pres.ambient, ["000"])
    assert validate_witness(tree_b3, ["000"], witness).ok


def bijective_lift_fixture(pres):
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("w0", "w1"))
    f = Surjection(y_space, x_space, {"w0": "x0", "w1": "x1"})
    ambient = pres.ambient
    g = {
        w: ("x0" if ambient.ancestor(ambient.depth, w, 1) == ambient.levels[1].points[0] else "x1")
        for w in ambient.points
    }
    b = {x: ("w0" if g[pres.eta_point(x)] == "x0" else "w1") for x in pres.space.points}
    return f, b, g


def test_lift_with_bijection_is_inverse(pres_k4):
    f, b, g = bijective_lift_fixture(pres_k4)
    lift = lift_through_generic(pres_k4, f, b, g)
    inverse = {"x0": "w0", "x1": "w1"}
    assert all(lift.on_points[w] == inverse[g[w]] for w in pres_k4.ambient.points)
    oracle = brute_force_lift_oracle(pres_k4, f, b, g, beta=lift.beta)
    assert oracle == [lift.ball_table]


def split_point_lift_fixture(pres):
    """One target point split in the source; the embedded image avoids the copy."""
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "extra", "y1"))
    f = Surjection(y_space, x_space, {"y0": "x0", "extra": "x0", "y1": "x1"})
    ambient = pres.ambient
    root_ball = ambient.levels[1].points[0]
    g = {
        w: ("x0" if ambient.ancestor(ambient.depth, w, 1) == root_ball else "x1")
        for w in ambient.points
    }
    b = {x: "y0" for x in pres.space.points}
    return f, b, g


def test_lift_splits_fiber_using_free_balls(pres_k4):
    f, b, g = split_point_lift_fixture(pres_k4)
    lift = lift_through_generic(pres_k4, f, b, g)
    assert lift.avoid_families["extra"], "the extra point must own an image-free ball"
    for w in pres_k4.ambient.points:
        assert f(lift.on_points[w]) == g[w]
    for x in pres_k4.space.points:
        assert lift.on_points[pres_k4.eta_point(x)] == "y0"
    oracle = brute_force_lift_oracle(pres_k4, f, b, g, beta=lift.beta, bound=2_000_000)
    assert lift.ball_table in oracle
    assert oracle


def test_lift_rejects_broken_square(pres_k4):
    f, b, g = split_point_lift_fixture(pres_k4)
    bad = dict(b)
    bad["00"] = "y1"  # now f(b(00)) = x1 but g(eta(00)) = x0
    with pytest.raises(InputError, match="'00'"):
        lift_through_generic(pres_k4, f, bad, g)
    oracle = brute_force_lift_oracle(pres_k4, f, bad, g, beta=2)
    assert oracle == []


def test_lift_oracle_bound_guard(pres_k4):
    f, b, g = split_point_lift_fixture(pres_k4)
    with pytest.raises(DepthError, match="bound"):
        brute_force_lift_oracle(pres_k4, f, b, g, beta=pres_k4.ambient.depth, bound=10)


def test_lift_on_subset_presentation(tree_b3):
    pres = presentation_from_subset(tree_b3, ["000", "111"])
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "y1", "y2"))
    f = Surjection(y_space, x_space, {"y0": "x0", "y1": "x1", "y2": "x1"})
    g = {w: ("x0" if w.startswith("0") else "x1") for w in tree_b3.points}
    b = {"000": "y0", "111": "y1"}
    lift = lift_through_generic(pres, f, b, g)
    oracle = brute_force_lift_oracle(pres, f, b, g, beta=lift.beta)
    assert lift.ball_table in oracle
    # every oracle member satisfies both equations and is onto
    for table in oracle:
        values = set(table.values())
        assert values == set(y_space.points)
        assert all(f(table[tree_b3.ancestor(3, w, lift.beta)]) == g[w] for w in tree_b3.points)
        assert table[pres.eta["000"][lift.beta]] == "y0"
        assert table[pres.eta["111"][lift.beta]] == "y1"


def test_lift_reads_each_level_table_once(monkeypatch):
    """One lift finds g's factoring level once and reads one column of
    ancestors, for its point table: each candidate level's g-values are the
    level above's read down one parent map."""
    tree = binary_tree(8)
    rng = random.Random(0)
    # one leaf of each chosen sibling pair, so the subset is nowhere dense
    subset = [format(2 * p + rng.randrange(2), "08b") for p in sorted(rng.sample(range(128), 64))]
    pres = presentation_from_subset(tree, subset)
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "y1", "y2", "y3"))
    f = Surjection(y_space, x_space, {"y0": "x0", "y1": "x1", "y2": "x0", "y3": "x1"})
    g = {w: ("x0", "x1")[int(w[0])] for w in tree.points}
    b = {x: rng.choice(f.fiber(g[x])) for x in subset}
    calls = []
    factoring_level, above = generic.factoring_level, BallTree.above

    def counting_factoring_level(*args):
        calls.append("factoring_level")
        return factoring_level(*args)

    def counting_above(self, *args):
        calls.append("above")
        return above(self, *args)

    monkeypatch.setattr(generic, "factoring_level", counting_factoring_level)
    monkeypatch.setattr(BallTree, "above", counting_above)
    lift = lift_through_generic(pres, f, b, g)
    monkeypatch.undo()
    assert lift.beta == 7
    assert (calls.count("factoring_level"), calls.count("above")) == (1, 1)


def test_generic_presentation_passes_sequence_certification(pres_k4, tree_k4):
    # the lifting suite's presentation also certifies as a sequence
    probes = [
        SliceObject(
            base=tree_k4,
            level=1,
            target=tree_k4.levels[1],
            quotient_map=Surjection(
                tree_k4.levels[1], tree_k4.levels[1], {b: b for b in tree_k4.levels[1].points}
            ),
        )
    ]
    report = verify_fraisse(pres_k4.sliced, probes=probes)
    assert report.ok


def test_extend_identity_on_same_presentation(pres_k4, tree_k4):
    p = PartialHomeo(pres_k4, pres_k4, {x: x for x in tree_k4.points})
    level_maps = extend_homeo(p)
    for level, table in enumerate(level_maps):
        assert all(k == v for k, v in table.items())


def test_extend_singleton_swap(tree_b3):
    src = presentation_from_subset(tree_b3, ["000"])
    dst = presentation_from_subset(tree_b3, ["111"])
    level_maps = extend_homeo(PartialHomeo(src, dst, {"000": "111"}))
    # level bijections commuting with parents, checked by extend_homeo
    assert apply_level_maps(level_maps, src.eta["000"]) == dst.eta["111"]
    for level, table in enumerate(level_maps):
        assert len(set(table.values())) == len(tree_b3.levels[level])


def test_extend_two_point_swap():
    tree = binary_tree(4)
    pres = presentation_from_subset(tree, ["0000", "1111"])
    swap = {"0000": "1111", "1111": "0000"}
    level_maps = extend_homeo(PartialHomeo(pres, pres, swap))
    emb = thread_embedding(tree)
    assert apply_level_maps(level_maps, emb["0000"]) == emb["1111"]
    assert apply_level_maps(level_maps, emb["1111"]) == emb["0000"]
    # restricted to the embedded image the map is exactly the swap
    for x, y in swap.items():
        assert level_maps[-1][x] == y


def test_threads_are_plain_tuples(pres_k4, tree_k4):
    subset = presentation_from_subset(binary_tree(3), ["000", "111"])
    level_maps = extend_homeo(PartialHomeo(pres_k4, pres_k4, {x: x for x in tree_k4.points}))
    arrow, _ = retract_onto(pres_k4)
    threads = [
        *pres_k4.eta.values(),
        *subset.eta.values(),
        *limit_threads(pres_k4.sliced.seq),
        *thread_embedding(pres_k4.ambient).values(),
        *(apply_sequence_arrow(arrow, t) for t in thread_embedding(pres_k4.ambient).values()),
        *(apply_level_maps(level_maps, t) for t in pres_k4.eta.values()),
    ]
    assert all(type(t) is tuple for t in threads)
    assert all(type(e) is str for t in threads for e in t)


def test_level_offset_is_read_off_the_ambient(pres_k4):
    assert GenericPresentation._fields == ("space", "sliced", "ambient", "eta", "build")
    # the sequence's bottom space is not a singleton, so from_sequence prepends a root
    assert pres_k4.level_offset == pres_k4.ambient.depth - pres_k4.sliced.seq.length == 1
    assert presentation_from_subset(binary_tree(3), ["000"]).level_offset == 0


def test_extend_rejects_ball_breaking_map(tree_b3):
    src = presentation_from_subset(tree_b3, ["000", "011"])
    dst = presentation_from_subset(tree_b3, ["000", "111"])
    with pytest.raises(InputError, match="ball structure"):
        PartialHomeo(src, dst, {"000": "000", "011": "111"})


def test_extend_connects_independent_builds(tree_k4, schedule):
    a = embed_generic(tree_k4, 4, schedule, ((1, "p0"),))
    b = embed_generic(tree_k4, 4, schedule, ((1, "p1"),))
    level_maps = extend_homeo(PartialHomeo(a, b, {x: x for x in tree_k4.points}))
    for x in tree_k4.points:
        assert apply_level_maps(level_maps, a.eta[x]) == b.eta[x]


def test_extend_rejects_depth_mismatch(tree_k4, schedule):
    a = embed_generic(tree_k4, 4, schedule)
    b = embed_generic(tree_k4, 5, schedule)
    with pytest.raises(DepthError, match="depth"):
        extend_homeo(PartialHomeo(a, b, {x: x for x in tree_k4.points}))


def test_retract_one_point(schedule):
    pres = embed_generic(one_point_tree(), 3, schedule)
    _, table = retract_onto(pres)
    assert set(table.values()) == {"o"}


def test_retract_k4_left_inverse_exhaustive(pres_k4, tree_k4):
    arrow, table = retract_onto(pres_k4)
    for x in tree_k4.points:
        assert table[pres_k4.eta_point(x)] == x
    # surjective: it has a right inverse
    assert set(table.values()) == set(tree_k4.points)
    # constant on the certified levels, and exactly there
    from ultrafraisse.balltree import factoring_level

    for m in range(tree_k4.depth + 1):
        component = {
            w: tree_k4.ancestor(tree_k4.depth, table[w], m) for w in pres_k4.ambient.points
        }
        assert factoring_level(pres_k4.ambient, component)[0] == arrow.reindex[m]
    # as a sequence arrow it sends each embedded thread to its own chain
    chains = thread_embedding(tree_k4)
    for x in tree_k4.points:
        assert apply_sequence_arrow(arrow, pres_k4.eta[x]) == chains[x]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2))
def test_point_table_retraction_equals_the_thread_by_thread_arrow(seed, extra_depth):
    tree = random_tree(seed, max_depth=3, max_points=12)
    pres = embed_generic(tree, tree.depth + extra_depth, PaddingSchedule())
    arrow, table = retract_onto(pres)
    assert table == retraction_table(pres.ambient, arrow)
    base_chains = thread_embedding(tree)
    for w, thread in thread_embedding(pres.ambient).items():
        image = apply_sequence_arrow(arrow, thread)
        assert table[w] == image[-1]
        # the left inverse's table form: w goes to x exactly when w's thread goes to x's
        for x, chain in base_chains.items():
            assert (table[w] == x) == (image == chain)
    for x in tree.points:
        assert table[pres.eta_point(x)] == x
        assert apply_sequence_arrow(arrow, pres.eta[x]) == base_chains[x]


def test_retract_subset_presentation_is_nearest_point(tree_b3):
    pres = presentation_from_subset(tree_b3, ["000", "111"])
    _, table = retract_onto(pres)
    assert table["001"] == "000"
    assert table["110"] == "111"
    assert table["000"] == "000" and table["111"] == "111"
