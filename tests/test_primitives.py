"""The indexed primitives agree with their plain scan definitions."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse.balltree import ball_quotients, from_sequence, u_metric
from ultrafraisse.errors import InputError
from ultrafraisse.fixtures import binary_tree, random_tree
from ultrafraisse.generic import PartialHomeo, presentation_from_subset
from ultrafraisse.sequences import InverseSequence, check_coherent
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection


def shuffled_rebuild(seed: int):
    """A random tree whose level orders are shuffled, rebuilt by from_sequence.

    The root level is dropped first whenever level 1 has several balls, so
    from_sequence has to prepend its own root.
    """
    tree = random_tree(seed)
    rng = random.Random(seed)
    spaces = []
    for level in tree.levels:
        pts = list(level.points)
        rng.shuffle(pts)
        spaces.append(FiniteSpace(id=f"s{len(spaces)}", points=tuple(pts)))
    steps = tuple(
        Surjection(spaces[a + 1], spaces[a], par.mapping) for a, par in enumerate(tree.parents)
    )
    start = 1 if tree.depth > 1 and len(spaces[1]) > 1 else 0
    return from_sequence(InverseSequence(tuple(spaces[start:]), steps[start:]))


def trees(seed: int):
    return random_tree(seed), shuffled_rebuild(seed)


def scan_fiber(f: PointMap, value: str) -> tuple[str, ...]:
    return tuple(p for p in f.dom.points if f.mapping[p] == value)


def scan_descendants(tree, level: int, label: str, beta: int) -> tuple[str, ...]:
    return tuple(b for b in tree.levels[beta].points if tree._chains[beta][b][level] == label)


labels = st.text(alphabet="ab01.", max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(labels, min_size=1, max_size=12, unique=True), st.lists(labels, max_size=6))
def test_space_membership_and_index_match_tuple(points, probes):
    space = FiniteSpace(id="s", points=tuple(points))
    for label in points + probes:
        assert (label in space) == (label in space.points)
        if label in space.points:
            assert space.index(label) == space.points.index(label)
        else:
            message = re.escape(f"{label!r} is not a point of 's'")
            with pytest.raises(ValueError, match=f"^{message}$"):
                space.index(label)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_level_membership_and_index_match_tuple(seed):
    for tree in trees(seed):
        for level in tree.levels:
            for i, label in enumerate(level.points):
                assert label in level and level.index(label) == i
            assert "foreign" not in level and ["unhashable"] not in level


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_parent_fibers_match_domain_scan(seed):
    for tree in trees(seed):
        for par in tree.parents:
            for q in par.cod.points + ("foreign",):
                assert par.fiber(q) == scan_fiber(par, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.data())
def test_fibers_of_any_map_match_domain_scan(n_dom, n_cod, data):
    dom = FiniteSpace(id="d", points=tuple(f"x{i}" for i in range(n_dom)))
    cod = FiniteSpace(id="c", points=tuple(f"y{i}" for i in range(n_cod)))
    values = data.draw(st.lists(st.sampled_from(cod.points), min_size=n_dom, max_size=n_dom))
    f = PointMap(dom, cod, dict(zip(dom.points, values)))
    for q in cod.points:
        assert f.fiber(q) == scan_fiber(f, q)
    assert sum(len(f.fiber(q)) for q in cod.points) == n_dom


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_descendants_match_chain_scan(seed):
    for tree in trees(seed):
        for level in range(tree.depth + 1):
            for label in tree.levels[level].points:
                for beta in range(level, tree.depth + 1):
                    want = scan_descendants(tree, level, label, beta)
                    assert tree.descendants(level, label, beta) == want
                    assert want
        assert tree.descendants(0, "foreign", tree.depth) == ()


def test_coherence_builds_at_most_one_map_per_step(monkeypatch):
    seq = ball_quotients(binary_tree(10))
    built = []
    original = PointMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PointMap, "__init__", counting_init)
    assert check_coherent(seq).ok
    assert len(built) <= seq.length + 1


def pairwise_rejection(src_pres, dst_pres, mapping: dict[str, str]) -> str | None:
    """The pairwise definition of a ball-respecting bijection: the message
    naming its first failing pair, or None when every pair agrees."""
    src, dst = src_pres.space, dst_pres.space
    common = min(src.depth, dst.depth)
    for x in src.points:
        for y in src.points:
            du, dv = u_metric(src, x, y), u_metric(dst, mapping[x], mapping[y])
            if min(du, common) != min(dv, common):
                return (
                    f"mapping breaks ball structure at level {min(du, dv) + 1}: "
                    f"pair ({x!r}, {y!r}) meets at {du}, images meet at {dv}"
                )
    return None


PREFIXES = [format(i, f"0{k}b") if k else "" for k in range(5) for i in range(2**k)]


@st.composite
def partial_maps(draw):
    """(source leaves of binary_tree(5), target depth, their images).  Each
    set keeps at most one leaf per sibling pair, so it is uniformly nowhere
    dense.  Images come from a tree automorphism (flip the bit after each
    chosen prefix) or are any same-size set, and are shuffled half the time."""
    n = draw(st.integers(1, 8))

    def leaves(depth):
        pairs = draw(st.lists(st.integers(0, 2 ** (depth - 1) - 1), min_size=n, max_size=n, unique=True))
        sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return [format(2 * pair + side, f"0{depth}b") for pair, side in zip(pairs, sides)]

    src = leaves(5)
    if draw(st.booleans()):
        flips = draw(st.sets(st.sampled_from(PREFIXES)))
        dst_depth = 5
        image = ["".join(str(int(c) ^ (x[:i] in flips)) for i, c in enumerate(x)) for x in src]
    else:
        dst_depth = draw(st.sampled_from([4, 5]))
        image = leaves(dst_depth)
    if draw(st.booleans()):
        image = draw(st.permutations(image))
    return src, dst_depth, image


@settings(max_examples=150, deadline=None)
@given(partial_maps())
def test_partial_homeo_matches_pairwise_definition(case):
    src_points, dst_depth, dst_points = case
    src = presentation_from_subset(binary_tree(5), src_points)
    dst = presentation_from_subset(binary_tree(dst_depth), dst_points)
    mapping = dict(zip(src_points, dst_points))
    want = pairwise_rejection(src, dst, mapping)
    if want is None:
        PartialHomeo(src, dst, mapping)
    else:
        with pytest.raises(InputError) as rejected:
            PartialHomeo(src, dst, mapping)
        assert str(rejected.value) == want
