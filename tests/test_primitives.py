"""The indexed primitives agree with their plain scan definitions."""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse import engine, serial
from ultrafraisse.balltree import (
    BallTree,
    NowhereDenseFailure,
    NowhereDenseWitness,
    ball_quotients,
    factoring_level,
    from_sequence,
    is_uniformly_nowhere_dense,
    met_balls,
    nearest_points,
    u_metric,
    validate_witness,
)
from ultrafraisse.cli import _canonical_probes
from ultrafraisse.engine import (
    PaddingSchedule,
    build_fraisse,
    split_task,
    verify_fraisse,
)
from ultrafraisse.errors import InputError
from ultrafraisse.fixtures import binary_tree, k4
from ultrafraisse.generic import (
    PartialHomeo,
    embed_generic,
    eta_threads,
    presentation_from_subset,
    retract_onto,
    retraction_table,
)
from ultrafraisse.sequences import InverseSequence, SlicedSequence, check_coherent
from ultrafraisse.slices import SliceArrow, SliceObject
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, compose, identity, pair_label, pullback

from oracles import ancestor, point_value, random_tree, value_on_ball


def shuffled_rebuild(seed: int, **sizes):
    """A random tree whose level orders are shuffled, rebuilt by from_sequence.

    The root level is dropped first whenever level 1 has several balls, so
    from_sequence has to prepend its own root.
    """
    tree = random_tree(seed, **sizes)
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
    return tuple(b for b in tree.levels[beta].points if ancestor(tree, beta, b, level) == label)


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


# Reference versions of the subset searches, as they were written before the
# met-ball pass: every "ball avoids the subset" test builds the ball's leaf set.


def ref_avoiding_descendants(tree, level, label, beta, avoid):
    return tuple(
        b for b in tree.descendants(level, label, beta) if not (tree.leafset(beta, b) & avoid)
    )


def ref_is_uniformly_nowhere_dense(tree, subset):
    avoid = frozenset(subset)
    unknown = avoid - set(tree.points)
    if unknown:
        raise ValueError(f"subset point {sorted(unknown)[0]!r} is not in the tree")
    target_levels = []
    choices = []
    for alpha in range(tree.depth):
        found_beta = None
        found_choice = {}
        for beta in range(alpha + 1, tree.depth + 1):
            choice = {}
            for label in tree.levels[alpha].points:
                free = ref_avoiding_descendants(tree, alpha, label, beta, avoid)
                if not free:
                    break
                choice[label] = free[0]
            else:
                found_beta, found_choice = beta, choice
                break
        if found_beta is None:
            worst = next(
                label
                for label in tree.levels[alpha].points
                if not ref_avoiding_descendants(tree, alpha, label, tree.depth, avoid)
            )
            return NowhereDenseFailure(level=alpha, ball=worst)
        target_levels.append(found_beta)
        choices.append(found_choice)
    return NowhereDenseWitness(tuple(target_levels), tuple(choices))


def ref_validate_witness(tree, subset, witness):
    avoid = frozenset(subset)
    issues = []
    if len(witness.target_levels) != tree.depth or len(witness.choices) != tree.depth:
        return (f"witness covers {len(witness.target_levels)} levels, tree needs {tree.depth}",)
    for alpha in range(tree.depth):
        beta = witness.target_levels[alpha]
        if not alpha < beta <= tree.depth:
            issues.append(f"level {alpha}: target level {beta} not in ({alpha}, {tree.depth}]")
            continue
        choice = witness.choices[alpha]
        for label in tree.levels[alpha].points:
            picked = choice.get(label)
            if picked is None:
                issues.append(f"level {alpha}: no choice for ball {label!r}")
                continue
            if picked not in tree.levels[beta]:
                issues.append(f"level {alpha}: choice {picked!r} is not a level-{beta} ball")
                continue
            if tree.ancestor(beta, picked, alpha) != label:
                issues.append(f"level {alpha}: choice {picked!r} is not inside ball {label!r}")
            if tree.leafset(beta, picked) & avoid:
                issues.append(f"level {alpha}: choice {picked!r} meets the subset")
    return tuple(issues)


def ref_factoring_level(tree, point_map):
    missing = [p for p in tree.points if p not in point_map]
    if missing:
        raise ValueError(f"map undefined at point {missing[0]!r}")
    for level in range(tree.depth + 1):
        if all(
            len({point_map[p] for p in tree.leafset(level, label)}) == 1
            for label in tree.levels[level].points
        ):
            return level, ref_ball_values(tree, level, point_map)


def ref_ball_values(tree, level, point_map):
    out = {}
    for label in tree.levels[level].points:
        values = {point_map[p] for p in tree.leafset(level, label)}
        if len(values) != 1:
            raise ValueError(f"map is not constant on ball {label!r} at level {level}")
        out[label] = values.pop()
    return out


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc) if isinstance(exc, ValueError) else None


@st.composite
def tree_and_subset(draw):
    """A random tree (shuffled and rebuilt half the time) and a subset of its
    points whose density ranges from empty to every point."""
    seed = draw(st.integers(0, 10_000))
    tree = random_tree(seed) if draw(st.booleans()) else shuffled_rebuild(seed)
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    subset = [p for p in tree.points if rng.random() < density]
    return tree, subset, rng


@settings(max_examples=150, deadline=None)
@given(tree_and_subset())
def test_nowhere_density_search_matches_leafset_search(case):
    tree, subset, rng = case
    want = ref_is_uniformly_nowhere_dense(tree, subset)
    assert is_uniformly_nowhere_dense(tree, subset) == want
    assert is_uniformly_nowhere_dense(tree, iter(subset)) == want
    foreign = subset + ["foreign", "zz"]
    assert outcome(is_uniformly_nowhere_dense, tree, foreign) == outcome(
        ref_is_uniformly_nowhere_dense, tree, foreign
    )


def random_witness(tree, subset, rng):
    """The searched witness when there is one, then corrupted at random: target
    levels out of range, choices dropped, outside their ball, at the wrong
    level or meeting the subset."""
    found = ref_is_uniformly_nowhere_dense(tree, subset)
    rate = rng.choice([0.0, 0.02, 0.1])
    levels, choices = [], []
    for alpha in range(tree.depth):
        if isinstance(found, NowhereDenseWitness) and rng.random() < 0.7:
            beta, choice = found.target_levels[alpha], dict(found.choices[alpha])
        else:
            beta, choice = rng.randint(alpha + 1, tree.depth), {}
            for label in tree.levels[alpha].points:
                choice[label] = rng.choice(tree.descendants(alpha, label, beta))
        for label in list(choice):
            roll = rng.random() / rate if rate else 1.0
            if roll < 0.3:
                del choice[label]
            elif roll < 0.6:
                choice[label] = rng.choice(tree.levels[beta].points)
            elif roll < 1.0:
                choice[label] = rng.choice(tree.levels[rng.randint(0, tree.depth)].points)
        if rng.random() < rate:
            beta = rng.choice([alpha, tree.depth + 1, -1])
        levels.append(beta)
        choices.append(choice)
    if rng.random() < rate:
        levels, choices = levels[:-1], choices[:-1]
    return NowhereDenseWitness(tuple(levels), tuple(choices))


@settings(max_examples=150, deadline=None)
@given(tree_and_subset())
def test_validate_witness_matches_leafset_check(case):
    tree, subset, rng = case
    for _ in range(3):
        witness = random_witness(tree, subset, rng)
        got = validate_witness(tree, subset + ["foreign"], witness).issues
        assert got == ref_validate_witness(tree, subset + ["foreign"], witness)


def random_point_map(tree, rng):
    """Constant on the balls of a random level, with a few points then changed
    or dropped."""
    level = rng.randint(0, tree.depth)
    values = {b: rng.choice("abc") for b in tree.levels[level].points}
    point_map = {p: values[tree.ancestor(tree.depth, p, level)] for p in tree.points}
    rate = rng.choice([0.0, 0.02, 0.1])
    for p in tree.points:
        roll = rng.random() / rate if rate else 1.0
        if roll < 0.8:
            point_map[p] = "z"
        elif roll < 1.0:
            del point_map[p]
    return point_map


@settings(max_examples=150, deadline=None)
@given(tree_and_subset())
def test_factoring_level_and_ball_values_match_leafset_versions(case):
    tree, _, rng = case
    for _ in range(3):
        point_map = random_point_map(tree, rng)
        got = outcome(factoring_level, tree, point_map)
        assert got == outcome(ref_factoring_level, tree, point_map)
        if type(got[1]) is dict:  # the ball values, in level order
            assert list(got[1]) == list(tree.levels[got[0]].points)


@settings(max_examples=100, deadline=None)
@given(tree_and_subset())
def test_point_value_matches_ancestor_lookup(case):
    tree, _, rng = case
    level = rng.randint(0, tree.depth)
    target = FiniteSpace(id="t", points=("t0", "t1", "t2"))
    quotient = PointMap(
        tree.levels[level], target, {b: rng.choice(target.points) for b in tree.levels[level].points}
    )
    phi = SliceObject(base=tree, level=level, target=target, quotient_map=quotient)
    for beta in range(level, tree.depth + 1):
        got = phi.values(beta)
        assert list(got) == list(tree.levels[beta].points)
        assert got == {b: value_on_ball(phi, beta, b) for b in tree.levels[beta].points}
    assert phi.values(tree.depth) == {p: point_value(phi, p) for p in tree.points}
    for beta in range(level):
        message = re.escape(f"balls at level {beta} are too coarse for level {level}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            phi.values(beta)


def sorted_key_rebuild(tree):
    """The tree with each parent map read back through `serial.dumps`, so
    its table is in sorted-key order rather than level order."""
    parents = tuple(
        Surjection(par.dom, par.cod, serial.loads(serial.dumps(par.mapping)))
        for par in tree.parents
    )
    return BallTree(levels=tree.levels, parents=parents)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_above_matches_ancestor_lookups(seed, sorted_keys):
    tree = shuffled_rebuild(seed)
    if sorted_keys:
        tree = sorted_key_rebuild(tree)
    for level in range(tree.depth + 1):
        for alpha in range(level + 1):
            column = tree.above(level, alpha)
            assert list(column) == list(tree.levels[level].points)
            for b, up in column.items():
                assert up == ancestor(tree, level, b, alpha) == tree.ancestor(level, b, alpha)
    with pytest.raises(ValueError, match="bad ancestor request"):
        tree.above(0, 1)
    message = re.escape(f"'foreign' is not a ball at level {tree.depth}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree.ancestor(tree.depth, "foreign", 0)


def ref_commute_error(arrow_src, arrow_dst, q):
    """The first commutation failure read through two ancestor lookups per
    ball, as SliceArrow first checked it, or None."""
    level = max(arrow_src.level, arrow_dst.level)
    for label in arrow_src.base.levels[level].points:
        got = q(value_on_ball(arrow_src, level, label))
        want = value_on_ball(arrow_dst, level, label)
        if got != want:
            return (
                f"arrow does not commute over the base: ball {label!r} "
                f"maps to {got!r}, expected {want!r}"
            )
    return None


@settings(max_examples=150, deadline=None)
@given(tree_and_subset(), st.booleans())
def test_slice_arrow_check_matches_ancestor_lookups(case, perturb):
    tree, _, rng = case
    low, high = sorted(rng.randint(0, tree.depth) for _ in range(2))
    src_level, dst_level = (low, high) if rng.random() < 0.5 else (high, low)
    source = FiniteSpace(id="s", points=("s0", "s1", "s2", "s3"))
    target = FiniteSpace(id="t", points=("t0", "t1"))
    src = SliceObject(
        base=tree,
        level=src_level,
        target=source,
        quotient_map=PointMap(
            tree.levels[src_level], source,
            {b: rng.choice(source.points) for b in tree.levels[src_level].points},
        ),
    )
    q = Surjection(source, target, {"s0": "t0", "s1": "t1", "s2": "t0", "s3": "t1"})
    # dst commutes with src where it factors (dst at the finer level), else at random
    values = {
        b: q(value_on_ball(src, dst_level, b)) if dst_level >= src_level else rng.choice(target.points)
        for b in tree.levels[dst_level].points
    }
    if perturb:
        ball = rng.choice(tree.levels[dst_level].points)
        values[ball] = "t1" if values[ball] == "t0" else "t0"
    dst = SliceObject(
        base=tree,
        level=dst_level,
        target=target,
        quotient_map=PointMap(tree.levels[dst_level], target, values),
    )
    want = ref_commute_error(src, dst, q)
    if want is None:
        SliceArrow(src, dst, q)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            SliceArrow(src, dst, q)


def validated_compose(g: PointMap, f: PointMap) -> PointMap:
    """compose with the composite re-checked by the map constructor."""
    cls = Surjection if isinstance(f, Surjection) and isinstance(g, Surjection) else PointMap
    return cls(f.dom, g.cod, {p: g(f(p)) for p in f.dom.points})


def ref_pullback(q1: Surjection, q2: Surjection):
    """The pullback by testing every pair of X x Y."""
    x_space, y_space = q1.dom, q2.dom
    pairs = [(x, y) for x in x_space.points for y in y_space.points if q1(x) == q2(y)]
    w = FiniteSpace(
        id=f"pb({x_space.id},{y_space.id})", points=tuple(pair_label(x, y) for x, y in pairs)
    )
    f1 = Surjection(w, x_space, {pair_label(x, y): x for x, y in pairs})
    g1 = Surjection(w, y_space, {pair_label(x, y): y for x, y in pairs})
    return w, f1, g1


def ref_bonding(seq: InverseSequence, a: int, b: int) -> PointMap:
    """steps[a] o ... o steps[b-1], folded from the identity as a fresh map."""
    out: PointMap = identity(seq.spaces[b])
    for level in range(b - 1, a - 1, -1):
        out = validated_compose(seq.steps[level], out)
    return out


@st.composite
def point_maps(draw, dom: FiniteSpace, cod: FiniteSpace, onto: bool):
    """A map dom -> cod, onto when asked (then len(dom) >= len(cod))."""
    values = draw(st.lists(st.sampled_from(cod.points), min_size=len(dom), max_size=len(dom)))
    if onto:
        order = draw(st.permutations(range(len(dom))))
        for q, i in zip(cod.points, order):
            values[i] = q
    return (Surjection if onto else PointMap)(dom, cod, dict(zip(dom.points, values)))


@st.composite
def spaces(draw, name: str, min_size: int = 1, max_size: int = 7):
    n = draw(st.integers(min_size, max_size))
    points = draw(st.permutations([f"{name}{i}" for i in range(n)]))
    return FiniteSpace(id=name, points=tuple(points))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pullback_matches_pairwise_definition(data):
    z = data.draw(spaces("z", max_size=4))
    x = data.draw(spaces("x", min_size=len(z)))
    y = data.draw(spaces("y", min_size=len(z)))
    q1 = data.draw(point_maps(x, z, onto=True))
    q2 = data.draw(point_maps(y, z, onto=True))
    w, f1, g1 = pullback(q1, q2)
    rw, rf1, rg1 = ref_pullback(q1, q2)
    assert (w.id, w.points) == (rw.id, rw.points)
    for got, want in ((f1, rf1), (g1, rg1)):
        assert type(got) is type(want) is Surjection
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_matches_validated_construction(data):
    a, b, c = data.draw(spaces("a", min_size=4)), data.draw(spaces("b", 2, 4)), data.draw(spaces("c", 1, 2))
    f = data.draw(point_maps(a, b, onto=data.draw(st.booleans())))
    g = data.draw(point_maps(b, c, onto=data.draw(st.booleans())))
    got, want = compose(g, f), validated_compose(g, f)
    assert type(got) is type(want)
    assert got == want and list(got.mapping) == list(a.points)
    for q in c.points:
        assert got.fiber(q) == scan_fiber(want, q)
    with pytest.raises(ValueError, match="cannot compose"):
        compose(f, g)


def check_bondings(seq: InverseSequence) -> None:
    for b in range(seq.length + 1):
        for a in range(b + 1):
            got, want = seq.bonding(a, b), ref_bonding(seq, a, b)
            assert type(got) is type(want)
            assert got == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bonding_matches_a_fresh_fold(data):
    chain = [data.draw(spaces("s0", max_size=3))]
    steps = []
    for a in range(data.draw(st.integers(0, 5))):
        chain.append(data.draw(spaces(f"s{a + 1}", min_size=len(chain[-1]))))
        steps.append(data.draw(point_maps(chain[-1], chain[-2], onto=data.draw(st.booleans()))))
    check_bondings(InverseSequence(tuple(chain), tuple(steps)))


def test_bonding_of_parsed_certificate_steps():
    schedule = PaddingSchedule()
    build = build_fraisse(k4(), 5, schedule, ((1, "p0"),))
    spaces_, steps, _ = serial.sliced_parts_from_json(serial.sliced_to_json(build.sequence), k4())
    assert all(type(step) is PointMap for step in steps)
    for seq in (InverseSequence(spaces_, steps), build.sequence.seq):
        check_bondings(seq)


def build_counts(monkeypatch, k: int) -> tuple[int, int]:
    """(slice arrows, composes) made by a build whose stage 1 absorbs k splits."""
    arrows, composes = [], []
    post_init = SliceArrow.__post_init__

    def counting_post_init(self):
        arrows.append(1)
        post_init(self)

    def counting_compose(g, f):
        composes.append(1)
        return compose(g, f)

    monkeypatch.setattr(SliceArrow, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "compose", counting_compose)
    points = ("0", "1", "p0", "p1", "p2", "p3")[:k]
    build = build_fraisse(
        k4(), 2, PaddingSchedule(), [(1, p) for p in points]
    )
    monkeypatch.undo()
    assert len(build.witnesses) == k
    assert {w.beta for w in build.witnesses.values()} == {2}
    return len(arrows), len(composes)


def test_one_stage_absorbing_k_tasks_does_linear_work(monkeypatch):
    counts = [build_counts(monkeypatch, k) for k in range(1, 7)]
    for column in zip(*counts):
        steps = {later - earlier for earlier, later in zip(column, column[1:])}
        assert len(steps) == 1, column  # the same work per extra task, not growing with k
    arrows_per_task, composes_per_task = (counts[1][i] - counts[0][i] for i in range(2))
    assert arrows_per_task <= 5 and composes_per_task <= 4


def test_build_checks_each_step_once(monkeypatch):
    sliced_checks, step_checks = [], []
    post_init, discord = SlicedSequence.__post_init__, SliceObject.discord

    def counting_post_init(self):
        sliced_checks.append(1)
        post_init(self)

    def counting_discord(self, *args):
        # only the runs that SlicedSequence.__post_init__ makes, not SliceArrow's
        if sys._getframe(1).f_code is post_init.__code__:
            step_checks.append(1)
        return discord(self, *args)

    monkeypatch.setattr(SlicedSequence, "__post_init__", counting_post_init)
    monkeypatch.setattr(SliceObject, "discord", counting_discord)
    build = build_fraisse(binary_tree(3), 8, PaddingSchedule(), [(1, "p0"), (2, "00")])
    monkeypatch.undo()
    assert len(build.witnesses) == 2
    # the one sequence the build returns, each of its 8 steps checked once
    assert (len(sliced_checks), len(step_checks)) == (1, 8)


def recursive_saturate(needed, free, candidates):
    """The augmenting-path matching by recursion, as the build first had it."""
    owner: dict[str, str] = {}

    def assign(y, seen):
        for x in free:
            if x in seen or y not in candidates[x]:
                continue
            seen.add(x)
            if x not in owner or assign(owner[x], seen):
                owner[x] = y
                return True
        return False

    for y in needed:
        if not assign(y, set()):
            return None, y
    return owner, ""


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iterative_saturate_matches_recursive_version(data):
    targets = [f"y{i}" for i in range(data.draw(st.integers(1, 7)))]
    free = data.draw(st.permutations([f"x{i}" for i in range(data.draw(st.integers(0, 8)))]))
    candidates = {
        x: frozenset(data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3)))
        for x in free
    }
    needed = data.draw(st.lists(st.sampled_from(targets), unique=True))
    got, want = engine._saturate(needed, free, candidates), recursive_saturate(needed, free, candidates)
    assert got == want
    if got[0] is not None:
        assert list(got[0].items()) == list(want[0].items())


def test_saturate_follows_paths_longer_than_the_recursion_limit():
    # x_i accepts y_i and y_{i+1}; placing y_1..y_n first leaves y_0 an
    # augmenting path through every free point
    n = sys.getrecursionlimit() + 100
    free = [f"x{i}" for i in range(n + 1)]
    candidates = {f"x{i}": frozenset({f"y{i}", f"y{i + 1}"}) for i in range(n)}
    candidates[f"x{n}"] = frozenset({f"y{n}"})
    needed = [f"y{i}" for i in range(1, n + 1)] + ["y0"]
    with pytest.raises(RecursionError):
        recursive_saturate(needed, free, candidates)
    owner, stuck = engine._saturate(needed, free, candidates)
    assert stuck == ""
    assert owner == {f"x{i}": f"y{i}" for i in range(n + 1)}


def ref_nearest(tree, anchors):
    """The anchor maximising (u_metric, -position), as retract_onto first chose it."""
    return {
        w: max(anchors, key=lambda x: (u_metric(tree, w, x), -anchors.index(x)))
        for w in tree.points
    }


@settings(max_examples=150, deadline=None)
@given(tree_and_subset())
def test_nearest_points_match_the_metric_maximum(case):
    tree, _, rng = case
    anchors = rng.sample(tree.points, rng.randint(1, len(tree.points)))
    assert nearest_points(tree, anchors) == ref_nearest(tree, anchors)


def test_retraction_sends_each_point_to_its_nearest_embedded_point():
    for tree in (k4(), binary_tree(3), random_tree(5, max_depth=3, max_points=12)):
        pres = embed_generic(tree, 4, PaddingSchedule())
        anchors = [pres.eta_point(x) for x in tree.points]
        base_of = dict(zip(anchors, tree.points))
        want = {w: base_of[e] for w, e in ref_nearest(pres.ambient, anchors).items()}
        assert retraction_table(pres.ambient, retract_onto(pres)) == want


def old_probe_search(sliced, probe):
    """verify_fraisse's probe loop from before probes and tasks shared one
    search, kept verbatim: the first stage with a witness, and the witness."""
    for level in range(sliced.seq.length + 1):
        forced, conflict = engine._forced_values(sliced.phis[level], probe)
        if forced is None:
            continue
        free = [x for x in sliced.seq.spaces[level].points if x not in forced]
        covered = set(forced.values())
        needed = [y for y in probe.target.points if y not in covered]
        if len(needed) > len(free):
            continue
        mapping = dict(forced)
        for i, x in enumerate(free):
            mapping[x] = needed[i] if i < len(needed) else probe.target.points[0]
        q = Surjection(sliced.seq.spaces[level], probe.target, mapping)
        SliceArrow(sliced.phis[level], probe, q)
        return level, q
    return None, None


def old_task_beta(sliced, task):
    """The first stage at which the task search from before the shared search
    (kept verbatim, filling with the least label of the bonding fiber) finds
    a witness, or None."""
    for beta in range(task.stage, sliced.seq.length + 1):
        phi = sliced.phis[beta]
        target = task.arrow.src.target
        forced, conflict = engine._forced_values(phi, task.arrow.src)
        if forced is None:
            continue
        bond = sliced.seq.bonding(task.stage, beta)
        candidates = {
            x: frozenset(task.arrow.q.fiber(bond(x))) for x in sliced.seq.spaces[beta].points
        }
        if any(y not in candidates[x] for x, y in forced.items()):
            continue
        free = [x for x in sliced.seq.spaces[beta].points if x not in forced]
        covered = set(forced.values())
        needed = [y for y in target.points if y not in covered]
        owner, stuck = engine._saturate(needed, free, candidates)
        if owner is None:
            continue
        mapping = dict(forced)
        for x in free:
            mapping[x] = owner[x] if x in owner else sorted(candidates[x])[0]
        g = Surjection(sliced.seq.spaces[beta], target, mapping)
        assert compose(task.arrow.q, g) == bond
        return beta
    return None


def random_surjective_probe(tree, rng):
    """A slice object onto a shuffled target, at a random level."""
    level = rng.randint(0, tree.depth)
    balls = list(tree.levels[level].points)
    rng.shuffle(balls)
    names = [f"t{i}" for i in range(rng.randint(1, len(balls)))]
    rng.shuffle(names)
    values = {b: names[i] if i < len(names) else rng.choice(names) for i, b in enumerate(balls)}
    target = FiniteSpace(id="probe", points=tuple(names))
    return SliceObject(
        base=tree, level=level, target=target, quotient_map=PointMap(tree.levels[level], target, values)
    )


def fraisse_case(tree, rng):
    """A build over `tree` absorbing one split, and split tasks into random
    stages of it, some of which no stage absorbs."""
    build = build_fraisse(
        tree, tree.depth + 1, PaddingSchedule(), ((1, "p0"),)
    )
    sliced = build.sequence
    tasks = [task for _, task in build.tasks]
    for _ in range(3):
        stage = rng.randint(0, sliced.seq.length)
        point = rng.choice(sliced.seq.spaces[stage].points)
        tasks.append(split_task(sliced.phis[stage], stage, point))
    return sliced, tasks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_probe_witnesses_match_the_old_probe_loop(seed):
    rng = random.Random(seed)
    for tree in trees(seed):
        sliced, _ = fraisse_case(tree, rng)
        probes = _canonical_probes(tree) + [random_surjective_probe(tree, rng) for _ in range(3)]
        report = verify_fraisse(sliced, probes=probes)
        for probe, result in zip(probes, report.probes):
            assert result.status == "witnessed"
            assert (result.level, result.mapping) == old_probe_search(sliced, probe)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_task_witnesses_keep_the_old_stage_and_compose_to_the_bonding(seed):
    rng = random.Random(seed)
    for tree in trees(seed):
        sliced, tasks = fraisse_case(tree, rng)
        report = verify_fraisse(sliced, tasks)
        assert report.tasks[0].status == "witnessed"  # the split the build absorbed
        for task, result in zip(tasks, report.tasks):
            assert result.beta == old_task_beta(sliced, task)
            if result.beta is None:
                assert result.status == "failed"
                continue
            SliceArrow(sliced.phis[result.beta], task.arrow.src, result.mapping)
            assert compose(task.arrow.q, result.mapping) == sliced.seq.bonding(
                task.stage, result.beta
            )


# The level passes of the subset-presentation path against the code they
# replaced, kept verbatim below as the oracles: the per-ball search through
# `descendants`, the per-point eta threads, and the per-point slice check.


def old_is_uniformly_nowhere_dense(tree, subset):
    avoid = frozenset(subset)
    unknown = [p for p in avoid if p not in tree.levels[-1]]
    if unknown:
        raise ValueError(f"subset point {min(unknown)!r} is not in the tree")
    met = met_balls(tree, avoid)
    never = tree.depth + 1
    # first[level][ball] for the met balls only; a ball that avoids the
    # subset is free at its own level
    first: list[dict[str, int]] = [{} for _ in tree.levels]
    first[-1] = dict.fromkeys(met[-1], never)
    for level in range(tree.depth - 1, -1, -1):
        below = first[level + 1]
        first[level] = {
            b: min(below.get(c, level + 1) for c in tree.parents[level].fiber(b))
            for b in met[level]
        }
    target_levels = []
    choices = []
    for alpha in range(tree.depth):
        beta = max(alpha + 1, max(first[alpha].values(), default=0))
        if beta == never:
            worst = next(b for b in tree.levels[alpha].points if first[alpha].get(b) == never)
            return NowhereDenseFailure(level=alpha, ball=worst)
        target_levels.append(beta)
        choices.append(
            {
                label: next(b for b in tree.descendants(alpha, label, beta) if b not in met[beta])
                for label in tree.levels[alpha].points
            }
        )
    return NowhereDenseWitness(tuple(target_levels), tuple(choices))


def old_eta_threads(sliced, ambient):
    root = ambient.levels[0].points if ambient.depth > sliced.seq.length else ()
    return {
        x: root + tuple(point_value(phi, x) for phi in sliced.phis)
        for x in sliced.base.points
    }


def old_slice_check(seq, phis):
    """The pointwise step check of `SlicedSequence.__post_init__`."""
    base = phis[0].base
    for a, step in enumerate(seq.steps):
        upper, lower = phis[a + 1], phis[a]
        for point in base.points:
            if step(point_value(upper, point)) != point_value(lower, point):
                raise ValueError(
                    f"step {a} does not carry phis[{a + 1}] to phis[{a}] at base point {point!r}"
                )


def old_embed_choices(pres):
    """The per-ball children scan that `embed_generic` made its witness with."""
    ambient = pres.ambient
    choices = []
    for alpha in range(ambient.depth):
        marked = pres.holders(alpha + 1)
        choice = {}
        for label in ambient.levels[alpha].points:
            free = [c for c in ambient.children(alpha, label) if c not in marked]
            if not free:
                raise AssertionError("every padded stage keeps a pad child under each ball")
            choice[label] = free[0]
        choices.append(choice)
    return choices


@settings(max_examples=150, deadline=None)
@given(tree_and_subset())
def test_nowhere_density_levels_choices_and_failures_match_the_old_search(case):
    tree, subset, _ = case
    got = is_uniformly_nowhere_dense(tree, subset)
    want = old_is_uniformly_nowhere_dense(tree, subset)
    assert got == want
    if isinstance(want, NowhereDenseWitness):
        assert [list(c.items()) for c in got.choices] == [list(c.items()) for c in want.choices]


@settings(max_examples=60, deadline=None)
@given(tree_and_subset())
def test_eta_threads_of_subset_presentations_match_the_pointwise_threads(case):
    tree, subset, _ = case
    if not subset or not isinstance(old_is_uniformly_nowhere_dense(tree, subset), NowhereDenseWitness):
        return
    pres = presentation_from_subset(tree, subset)
    got, want = eta_threads(pres.sliced, pres.ambient), old_eta_threads(pres.sliced, pres.ambient)
    assert list(got.items()) == list(want.items())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_eta_threads_and_embed_choices_of_builds_match_the_old_scans(seed):
    rng = random.Random(seed)
    for tree in trees(seed):
        sliced, _ = fraisse_case(tree, rng)
        ambient = from_sequence(sliced.seq)
        got, want = eta_threads(sliced, ambient), old_eta_threads(sliced, ambient)
        assert list(got.items()) == list(want.items())
    small = random_tree(seed, max_depth=3, max_points=8)
    pres = embed_generic(small, small.depth + 1, PaddingSchedule())
    witness = is_uniformly_nowhere_dense(pres.ambient, [pres.eta_point(x) for x in small.points])
    assert witness.target_levels == tuple(range(1, pres.ambient.depth + 1))
    assert [list(c.items()) for c in witness.choices] == [
        list(c.items()) for c in old_embed_choices(pres)
    ]


def corrupt_steps(seq, rng, count: int):
    """The sequence with `count` entries of one step sent to other points."""
    steps = list(seq.steps)
    candidates = [a for a, step in enumerate(steps) if len(step.cod) > 1]
    if candidates:
        a = rng.choice(candidates)
        mapping = dict(steps[a].mapping)
        for ball in rng.sample(steps[a].dom.points, min(count, len(steps[a].dom))):
            mapping[ball] = rng.choice([q for q in steps[a].cod.points if q != mapping[ball]])
        steps[a] = PointMap(steps[a].dom, steps[a].cod, mapping)
    return InverseSequence(seq.spaces, tuple(steps))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
def test_sliced_sequence_names_the_first_offending_point_as_before(seed, count, build):
    rng = random.Random(seed)
    tree = shuffled_rebuild(seed, max_depth=3, max_points=12)
    if build:
        sliced, _ = fraisse_case(tree, rng)
        seq, phis = sliced.seq, sliced.phis
    else:  # the base tree's own ball quotients, each level by itself
        seq = ball_quotients(tree)
        phis = tuple(SliceObject(tree, a, level, identity(level)) for a, level in enumerate(tree.levels))
    bad = corrupt_steps(seq, rng, count)
    got, want = outcome(SlicedSequence, bad, phis), outcome(old_slice_check, bad, phis)
    if want is None:  # the corrupted entries are values of no base point
        assert isinstance(got, SlicedSequence)
    else:
        assert got == want


def first_leaf_of_first_offending_ball(seq, phis):
    """What a per-ball check that named its first offending ball's first leaf
    would name: another point than the per-point scan where the tree lists
    its balls in another order than the leaves under them come."""
    base = phis[0].base
    for a, step in enumerate(seq.steps):
        upper, lower = phis[a + 1], phis[a]
        level = max(upper.level, lower.level)
        for ball in base.levels[level].points:
            got = step(upper.quotient_map(ancestor(base, level, ball, upper.level)))
            if got != lower.quotient_map(ancestor(base, level, ball, lower.level)):
                return next(p for p in base.points if ancestor(base, base.depth, p, level) == ball)
    return None


def test_sliced_sequence_names_the_point_that_ball_order_would_misname():
    misnamed = 0
    for seed in range(100):
        rng = random.Random(seed)
        tree = shuffled_rebuild(seed, max_depth=3, max_points=12)
        phis = tuple(SliceObject(tree, a, level, identity(level)) for a, level in enumerate(tree.levels))
        bad = corrupt_steps(ball_quotients(tree), rng, 6)
        want = outcome(old_slice_check, bad, phis)
        if want is None or want[1].endswith(repr(first_leaf_of_first_offending_ball(bad, phis))):
            continue
        misnamed += 1
        assert outcome(SlicedSequence, bad, phis) == want
    assert misnamed >= 5
