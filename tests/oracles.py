"""Reference definitions and test data that the tests compare the package against.

No command runs these.  Each concept has one plain definition here: the
ultrametric laws, a tree's balls read up its parent maps, maps and
pullbacks by enumeration, nowhere density by leaf sets, factoring levels,
slice values read one ancestor at a time, the canonical pad arrow built
from pad blocks, and the searches and checks that the package's
single-pass versions replaced, kept as they were.  They read a tree only
through its levels and parent maps, with `ancestor`, `descendants`,
`children` and `leafset` below, never through the tree's own methods.
They stay apart from the program they check, and simple enough to trust
by reading (McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", 2011).
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from ultrafraisse import engine
from ultrafraisse.balltree import BallTree, NowhereDenseFailure, NowhereDenseWitness, u_metric
from ultrafraisse.engine import PaddingSchedule, make_padded_object
from ultrafraisse.errors import DepthError
from ultrafraisse.sequences import InverseSequence, Report, check_coherent
from ultrafraisse.slices import SliceArrow, SliceObject
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, identity, pair_label


def random_tree(seed: int, max_depth: int = 5, max_points: int = 64) -> BallTree:
    """A seeded random ball tree with bounded depth and leaf count."""
    rng = random.Random(seed)
    depth = rng.randint(1, max_depth)
    levels = [FiniteSpace(id="rt0", points=("b",))]
    parents = []
    for a in range(depth):
        upper = []
        mapping = {}
        for label in levels[a].points:
            width = rng.randint(1, 4)
            for i in range(width):
                child = f"{label}.{i}"
                upper.append(child)
                mapping[child] = label
        # trim uniformly if the level exceeds the leaf budget, keeping one child each
        if len(upper) > max_points:
            keep = {label: False for label in levels[a].points}
            trimmed = []
            for child in upper:
                parent = mapping[child]
                if not keep[parent]:
                    keep[parent] = True
                    trimmed.append(child)
            for child in upper:
                if child not in trimmed and len(trimmed) < max_points:
                    trimmed.append(child)
            upper = [c for c in upper if c in set(trimmed)]
            mapping = {c: mapping[c] for c in upper}
        space = FiniteSpace(id=f"rt{a + 1}", points=tuple(upper))
        parents.append(Surjection(space, levels[a], mapping))
        levels.append(space)
    return BallTree(levels=tuple(levels), parents=tuple(parents))


# A tree's balls, read up its parent maps.


def ancestor(tree: BallTree, level: int, label: str, alpha: int) -> str:
    """The level-alpha ball holding the given level-`level` ball, read up the parent maps."""
    for a in range(level - 1, alpha - 1, -1):
        label = tree.parents[a](label)
    return label


def descendants(tree: BallTree, level: int, label: str, beta: int) -> tuple[str, ...]:
    """The level-beta balls inside the given ball, in level order, by
    testing every level-beta ball's ancestor."""
    return tuple(b for b in tree.levels[beta].points if ancestor(tree, beta, b, level) == label)


def children(tree: BallTree, level: int, label: str) -> tuple[str, ...]:
    return descendants(tree, level, label, level + 1)


def leafset(tree: BallTree, level: int, label: str) -> frozenset[str]:
    return frozenset(descendants(tree, level, label, tree.depth))


def ball(tree: BallTree, point: str, alpha: int) -> frozenset[str]:
    """All points sharing the level-alpha ball of `point`."""
    return leafset(tree, alpha, ancestor(tree, tree.depth, point, alpha))


def thread_embedding(tree: BallTree) -> dict[str, tuple[str, ...]]:
    """Each point mapped to its chain of ancestors, a thread of the ball quotients."""
    return {p: tuple(ancestor(tree, tree.depth, p, a) for a in range(tree.depth + 1)) for p in tree.points}


def apply_level_maps(maps, thread: tuple[str, ...]) -> tuple[str, ...]:
    """A thread's image under level maps, one entry at a time."""
    return tuple(maps[a][e] for a, e in enumerate(thread))


def check_axioms(tree: BallTree) -> Report:
    """Exhaustively verify the three ultrametric laws plus the ball nesting law."""
    issues = []
    pts = tree.points
    d = tree.depth
    dist = {(a, b): u_metric(tree, a, b) for a in pts for b in pts}
    for a in pts:
        for b in pts:
            if (dist[(a, b)] == d) != (a == b):
                issues.append(f"identity law fails at ({a!r}, {b!r})")
            if dist[(a, b)] != dist[(b, a)]:
                issues.append(f"symmetry fails at ({a!r}, {b!r})")
    for x in pts:
        for y in pts:
            for z in pts:
                if dist[(y, z)] < min(dist[(y, x)], dist[(x, z)]):
                    issues.append(f"triangle law fails at ({y!r}, {x!r}, {z!r})")
    all_balls = [
        (alpha, label, leafset(tree, alpha, label))
        for alpha in range(d + 1)
        for label in tree.levels[alpha].points
    ]
    for alpha, la, sa in all_balls:
        for beta, lb, sb in all_balls:
            inter = sa & sb
            if inter and not (sa <= sb or sb <= sa):
                issues.append(f"balls ({alpha},{la!r}) and ({beta},{lb!r}) overlap without nesting")
            if sa < sb and not alpha > beta:
                issues.append(f"strict nesting ({alpha},{la!r}) < ({beta},{lb!r}) without level drop")
    return Report(tuple(issues))


# Maps and sequences.


def fiber(f: PointMap, value: str) -> tuple[str, ...]:
    """The points f sends to `value`, by scanning the domain."""
    return tuple(p for p in f.dom.points if f.mapping[p] == value)


def compose(g: PointMap, f: PointMap) -> PointMap:
    """g o f, with the composite re-checked by the map constructor."""
    cls = Surjection if isinstance(f, Surjection) and isinstance(g, Surjection) else PointMap
    return cls(f.dom, g.cod, {p: g(f(p)) for p in f.dom.points})


def pullback(q1: Surjection, q2: Surjection):
    """The pullback X x_Z Y and its two legs, by testing every pair of X x Y."""
    x_space, y_space = q1.dom, q2.dom
    pairs = [(x, y) for x in x_space.points for y in y_space.points if q1(x) == q2(y)]
    w = FiniteSpace(
        id=f"pb({x_space.id},{y_space.id})", points=tuple(pair_label(x, y) for x, y in pairs)
    )
    f1 = Surjection(w, x_space, {pair_label(x, y): x for x, y in pairs})
    g1 = Surjection(w, y_space, {pair_label(x, y): y for x, y in pairs})
    return w, f1, g1


def bonding(seq: InverseSequence, a: int, b: int) -> PointMap:
    """steps[a] o ... o steps[b-1], folded from the identity as a fresh map."""
    out: PointMap = identity(seq.spaces[b])
    for level in range(b - 1, a - 1, -1):
        out = compose(seq.steps[level], out)
    return out


def limit_threads(seq: InverseSequence) -> list[tuple[str, ...]]:
    """All threads, one per top-level point, in top-space order.

    A thread is a compatible tuple: the steps send each entry to the one below."""
    report = check_coherent(seq)
    if not report.ok:
        raise ValueError(f"incoherent sequence: {report.issues[0]}")
    threads = []
    for top in seq.spaces[-1].points:
        entries = [top]
        for step in reversed(seq.steps):
            entries.append(step(entries[-1]))
        threads.append(tuple(reversed(entries)))
    return threads


# Nowhere density, by leaf sets: a ball avoids a set when its leaf set misses it.


def is_uniformly_nowhere_dense(
    tree: BallTree, subset: Iterable[str]
) -> NowhereDenseWitness | NowhereDenseFailure:
    """For every level alpha the least beta > alpha at which every alpha-ball
    holds an avoiding beta-ball, with the first one in level order per
    alpha-ball, found by trying each beta in turn; or the least level that
    no beta serves, with its first ball that holds no avoiding point."""
    avoid = frozenset(subset)
    unknown = avoid - set(tree.points)
    if unknown:
        raise ValueError(f"subset point {sorted(unknown)[0]!r} is not in the tree")

    def avoiding(label, alpha, beta):
        return [b for b in descendants(tree, alpha, label, beta) if not leafset(tree, beta, b) & avoid]

    target_levels = []
    choices = []
    for alpha in range(tree.depth):
        for beta in range(alpha + 1, tree.depth + 1):
            choice = {}
            for label in tree.levels[alpha].points:
                free = avoiding(label, alpha, beta)
                if not free:
                    break
                choice[label] = free[0]
            else:
                target_levels.append(beta)
                choices.append(choice)
                break
        else:
            worst = next(b for b in tree.levels[alpha].points if not avoiding(b, alpha, tree.depth))
            return NowhereDenseFailure(level=alpha, ball=worst)
    return NowhereDenseWitness(tuple(target_levels), tuple(choices))


def validate_witness(tree: BallTree, subset: Iterable[str], witness: NowhereDenseWitness) -> tuple[str, ...]:
    """Every clause of a witness that fails, in the package's words."""
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
            if ancestor(tree, beta, picked, alpha) != label:
                issues.append(f"level {alpha}: choice {picked!r} is not inside ball {label!r}")
            if leafset(tree, beta, picked) & avoid:
                issues.append(f"level {alpha}: choice {picked!r} meets the subset")
    return tuple(issues)


def nowhere_dense_to_uniform(
    tree: BallTree,
    subset: Iterable[str],
    per_ball: Mapping[tuple[int, str], tuple[int, str]],
) -> NowhereDenseWitness:
    """Turn per-ball avoidance data into a uniform witness.

    `per_ball` assigns to every ball (alpha, label) with alpha < depth some
    deeper level and an avoiding ball inside it.  Per level the uniform target
    is the maximum of the per-ball levels; each witness ball is deepened to
    that level by taking its least descendant, which still avoids the subset.
    """
    avoid = frozenset(subset)
    target_levels = []
    choices = []
    for alpha in range(tree.depth):
        entries = {}
        for label in tree.levels[alpha].points:
            got = per_ball.get((alpha, label))
            if got is None:
                raise ValueError(f"per_ball data missing for ball ({alpha}, {label!r})")
            beta_v, picked = got
            if not alpha < beta_v <= tree.depth:
                raise ValueError(f"ball ({alpha}, {label!r}): level {beta_v} not below {label!r}")
            if picked not in tree.levels[beta_v] or ancestor(tree, beta_v, picked, alpha) != label:
                raise ValueError(f"ball ({alpha}, {label!r}): witness {picked!r} not inside it")
            if leafset(tree, beta_v, picked) & avoid:
                raise ValueError(f"ball ({alpha}, {label!r}): witness {picked!r} meets the subset")
            entries[label] = (beta_v, picked)
        beta = max(b for b, _ in entries.values())
        deepened = {}
        for label, (beta_v, picked) in entries.items():
            deepened[label] = descendants(tree, beta_v, picked, beta)[0]
            if leafset(tree, beta, deepened[label]) & avoid:
                raise AssertionError(f"descendant {deepened[label]!r} of a free ball meets the subset")
        target_levels.append(beta)
        choices.append(deepened)
    return NowhereDenseWitness(tuple(target_levels), tuple(choices))


# Uniform continuity, by leaf sets.


def factoring_level(tree: BallTree, point_map: Mapping[str, str]) -> tuple[int, dict[str, str]]:
    """The least level whose balls the map is constant on, with its value on each of them."""
    missing = [p for p in tree.points if p not in point_map]
    if missing:
        raise ValueError(f"map undefined at point {missing[0]!r}")
    for level in range(tree.depth + 1):
        values = {
            label: {point_map[p] for p in leafset(tree, level, label)}
            for label in tree.levels[level].points
        }
        if all(len(v) == 1 for v in values.values()):
            return level, {label: v.pop() for label, v in values.items()}


# Slice objects, read one ancestor at a time.


def value_on_ball(phi: SliceObject, level: int, label: str) -> str:
    """A slice object's value on one ball at or below its factoring level,
    read at the ball's ancestor on that level."""
    if level < phi.level:
        raise ValueError(f"balls at level {level} are too coarse for level {phi.level}")
    return phi.quotient_map(ancestor(phi.base, level, label, phi.level))


def point_value(phi: SliceObject, point: str) -> str:
    """A slice object's value at one base point."""
    return value_on_ball(phi, phi.base.depth, point)


def identity_arrow(obj: SliceObject) -> SliceArrow:
    return SliceArrow(obj, obj, identity(obj.target))


def commute_error(arrow_src: SliceObject, arrow_dst: SliceObject, q: PointMap) -> str | None:
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


def slice_check(seq: InverseSequence, phis) -> None:
    """The pointwise step check of `SlicedSequence.__post_init__`, as it was."""
    base = phis[0].base
    for a, step in enumerate(seq.steps):
        upper, lower = phis[a + 1], phis[a]
        for point in base.points:
            if step(point_value(upper, point)) != point_value(lower, point):
                raise ValueError(
                    f"step {a} does not carry phis[{a + 1}] to phis[{a}] at base point {point!r}"
                )


def eta_threads(sliced, ambient: BallTree) -> dict[str, tuple[str, ...]]:
    """Each base point's thread, one slice value per level, point by point."""
    root = ambient.levels[0].points if ambient.depth > sliced.seq.length else ()
    return {
        x: root + tuple(point_value(phi, x) for phi in sliced.phis)
        for x in sliced.base.points
    }


# The canonical pad arrow, built from pad blocks: a splitter that sends the
# larger block onto the smaller one, each pad tagged to stay a pad (1) or to
# go round the balls through a cover (0).


def pad_block(schedule: PaddingSchedule, index: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(schedule.pad(index)))


def splitter(pad_lo: int, pad_hi: int, schedule: PaddingSchedule) -> dict[str, tuple[str, int]]:
    """Each pad of block `pad_hi` to a (pad of block `pad_lo`, tag) pair:
    itself, tagged 1, at equal indices, else the pairs in turn."""
    hi_points = pad_block(schedule, pad_hi)
    if pad_lo == pad_hi:
        return {x: (x, 1) for x in hi_points}
    targets = [(p, tag) for p in pad_block(schedule, pad_lo) for tag in (0, 1)]
    return {x: targets[i % len(targets)] for i, x in enumerate(hi_points)}


def ball_cover(tree: BallTree, ball_level: int, pad_index: int, schedule: PaddingSchedule) -> dict[str, str]:
    """The pads of one block sent round the balls of one level in turn."""
    balls = tree.levels[ball_level].points
    pads = pad_block(schedule, pad_index)
    if len(pads) < len(balls):
        raise DepthError(
            f"pad block {pad_index} has {len(pads)} points, cannot cover {len(balls)} balls"
        )
    return {x: balls[i % len(balls)] for i, x in enumerate(pads)}


def dominating_arrow(
    tree: BallTree,
    low: tuple[int, int],
    high: tuple[int, int],
    schedule: PaddingSchedule,
) -> SliceArrow:
    """Canonical surjection between padded objects, from `high` (ball level,
    pad index) to `low`: balls go to their ancestors, pads through the
    splitter, and a pad tagged 0 on through the cover of `low`'s balls."""
    (alpha, xi), (beta, delta) = low, high
    if not (0 <= alpha <= beta <= tree.depth):
        raise ValueError(f"ball levels must satisfy 0 <= {alpha} <= {beta} <= {tree.depth}")
    if xi > delta:
        raise ValueError(f"pad indices must satisfy {xi} <= {delta}")
    cover = ball_cover(tree, alpha, xi, schedule) if xi < delta else None
    mapping = {b: ancestor(tree, beta, b, alpha) for b in tree.levels[beta].points}
    for x, (p, tag) in splitter(xi, delta, schedule).items():
        mapping[x] = p if tag == 1 else cover[p]
    src = make_padded_object(tree, beta, delta, schedule).object
    dst = make_padded_object(tree, alpha, xi, schedule).object
    return SliceArrow(src, dst, Surjection(src.target, dst.target, mapping))


def dominate_arrow(arrow: SliceArrow, dst, schedule: PaddingSchedule, *, ball_level=None, pad_floor=None):
    """`engine.dominate_arrow` as it was before the closed-form routing: each
    candidate pad block is split and covered, and grows until every fiber
    of the arrow fits.  Returns the padded object and the factored map."""
    tree = arrow.src.base
    h = arrow.src
    alpha, xi = dst.ball_level, dst.pad_index
    beta = min(tree.depth, max(alpha + 1, h.level)) if ball_level is None else ball_level
    if beta < max(alpha, h.level) or beta > tree.depth:
        raise DepthError(f"ball level {beta} cannot host the factored arrow")

    ball_need = {z: len(arrow.q.fiber(z)) for z in dst.ball_labels}
    pad_need = {p: len(arrow.q.fiber(p)) for p in dst.pad_labels}
    delta = max(xi + 1, pad_floor if pad_floor is not None else 0)
    while True:
        split = splitter(xi, delta, schedule)
        cover = ball_cover(tree, alpha, xi, schedule)
        tag1: dict[str, list[str]] = {p: [] for p in dst.pad_labels}
        tag0: dict[str, list[str]] = {z: [] for z in dst.ball_labels}
        for x, (p, tag) in split.items():
            if tag == 1:
                tag1[p].append(x)
            else:
                tag0[cover[p]].append(x)
        short = [p for p in dst.pad_labels if len(tag1[p]) < pad_need[p]]
        short += [z for z in dst.ball_labels if len(tag0[z]) < ball_need[z]]
        if not short:
            break
        delta += 1

    padded = make_padded_object(tree, beta, delta, schedule)
    mapping = {}
    for b in padded.ball_labels:
        mapping[b] = value_on_ball(h, beta, b)
    h_image = {point_value(h, x) for x in h.base.points}
    for p in dst.pad_labels:
        pad_fiber = arrow.q.fiber(p)
        for i, x in enumerate(tag1[p]):
            mapping[x] = pad_fiber[i % len(pad_fiber)]
    for z in dst.ball_labels:
        ball_fiber = arrow.q.fiber(z)
        reached = [y for y in ball_fiber if y in h_image]
        fresh = [y for y in ball_fiber if y not in h_image]
        block = tag0[z]
        if fresh and reached:
            head, tail = block[: -len(fresh)], block[-len(fresh):]
        elif fresh:
            head, tail = [], block
        else:
            head, tail = block, []
        for i, x in enumerate(head):
            mapping[x] = reached[i % len(reached)]
        for i, x in enumerate(tail):
            mapping[x] = fresh[i % len(fresh)]
    return padded, mapping


# The witness searches as they were before probes and tasks shared one.


def saturate(needed, free, candidates):
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


def probe_search(sliced, probe):
    """verify_fraisse's probe loop: the first stage with a witness, and the witness."""
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


def task_beta(sliced, task):
    """The first stage at which the task search (filling with the least
    label of the bonding fiber) finds a witness, or None."""
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


# Presentations.


def nearest_points(tree: BallTree, anchors) -> dict[str, str]:
    """The anchor maximising (u_metric, -position), as retract_onto first chose it."""
    return {
        w: max(anchors, key=lambda x: (u_metric(tree, w, x), -anchors.index(x)))
        for w in tree.points
    }


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


def embed_choices(pres) -> list[dict[str, str]]:
    """The per-ball children scan that `embed_generic` made its witness with."""
    ambient = pres.ambient
    choices = []
    for alpha in range(ambient.depth):
        marked = pres.holders(alpha + 1)
        choice = {}
        for label in ambient.levels[alpha].points:
            free = [c for c in children(ambient, alpha, label) if c not in marked]
            if not free:
                raise AssertionError("every padded stage keeps a pad child under each ball")
            choice[label] = free[0]
        choices.append(choice)
    return choices
