"""Reference definitions and test data that the tests compare the package against.

No command runs these.  Each is a plain definition (the ultrametric laws,
limit threads, leaf chains read up the parent maps, per-ball nowhere
density made uniform, the canonical pad arrow, slice values read one
ancestor at a time) or a seeded example tree.
They stay apart from the program they check, and simple enough to trust
by reading (McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", 2011).
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from ultrafraisse.balltree import BallTree, NowhereDenseWitness, u_metric
from ultrafraisse.engine import PaddingSchedule, make_padded_object, pad_routes
from ultrafraisse.sequences import InverseSequence, Report, check_coherent
from ultrafraisse.slices import SliceArrow, SliceObject
from ultrafraisse.spaces import FiniteSpace, Surjection, identity


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


def ancestor(tree: BallTree, level: int, label: str, alpha: int) -> str:
    """The level-alpha ball holding the given level-`level` ball, read up the parent maps."""
    for a in range(level - 1, alpha - 1, -1):
        label = tree.parents[a](label)
    return label


def thread_embedding(tree: BallTree) -> dict[str, tuple[str, ...]]:
    """Each point mapped to its chain of ancestors, a thread of the ball quotients."""
    return {p: tuple(ancestor(tree, tree.depth, p, a) for a in range(tree.depth + 1)) for p in tree.points}


def apply_level_maps(maps, thread: tuple[str, ...]) -> tuple[str, ...]:
    """A thread's image under level maps, one entry at a time."""
    return tuple(maps[a][e] for a, e in enumerate(thread))


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


def ball(tree: BallTree, point: str, alpha: int) -> frozenset[str]:
    """All points sharing the level-alpha ball of `point`."""
    if point not in tree.levels[-1]:
        raise ValueError(f"unknown point {point!r}")
    if not 0 <= alpha <= tree.depth:
        raise ValueError(f"level {alpha} out of range")
    return tree.leafset(alpha, tree.ancestor(tree.depth, point, alpha))


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
        (alpha, label, tree.leafset(alpha, label))
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
            if picked not in tree.levels[beta_v] or tree.ancestor(beta_v, picked, alpha) != label:
                raise ValueError(f"ball ({alpha}, {label!r}): witness {picked!r} not inside it")
            if tree.leafset(beta_v, picked) & avoid:
                raise ValueError(f"ball ({alpha}, {label!r}): witness {picked!r} meets the subset")
            entries[label] = (beta_v, picked)
        beta = max(b for b, _ in entries.values())
        deepened = {}
        for label, (beta_v, picked) in entries.items():
            deepened[label] = tree.descendants(beta_v, picked, beta)[0]
            if tree.leafset(beta, deepened[label]) & avoid:
                raise AssertionError(f"descendant {deepened[label]!r} of a free ball meets the subset")
        target_levels.append(beta)
        choices.append(deepened)
    return NowhereDenseWitness(tuple(target_levels), tuple(choices))


def dominating_arrow(
    tree: BallTree,
    low: tuple[int, int],
    high: tuple[int, int],
    schedule: PaddingSchedule,
) -> SliceArrow:
    """Canonical surjection between padded objects, from `high` indices to `low`.

    Ball labels follow the parent chain and pads follow `pad_routes`; at
    equal pad indices each pad stays put.
    """
    (alpha, xi), (beta, delta) = low, high
    if not (0 <= alpha <= beta <= tree.depth):
        raise ValueError(f"ball levels must satisfy 0 <= {alpha} <= {beta} <= {tree.depth}")
    if xi > delta:
        raise ValueError(f"pad indices must satisfy {xi} <= {delta}")
    src = make_padded_object(tree, beta, delta, schedule)
    dst = make_padded_object(tree, alpha, xi, schedule)
    pads = src.pad_labels
    mapping = {b: tree.ancestor(beta, b, alpha) for b in src.ball_labels}
    mapping.update(zip(pads, pads if xi == delta else pad_routes(len(pads), dst)))
    q = Surjection(src.object.target, dst.object.target, mapping)
    return SliceArrow(src.object, dst.object, q)


def value_on_ball(phi: SliceObject, level: int, label: str) -> str:
    """A slice object's value on one ball at or below its factoring level,
    read at the ball's ancestor on that level."""
    if level < phi.level:
        raise ValueError(f"balls at level {level} are too coarse for level {phi.level}")
    return phi.quotient_map(phi.base.ancestor(level, label, phi.level))


def point_value(phi: SliceObject, point: str) -> str:
    """A slice object's value at one base point."""
    return value_on_ball(phi, phi.base.depth, point)


def identity_arrow(obj: SliceObject) -> SliceArrow:
    return SliceArrow(obj, obj, identity(obj.target))
