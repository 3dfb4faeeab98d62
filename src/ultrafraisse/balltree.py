"""Truncated ultrametric spaces as leveled partition trees.

A tree of depth d stores, for each level 0..d, the finite space of ball
labels at that level, plus a parent surjection from each level to the one
above.  Level 0 is a single ball (the whole space) and the level-d balls
are the points.  Distances use the reversed convention: u(a, b) is the
deepest level at which a and b still share a ball, so larger values mean
closer, and u(a, b) = d exactly when a = b.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._record import Record
from .spaces import FiniteSpace, Surjection
from .sequences import InverseSequence, Report, check_coherent


class BallTree(Record):
    levels: tuple[FiniteSpace, ...]
    parents: tuple[Surjection, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("a ball tree needs depth >= 1")
        if len(self.parents) != len(self.levels) - 1:
            raise ValueError("need one parent map per non-root level")
        if len(self.levels[0]) != 1:
            raise ValueError("level 0 must consist of a single ball")
        for a, par in enumerate(self.parents):
            if par.dom != self.levels[a + 1] or par.cod != self.levels[a]:
                raise ValueError(f"parent map {a} does not map level {a + 1} onto level {a}")
        # the number of levels below the root, read on every hot path
        object.__setattr__(self, "depth", len(self.levels) - 1)

    @property
    def points(self) -> tuple[str, ...]:
        return self.levels[-1].points

    def ancestor(self, level: int, label: str, alpha: int) -> str:
        """The level-alpha ball containing the given level-`level` ball."""
        if not 0 <= alpha <= level <= self.depth:
            raise ValueError(f"bad ancestor request ({level}, {alpha})")
        if label not in self.levels[level]:
            raise ValueError(f"{label!r} is not a ball at level {level}")
        for a in range(level - 1, alpha - 1, -1):
            label = self.parents[a].mapping[label]
        return label

    def above(self, level: int, alpha: int) -> dict[str, str]:
        """Each level-`level` ball's level-alpha ancestor, in level order,
        composed down from level alpha: it reads levels alpha+1..level once."""
        if not 0 <= alpha <= level <= self.depth:
            raise ValueError(f"bad ancestor request ({level}, {alpha})")
        column = {b: b for b in self.levels[alpha].points}
        for a in range(alpha, level):
            parent = self.parents[a].mapping
            column = {b: column[parent[b]] for b in self.levels[a + 1].points}
        return column

    def children(self, level: int, label: str) -> tuple[str, ...]:
        """Balls at level+1 directly inside the given ball, in canonical order."""
        if not 0 <= level < self.depth:
            raise ValueError(f"no children below level {level}")
        if label not in self.levels[level]:
            raise ValueError(f"{label!r} is not a ball at level {level}")
        return self.parents[level].fiber(label)

    def descendants(self, level: int, label: str, beta: int) -> tuple[str, ...]:
        """Balls at level `beta` >= `level` contained in the given ball, in level order."""
        if not 0 <= level <= beta <= self.depth:
            raise ValueError(f"bad descendant request ({level}, {beta})")
        return tuple(b for b, up in self.above(beta, level).items() if up == label)

    def leafset(self, level: int, label: str) -> frozenset[str]:
        return frozenset(self.descendants(level, label, self.depth))


def u_metric(tree: BallTree, a: str, b: str) -> int:
    """Deepest level at which a and b share a ball; equals depth iff a == b."""
    if a not in tree.levels[-1]:
        raise ValueError(f"unknown point {a!r}")
    if b not in tree.levels[-1]:
        raise ValueError(f"unknown point {b!r}")
    meet = tree.depth
    while a != b:
        meet -= 1
        parent = tree.parents[meet].mapping
        a, b = parent[a], parent[b]
    return meet


def ball_quotients(tree: BallTree) -> InverseSequence:
    """The inverse sequence of level spaces with parent maps as steps."""
    return InverseSequence(spaces=tree.levels, steps=tree.parents)


ROOT_LABEL = "*"


def from_sequence(seq: InverseSequence) -> BallTree:
    """Rebuild a ball tree whose level-alpha balls are the sequence's spaces.

    The sequence must be coherent.  When the bottom space is not a singleton,
    a fresh one-ball root level is prepended: the whole space is always the
    single ball of radius zero.
    """
    report = check_coherent(seq)
    if not report.ok:
        raise ValueError(f"incoherent sequence: {report.issues[0]}")
    spaces = list(seq.spaces)
    steps = [
        s if isinstance(s, Surjection) else Surjection(s.dom, s.cod, s.mapping)
        for s in seq.steps
    ]
    if len(spaces[0]) > 1:
        root = FiniteSpace(id="root", points=(ROOT_LABEL,))
        steps.insert(0, Surjection(spaces[0], root, {p: ROOT_LABEL for p in spaces[0].points}))
        spaces.insert(0, root)
    return BallTree(levels=tuple(spaces), parents=tuple(steps))


class NowhereDenseWitness(Record):
    """A per-level certificate that a point set is uniformly nowhere dense.

    For each level alpha < depth, `target_levels[alpha]` is a level beta > alpha
    and `choices[alpha]` picks, inside every alpha-ball, one beta-ball whose
    points all avoid the subject set.
    """

    target_levels: tuple[int, ...]
    choices: tuple[dict[str, str], ...]


class NowhereDenseFailure(Record):
    """Least level at which no avoiding deeper ball exists, with an offending ball."""

    level: int
    ball: str


def nearest_points(tree: BallTree, anchors: Sequence[str]) -> dict[str, str]:
    """For each point of the tree, the anchor point sharing its deepest ball.

    Ties go to the first anchor in `anchors` order, as the largest key
    (u_metric, -position) would pick them.  Each anchor walks up the parent
    maps, marking the balls it is first in, until it meets a marked ball;
    one pass down the levels then gives each ball its own first anchor or
    its parent's (the root holds them all), in O(balls + anchors x depth).
    """
    first: list[dict[str, str]] = [{} for _ in tree.levels]
    for anchor in anchors:
        label = anchor
        for level in range(tree.depth, -1, -1):
            if label in first[level]:
                break
            first[level][label] = anchor
            if level:
                label = tree.parents[level - 1].mapping[label]
    nearest = first[0]
    for level in range(1, tree.depth + 1):
        here, parent = first[level], tree.parents[level - 1].mapping
        nearest = {b: here[b] if b in here else nearest[parent[b]] for b in tree.levels[level]}
    return nearest


def met_balls(tree: BallTree, subset: Iterable[str]) -> tuple[frozenset[str], ...]:
    """For each level, the balls that contain a point of the subset.

    A ball avoids the subset exactly when it is not in its level's set.
    Subset points that are not points of the tree are ignored.
    """
    points = tree.levels[-1]._positions
    met = [frozenset(p for p in subset if p in points)]
    for parent in reversed(tree.parents):
        met.append(frozenset(map(parent.mapping.__getitem__, met[-1])))
    return tuple(reversed(met))


def is_uniformly_nowhere_dense(
    tree: BallTree, subset: Iterable[str]
) -> NowhereDenseWitness | NowhereDenseFailure:
    """Exhaustive search for a uniform nowhere-density witness.

    For every level alpha the least beta > alpha is found such that each
    alpha-ball contains a beta-ball disjoint from the subset, together with
    the first such ball in level order per alpha-ball.  If some level
    admits no beta at all, the least failing level is returned instead.

    One bottom-up pass, over each level's parent map once, finds each
    ball's first free level: the least level holding a descendant (the ball
    itself included) that avoids the subset.  Every descendant of a free
    ball is free and every ball has a child, so a ball holds a free
    beta-ball exactly when beta reaches that level.  Each level's choices
    are then one pass over the beta-balls in level order.
    """
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
        below, here = first[level + 1], dict.fromkeys(met[level], never)
        for child, parent in tree.parents[level].mapping.items():
            if parent in here:
                got = below.get(child, level + 1)
                if got < here[parent]:
                    here[parent] = got
        first[level] = here
    target_levels = []
    for alpha in range(tree.depth):
        beta = max(alpha + 1, max(first[alpha].values(), default=0))
        if beta == never:
            worst = next(b for b in tree.levels[alpha].points if first[alpha].get(b) == never)
            return NowhereDenseFailure(level=alpha, ball=worst)
        target_levels.append(beta)
    # deepest level first, so that while the target level repeats (it never falls
    # as alpha grows) each column of ancestors is the one below read up one level
    choices = []
    for alpha in range(tree.depth - 1, -1, -1):
        beta = target_levels[alpha]
        if alpha + 1 == beta:
            ups = tree.levels[beta].points
        elif target_levels[alpha + 1] != beta:
            ups = tree.above(beta, alpha + 1).values()
        ups = tuple(map(tree.parents[alpha].mapping.__getitem__, ups))
        taken, picked = met[beta], {}
        for b, up in zip(tree.levels[beta].points, ups):
            if b not in taken:
                picked.setdefault(up, b)
        choices.append({label: picked[label] for label in tree.levels[alpha].points})
    return NowhereDenseWitness(tuple(target_levels), tuple(reversed(choices)))


def validate_witness(tree: BallTree, subset: Iterable[str], witness: NowhereDenseWitness) -> Report:
    """Recheck every clause of a witness against the tree and subset."""
    met = met_balls(tree, subset)
    issues = []
    if len(witness.target_levels) != tree.depth or len(witness.choices) != tree.depth:
        return Report((f"witness covers {len(witness.target_levels)} levels, tree needs {tree.depth}",))
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
            if picked in met[beta]:
                issues.append(f"level {alpha}: choice {picked!r} meets the subset")
    return Report(tuple(issues))


def factoring_level(tree: BallTree, point_map: Mapping[str, str]) -> tuple[int, dict[str, str]]:
    """Least level at which the map is constant on every ball, with the
    map on that level's balls in level order.

    The returned level is the modulus of uniform continuity of the map; it
    always exists because depth-level balls are singletons.
    """
    missing = [p for p in tree.points if p not in point_map]
    if missing:
        raise ValueError(f"map undefined at point {missing[0]!r}")
    # bottom up, until the first level whose balls' children disagree
    values = point_map
    for level in range(tree.depth, 0, -1):
        here: dict[str, str] = {}
        for child, parent in tree.parents[level - 1].mapping.items():
            if here.setdefault(parent, values[child]) != values[child]:
                return level, {b: values[b] for b in tree.levels[level].points}
        values = here
    return 0, values
