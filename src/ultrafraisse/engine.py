"""Construction of generic sequences over a fixed ball tree.

The building blocks are padded spaces: the balls of the base tree at one
level, extended by a block of padding points that the map from the base
never reaches.  Canonical surjections between padded spaces route ball
labels along parent chains and padding round-robin onto both the coarser
padding and, cyclically, the coarser balls (`pad_routes`).

`build_fraisse` walks a rigid ball-level track, absorbing the scheduled
point splits of each stage (`split_task`) by pullback before it advances;
the pad block per level grows just enough for every absorbed split to
factor back through the canonical surjection.  `verify_fraisse`
recertifies the two sequence conditions (reach every object; factor every
arrow into a stage) from scratch.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Mapping, Sequence

from ._record import Record
from .balltree import BallTree
from .errors import DepthError
from .sequences import InverseSequence, SlicedSequence
from .serial import text_digest
from .slices import SliceArrow, SliceObject, amalgamate_slice
from .spaces import FiniteSpace, PointMap, Surjection, compose, identity


class PaddingSchedule(Record):
    """Geometric pad sizes: level g gets base * growth**g padding points.

    growth >= 2 keeps every splitter fiber nonempty (pad(d) >= 2 * pad(x)
    whenever d > x); base >= 2 keeps padding available at every level.
    """

    base: int = 2
    growth: int = 2

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("pad base must be at least 2")
        if self.growth < 2:
            raise ValueError("pad growth must be at least 2")

    def pad(self, index: int) -> int:
        if index < 0:
            raise ValueError("pad index must be nonnegative")
        return self.base * self.growth**index

    def min_index_for(self, count: int) -> int:
        """Smallest index whose pad size reaches `count`."""
        index = 0
        while self.pad(index) < count:
            index += 1
        return index


_pad_table: tuple[str, ...] = ()


def _pad_labels(count: int) -> tuple[str, ...]:
    """p0..p{count-1}, sliced from one process-wide table, so every pad block
    shares the same label objects.  The table grows by rebinding a longer
    tuple, never in place: a thread racing the growth at worst builds its
    own equal copy."""
    global _pad_table
    table = _pad_table
    if len(table) < count:
        table += tuple(f"p{i}" for i in range(len(table), count))
        _pad_table = table
    return table[:count]


class PaddedObject(Record):
    """A slice object onto (balls at one level) + (an unreached pad block)."""

    ball_level: int
    pad_index: int
    object: SliceObject
    pad_labels: tuple[str, ...]

    @property
    def ball_labels(self) -> tuple[str, ...]:
        return self.object.base.levels[self.ball_level].points


def make_padded_object(
    tree: BallTree, ball_level: int, pad_index: int, schedule: PaddingSchedule
) -> PaddedObject:
    """Target = ball labels at `ball_level` (tree order) followed by pad labels."""
    if not 0 <= ball_level <= tree.depth:
        raise ValueError(f"level {ball_level} out of range for depth {tree.depth}")
    balls = tree.levels[ball_level].points
    pads = _pad_labels(schedule.pad(pad_index))
    if set(balls) & set(pads):
        clash = sorted(set(balls) & set(pads))[0]
        raise ValueError(f"ball label {clash!r} collides with a pad label")
    target = FiniteSpace(id=f"L{ball_level}P{pad_index}", points=balls + pads)
    quotient = PointMap(tree.levels[ball_level], target, {b: b for b in balls})
    obj = SliceObject(base=tree, level=ball_level, target=target, quotient_map=quotient)
    return PaddedObject(ball_level=ball_level, pad_index=pad_index, object=obj, pad_labels=pads)


def pad_routes(count: int, low: PaddedObject) -> list[str]:
    """Where the canonical surjection onto `low` sends pads p0..p{count-1} of
    a larger block.

    Pad i goes by its residue k = i mod 2m, m = pad(low): an odd k keeps the
    pad p{k//2}, an even k goes to the ball balls[(k//2) mod B].  So the
    first 2m routes are one period, and a block of at least 2m pads reaches
    every point of `low`.
    """
    balls, pads = low.ball_labels, low.pad_labels
    if len(pads) < len(balls):
        raise DepthError(
            f"pad block {low.pad_index} has {len(pads)} points, cannot cover {len(balls)} balls"
        )
    cycle = [y for j, p in enumerate(pads) for y in (balls[j % len(balls)], p)]
    return (cycle * (count // len(cycle) + 1))[:count]


def dominate_arrow(
    arrow: SliceArrow,
    dst: PaddedObject,
    schedule: PaddingSchedule,
    *,
    ball_level: int | None = None,
    pad_floor: int | None = None,
) -> tuple[PaddedObject, SliceArrow]:
    """Factor the canonical surjection through an arrow into a padded object.

    Given arrow: h -> dst, produce a deeper padded object P and an arrow
    g: P -> h with arrow.q o g.q equal (pointwise) to the canonical
    surjection P -> dst.  The pad index grows until every fiber of the pad
    routing is large enough to cover the corresponding fiber of `arrow`;
    each candidate is counted, and only the chosen block is built.
    """
    if dst.object != arrow.dst:
        raise ValueError("`dst` is not the padded object the arrow lands in")
    tree = arrow.src.base
    h = arrow.src
    alpha, xi = dst.ball_level, dst.pad_index
    beta = min(tree.depth, max(alpha + 1, h.level)) if ball_level is None else ball_level
    if beta < max(alpha, h.level) or beta > tree.depth:
        raise DepthError(f"ball level {beta} cannot host the factored arrow")

    # Pad i of a candidate block of n goes to cycle[i % period], so cycle[r]
    # receives the #{i < n : i = r mod period} pads counted below.
    cycle = pad_routes(2 * len(dst.pad_labels), dst)
    period = len(cycle)
    need = Counter(arrow.q.mapping.values())  # fiber sizes; arrow.q is onto, so every point is a key
    delta = max(xi + 1, pad_floor if pad_floor is not None else 0)
    while True:
        n = schedule.pad(delta)
        got = dict.fromkeys(need, 0)
        for r, y in enumerate(cycle):
            got[y] += (n - r + period - 1) // period
        if all(got[y] >= k for y, k in need.items()):
            break
        delta += 1

    padded = make_padded_object(tree, beta, delta, schedule)
    routes = pad_routes(len(padded.pad_labels), dst)
    routed: dict[str, list[str]] = {y: [] for y in need}
    for x, y in zip(padded.pad_labels, routes):
        routed[y].append(x)
    mapping = h.values(beta)
    h_image = set(h.quotient_map.mapping.values())  # every ball holds a point
    fibers = arrow.q.fibers()
    for p in dst.pad_labels:
        fiber = fibers[p]
        for i, x in enumerate(routed[p]):
            mapping[x] = fiber[i % len(fiber)]
    for z in dst.ball_labels:
        fiber = fibers[z]
        reached = [y for y in fiber if y in h_image]
        fresh = [y for y in fiber if y not in h_image]
        block = routed[z]
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
    g = SliceArrow(padded.object, h, Surjection(padded.object.target, h.target, mapping))
    # the canonical surjection onto dst: balls up their parent chains, pads along their routes
    canonical = tree.above(beta, alpha)
    canonical.update(zip(padded.pad_labels, routes))
    if compose(arrow.q, g.q).mapping != canonical:
        raise AssertionError("the factored arrow does not compose to the canonical surjection")
    return padded, g


class FraisseTask(Record):
    """An arrow into one stage of the sequence, to be absorbed by the build."""

    stage: int
    arrow: SliceArrow


def split_tags(splits: Sequence[tuple[int, str]]) -> tuple[str, ...]:
    """The tag split:S:P of each (stage S, point P) split, in order.

    Rejects a negative stage, which no round of the build reaches, and a
    repeated split, whose tag would name two tasks.
    """
    if any(stage < 0 for stage, _ in splits):
        raise ValueError("stage must be nonnegative")
    tags = tuple(f"split:{stage}:{point}" for stage, point in splits)
    if len(set(tags)) != len(tags):
        raise ValueError("task tags must be distinct")
    return tags


def split_task(phi: SliceObject, stage: int, point: str) -> FraisseTask:
    """The task splitting one target point of stage `stage`, whose slice
    object is `phi`, into two copies."""
    if point not in phi.target:
        raise ValueError(f"{point!r} is not a point of stage {stage}")
    low, high = f"{point}<0", f"{point}<1"
    if low in phi.target or high in phi.target:
        raise ValueError(f"split labels for {point!r} collide with existing points")
    i = phi.target.index(point)
    head, tail = phi.target.points[:i], phi.target.points[i + 1:]
    points = head + (low, high) + tail
    split_space = FiniteSpace(id=f"{phi.target.id}|split({point})", points=points)
    collapse = Surjection(split_space, phi.target, dict(zip(points, head + (point, point) + tail)))
    ball_space = phi.base.levels[phi.level]
    values = phi.quotient_map.mapping
    lifted = {b: (low if values[b] == point else values[b]) for b in ball_space.points}
    split_obj = SliceObject(
        base=phi.base,
        level=phi.level,
        target=split_space,
        quotient_map=PointMap(ball_space, split_space, lifted),
    )
    return FraisseTask(stage=stage, arrow=SliceArrow(split_obj, phi, collapse))


class TaskWitness(Record):
    tag: str
    stage: int
    beta: int
    mapping: Surjection


class BuildResult(Record):
    sequence: SlicedSequence
    padded: tuple[PaddedObject, ...]
    tasks: tuple[tuple[str, FraisseTask], ...]
    witnesses: dict[str, TaskWitness]
    log: tuple[str, ...]


def stage_log_line(stage: int, space: FiniteSpace) -> str:
    """The build log's line for a new stage, read off its padded space."""
    ball_level, _, pad_index = space.id[1:].partition("P")  # id L{ball level}P{pad index}
    return f"stage {stage}: ball_level={ball_level} pad_index={pad_index} size={len(space)}"


def task_log_line(tag: str, stage: int, beta: int, witness: Mapping[str, str]) -> str:
    """The build log's line for an absorbed task, with a short digest of its witness."""
    digest = text_digest(";".join(map("->".join, sorted(witness.items()))))[:12]
    return f"task {tag}: stage={stage} beta={beta} digest={digest}"


def build_fraisse(
    tree: BallTree,
    depth: int,
    schedule: PaddingSchedule,
    splits: Sequence[tuple[int, str]] = (),
) -> BuildResult:
    """Build a sliced sequence of padded objects absorbing every scheduled split.

    Stage t sits at ball level min(t, tree depth).  Round t makes the tasks
    of the splits at stage t, in schedule order, amalgamates them into stage
    t by pullback, then factors the combined arrow through the next canonical
    surjection, whose pad index is grown as needed.  Every absorbed task
    receives a witness (beta, g) with bonding(stage, beta) = task arrow
    composed with g, exactly.
    """
    if depth < 1:
        raise DepthError("sequence depth must be at least 1")
    tags = split_tags(splits)

    start = make_padded_object(tree, 0, schedule.min_index_for(len(tree.levels[0])), schedule)
    padded = [start]
    spaces = [start.object.target]
    steps: list[Surjection] = []
    phis = [start.object]
    tasks: list[tuple[str, FraisseTask]] = []
    witnesses: dict[str, TaskWitness] = {}
    log: list[str] = []

    for t in range(depth):
        beta = min(t + 1, tree.depth)
        combined = phis[t]
        into_q: PointMap = identity(combined.target)
        # per absorbed task: (tag, task, to_prev, to_task) out of its amalgamation
        absorbed: list[tuple[str, FraisseTask, SliceArrow, SliceArrow]] = []
        for tag, (stage, point) in zip(tags, splits):
            if stage != t:
                continue
            task = split_task(phis[t], t, point)
            # the task lands in stage t itself, so the cospan's second leg needs no bonding
            cospan = SliceArrow(combined, phis[t], into_q)
            combined, to_prev, to_task = amalgamate_slice(
                combined, task.arrow.src, phis[t], cospan, task.arrow
            )
            into_q = compose(into_q, to_prev.q)
            absorbed.append((tag, task, to_prev, to_task))
        into = SliceArrow(combined, phis[t], into_q)

        floor = max(
            padded[t].pad_index + 1,
            schedule.min_index_for(len(tree.levels[beta])),
        )
        next_padded, close = dominate_arrow(
            into, padded[t], schedule, ball_level=beta, pad_floor=floor
        )
        # Walk the amalgamations back from the new stage: `through` maps it
        # into the i-th amalgam, so each witness costs one compose.
        through = close.q
        witness_qs: dict[str, PointMap] = {}
        for tag, task, to_prev, to_task in reversed(absorbed):
            witness_qs[tag] = compose(to_task.q, through)
            SliceArrow(next_padded.object, task.arrow.src, witness_qs[tag])
            through = compose(to_prev.q, through)
        padded.append(next_padded)
        spaces.append(next_padded.object.target)
        steps.append(through)
        phis.append(next_padded.object)
        log.append(stage_log_line(t + 1, next_padded.object.target))
        for tag, task, _, _ in absorbed:
            witness_q = witness_qs[tag]
            tasks.append((tag, task))
            witnesses[tag] = TaskWitness(tag=tag, stage=t, beta=t + 1, mapping=witness_q)
            log.append(task_log_line(tag, t, t + 1, witness_q.mapping))

    left = [tag for tag, (stage, _) in zip(tags, splits) if stage >= depth]
    if left:
        raise DepthError(f"schedule exhausted the build: unserviced tasks {left}")

    sequence = SlicedSequence(InverseSequence(tuple(spaces), tuple(steps)), tuple(phis))
    return BuildResult(
        sequence=sequence,
        padded=tuple(padded),
        tasks=tuple(tasks),
        witnesses=witnesses,
        log=tuple(log),
    )


class ProbeResult(Record):
    index: int
    status: str
    level: int | None = None
    mapping: Surjection | None = None
    detail: str = ""


class TaskResult(Record):
    index: int
    status: str
    beta: int | None = None
    mapping: Surjection | None = None
    detail: str = ""


class FraisseReport(Record):
    probes: tuple[ProbeResult, ...]
    tasks: tuple[TaskResult, ...]

    @property
    def ok(self) -> bool:
        return all(p.status == "witnessed" for p in self.probes) and all(
            t.status == "witnessed" for t in self.tasks
        )


def _forced_values(phi: SliceObject, probe: SliceObject) -> tuple[dict[str, str] | None, str]:
    """Values any commuting map must take on the image of phi, or a conflict."""
    forced: dict[str, str] = {}
    for (point, key), want in zip(phi.values(phi.base.depth).items(), probe.values(phi.base.depth).values()):
        if forced.setdefault(key, want) != want:
            return None, f"base point {point!r} forces {key!r} to both {forced[key]!r} and {want!r}"
    return forced, ""


def _saturate(
    needed: list[str], free: list[str], candidates: Mapping[str, tuple[str, ...]]
) -> tuple[dict[str, str] | None, str]:
    """Assign distinct free points to cover `needed`, by augmenting paths.

    Each path is a depth-first search that tries, in `free` order, the free
    points whose candidates hold the point being placed.  It is kept on an
    explicit stack so that no stage size can reach the recursion limit.
    """
    takers: dict[str, list[str]] = {}  # y -> the free points accepting y, in free order
    for x in free:
        for y in candidates[x]:
            takers.setdefault(y, []).append(x)
    owner: dict[str, str] = {}
    for y in needed:
        seen: set[str] = set()
        # stack[i] = (point being placed, its remaining takers);
        # path[i] is the owned point stack[i] tries to take from stack[i + 1]
        stack = [(y, iter(takers.get(y, ())))]
        path: list[str] = []
        while stack:
            want, choices = stack[-1]
            for x in choices:
                if x not in seen:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(x)
            if x in owner:
                path.append(x)
                stack.append((owner[x], iter(takers[owner[x]])))
                continue
            owner[x] = want
            for (placed, _), taken in zip(stack, path):
                owner[taken] = placed
            break
        else:
            return None, y
    return owner, ""


def _search_witness(
    sliced: SlicedSequence,
    src: SliceObject,
    beta: int,
    candidates: Mapping[str, tuple[str, ...]],
) -> tuple[Surjection | None, str]:
    """A surjection g from stage beta onto src's target that commutes with the
    maps from the base and takes each x into candidates[x], or why none exists.

    The base forces g on the image of phis[beta]; a matching of the free
    points then covers the target points the forced values miss, and every
    free point it leaves unassigned takes its first candidate.  A witness is
    found exactly when one exists.
    """
    forced, conflict = _forced_values(sliced.phis[beta], src)
    if forced is None:
        return None, conflict
    for x, y in forced.items():
        if y not in candidates[x]:
            return None, f"forced value {y!r} at {x!r} is not a candidate"
    space = sliced.seq.spaces[beta]
    free = [x for x in space.points if x not in forced]
    covered = set(forced.values())
    needed = [y for y in src.target.points if y not in covered]
    owner, stuck = _saturate(needed, free, candidates) if needed else ({}, "")
    if owner is None:
        return None, f"target point {stuck!r} cannot be covered by any free point"
    mapping = dict(forced)
    for x in free:
        mapping[x] = owner[x] if x in owner else candidates[x][0]
    return Surjection(space, src.target, mapping), ""


def _search_task_witness(
    sliced: SlicedSequence, task: FraisseTask, beta: int
) -> tuple[Surjection | None, str]:
    bond = sliced.seq.bonding(task.stage, beta)
    fiber, bonded = task.arrow.q.fiber, bond.mapping
    fibers = {x: fiber(bonded[x]) for x in sliced.seq.spaces[beta].points}
    g, reason = _search_witness(sliced, task.arrow.src, beta, fibers)
    if g is not None and compose(task.arrow.q, g) != bond:
        raise AssertionError(f"the witness at stage {beta} does not compose to the bonding map")
    return g, reason


def verify_fraisse(
    sliced: SlicedSequence,
    tasks: Sequence[FraisseTask] = (),
    probes: Sequence[SliceObject] = (),
    *,
    bound: int = 100_000,
) -> FraisseReport:
    """Independently certify reachability and absorption on a sliced sequence.

    For each probe the first stage with a commuting surjection onto it is
    searched, any target point being a candidate; for each task, every stage
    beta is scanned for a commuting surjection g with bonding(stage, beta) =
    arrow o g, the candidates being the bonding fibers.  Both searches find a
    witness exactly when one exists.  An empty probe search is cross-checked
    at stage 0 by full enumeration under `bound`.
    """
    probe_results = []
    for index, probe in enumerate(probes):
        outcome = ProbeResult(index=index, status="failed", detail="no stage admits an arrow")
        for level in range(sliced.seq.length + 1):
            anywhere = dict.fromkeys(sliced.seq.spaces[level].points, probe.target.points)
            q, _ = _search_witness(sliced, probe, level, anywhere)
            if q is not None:
                SliceArrow(sliced.phis[level], probe, q)
                outcome = ProbeResult(index=index, status="witnessed", level=level, mapping=q)
                break
        if (
            outcome.status == "failed"
            and len(probe.target) ** len(sliced.seq.spaces[0]) <= bound
        ):
            # cross-check emptiness at the smallest stage by enumeration
            space, phi = sliced.seq.spaces[0], sliced.phis[0]
            for values in itertools.product(probe.target.points, repeat=len(space)):
                q = dict(zip(space.points, values))
                if set(q.values()) != set(probe.target.points):
                    continue
                if phi.discord(q, probe, max(phi.level, probe.level)) is None:
                    raise AssertionError("probe search missed a stage-0 witness")
        probe_results.append(outcome)

    task_results = []
    for index, task in enumerate(tasks):
        outcome = TaskResult(index=index, status="failed", detail="no stage admits a witness")
        reasons = []
        for beta in range(task.stage, sliced.seq.length + 1):
            g, reason = _search_task_witness(sliced, task, beta)
            if g is not None:
                outcome = TaskResult(index=index, status="witnessed", beta=beta, mapping=g)
                break
            reasons.append(f"beta={beta}: {reason}")
        if outcome.status == "failed":
            outcome = TaskResult(index=index, status="failed", detail="; ".join(reasons))
        task_results.append(outcome)

    return FraisseReport(probes=tuple(probe_results), tasks=tuple(task_results))
