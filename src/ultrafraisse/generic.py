"""Algorithms on generic presentations: embed, lift, extend, retract.

A generic presentation packages a base tree K, a sliced sequence over it,
the ambient tree rebuilt from that sequence, and the induced injection of
K into the ambient points.  The image's nowhere-density witness is not
stored: `is_uniformly_nowhere_dense(pres.ambient, image)` determines it.
All four headline operations are deterministic; the brute-force oracle
recomputes the lifting problem by exhaustive enumeration so the two routes
can be compared on small instances.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from ._record import Record
from .balltree import (
    BallTree,
    NowhereDenseFailure,
    ball_quotients,
    factoring_level,
    from_sequence,
    is_uniformly_nowhere_dense,
    met_balls,
    nearest_points,
    u_metric,
)
from .engine import BuildResult, PaddingSchedule, build_fraisse
from .errors import DepthError, InputError
from .sequences import SequenceArrow, SlicedSequence
from .slices import SliceObject
from .spaces import FiniteSpace, PointMap, Surjection


class GenericPresentation(Record):
    """An embedding of `space` into the limit of `sliced`."""

    space: BallTree
    sliced: SlicedSequence
    ambient: BallTree
    eta: dict[str, tuple[str, ...]]
    build: BuildResult | None = None

    @property
    def level_offset(self) -> int:
        """Ambient levels above the sequence's level 0: 1 when `from_sequence`
        prepended a root to a non-singleton bottom space, else 0."""
        return self.ambient.depth - self.sliced.seq.length

    def eta_point(self, x: str) -> str:
        """The ambient point carrying x (top entry of its thread)."""
        return self.eta[x][-1]

    def holders(self, level: int) -> dict[str, list[str]]:
        """The marked balls at an ambient level: each ball met by the embedded
        image, with the base points whose eta threads pass through it."""
        out: dict[str, list[str]] = {}
        for x in self.space.points:
            out.setdefault(self.eta[x][level], []).append(x)
        return out


def _validate_presentation(pres: GenericPresentation) -> None:
    if len({t[-1] for t in pres.eta.values()}) != len(pres.eta):
        raise DepthError("eta is not injective: the sequence is too shallow to separate")


def eta_threads(sliced: SlicedSequence, ambient: BallTree) -> dict[str, tuple[str, ...]]:
    """Each base point's thread through the ambient tree rebuilt from
    `sliced`: its slice-map values level by level, under the root that
    `from_sequence` prepends when the bottom space is not a singleton.

    Each slice map's table is read once, down the base points' chains, as
    `point_value` reads it."""
    root = ambient.levels[0].points if ambient.depth > sliced.seq.length else ()
    points = sliced.base.points
    rows = list(map(sliced.base._chains[-1].__getitem__, points))
    columns = [
        [phi.quotient_map.mapping[row[phi.level]] for row in rows] for phi in sliced.phis
    ]
    return {x: root + entries for x, entries in zip(points, zip(*columns))}


def embed_generic(
    tree: BallTree,
    depth: int,
    schedule: PaddingSchedule,
    splits: Sequence[tuple[int, str]] = (),
) -> GenericPresentation:
    """Embed `tree` into the limit of a freshly built sequence of padded spaces.

    The image misses every pad point, so each ambient ball keeps a pad child
    whose cylinder avoids the image: the image's witness, which
    `is_uniformly_nowhere_dense(pres.ambient, image)` finds, has target
    level alpha+1 at every alpha and picks each ball's first such child.
    """
    if depth < tree.depth:
        raise DepthError(f"depth {depth} cannot separate a tree of depth {tree.depth}")
    build = build_fraisse(tree, depth, schedule, splits)
    ambient = from_sequence(build.sequence.seq)
    pres = GenericPresentation(
        space=tree,
        sliced=build.sequence,
        ambient=ambient,
        eta=eta_threads(build.sequence, ambient),
        build=build,
    )
    _validate_presentation(pres)
    return pres


def presentation_from_subset(ambient: BallTree, subset: Sequence[str]) -> GenericPresentation:
    """Present a subset of an existing tree as the embedded copy of its own subtree.

    The base tree is the induced subtree on the subset; the slice maps are the
    ancestor inclusions.  The subset must be uniformly nowhere dense, as the
    exhaustive search decides; otherwise the input is rejected.
    """
    points = list(dict.fromkeys(subset))
    if not points:
        raise InputError("subset is empty")
    for p in points:
        if p not in ambient.levels[-1]:
            raise InputError(f"subset point {p!r} is not a point of the ambient tree")
    levels = [
        FiniteSpace(
            id=f"sub:{space.id}",
            points=tuple(b for b in space.points if b in hit),
        )
        for space, hit in zip(ambient.levels, met_balls(ambient, points))
    ]
    parents = []
    for alpha in range(ambient.depth):
        parent = ambient.parents[alpha].mapping
        parents.append(
            Surjection(
                levels[alpha + 1],
                levels[alpha],
                {b: parent[b] for b in levels[alpha + 1].points},
            )
        )
    base = BallTree(levels=tuple(levels), parents=tuple(parents))
    phis = tuple(
        SliceObject(
            base=base,
            level=alpha,
            target=ambient.levels[alpha],
            quotient_map=PointMap(
                levels[alpha], ambient.levels[alpha], {b: b for b in levels[alpha].points}
            ),
        )
        for alpha in range(ambient.depth + 1)
    )
    sliced = SlicedSequence(ball_quotients(ambient), phis)
    found = is_uniformly_nowhere_dense(ambient, points)
    if isinstance(found, NowhereDenseFailure):
        raise InputError(
            f"subset is not uniformly nowhere dense: fails at level {found.level} "
            f"inside ball {found.ball!r}"
        )
    eta = eta_threads(sliced, ambient)
    chains = ambient._chains[-1]
    if any(thread != chains[p] for p, thread in eta.items()):
        raise ValueError("eta must send each base point to its thread through the slice maps")
    pres = GenericPresentation(
        space=base,
        sliced=sliced,
        ambient=ambient,
        eta=eta,
    )
    _validate_presentation(pres)
    return pres


class LiftResult(Record):
    """A lift constant on the balls of one ambient level, with its allocation."""

    beta: int
    ball_table: dict[str, str]
    point_table: dict[str, str]
    avoid_families: dict[str, tuple[str, ...]]
    image_families: dict[str, tuple[str, ...]]


def _ball_values(tree: BallTree, level: int, point_map: Mapping[str, str]) -> dict[str, str]:
    leaves: dict[str, list[str]] = {label: [] for label in tree.levels[level].points}
    for p, chain in tree._chains[-1].items():
        leaves[chain[level]].append(p)
    out = {}
    for label, points in leaves.items():
        values = {point_map[p] for p in points}
        if len(values) != 1:
            raise ValueError(f"map is not constant on ball {label!r} at level {level}")
        out[label] = values.pop()
    return out


def _choose_lift_level(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
) -> tuple[int, str]:
    """Least level whose balls separate the b-classes of the image and leave
    enough image-free balls in every g-fiber; returns (level, '') or (0, why)."""
    ambient = pres.ambient
    alpha = factoring_level(ambient, dict(g))
    reason = ""
    for beta in range(alpha + 1, ambient.depth + 1):
        g_on_balls = _ball_values(ambient, beta, g)
        marked = pres.holders(beta)
        ok = True
        for label in ambient.levels[beta].points:
            if len({b[x] for x in marked.get(label, ())}) > 1:
                reason = f"level {beta}: ball {label!r} mixes distinct b-values"
                ok = False
                break
        if not ok:
            continue
        for x_point in f.cod.points:
            free = [
                label
                for label in ambient.levels[beta].points
                if g_on_balls[label] == x_point and label not in marked
            ]
            if len(free) < len(f.fiber(x_point)):
                reason = (
                    f"level {beta}: fiber over {x_point!r} has {len(free)} image-free balls, "
                    f"needs {len(f.fiber(x_point))}"
                )
                ok = False
                break
        if ok:
            return beta, ""
    return 0, reason or "no level deeper than the factoring level exists"


def lift_through_generic(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
) -> LiftResult:
    """Solve f o h = g and h o eta = b for a surjection h off the ambient tree.

    Requires the square g o eta = f o b to commute.  A level beta is chosen
    deep enough that each ball meeting the embedded image determines one
    b-value and each g-fiber keeps an image-free ball per point of its
    f-fiber; balls meeting the image follow b, image-free balls are dealt
    round-robin to the f-fiber so that h is onto.
    """
    x_space, y_space = f.cod, f.dom
    for x in pres.space.points:
        if x not in b:
            raise InputError(f"b is undefined at base point {x!r}")
        if b[x] not in y_space:
            raise InputError(f"b value {b[x]!r} is not a point of the lift source")
    for w in pres.ambient.points:
        if w not in g:
            raise InputError(f"g is undefined at ambient point {w!r}")
        if g[w] not in x_space:
            raise InputError(f"g value {g[w]!r} is not a point of the lift target")
    if set(g[w] for w in pres.ambient.points) != set(x_space.points):
        raise InputError("g is not onto the lift target")
    for x in pres.space.points:
        if g[pres.eta_point(x)] != f(b[x]):
            raise InputError(f"square does not commute at base point {x!r}")

    beta, reason = _choose_lift_level(pres, f, b, g)
    if beta == 0:
        raise DepthError(f"ambient depth {pres.ambient.depth} is insufficient: {reason}")

    ambient = pres.ambient
    g_on_balls = _ball_values(ambient, beta, g)
    marked = pres.holders(beta)
    ball_table: dict[str, str] = {}
    avoid: dict[str, list[str]] = {y: [] for y in y_space.points}
    image: dict[str, list[str]] = {y: [] for y in y_space.points}
    for x_point in x_space.points:
        fiber = f.fiber(x_point)
        free = []
        for label in ambient.levels[beta].points:
            if g_on_balls[label] != x_point:
                continue
            holders = marked.get(label)
            if holders:
                y = b[holders[0]]
                ball_table[label] = y
                image[y].append(label)
            else:
                free.append(label)
        for i, label in enumerate(free):
            y = fiber[i % len(fiber)]
            ball_table[label] = y
            avoid[y].append(label)

    return LiftResult(
        beta=beta,
        ball_table=ball_table,
        point_table=lift_point_table(pres, f, b, g, beta, ball_table),
        avoid_families={y: tuple(v) for y, v in avoid.items()},
        image_families={y: tuple(v) for y, v in image.items()},
    )


def lift_point_table(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
    beta: int,
    ball_table: Mapping[str, str],
) -> dict[str, str]:
    """The ambient point table of the lift h given on the level-beta balls,
    once the lift equations hold pointwise: the ball table covers the level,
    h is onto f's source, f o h = g and h o eta = b.

    A broken clause raises an AssertionError naming it, which is a fault of
    `lift_through_generic` and a FAIL line of `verify`.
    """
    ambient = pres.ambient
    if set(ball_table) != set(ambient.levels[beta].points):
        raise AssertionError("ball table does not cover the level")
    point_table = {w: ball_table[chain[beta]] for w, chain in ambient._chains[-1].items()}
    if set(point_table.values()) != set(f.dom.points):
        raise AssertionError("lift is not onto its source")
    for w, y in point_table.items():
        if f(y) != g.get(w):
            raise AssertionError(f"first lift equation fails at {w!r}")
    for x in pres.space.points:
        if point_table[pres.eta_point(x)] != b[x]:
            raise AssertionError(f"second lift equation fails at base point {x!r}")
    return point_table


def brute_force_lift_oracle(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
    *,
    bound: int = 200_000,
    beta: int | None = None,
) -> list[dict[str, str]]:
    """Every ball table at one level solving both lift equations, by enumeration.

    Independent of the constructive route: candidates per ball come from the
    fiber constraints alone and surjectivity is filtered at the end.  Raises
    when the search space |Y| ** (number of balls) exceeds `bound`.
    """
    if beta is None:
        beta, reason = _choose_lift_level(pres, f, b, g)
        if beta == 0:
            raise DepthError(f"no enumeration level available: {reason}")
    ambient = pres.ambient
    labels = ambient.levels[beta].points
    y_space = f.dom
    if len(y_space) ** len(labels) > bound:
        raise DepthError(
            f"oracle bound exceeded: {len(y_space)}^{len(labels)} maps at level {beta}"
        )
    g_on_balls = _ball_values(ambient, beta, g)
    marked = pres.holders(beta)
    candidates = []
    for label in labels:
        cands = [y for y in f.fiber(g_on_balls[label])]
        if label in marked:
            need = {b[x] for x in marked[label]}
            cands = [y for y in cands if y in need] if len(need) == 1 else []
        candidates.append(cands)
    out = []
    for combo in itertools.product(*candidates):
        if set(combo) != set(y_space.points):
            continue
        out.append(dict(zip(labels, combo)))
    return out


class PartialHomeo(Record):
    """A bijection between two embedded base trees respecting balls level-by-level."""

    src: GenericPresentation
    dst: GenericPresentation
    mapping: dict[str, str]

    def __post_init__(self):
        src_pts, dst_pts = self.src.space.points, self.dst.space.points
        if set(self.mapping) != set(src_pts) or set(self.mapping.values()) != set(dst_pts):
            raise InputError("mapping is not a bijection between the two embedded sets")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise InputError("mapping is not injective")
        src, dst = self.src.space, self.dst.space
        common = min(src.depth, dst.depth)
        src_chains, dst_chains = src._chains[-1], dst._chains[-1]
        rows = [(src_chains[x], dst_chains[y]) for x, y in self.mapping.items()]
        # x, y share a level-a ball iff their images do, for every a <= common:
        # the level-a balls then correspond one to one.
        for a in range(1, common + 1):
            pairs = {(s[a], d[a]) for s, d in rows}
            if len(pairs) != len({s for s, _ in pairs}) or len(pairs) != len({d for _, d in pairs}):
                break
        else:
            return
        # name the first failing pair of the pairwise definition
        for x in src_pts:
            for y in src_pts:
                du = u_metric(src, x, y)
                dv = u_metric(dst, self.mapping[x], self.mapping[y])
                if min(du, common) != min(dv, common):
                    raise InputError(
                        f"mapping breaks ball structure at level {min(du, dv) + 1}: "
                        f"pair ({x!r}, {y!r}) meets at {du}, images meet at {dv}"
                    )


class AmbientAutoMap(Record):
    """Level-wise bijections between two ambient trees commuting with parents."""

    src: BallTree
    dst: BallTree
    level_maps: tuple[dict[str, str], ...]

    def __post_init__(self):
        if self.src.depth != self.dst.depth:
            raise ValueError("ambient trees differ in depth")
        if len(self.level_maps) != self.src.depth + 1:
            raise ValueError("need one level map per level")
        for level, table in enumerate(self.level_maps):
            if set(table) != set(self.src.levels[level].points):
                raise ValueError(f"level {level} map is not total")
            if set(table.values()) != set(self.dst.levels[level].points):
                raise ValueError(f"level {level} map is not a bijection")
        for level in range(self.src.depth):
            upper, lower = self.level_maps[level + 1], self.level_maps[level]
            src_parent = self.src.parents[level].mapping
            dst_parent = self.dst.parents[level].mapping
            for child in self.src.levels[level + 1].points:
                if dst_parent[upper[child]] != lower[src_parent[child]]:
                    raise ValueError(f"level maps do not commute with parents at {child!r}")

    def apply(self, thread: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self.level_maps[a][e] for a, e in enumerate(thread))


def extend_homeo(p: PartialHomeo) -> AmbientAutoMap:
    """Extend a partial homeomorphism to level bijections of the ambients.

    Levels are fixed one at a time: children carrying embedded points are
    matched through the given bijection, the remaining (image-free) children
    are paired off in canonical order.  Rounds alternate the driving side,
    which only alternates the iteration order; the matching itself is
    symmetric.  Fails when level shapes or fiber sizes disagree.
    """
    src_amb, dst_amb = p.src.ambient, p.dst.ambient
    if src_amb.depth != dst_amb.depth:
        raise DepthError(
            f"ambient depths differ ({src_amb.depth} vs {dst_amb.depth}); "
            "build both presentations to the same depth"
        )

    level_maps = [{src_amb.levels[0].points[0]: dst_amb.levels[0].points[0]}]
    for level in range(1, src_amb.depth + 1):
        if len(src_amb.levels[level]) != len(dst_amb.levels[level]):
            raise DepthError(
                f"round {level}: levels have {len(src_amb.levels[level])} and "
                f"{len(dst_amb.levels[level])} balls; the presentations are incompatible"
            )
        src_marked, dst_marked = p.src.holders(level), p.dst.holders(level)
        src_kids = src_amb.parents[level - 1].fibers()
        dst_kids = dst_amb.parents[level - 1].fibers()
        table: dict[str, str] = {}
        parents_pairs = list(level_maps[level - 1].items())
        if level % 2 == 0:
            parents_pairs = sorted(
                parents_pairs, key=lambda vw: dst_amb.levels[level - 1].index(vw[1])
            )
        for v, w in parents_pairs:
            src_children, dst_children = src_kids.get(v, ()), dst_kids.get(w, ())
            if len(src_children) != len(dst_children):
                raise DepthError(
                    f"round {level}: ball {v!r} has {len(src_children)} children, "
                    f"its image {w!r} has {len(dst_children)}"
                )
            taken = set()
            for child in src_children:
                holders = src_marked.get(child)
                if not holders:
                    continue
                targets = {p.dst.eta[p.mapping[x]][level] for x in holders}
                if len(targets) != 1:
                    raise InputError(
                        f"round {level}: ball {child!r} maps across distinct target balls"
                    )
                target = targets.pop()
                if target not in dst_children:
                    raise AssertionError(f"round {level}: {target!r} is not a child of {w!r}")
                table[child] = target
                taken.add(target)
            free_dst = [c for c in dst_children if c not in taken]
            spare_dst = [c for c in free_dst if c in dst_marked]
            if spare_dst:
                raise InputError(
                    f"round {level}: target ball {spare_dst[0]!r} carries embedded points "
                    "not reached by the mapping"
                )
            free_src = [c for c in src_children if c not in table]
            for c_src, c_dst in zip(free_src, free_dst):
                table[c_src] = c_dst
        level_maps.append(table)

    auto = AmbientAutoMap(src=src_amb, dst=dst_amb, level_maps=tuple(level_maps))
    for x, y in p.mapping.items():
        if auto.apply(p.src.eta[x]) != p.dst.eta[y]:
            raise AssertionError(f"the extension does not carry {x!r} to {y!r}")
    return auto


def retract_onto(pres: GenericPresentation) -> SequenceArrow:
    """A sequence arrow from the ambient quotients onto the base quotients
    that is a left inverse of the embedding.

    Each ambient point is sent to its nearest embedded point (deepest shared
    ball, ties to the canonical order); the per-level components then factor
    through the recorded reindex levels, which certify uniform continuity.
    """
    ambient, base = pres.ambient, pres.space
    base_of: dict[str, str] = {}  # embedded point -> the first base point carried there
    for x in base.points:
        base_of.setdefault(pres.eta_point(x), x)
    nearest = {w: base_of[e] for w, e in nearest_points(ambient, tuple(base_of)).items()}
    reindex = []
    maps = []
    for m in range(base.depth + 1):
        component = {w: base.ancestor(base.depth, nearest[w], m) for w in ambient.points}
        level = factoring_level(ambient, component)
        reindex.append(level)
        table = _ball_values(ambient, level, component)
        maps.append(Surjection(ambient.levels[level], base.levels[m], table))
    arrow = SequenceArrow(
        src=ball_quotients(ambient),
        dst=ball_quotients(base),
        reindex=tuple(reindex),
        maps=tuple(maps),
    )
    table = retraction_table(ambient, arrow)
    for x in base.points:
        if table[pres.eta_point(x)] != x:
            raise AssertionError(f"the retraction does not restore base point {x!r}")
    return arrow


def retraction_table(ambient: BallTree, arrow: SequenceArrow) -> dict[str, str]:
    """Ambient point to base point table of a retraction arrow, read off its
    top map at each point's ancestor on the top reindex level.

    The arrow is natural (`SequenceArrow` checks it), so it sends threads to
    threads, and a base thread is fixed by its top entry: the table is the
    arrow on threads, and `table[eta_point(x)] == x` says that the arrow is
    a left inverse of the embedding.
    """
    top, level = arrow.maps[-1].mapping, arrow.reindex[-1]
    return {w: top[chain[level]] for w, chain in ambient._chains[-1].items()}
