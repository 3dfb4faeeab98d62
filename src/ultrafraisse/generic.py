"""Algorithms on generic presentations: embed, lift, extend, retract.

A generic presentation packages a base tree K, a sliced sequence over it,
the ambient tree rebuilt from that sequence, and the induced injection of
K into the ambient points.  The image's nowhere-density witness is not
stored: `is_uniformly_nowhere_dense(pres.ambient, image)` determines it.
All four headline operations are deterministic; the brute-force oracle
recomputes the lifting problem by exhaustive enumeration so the two routes
can be compared on small instances.  Each certificate clause a producer
self-checks is one function here (`check_*`, `lift_on_points`,
`retraction_components`), which `verify` runs under its check name.
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

    Each level's ancestors of the base points are one column, read up the parent maps."""
    root = ambient.levels[0].points if ambient.depth > sliced.seq.length else ()
    points = sliced.base.points
    ups = [points]  # each point's ancestors, one level up per entry
    for parent in reversed(sliced.base.parents):
        ups.append(tuple(map(parent.mapping.__getitem__, ups[-1])))
    ups.reverse()
    columns = [map(phi.quotient_map.mapping.__getitem__, ups[phi.level]) for phi in sliced.phis]
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
    # each thread ends at its point, and each entry is the parent of the next
    parents = [parent.mapping for parent in ambient.parents]
    if any(len(t) != len(ambient.levels) or (*map(dict.get, parents, t[1:]), p) != t for p, t in eta.items()):
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
    on_points: dict[str, str]
    avoid_families: dict[str, tuple[str, ...]]
    image_families: dict[str, tuple[str, ...]]


def check_square(pres: GenericPresentation, f: Surjection, b: Mapping[str, str], g: Mapping[str, str]) -> None:
    """The lifting square commutes: g o eta = f o b at every base point."""
    for x in pres.space.points:
        if g.get(pres.eta_point(x)) != f(b[x]):
            raise InputError(f"square does not commute at base point {x!r}")


def _lift_level(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
) -> tuple[int, dict[str, str], dict[str, list[str]]]:
    """Least level deeper than g's factoring level whose balls separate the
    b-classes of the image and leave enough image-free balls in every
    g-fiber, with g on its balls in level order and its marked balls;
    DepthError when no level does.  g on the balls is read down one parent
    map per candidate level."""
    ambient = pres.ambient
    alpha, g_on_balls = factoring_level(ambient, g)
    reason = "no level deeper than the factoring level exists"
    for beta in range(alpha + 1, ambient.depth + 1):
        parent = ambient.parents[beta - 1].mapping
        g_on_balls = {label: g_on_balls[parent[label]] for label in ambient.levels[beta].points}
        marked = pres.holders(beta)
        free = dict.fromkeys(f.cod.points, 0)
        for label, x_point in g_on_balls.items():
            holders = marked.get(label)
            if not holders:
                free[x_point] += 1
            elif len({b[x] for x in holders}) > 1:
                reason = f"level {beta}: ball {label!r} mixes distinct b-values"
                break
        else:
            short = next((x for x in f.cod.points if free[x] < len(f.fiber(x))), None)
            if short is None:
                return beta, g_on_balls, marked
            reason = (
                f"level {beta}: fiber over {short!r} has {free[short]} image-free balls, "
                f"needs {len(f.fiber(short))}"
            )
    raise DepthError(f"ambient depth {ambient.depth} is insufficient: {reason}")


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
    check_square(pres, f, b, g)

    beta, g_on_balls, marked = _lift_level(pres, f, b, g)
    ball_table: dict[str, str] = {}
    avoid: dict[str, list[str]] = {y: [] for y in y_space.points}
    image: dict[str, list[str]] = {y: [] for y in y_space.points}
    dealt = dict.fromkeys(x_space.points, 0)  # image-free balls dealt per g-fiber
    for label, x_point in g_on_balls.items():
        holders = marked.get(label)
        if holders:
            y = b[holders[0]]
            image[y].append(label)
        else:
            fiber = f.fiber(x_point)
            y = fiber[dealt[x_point] % len(fiber)]
            dealt[x_point] += 1
            avoid[y].append(label)
        ball_table[label] = y

    return LiftResult(
        beta=beta,
        ball_table=ball_table,
        on_points=lift_on_points(pres, f, b, g, beta, ball_table),
        avoid_families={y: tuple(v) for y, v in avoid.items()},
        image_families={y: tuple(v) for y, v in image.items()},
    )


def lift_on_points(
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
    on_points = {w: ball_table[up] for w, up in ambient.above(ambient.depth, beta).items()}
    if set(on_points.values()) != set(f.dom.points):
        raise AssertionError("lift is not onto its source")
    for w, y in on_points.items():
        if f(y) != g.get(w):
            raise AssertionError(f"first lift equation fails at {w!r}")
    for x in pres.space.points:
        if on_points[pres.eta_point(x)] != b[x]:
            raise AssertionError(f"second lift equation fails at base point {x!r}")
    return on_points


def brute_force_lift_oracle(
    pres: GenericPresentation,
    f: Surjection,
    b: Mapping[str, str],
    g: Mapping[str, str],
    beta: int,
    *,
    bound: int = 200_000,
) -> list[dict[str, str]]:
    """Every ball table at level beta solving both lift equations, by enumeration.

    Independent of the constructive route: candidates per ball come from the
    fiber constraints alone and surjectivity is filtered at the end.  Raises
    when the search space |Y| ** (number of balls) exceeds `bound`.
    """
    ambient = pres.ambient
    labels = ambient.levels[beta].points
    y_space = f.dom
    if len(y_space) ** len(labels) > bound:
        raise DepthError(
            f"oracle bound exceeded: {len(y_space)}^{len(labels)} maps at level {beta}"
        )
    g_values: dict[str, set[str]] = {label: set() for label in labels}
    for w, label in ambient.above(ambient.depth, beta).items():
        g_values[label].add(g[w])
    marked = pres.holders(beta)
    candidates = []
    for label in labels:
        cands = [y for y in y_space.points if g_values[label] == {f(y)}]
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
        src_up, dst_up = src.above(src.depth, common), dst.above(dst.depth, common)
        pairs = {(src_up[x], dst_up[y]) for x, y in self.mapping.items()}
        # x, y share a level-a ball iff their images do, for every a <= common:
        # the level-a balls then correspond one to one, read up the parent maps.
        for a in range(common, 0, -1):
            if len(pairs) != len({s for s, _ in pairs}) or len(pairs) != len({d for _, d in pairs}):
                break
            src_parent, dst_parent = src.parents[a - 1].mapping, dst.parents[a - 1].mapping
            pairs = {(src_parent[s], dst_parent[d]) for s, d in pairs}
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


def check_level_bijections(src: BallTree, dst: BallTree, maps: Sequence[Mapping[str, str]]) -> None:
    """Each level map is a bijection of the src level onto the dst level."""
    for level, table in enumerate(maps):
        here, there = src.levels[level], dst.levels[level]
        if len(here) != len(there) or set(table) != set(here.points) or set(table.values()) != set(there.points):
            raise AssertionError(f"level {level} map is not a bijection of the level")


def check_level_parents(src: BallTree, dst: BallTree, maps: Sequence[Mapping[str, str]]) -> None:
    """The level maps commute with the parent maps."""
    for level in range(src.depth):
        src_parent, dst_parent = src.parents[level].mapping, dst.parents[level].mapping
        upper, lower = maps[level + 1], maps[level]
        for child in src.levels[level + 1].points:
            if dst_parent[upper[child]] != lower[src_parent[child]]:
                raise AssertionError(f"parent compatibility fails at {child!r} (level {level + 1})")


def check_level_extension(
    src: GenericPresentation,
    dst: GenericPresentation,
    mapping: Mapping[str, str],
    maps: Sequence[Mapping[str, str]],
) -> None:
    """The level maps carry each source point's eta thread to its image's."""
    if set(mapping) != set(src.space.points):
        raise AssertionError("mapping does not cover the source points")
    for x, y in mapping.items():
        if tuple(maps[a][e] for a, e in enumerate(src.eta[x])) != dst.eta[y]:
            raise AssertionError(f"extension clause fails at {x!r}")


def extend_homeo(p: PartialHomeo) -> tuple[dict[str, str], ...]:
    """Extend a partial homeomorphism to level bijections of the ambients,
    one map per level, commuting with the parent maps.

    Levels are fixed one at a time: children carrying embedded points are
    matched through the given bijection, the remaining (image-free) children
    are paired off in canonical order.  Fails when level shapes or fiber
    sizes disagree.
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
        for v, w in level_maps[level - 1].items():
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

    maps = tuple(level_maps)
    check_level_bijections(src_amb, dst_amb, maps)
    check_level_parents(src_amb, dst_amb, maps)
    check_level_extension(p.src, p.dst, p.mapping, maps)
    return maps


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
    components = retraction_components(ambient, base, nearest)
    arrow = SequenceArrow(
        src=ball_quotients(ambient),
        dst=ball_quotients(base),
        reindex=tuple(level for level, _ in components),
        maps=tuple(
            Surjection(ambient.levels[level], base.levels[m], values)
            for m, (level, values) in enumerate(components)
        ),
    )
    check_restores(pres.eta, retraction_table(ambient, arrow))
    return arrow


def retraction_components(
    ambient: BallTree, base: BallTree, table: Mapping[str, str]
) -> list[tuple[int, dict[str, str]]]:
    """For each base level m, the factoring level of the point table's
    level-m component (each ambient point to its image's level-m ball) and
    the component on that level's balls, as `factoring_level` gives them.
    The components are read up the base's parent maps, one level at a time."""
    component = {w: table[w] for w in ambient.points}
    components = [factoring_level(ambient, component)]
    for parent in reversed(base.parents):
        component = {w: parent.mapping[x] for w, x in component.items()}
        components.append(factoring_level(ambient, component))
    return components[::-1]


def check_restores(eta: Mapping[str, Sequence[str]], table: Mapping[str, str]) -> None:
    """The retraction's point table sends each embedded point back to its base point."""
    for x, thread in eta.items():
        if table[thread[-1]] != x:
            raise AssertionError(f"retraction does not restore base point {x!r}")


def retraction_table(ambient: BallTree, arrow: SequenceArrow) -> dict[str, str]:
    """Ambient point to base point table of a retraction arrow, read off its
    top map at each point's ancestor on the top reindex level.

    The arrow is natural (`SequenceArrow` checks it), so it sends threads to
    threads, and a base thread is fixed by its top entry: the table is the
    arrow on threads, and `table[eta_point(x)] == x` says that the arrow is
    a left inverse of the embedding.
    """
    top, level = arrow.maps[-1].mapping, arrow.reindex[-1]
    return {w: top[up] for w, up in ambient.above(ambient.depth, level).items()}
