"""The slice category over a fixed ball tree.

An object is a map from the tree into a finite discrete space that factors
through the ball quotient at some level; factoring at a finite level is the
discrete form of uniform continuity.  Objects need not be onto their target
(targets may carry unreached padding), but arrows are always surjections.
"""

from __future__ import annotations

from ._record import Record
from .balltree import BallTree
from .spaces import FiniteSpace, PointMap, Surjection, pair_label, pullback


class SliceObject(Record):
    """A map base -> target given by its action on the level-`level` balls."""

    base: BallTree
    level: int
    target: FiniteSpace
    quotient_map: PointMap

    def __post_init__(self):
        if not 0 <= self.level <= self.base.depth:
            raise ValueError(f"level {self.level} out of range for depth {self.base.depth}")
        if self.quotient_map.dom != self.base.levels[self.level]:
            raise ValueError("quotient_map must be defined on the level's ball space")
        if self.quotient_map.cod != self.target:
            raise ValueError("quotient_map must land in the target")

    def values(self, level: int) -> dict[str, str]:
        """The value on each level-`level` ball, in level order, for a level
        no coarser than the object's; at the base depth, on each base point."""
        if level < self.level:
            raise ValueError(f"balls at level {level} are too coarse for level {self.level}")
        value = self.quotient_map.mapping
        return {b: value[up] for b, up in self.base.above(level, self.level).items()}

    def discord(self, q: dict[str, str], other: SliceObject, level: int) -> tuple[str, str, str] | None:
        """The first level-`level` ball, in level order, where q after this
        object differs from `other`, as (ball, q's value, other's value);
        None when they agree on every ball."""
        mine, theirs = self.values(level), other.values(level)
        got, want = list(map(q.__getitem__, mine.values())), list(theirs.values())
        if got == want:
            return None
        return next(bad for bad in zip(mine, got, want) if bad[1] != bad[2])


class SliceArrow(Record):
    """A surjection between slice targets commuting with the maps from the base."""

    src: SliceObject
    dst: SliceObject
    q: Surjection

    def __post_init__(self):
        if self.src.base is not self.dst.base and self.src.base != self.dst.base:
            raise ValueError("slice arrows need a common base")
        if self.q.dom != self.src.target or self.q.cod != self.dst.target:
            raise ValueError("arrow map must send src target onto dst target")
        # both ends are constant on the balls of the deeper slice level
        bad = self.src.discord(self.q.mapping, self.dst, max(self.src.level, self.dst.level))
        if bad is not None:
            raise ValueError("arrow does not commute over the base: ball {!r} maps to {!r}, expected {!r}".format(*bad))


def amalgamate_slice(
    f: SliceObject,
    g: SliceObject,
    h: SliceObject,
    q1: SliceArrow,
    q2: SliceArrow,
) -> tuple[SliceObject, SliceArrow, SliceArrow]:
    """Complete the cospan q1: f -> h <- g :q2 to a commuting square.

    The new object maps into the full pullback of the two arrow maps; the
    joint fiber of a pair may be empty on the base, so the pullback target is
    kept whole and only the returned arrows are required to be onto.
    """
    if q1.src != f or q1.dst != h or q2.src != g or q2.dst != h:
        raise ValueError("arrows do not form a cospan from f and g into h")
    w, p1, p2 = pullback(q1.q, q2.q)
    level = max(f.level, g.level)
    base = f.base
    mapping = {}
    left, right = q1.q.mapping, q2.q.mapping
    for (label, x), y in zip(f.values(level).items(), g.values(level).values()):
        if left[x] != right[y]:
            raise ValueError(f"cospan does not commute on ball {label!r}")
        mapping[label] = pair_label(x, y)
    k = SliceObject(
        base=base,
        level=level,
        target=w,
        quotient_map=PointMap(base.levels[level], w, mapping),
    )
    return k, SliceArrow(k, f, p1), SliceArrow(k, g, p2)

