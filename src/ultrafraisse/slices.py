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

    def value_on_ball(self, level: int, label: str) -> str:
        """Value on any ball at a level >= the factoring level."""
        if level < self.level:
            raise ValueError(f"balls at level {level} are too coarse for level {self.level}")
        return self.quotient_map(self.base.ancestor(level, label, self.level))

    def point_value(self, point: str) -> str:
        chain = self.base._chains[-1].get(point)
        if chain is None:
            raise ValueError(f"{point!r} is not a ball at level {self.base.depth}")
        return self.quotient_map.mapping[chain[self.level]]

    def point_table(self) -> dict[str, str]:
        return {p: self.point_value(p) for p in self.base.points}


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
        level = max(self.src.level, self.dst.level)
        # each ball's ancestor chain gives both ends' values, as point_value reads them
        q, src_at, dst_at = self.q.mapping, self.src.level, self.dst.level
        src_map, dst_map = self.src.quotient_map.mapping, self.dst.quotient_map.mapping
        for label, chain in self.src.base._chains[level].items():
            got = q[src_map[chain[src_at]]]
            want = dst_map[chain[dst_at]]
            if got != want:
                raise ValueError(
                    f"arrow does not commute over the base: ball {label!r} "
                    f"maps to {got!r}, expected {want!r}"
                )


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
    for label in base.levels[level].points:
        x = f.value_on_ball(level, label)
        y = g.value_on_ball(level, label)
        if q1.q(x) != q2.q(y):
            raise ValueError(f"cospan does not commute on ball {label!r}")
        mapping[label] = pair_label(x, y)
    k = SliceObject(
        base=base,
        level=level,
        target=w,
        quotient_map=PointMap(base.levels[level], w, mapping),
    )
    return k, SliceArrow(k, f, p1), SliceArrow(k, g, p2)

