"""Finite discrete spaces, total point maps and surjections.

Every space fixes its point order at construction; that order is the
tie-breaker for all canonical constructions built on top (pair labels,
round-robin assignments, witness selection).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ._record import Record


class FiniteSpace(Record):
    """A nonempty finite set of labelled points with a fixed order."""

    id: str
    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError(f"space {self.id!r} has no points")
        # label -> position, built once; equality and hashing still use the fields
        positions = {label: i for i, label in enumerate(self.points)}
        if len(positions) != len(self.points):
            raise ValueError(f"space {self.id!r} has duplicate point labels")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[str]:
        return iter(self.points)

    def __contains__(self, label: str) -> bool:
        try:
            return label in self._positions
        except TypeError:  # an unhashable value from malformed input is not a point
            return False

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise ValueError(f"{label!r} is not a point of {self.id!r}") from None


class PointMap:
    """A total map between finite spaces; not necessarily onto."""

    __slots__ = ("dom", "cod", "mapping", "_fibers")

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, mapping: Mapping[str, str]):
        # The common case is two set tests in C; the scans below only name
        # the first offender, undefined point before foreign point before
        # foreign value.
        try:
            valid = mapping.keys() == dom._positions.keys() and all(
                map(cod._positions.__contains__, mapping.values())
            )
        except TypeError:  # an unhashable value from malformed input
            valid = False
        if not valid:
            missing = [p for p in dom.points if p not in mapping]
            if missing:
                raise ValueError(f"map {dom.id!r}->{cod.id!r} undefined at {missing[0]!r}")
            extra = [p for p in mapping if p not in dom]
            if extra:
                raise ValueError(f"map {dom.id!r}->{cod.id!r} defined at foreign point {extra[0]!r}")
            bad = [v for v in mapping.values() if v not in cod]
            if bad:
                raise ValueError(f"map {dom.id!r}->{cod.id!r} hits foreign value {bad[0]!r}")
        self.dom = dom
        self.cod = cod
        self.mapping = dict(mapping)
        self._fibers: dict[str, tuple[str, ...]] | None = None

    @classmethod
    def _built(cls, dom: FiniteSpace, cod: FiniteSpace, mapping: dict[str, str]):
        """A map whose mapping is total on `dom`, with values in `cod`, by
        construction (and onto `cod` for a Surjection); nothing is re-checked."""
        out = cls.__new__(cls)
        out.dom, out.cod, out.mapping, out._fibers = dom, cod, mapping, None
        return out

    def __call__(self, point: str) -> str:
        return self.mapping[point]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.mapping == other.mapping
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dom.id!r} -> {self.cod.id!r})"

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.cod.points)

    def fiber(self, value: str) -> tuple[str, ...]:
        """Preimage of one codomain point, in domain order."""
        return (self._fibers or self.fibers()).get(value, ())

    def fibers(self) -> dict[str, tuple[str, ...]]:
        """Every nonempty preimage by its codomain point, each in domain
        order: one pass over the domain, made once and kept."""
        if self._fibers is None:
            fibers: dict[str, list[str]] = {}
            for p in self.dom.points:
                fibers.setdefault(self.mapping[p], []).append(p)
            self._fibers = {q: tuple(ps) for q, ps in fibers.items()}
        return self._fibers


class Surjection(PointMap):
    """A total map with every codomain point attained."""

    __slots__ = ()

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, mapping: Mapping[str, str]):
        super().__init__(dom, cod, mapping)
        hit = set(self.mapping.values())
        if len(hit) != len(cod):  # every value is a point of cod, so onto is a count
            miss = next(q for q in cod.points if q not in hit)
            raise ValueError(f"map {dom.id!r}->{cod.id!r} misses {miss!r}: not a surjection")


def identity(space: FiniteSpace) -> Surjection:
    return Surjection(space, space, {p: p for p in space.points})


def compose(g: PointMap, f: PointMap) -> PointMap:
    """Pointwise composition g o f; a Surjection when both inputs are.

    The composite of two valid maps is total on f.dom with values in g.cod,
    and onto when both are, so it is built without a second validation.
    """
    if f.cod != g.dom:
        raise ValueError(f"cannot compose: {f.cod.id!r} is not {g.dom.id!r}")
    gm, fm = g.mapping, f.mapping
    mapping = {p: gm[fm[p]] for p in f.dom.points}
    cls = Surjection if isinstance(f, Surjection) and isinstance(g, Surjection) else PointMap
    return cls._built(f.dom, g.cod, mapping)


def pair_label(x: str, y: str) -> str:
    return f"({x},{y})"


def pullback(q1: Surjection, q2: Surjection) -> tuple[FiniteSpace, Surjection, Surjection]:
    """Pullback of a cospan q1: X -> Z <- Y :q2.

    Returns (W, f1, g1) where W holds the pairs (x, y) with q1(x) = q2(y),
    labelled "(x,y)" in lexicographic order of (index of x, index of y),
    and f1, g1 are the two projections.  Both projections are onto because
    q1 and q2 are.  The pairs over each x are the fiber of q2 over q1(x),
    which lists y in domain order, so one pass costs O(|X| + |Y| + |W|).
    """
    if q1.cod != q2.cod:
        raise ValueError(f"pullback needs a shared codomain, got {q1.cod.id!r} and {q2.cod.id!r}")
    x_space, y_space = q1.dom, q2.dom
    pairs = [(x, y) for x in x_space.points for y in q2.fiber(q1(x))]
    w = FiniteSpace(
        id=f"pb({x_space.id},{y_space.id})",
        points=tuple(pair_label(x, y) for x, y in pairs),
    )
    f1 = Surjection(w, x_space, {pair_label(x, y): x for x, y in pairs})
    g1 = Surjection(w, y_space, {pair_label(x, y): y for x, y in pairs})
    return w, f1, g1

