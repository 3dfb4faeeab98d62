"""Finite inverse sequences of discrete spaces and their limits.

A sequence is a list of spaces U_0..U_n with step maps U_{a+1} -> U_a.
Because every step is a function, each top-level point extends downward
to exactly one compatible tuple, so the limit is materialized eagerly.
"""

from __future__ import annotations

from ._record import Record
from .spaces import FiniteSpace, PointMap, Surjection, compose, identity


class Report(Record):
    """Outcome of a report-style check: empty `issues` means valid."""

    issues: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues


class InverseSequence(Record):
    spaces: tuple[FiniteSpace, ...]
    steps: tuple[PointMap, ...]

    def __post_init__(self):
        if not self.spaces:
            raise ValueError("sequence needs at least one space")
        if len(self.steps) != len(self.spaces) - 1:
            raise ValueError(
                f"{len(self.spaces)} spaces need {len(self.spaces) - 1} steps, got {len(self.steps)}"
            )
        for a, step in enumerate(self.steps):
            if step.dom != self.spaces[a + 1] or step.cod != self.spaces[a]:
                raise ValueError(f"step {a} does not map spaces[{a + 1}] onto spaces[{a}]")

    @property
    def length(self) -> int:
        return len(self.spaces) - 1

    def bonding(self, a: int, b: int) -> PointMap:
        """Composite map U_b -> U_a for a <= b (identity when a == b).

        steps[a] o ... o steps[b - 1], folded down from steps[b - 1] in
        b - a - 1 composes; a Surjection exactly when every step is one.
        """
        if not 0 <= a <= b <= self.length:
            raise ValueError(f"bad bonding levels ({a}, {b}) for length {self.length}")
        if a == b:
            return identity(self.spaces[b])
        out = self.steps[b - 1]
        for level in range(b - 2, a - 1, -1):
            out = compose(self.steps[level], out)
        return out


def check_coherent(seq: InverseSequence) -> Report:
    """List every non-surjective step.

    The composition identities bonding(a, c) = bonding(a, b) o bonding(b, c)
    need no check: `bonding` composes the same step maps, so they hold for
    every sequence, and a sequence is coherent exactly when each step is onto.
    """
    issues = []
    for a, step in enumerate(seq.steps):
        if not step.is_surjective():
            hit = set(step.mapping.values())
            missed = next(q for q in step.cod.points if q not in hit)
            issues.append(f"step {a} not surjective: misses {missed!r}")
    return Report(tuple(issues))


def is_thread_of(t: tuple[str, ...], seq: InverseSequence) -> bool:
    if len(t) != seq.length + 1:
        return False
    if any(e not in sp for e, sp in zip(t, seq.spaces)):
        return False
    return all(step(t[a + 1]) == t[a] for a, step in enumerate(seq.steps))


class SequenceArrow(Record):
    """A level-wise family of surjections src -> dst along a nondecreasing reindexing.

    maps[a] sends src.spaces[reindex[a]] onto dst.spaces[a]; naturality makes the
    induced map on threads well defined.
    """

    src: InverseSequence
    dst: InverseSequence
    reindex: tuple[int, ...]
    maps: tuple[Surjection, ...]

    def __post_init__(self):
        m = self.dst.length
        if len(self.reindex) != m + 1 or len(self.maps) != m + 1:
            raise ValueError("need one reindex entry and one map per dst level")
        if any(self.reindex[a] > self.reindex[a + 1] for a in range(m)):
            raise ValueError("reindex must be nondecreasing")
        if any(not 0 <= r <= self.src.length for r in self.reindex):
            raise ValueError("reindex out of src range")
        for a, f in enumerate(self.maps):
            if f.dom != self.src.spaces[self.reindex[a]] or f.cod != self.dst.spaces[a]:
                raise ValueError(f"maps[{a}] has wrong domain or codomain")
        for a in range(m):
            lhs = compose(self.dst.steps[a], self.maps[a + 1])
            rhs = compose(self.maps[a], self.src.bonding(self.reindex[a], self.reindex[a + 1]))
            if lhs != rhs:
                raise ValueError(f"naturality fails between dst levels {a} and {a + 1}")


def apply_sequence_arrow(arrow: SequenceArrow, t: tuple[str, ...]) -> tuple[str, ...]:
    if not is_thread_of(t, arrow.src):
        raise ValueError("not a thread of the arrow's source sequence")
    out = tuple(arrow.maps[a](t[arrow.reindex[a]]) for a in range(arrow.dst.length + 1))
    if not is_thread_of(out, arrow.dst):
        raise AssertionError("the arrow sends a thread to a non-thread")
    return out


class SlicedSequence(Record):
    """An inverse sequence together with compatible maps from a fixed base space.

    phis[a] is a slice object whose target is spaces[a]; each step must carry
    phis[a+1] to phis[a] pointwise on the base.
    """

    seq: InverseSequence
    phis: tuple

    def __post_init__(self):
        if len(self.phis) != self.seq.length + 1:
            raise ValueError("need one slice map per sequence level")
        base = self.phis[0].base
        for a, phi in enumerate(self.phis):
            if phi.target != self.seq.spaces[a]:
                raise ValueError(f"phis[{a}] does not land in spaces[{a}]")
            if phi.base != base:
                raise ValueError(f"phis[{a}] is not over the base of phis[0]")
        for a, step in enumerate(self.seq.steps):
            upper, lower = self.phis[a + 1], self.phis[a]
            # both sides are constant on the balls of the deeper slice level
            if upper.discord(step.mapping, lower, max(upper.level, lower.level)) is None:
                continue
            # name the first offending base point
            point = upper.discord(step.mapping, lower, base.depth)[0]
            raise ValueError(f"step {a} does not carry phis[{a + 1}] to phis[{a}] at base point {point!r}")

    @property
    def base(self):
        return self.phis[0].base

