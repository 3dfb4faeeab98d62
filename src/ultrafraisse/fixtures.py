"""Shared example trees: binary prefix trees."""

from __future__ import annotations

from .balltree import BallTree
from .spaces import FiniteSpace, Surjection


def binary_tree(depth: int) -> BallTree:
    """The full binary tree of the given depth; balls are bit prefixes."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = []
    parents = []
    for a in range(depth + 1):
        labels = [format(i, f"0{a}b") if a else "" for i in range(2**a)]
        levels.append(FiniteSpace(id=f"bits{a}", points=tuple(labels)))
    for a in range(depth):
        parents.append(
            Surjection(levels[a + 1], levels[a], {b: b[:-1] for b in levels[a + 1].points})
        )
    return BallTree(levels=tuple(levels), parents=tuple(parents))


def k4() -> BallTree:
    """The four-point binary depth-2 tree used throughout the test fixtures."""
    return binary_tree(2)
