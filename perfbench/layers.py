"""Per-layer spans recorded from outside the program.

`install` wraps the public functions of each ultrafraisse module (and the
methods listed on their classes) with a span that counts calls, self time
(span duration minus the child spans inside it) and work counts derived
from arguments and results.  Modules bind names with `from .x import y`, so
every module-level binding of a wrapped function is replaced, not only the
defining one.  `FiniteSpace.__contains__` is left alone: it runs millions
of times and its cost shows inside `spaces.map_ctor`.

A call that re-enters the layer already on top of the span stack (a
`Surjection` constructor calling `PointMap.__init__`, `leafset` calling
`descendants`) joins the open span instead of opening a child.

The program is single-threaded and nothing waits on a queue or lock, so
there are no wait metrics.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import defaultdict
from typing import Callable

# Verifier check names with indices and tags stripped, in cli.py order; any
# other check name lands in "other".
CHECK_NAMES = (
    "content digest matches",
    "sequence wiring and slice compatibility",
    "sequence is coherent with surjective steps",
    "ambient tree equals the rebuilt sequence tree",
    "eta table matches the sequence and is injective",
    "nowhere-density witness is valid",
    "witness matches the exhaustive search",
    "task absorption witness",
    "probe reachability witness",
    "level maps are bijections",
    "level maps commute with parents",
    "level maps extend the point mapping",
    "retraction is a natural arrow of sequences",
    "retraction is a left inverse of the embedding",
    "point table matches the arrow",
    "reindex levels are the exact factoring levels",
    "lift square commutes",
    "lift equations hold pointwise",
    "avoid/image families partition the level",
)
_STOP_WORDS = {"a", "an", "and", "are", "is", "of", "the", "with"}


def check_slug(name: str) -> str:
    """'task split:1:p0 absorption witness' -> 'task_absorption_witness'."""
    words = [w for w in re.split(r"[^a-z0-9:]+", name.lower()) if w and not re.search(r"[0-9:]", w)]
    return "_".join(w for w in words if w not in _STOP_WORDS)


CHECK_SLUGS = tuple(check_slug(n) for n in CHECK_NAMES)
_KNOWN_SLUGS = frozenset(CHECK_SLUGS)


def _check_layer(args, kwargs) -> str:
    slug = check_slug(args[1])
    return f"cli.check.{slug if slug in _KNOWN_SLUGS else 'other'}"


def _pad_rounds(args, kwargs, result) -> dict:
    floor = kwargs.get("pad_floor")
    start = max(args[1].pad_index + 1, floor if floor is not None else 0)
    return {"engine.dominate_arrow.pad_rounds": result[0].pad_index - start + 1}


def _nowhere_dense(args, kwargs, result) -> dict:
    tree = args[0]
    if hasattr(result, "target_levels"):
        scans = sum(beta - alpha for alpha, beta in enumerate(result.target_levels))
        levels = len(result.target_levels)
    else:  # failure: only the failing level's scans are known from the result
        scans, levels = tree.depth - result.level, 0
    return {"balltree.nowhere_dense.beta_scans": scans, "balltree.nowhere_dense.levels": levels}


def _verify_fraisse(args, kwargs, result) -> dict:
    sliced, tasks = args[0], args[1]
    length = sliced.seq.length
    scans = witnessed = 0
    for task, res in zip(tasks, result.tasks):
        scans += (res.beta if res.status == "witnessed" else length) - task.stage + 1
        witnessed += res.status == "witnessed"
    for res in result.probes:
        scans += (res.level if res.status == "witnessed" else length) + 1
        witnessed += res.status == "witnessed"
    return {"engine.verify_fraisse.beta_scans": scans, "engine.verify_fraisse.witnessed": witnessed}


def _build(args, kwargs, result) -> dict:
    return {
        "engine.stage_points": sum(len(sp) for sp in result.sequence.seq.spaces),
        "engine.tasks_absorbed": len(result.witnesses),
    }


def _ambient(args, kwargs, result) -> dict:
    return {"generic.ambient_points": len(result.ambient.points)}


Counter = Callable[[tuple, dict, object], dict]

# (module, class or None, attribute, layer name or name function, counter)
TARGETS: tuple[tuple[str, str | None, str, object, Counter | None], ...] = (
    ("spaces", "PointMap", "__init__", "spaces.map_ctor", lambda a, k, r: {"spaces.map_ctor.points": len(a[1])}),
    ("spaces", "Surjection", "__init__", "spaces.map_ctor", lambda a, k, r: {"spaces.map_ctor.points": len(a[1])}),
    ("spaces", None, "compose", "spaces.compose", lambda a, k, r: {"spaces.compose.points": len(a[1].dom)}),
    ("spaces", None, "pullback", "spaces.pullback", lambda a, k, r: {"spaces.pullback.pairs": len(r[0])}),
    ("spaces", "PointMap", "fiber", "spaces.fiber", None),
    ("sequences", None, "check_coherent", "sequences.check_coherent", None),
    ("sequences", "InverseSequence", "bonding", "sequences.bonding", lambda a, k, r: {"sequences.bonding.steps": a[2] - a[1]}),
    ("sequences", "SequenceArrow", "__post_init__", "sequences.arrow_ctor", None),
    ("sequences", None, "apply_sequence_arrow", "sequences.apply_arrow", None),
    ("balltree", None, "from_sequence", "balltree.from_sequence", None),
    ("balltree", "BallTree", "descendants", "balltree.descendants", None),
    ("balltree", "BallTree", "leafset", "balltree.descendants", None),
    ("balltree", "BallTree", "children", "balltree.children", None),
    ("balltree", None, "u_metric", "balltree.u_metric", None),
    ("balltree", None, "is_uniformly_nowhere_dense", "balltree.nowhere_dense", _nowhere_dense),
    ("balltree", None, "validate_witness", "balltree.validate_witness", None),
    ("balltree", None, "factoring_level", "balltree.factoring_level", None),
    ("slices", None, "amalgamate_slice", "slices.amalgamate", None),
    ("slices", "SliceArrow", "__post_init__", "slices.arrow_ctor", None),
    ("engine", None, "build_fraisse", "engine.build", _build),
    ("engine", None, "dominate_arrow", "engine.dominate_arrow", _pad_rounds),
    ("engine", None, "verify_fraisse", "engine.verify_fraisse", _verify_fraisse),
    ("generic", None, "embed_generic", "generic.embed", _ambient),
    ("generic", None, "retract_onto", "generic.retract", None),
    ("generic", None, "presentation_from_subset", "generic.subset_presentation", _ambient),
    ("generic", "PartialHomeo", "__post_init__", "generic.partial_homeo", None),
    ("generic", None, "extend_homeo", "generic.extend", None),
    ("generic", None, "lift_through_generic", "generic.lift", None),
    ("serial", None, "dumps", "serial.dumps", lambda a, k, r: {"serial.dumps.bytes": len(r)}),
    ("serial", None, "content_digest", "serial.digest", None),
    ("serial", None, "loads", "serial.parse", None),
    ("serial", None, "tree_from_json", "serial.parse", None),
    ("serial", None, "map_from_json", "serial.parse", None),
    ("serial", None, "sliced_parts_from_json", "serial.parse", None),
    ("serial", None, "sliced_from_json", "serial.parse", None),
    ("serial", None, "witness_from_json", "serial.parse", None),
    ("cli", None, "_read_json", "serial.parse", None),  # the certificate's JSON decode
    ("cli", None, "main", "cli.main", None),
    ("cli", None, "lift_certificate_payload", "cli.lift_payload", None),
    ("cli", None, "_check", _check_layer, None),
)

# Layers that report calls and self time; counters add their own names.
SPAN_LAYERS = tuple(dict.fromkeys(t[3] for t in TARGETS if isinstance(t[3], str)))
CHECK_LAYERS = tuple(f"cli.check.{s}" for s in CHECK_SLUGS + ("other",))
COUNTERS = {
    "spaces.map_ctor.points": "count",
    "spaces.compose.points": "count",
    "spaces.pullback.pairs": "count",
    "sequences.bonding.steps": "count",
    "balltree.nowhere_dense.beta_scans": "count",
    "balltree.nowhere_dense.levels": "count",
    "engine.stage_points": "count",
    "engine.tasks_absorbed": "count",
    "engine.dominate_arrow.pad_rounds": "count",
    "engine.verify_fraisse.beta_scans": "count",
    "engine.verify_fraisse.witnessed": "count",
    "generic.ambient_points": "count",
    "serial.dumps.bytes": "B",
}


class Recorder:
    """Span stack plus per-layer totals for one process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [layer, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0

    def wrap(self, fn, layer, counter: Counter | None):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            stack = self.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return functools.update_wrapper(traced, fn)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }


def install(recorder: Recorder, package: str = "ultrafraisse") -> Callable[[], None]:
    """Wrap every target in the loaded package; returns a function that undoes it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    for mod_name, cls_name, attr, layer, counter in TARGETS:
        home = sys.modules[f"{package}.{mod_name}"]
        if cls_name is not None:
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, recorder.wrap(original, layer, counter))
            continue
        original = getattr(home, attr)
        wrapped = recorder.wrap(original, layer, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
