"""Seeded inputs for the three benchmark workloads.

Every job is a list of commands run one at a time, each in a fresh process,
so the program sees only the JSON files written here.  Generation uses plain
Python data (no library calls), so it costs the same whatever the program
does, and the same (workload, seed) always gives byte-identical files.

The knobs that set a job's cost (sequence depth, leaf budget, split count,
subset size) are fixed or cycled per job index, not drawn from the seed: the
seed only picks tree shapes, split points, subsets and maps.  A run's median
then varies little from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Jobs per seed; a run that finishes the pool starts it again from job 0.
POOL = {"deep-embed": 40, "task-absorb": 84, "subset-extend-lift": 64}

WHY = {
    "deep-embed": "8-leaf trees at sequence depth 6, no splits: the sequence/coherence path and the largest certificates",
    "task-absorb": "embed+verify at depths 3 and 4 with 8-14 splits: work moves into engine build/absorption and slices amalgamation",
    "subset-extend-lift": "subsets of binary_tree(8): all work in balltree and generic, no engine or coherence (bypass)",
}

# Level sizes below the root.  They, not the leaf count alone, set the pad
# sizes and so the cost: a level 1 of 5 or more balls costs about 3x, so it
# is fixed and the seed only picks which parent each ball hangs under.
DEEP_DEPTH = 6
DEEP_SHAPES = ((3, 8), (3, 5, 8))  # base tree depth 2 and 3, 8 leaves each
ABSORB_SHAPE = (3, 6)
AMBIENT_DEPTH = 8
SUBSET_PAIRS = 64  # of the 128 sibling pairs of binary_tree(8)


@dataclass(frozen=True)
class Command:
    """One process: `kind` is a CLI subcommand or "lift" (library route).

    `cert` is the certificate file the command writes, or reads for verify.
    """

    kind: str
    args: tuple[str, ...]
    cert: str

    @property
    def produces(self) -> bool:
        return self.kind != "verify"


@dataclass(frozen=True)
class Job:
    index: int
    commands: tuple[Command, ...]


def _compose(rng: random.Random, total: int, parts: int) -> list[int]:
    """A random composition of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_tree(rng: random.Random, sizes: tuple[int, ...]) -> dict:
    """A ball tree in the CLI's JSON form with the given level sizes.

    Every ball gets at least one child, at most 9, so labels can extend the
    parent's label by one digit; they start with "r", so they never clash
    with pad labels ("p0", "p1", ...).
    """
    levels = [["r"]]
    parents = []
    for size in sizes:
        upper = levels[-1]
        counts = _compose(rng, size, len(upper))
        labels, row = [], []
        for i, (label, count) in enumerate(zip(upper, counts)):
            labels += [f"{label}{c}" for c in range(count)]
            row += [i] * count
        levels.append(labels)
        parents.append(row)
    return {"depth": len(sizes), "levels": levels, "parents": parents}


def binary_tree(depth: int) -> dict:
    levels = [[format(i, f"0{a}b") if a else "" for i in range(2**a)] for a in range(depth + 1)]
    parents = [[i // 2 for i in range(2 ** (a + 1))] for a in range(depth)]
    return {"depth": depth, "levels": levels, "parents": parents}


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True))
    return str(path)


def _deep_embed(rng: random.Random, index: int, work: Path) -> Job:
    tree = _write(work / f"tree{index}.json", random_tree(rng, DEEP_SHAPES[index % 2]))
    depth = ("--depth", str(DEEP_DEPTH))
    emb, ret = str(work / "embedding.json"), str(work / "retraction.json")
    return Job(index, (
        Command("embed", (tree, *depth, "--out", emb), emb),
        Command("verify", (emb,), emb),
        Command("retract", (tree, *depth, "--out", ret), ret),
        Command("verify", (ret,), ret),
    ))


def _task_absorb(rng: random.Random, index: int, work: Path) -> Job:
    # Every job runs both depths, so job times form one cost mode and the
    # median does not hinge on how many jobs of each depth a run reached.
    data = random_tree(rng, ABSORB_SHAPE)
    tree = _write(work / f"tree{index}.json", data)
    splits = 8 + index % 7
    commands = []
    for depth in (3, 4):
        split_args = []
        for stage, point in _splits(rng, data, depth, splits):
            split_args += ["--split", f"{stage}:{point}"]
        emb = str(work / f"embedding{depth}.json")
        commands += [
            Command("embed", (tree, "--depth", str(depth), *split_args, "--out", emb), emb),
            Command("verify", (emb,), emb),
        ]
    return Job(index, tuple(commands))


def _splits(rng: random.Random, data: dict, depth: int, splits: int) -> list[tuple[int, str]]:
    """Distinct (stage, point) pairs, dealt round-robin over stages 1..depth-1.

    Stage s holds the balls of level min(s, tree depth) and at least 2^(s+1)
    pads, so every point named here exists.  Dealing evenly, skipping full
    stages, makes every job of a given size load its stages alike.
    """
    stages = list(range(1, depth))
    points = {
        s: data["levels"][min(s, data["depth"])] + [f"p{i}" for i in range(2 ** (s + 1))]
        for s in stages
    }
    counts = dict.fromkeys(stages, 0)
    open_stages = list(stages)
    for k in range(splits):
        s = open_stages[k % len(open_stages)]
        counts[s] += 1
        if counts[s] == len(points[s]):
            open_stages.remove(s)
    return [(s, p) for s in stages for p in rng.sample(points[s], counts[s])]


def _subset_extend_lift(rng: random.Random, index: int, work: Path, ambient: dict) -> Job:
    # One leaf from each chosen sibling pair keeps every level-7 ball half
    # free, so the subset is uniformly nowhere dense by construction.
    pairs = sorted(rng.sample(range(2 ** (AMBIENT_DEPTH - 1)), SUBSET_PAIRS))
    subset = [format(2 * p + rng.randrange(2), f"0{AMBIENT_DEPTH}b") for p in pairs]
    mask = rng.randrange(1, 2**AMBIENT_DEPTH)  # x -> x XOR mask is an isometry
    image = {x: format(int(x, 2) ^ mask, f"0{AMBIENT_DEPTH}b") for x in subset}
    extend_in = _write(work / f"extend{index}.json", {
        "ambient": ambient, "src": subset, "dst": [image[x] for x in subset], "map": image,
    })
    # Lift problem: f: Y -> X with two points per fiber, g constant on the
    # two level-1 balls, b chosen inside f's fiber over g so g o eta = f o b.
    targets = ["x0", "x1"]
    rng.shuffle(targets)
    ys = [f"y{i}" for i in range(4)]
    rng.shuffle(ys)
    f = {y: ("x0", "x1")[i % 2] for i, y in enumerate(ys)}
    g = {w: targets[int(w[0])] for w in ambient["levels"][-1]}
    b = {x: rng.choice([y for y in sorted(f) if f[y] == g[x]]) for x in subset}
    lift_in = _write(work / f"lift{index}.json", {
        "ambient": ambient, "subset": subset, "f_source": sorted(f), "f_target": ["x0", "x1"],
        "f": f, "b": b, "g": g,
    })
    ext, lift = str(work / "extension.json"), str(work / "lift.json")
    return Job(index, (
        Command("extend", (extend_in, "--out", ext), ext),
        Command("verify", (ext,), ext),
        Command("lift", (lift_in, lift), lift),
        Command("verify", (lift,), lift),
    ))


def generate(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the seeded input files for one workload and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if workload == "deep-embed":
        return [_deep_embed(rng, i, work) for i in range(POOL[workload])]
    if workload == "task-absorb":
        return [_task_absorb(rng, i, work) for i in range(POOL[workload])]
    if workload == "subset-extend-lift":
        ambient = binary_tree(AMBIENT_DEPTH)
        return [_subset_extend_lift(rng, i, work, ambient) for i in range(POOL[workload])]
    raise ValueError(f"unknown workload {workload!r}")
