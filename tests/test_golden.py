"""Golden certificate corpus: certificate bytes pinned across changes.

For every certificate kind over a small fixed grid, `golden/digests.json`
stores the certificate's `integrity` digest (the sha256 of all its other
content) and the `verify` lines with their PASS/SKIP marks, details cut.
`test_outputs_are_byte_identical` compares two runs of the same code; this
table compares the code with the code that recorded it.

`golden/grid.json` does the same, digests only, for embed and retract over
seeded random trees (uneven branching, unary chains) under four pad
schedules, two sequence depths and 0-3 splits drawn from the stages' points.
Growth 3 makes the pad blocks split unevenly, which growth 2 never does.
On the same trees it pins `extend` along a random automorphism and the
subset `lift`, each over a sparse subset drawn from the tree's own shape.

Off the grid, a property test checks that every embed and retract
certificate on other random trees verifies with only PASS lines, and a
grid sample is written under two hash seeds to the same bytes.

Re-record only when a change is meant to alter certificate content or
verify output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ultrafraisse
from ultrafraisse import serial
from ultrafraisse.cli import lift_certificate_payload, main
from ultrafraisse.engine import PaddingSchedule, build_fraisse
from ultrafraisse.fixtures import binary_tree, k4
from ultrafraisse.generic import lift_through_generic, presentation_from_subset
from ultrafraisse.spaces import FiniteSpace, Surjection

from oracles import random_tree

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
GRID = Path(__file__).parent / "golden" / "grid.json"
TREES = {"k4": k4, "b3": lambda: binary_tree(3)}
SPLITS = ("--split", "1:p0", "--split", "2:00")


def _run(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().splitlines()


def _produce(work: Path, command: str, tree, options: list[str]) -> Path:
    tree_path = work / "tree.json"
    tree_path.write_text(serial.dumps(serial.tree_to_json(tree)))
    cert = work / "cert.json"
    code, _ = _run([command, str(tree_path), *options, "--out", str(cert)])
    assert code == 0
    return cert


def _cli_case(command: str, tree: str, depth: int, splits: tuple[str, ...]):
    def produce(work: Path) -> Path:
        return _produce(work, command, TREES[tree](), ["--depth", str(depth), *splits])

    return produce


def _grid_input(seed: int, base: int, growth: int, extra: int):
    """One grid input: random tree `seed`, and the options that set sequence
    depth = tree depth + `extra` and 0-3 splits drawn by a rng seeded from
    the case."""
    tree = random_tree(seed, max_depth=3, max_points=8)
    depth = tree.depth + extra
    schedule = PaddingSchedule(base, growth)
    # a split at stage s is absorbed into stage s + 1, so s < depth
    stages = build_fraisse(tree, depth, schedule).sequence.seq.spaces[:depth]
    choices = [f"{s}:{p}" for s, space in enumerate(stages) for p in space.points]
    rng = random.Random(f"{seed}/{base}/{growth}/{extra}")
    splits = [a for spec in rng.sample(choices, rng.randint(0, 3)) for a in ("--split", spec)]
    options = ["--depth", str(depth), "--pad-base", str(base), "--pad-growth", str(growth)]
    return tree, options + splits


def _grid_case(command: str, seed: int, base: int, growth: int, extra: int):
    """One grid certificate, of `command` on `_grid_input`."""

    def produce(work: Path) -> Path:
        return _produce(work, command, *_grid_input(seed, base, growth, extra))

    return produce


def _extend_case(work: Path) -> Path:
    path = work / "swap.json"
    path.write_text(
        serial.dumps(
            {
                "ambient": serial.tree_to_json(binary_tree(3)),
                "src": ["000", "011"],
                "dst": ["111", "100"],
                "map": {"000": "111", "011": "100"},
            }
        )
    )
    cert = work / "cert.json"
    code, _ = _run(["extend", str(path), "--out", str(cert)])
    assert code == 0
    return cert


def _lift_case(work: Path) -> Path:
    tree = binary_tree(3)
    pres = presentation_from_subset(tree, ["000", "111"])
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "y1", "extra"))
    f = Surjection(y_space, x_space, {"y0": "x0", "y1": "x1", "extra": "x1"})
    g = {w: ("x0" if w.startswith("0") else "x1") for w in tree.points}
    b = {"000": "y0", "111": "y1"}
    cert = work / "cert.json"
    result = lift_through_generic(pres, f, b, g)
    cert.write_text(serial.dumps(lift_certificate_payload(pres, f, b, g, result)))
    return cert


def _sparse_subset(tree, rng: random.Random) -> list[str]:
    """A random nonempty proper part of the leaves under each
    next-to-last-level ball, or [] when each of those holds one leaf.

    Every ball then keeps a leaf outside the subset, which is what uniform
    nowhere density asks of a finite tree.
    """
    groups = [tree.parents[-1].fiber(ball) for ball in tree.levels[-2].points]
    subset = [x for leaves in groups for x in rng.sample(leaves, rng.randint(0, len(leaves) - 1))]
    if not subset:
        wide = [leaves for leaves in groups if len(leaves) > 1]
        subset = [rng.choice(wide[0])] if wide else []
    return subset


def _automorphism(tree, rng: random.Random) -> dict[str, str]:
    """A random automorphism of the tree, on its leaves: under each ball,
    children with isomorphic subtrees are permuted among themselves."""
    shape = {(tree.depth, p): "()" for p in tree.points}
    for level in range(tree.depth - 1, -1, -1):
        for ball in tree.levels[level].points:
            kids = sorted(shape[level + 1, c] for c in tree.children(level, ball))
            shape[level, ball] = "(" + "".join(kids) + ")"
    image = {ball: ball for ball in tree.levels[0].points}
    for level in range(tree.depth):
        below = {}
        for ball, target in image.items():
            spare: dict[str, list[str]] = {}
            for c in tree.children(level, target):
                spare.setdefault(shape[level + 1, c], []).append(c)
            for group in spare.values():
                rng.shuffle(group)
            for c in tree.children(level, ball):
                below[c] = spare[shape[level + 1, c]].pop()
        image = below
    return image


def _subset_seeds(count: int) -> list[int]:
    """The first `count` grid tree seeds whose trees hold a nonempty sparse subset."""
    seeds = []
    seed = 0
    while len(seeds) < count:
        tree = random_tree(seed, max_depth=3, max_points=8)
        if _sparse_subset(tree, random.Random(0)):
            seeds.append(seed)
        seed += 1
    return seeds


def _grid_tree_and_subset(seed: int, variant: int, kind: str):
    tree = random_tree(seed, max_depth=3, max_points=8)
    rng = random.Random(f"{kind}/{seed}/{variant}")
    return tree, _sparse_subset(tree, rng), rng


def _grid_extend_case(seed: int, variant: int):
    """`extend` on a random tree along a random automorphism of a sparse subset."""

    def produce(work: Path) -> Path:
        tree, subset, rng = _grid_tree_and_subset(seed, variant, "extend")
        image = _automorphism(tree, rng)
        path = work / "extend.json"
        path.write_text(
            serial.dumps(
                {
                    "ambient": serial.tree_to_json(tree),
                    "src": subset,
                    "dst": [image[x] for x in subset],
                    "map": {x: image[x] for x in subset},
                }
            )
        )
        cert = work / "cert.json"
        code, _ = _run(["extend", str(path), "--out", str(cert)])
        assert code == 0
        return cert

    return produce


def _grid_lift_case(seed: int, variant: int):
    """A subset lift on a random tree: g constant on the level-1 balls (on
    the root when level 1 is the leaves), and an f whose fibers are never
    larger than the image-free leaves of g's fibers."""

    def produce(work: Path) -> Path:
        tree, subset, rng = _grid_tree_and_subset(seed, variant, "lift")
        cut = min(1, tree.depth - 1)
        targets = [f"x{i}" for i in range(min(len(tree.levels[cut]), 3))]
        top = {ball: targets[i % len(targets)] for i, ball in enumerate(tree.levels[cut].points)}
        g = {w: top[tree.ancestor(tree.depth, w, cut)] for w in tree.points}
        free = {x: sum(g[w] == x for w in tree.points if w not in subset) for x in targets}
        f_map = {}
        for x in targets:
            for _ in range(rng.randint(1, min(free[x], 2))):
                f_map[f"y{len(f_map)}"] = x
        x_space = FiniteSpace("X", tuple(targets))
        f = Surjection(FiniteSpace("Y", tuple(f_map)), x_space, f_map)
        b = {x: rng.choice(f.fiber(g[x])) for x in subset}
        pres = presentation_from_subset(tree, subset)
        cert = work / "cert.json"
        result = lift_through_generic(pres, f, b, g)
        cert.write_text(serial.dumps(lift_certificate_payload(pres, f, b, g, result)))
        return cert

    return produce


CASES = {
    f"{command}-{tree}-d{depth}{'-split' if splits else ''}": _cli_case(command, tree, depth, splits)
    for command in ("embed", "retract")
    for tree in TREES
    for depth in (3, 4)
    for splits in ((), SPLITS)
}
CASES["extend-b3"] = _extend_case
CASES["lift-b3"] = _lift_case
GRID_CASES = {
    f"{command}-rt{seed}-b{base}g{growth}-d+{extra}": _grid_case(command, seed, base, growth, extra)
    for command in ("embed", "retract")
    for seed in range(8)
    for base, growth in ((2, 2), (3, 2), (2, 3), (3, 3))
    for extra in (0, 1)
}
for seed in _subset_seeds(8):
    for variant in range(2):
        GRID_CASES[f"extend-rt{seed}-v{variant}"] = _grid_extend_case(seed, variant)
        GRID_CASES[f"lift-rt{seed}-v{variant}"] = _grid_lift_case(seed, variant)
TABLES = ((GOLDEN, CASES), (GRID, GRID_CASES))


def record(name: str, work: Path) -> dict:
    """Produce one case's certificate in `work`, verify it, and summarise both."""
    cert = (CASES.get(name) or GRID_CASES[name])(work)
    integrity = json.loads(cert.read_text())["integrity"]
    code, lines = _run(["verify", str(cert)])
    assert code == 0, lines
    marked = [line.split(": ", 1)[0] for line in lines if line.startswith(("PASS", "SKIP", "FAIL"))]
    return {"integrity": integrity, "verify": marked}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert record(name, tmp_path) == golden[name]


def test_golden_covers_exactly_the_grid():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_certificate_matches_golden(name, tmp_path):
    golden = json.loads(GRID.read_text())
    assert record(name, tmp_path) == golden[name]


def test_grid_golden_covers_exactly_the_grid():
    assert sorted(json.loads(GRID.read_text())) == sorted(GRID_CASES)


# --- every certificate a producer writes verifies, on inputs off the grid


@settings(max_examples=25, deadline=None)
@given(
    st.integers(8, 10_000),
    st.sampled_from(((2, 2), (3, 2), (2, 3))),
    st.integers(0, 1),
)
def test_produced_certificates_verify_with_only_pass_lines(seed, schedule, extra):
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("embed", "retract"):
            cert = _grid_case(command, seed, *schedule, extra)(Path(tmp))
            code, lines = _run(["verify", str(cert)])
            assert code == 0, lines
            assert lines[-1] == f"{cert}: ok"
            assert lines[:-1] and all(line.startswith("PASS ") for line in lines[:-1]), lines


# --- certificate bytes do not depend on the interpreter's hash seed


@pytest.mark.parametrize(
    "command, case",
    [("embed", (6, 3, 2, 1)), ("retract", (5, 2, 2, 0))],
    ids=["embed-rt6-b3g2-d+1", "retract-rt5-b2g2-d+0"],
)
def test_grid_certificates_do_not_depend_on_the_hash_seed(command, case, tmp_path):
    tree, options = _grid_input(*case)
    assert "--split" in options
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(serial.dumps(serial.tree_to_json(tree)))
    src = str(Path(ultrafraisse.__file__).resolve().parent.parent)
    written = []
    for hash_seed in ("1", "2"):
        cert = tmp_path / f"cert-{hash_seed}.json"
        done = subprocess.run(
            [sys.executable, "-m", "ultrafraisse.cli", command, str(tree_path), *options,
             "--out", str(cert)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        written.append(cert.read_bytes())
    assert written[0] == written[1]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, cases in TABLES:
        with tempfile.TemporaryDirectory() as tmp:
            table = {}
            for name in sorted(cases):
                work = Path(tmp) / name
                work.mkdir()
                table[name] = record(name, work)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{len(table)} certificates recorded in {path}", file=sys.stderr)
