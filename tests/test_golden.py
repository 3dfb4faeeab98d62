"""Golden certificate corpus: certificate bytes pinned across changes.

For every certificate kind over a small fixed grid, `golden/digests.json`
stores the certificate's `integrity` digest (the sha256 of all its other
content) and the `verify` lines with their PASS/SKIP marks, details cut.
`test_outputs_are_byte_identical` compares two runs of the same code; this
table compares the code with the code that recorded it.

Re-record only when a change is meant to alter certificate content or
verify output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ultrafraisse import serial
from ultrafraisse.cli import lift_certificate_payload, main
from ultrafraisse.fixtures import binary_tree, k4
from ultrafraisse.generic import lift_through_generic, presentation_from_subset
from ultrafraisse.spaces import FiniteSpace, Surjection

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
TREES = {"k4": k4, "b3": lambda: binary_tree(3)}
SPLITS = ("--split", "1:p0", "--split", "2:00")


def _run(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().splitlines()


def _cli_case(command: str, tree: str, depth: int, splits: tuple[str, ...]):
    def produce(work: Path) -> Path:
        tree_path = work / f"{tree}.json"
        tree_path.write_text(serial.dumps(serial.tree_to_json(TREES[tree]())))
        cert = work / "cert.json"
        code, _ = _run([command, str(tree_path), "--depth", str(depth), *splits, "--out", str(cert)])
        assert code == 0
        return cert

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


CASES = {
    f"{command}-{tree}-d{depth}{'-split' if splits else ''}": _cli_case(command, tree, depth, splits)
    for command in ("embed", "retract")
    for tree in TREES
    for depth in (3, 4)
    for splits in ((), SPLITS)
}
CASES["extend-b3"] = _extend_case
CASES["lift-b3"] = _lift_case


def record(name: str, work: Path) -> dict:
    """Produce one case's certificate in `work`, verify it, and summarise both."""
    cert = CASES[name](work)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name in sorted(CASES):
            work = Path(tmp) / name
            work.mkdir()
            table[name] = record(name, work)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} certificates recorded in {GOLDEN}", file=sys.stderr)
