"""Memory and work gates that are deterministic, so they can run where wall time is too noisy.

Each measurement runs in its own interpreter with a fixed hash seed, so the
`tracemalloc` peak or the count of `sys.settrace` events depends on the
code alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import ultrafraisse

SRC = str(Path(ultrafraisse.__file__).resolve().parent.parent)

PATH_TREE_PEAK = """\
import sys, tracemalloc
from ultrafraisse import serial
n = int(sys.argv[1])
data = {"depth": n, "levels": [[f"b{a}"] for a in range(n + 1)], "parents": [[0]] * n}
tracemalloc.start()
serial.tree_from_json(data)
print(tracemalloc.get_traced_memory()[1])
"""


def measure(script: str, size: int) -> int:
    """The number a script prints for one size, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", script, str(size)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def path_tree_peak(levels: int) -> int:
    """The traced peak, in bytes, of reading a path tree (one ball per level)."""
    return measure(PATH_TREE_PEAK, levels)


def test_path_tree_memory_is_linear_in_depth():
    small, large = path_tree_peak(1000), path_tree_peak(2000)
    assert large <= 2.5 * small, (small, large)
    assert path_tree_peak(4000) < 5 * 2**20


REJECTED_HOMEO_EVENTS = """\
import sys
from ultrafraisse.errors import InputError
from ultrafraisse.fixtures import binary_tree
from ultrafraisse.generic import PartialHomeo, presentation_from_subset
tree = binary_tree(int(sys.argv[1]))
points = [p for p in tree.points if p.endswith("0")]
image = list(points)
image[-1], image[-4] = image[-4], image[-1]
pres = presentation_from_subset(tree, points)
mapping = dict(zip(points, image))
events = 0
def count(frame, event, arg):
    global events
    events += 1
    return count
sys.settrace(count)
try:
    PartialHomeo(pres, pres, mapping)
except InputError:
    sys.settrace(None)
    print(events)
"""


def test_rejected_partial_homeo_work_is_linear_in_points_times_depth():
    """A mapping that breaks the ball structure only near its last points
    (the identity on the leaves ending in 0, with two of them in different
    level-(depth - 2) balls swapped) is named in O(points x depth), not by
    comparing every pair of points."""
    small, large = measure(REJECTED_HOMEO_EVENTS, 7), measure(REJECTED_HOMEO_EVENTS, 9)
    growth = (256 * 9) / (64 * 7)  # points x depth of the two subsets
    assert large <= 1.3 * growth * small, (small, large)


CERTIFICATE_PEAKS = """\
import os, sys, tracemalloc
from ultrafraisse import cli, serial
from ultrafraisse.fixtures import binary_tree
work = sys.argv[2]
tree = os.path.join(work, "tree.json")
with open(tree, "w") as handle:
    handle.write(serial.dumps(serial.tree_to_json(binary_tree(3))))
config = cli.RunConfig(command="embed", inputs=(tree,), depth=int(sys.argv[1]),
                       splits=("1:p0", "2:00"), out=os.path.join(work, "cert.json"))
payload = cli.cmd_embed(config)
peaks = []
for step in (lambda: serial.content_digest(payload), lambda: cli._emit(config, payload, "certificate")):
    tracemalloc.start()
    step()
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(os.path.getsize(config.out), *peaks)
"""


def test_digest_and_writer_hold_no_copy_of_the_certificate(tmp_path):
    """The digest and the writer stream a certificate: on the depth-12
    `binary_tree(3)` embedding (about 2.7 MiB), each peaks, traced, below
    half the file's size.  Holding its text once would take the whole size."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", CERTIFICATE_PEAKS, "12", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    size, digest_peak, write_peak = map(int, done.stdout.splitlines()[-1].split())
    assert size > 2 * 2**20
    assert digest_peak < size / 2 and write_peak < size / 2, (size, digest_peak, write_peak)
