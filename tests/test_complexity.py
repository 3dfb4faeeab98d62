"""Memory gates that are deterministic, so they can run where wall time is too noisy.

Each measurement runs in its own interpreter with a fixed hash seed, so the
`tracemalloc` peak depends on the code alone.
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


def path_tree_peak(levels: int) -> int:
    """The traced peak, in bytes, of reading a path tree (one ball per level)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", PATH_TREE_PEAK, str(levels)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_path_tree_memory_is_linear_in_depth():
    small, large = path_tree_peak(1000), path_tree_peak(2000)
    assert large <= 2.5 * small, (small, large)
    assert path_tree_peak(4000) < 5 * 2**20
