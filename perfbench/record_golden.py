"""Record golden.json: the sha256 of every certificate of the default seed.

    python3 perfbench/record_golden.py

Runs each job of every workload's pool once and stores the digests that
run.py later requires for `--seed 0`.  Re-record only when a change is meant
to alter certificate bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    digests = {}
    deadline = time.monotonic() + 3600
    for workload in sorted(workloads.POOL):
        work = run.ROOT / ".bench_work" / f"golden-{workload}-{os.getpid()}"
        workers = run.Workers()
        try:
            jobs, _ = run.setup(workload, run.DEFAULT_SEED, work, workers)
            recorded: dict[int, dict[str, str]] = {}
            for i, job in enumerate(jobs):
                result = run.run_job(workers, i, job, recorded, False, deadline)
                if result.failures:
                    print("\n".join(result.failures), file=sys.stderr)
                    return 1
        finally:
            workers.close()
            shutil.rmtree(work, ignore_errors=True)
        digests[workload] = {str(i): recorded[i] for i in sorted(recorded)}
        print(f"{workload}: {len(jobs)} jobs recorded")
    text = json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True)
    (run.HERE / "golden.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
