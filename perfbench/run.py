"""Closed-loop benchmark of ultrafraisse certificate production and verification.

    python3 perfbench/run.py --workload deep-embed --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, nothing is installed.  Set-up writes the seeded inputs (see
workloads.py) under `.bench_work/` and starts one worker.py per string-hash
seed, each importing the package once; `setup_s` is the median of the
per-worker generation-plus-import times.  The measured loop has one client:
each job's commands run one after another, each in a child the worker forks
after import, so no in-memory state carries from one command to the next
and import is paid once, in set-up.

Every command is checked: it fails when it raises, exits nonzero, when a
verify prints a FAIL line, or when a certificate's sha256 differs from the
one recorded in golden.json (default seed) or from an earlier run of the
same job in this process.

With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` every job runs twice, untraced and then with every layer
wrapped (layers.py), and the last line holds per-job means of the per-layer
counts and self times, the tracing overhead and the share of job time the
top-level spans cover.

Timings are process-local (perf_counter in the workers, rusage of each
child); nothing traces the whole machine or controls its caches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
HASH_SEEDS = tuple(range(1, 9))  # one worker each; also the number of set-ups
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
HARD_LIMIT_S = 170  # no command may run past this many seconds after start


@dataclass
class JobResult:
    wall_s: float = 0.0
    produce_s: float = 0.0
    verify_s: float = 0.0
    verified_bytes: int = 0
    rss_kb: int = 0
    commands: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed command
    checks_run: int = 0
    checks_skipped: int = 0
    body_s: float = 0.0  # time the child processes spent running the commands
    top_level_s: float = 0.0
    trace: list[dict] = field(default_factory=list)


class Workers:
    """One worker.py process per string-hash seed in HASH_SEEDS.

    Job i runs on worker i mod len(HASH_SEEDS), so every run spreads its
    jobs over the same set of hash layouts.
    """

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.import_s: list[float] = []

    def start_one(self, hash_seed: int) -> None:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.procs.append(proc)
        hello = json.loads(proc.stdout.readline() or '{"error": "worker exited at start"}')
        if "error" in hello:
            raise ImportError(hello["error"])
        self.import_s.append(hello["import_s"])

    def run(self, slot: int, command, trace: bool, deadline: float) -> dict:
        proc = self.procs[slot % len(self.procs)]
        request = {"kind": command.kind, "args": list(command.args), "trace": trace,
                   "remaining_s": deadline - time.monotonic()}
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {slot % len(self.procs)} exited")
        return json.loads(line)

    def close(self) -> None:
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)  # an idle worker exits at once on EOF
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def setup(workload: str, seed: int, work: Path, workers: Workers) -> tuple[list, list[float]]:
    """Write the inputs and start one worker per hash seed.

    Each of the len(HASH_SEEDS) set-ups is one input generation plus one
    worker's import of the package in a fresh interpreter.
    """
    times = []
    for hash_seed in HASH_SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        jobs = workloads.generate(workload, seed, work)
        generate_s = time.perf_counter() - start
        workers.start_one(hash_seed)
        times.append(generate_s + workers.import_s[-1])
    return jobs, times


def run_job(workers: Workers, slot: int, job, expected: dict, trace: bool, deadline: float) -> JobResult:
    """Run one job's commands in order on one worker and check every output."""
    res = JobResult()
    for command in job.commands:
        error = _run_checked(workers, slot, command, job.index, res, expected, trace, deadline)
        if error:
            res.failures.append(f"job {job.index} {command.kind}: {error}")
    return res


def _run_checked(workers, slot, command, index, res, expected, trace, deadline) -> str:
    """Run one command, add its costs to `res`; returns why it failed, or ''."""
    cert = Path(command.cert)
    if command.produces:
        cert.unlink(missing_ok=True)
    size = cert.stat().st_size if not command.produces and cert.exists() else 0
    reply = workers.run(slot, command, trace, deadline)
    elapsed, rss, report = reply["elapsed_s"], reply["rss_kb"], reply["report"]
    res.commands += 1
    res.wall_s += elapsed
    res.rss_kb = max(res.rss_kb, rss)
    if command.produces:
        res.produce_s += elapsed
    else:
        res.verify_s += elapsed
        res.verified_bytes += size
    if report is None:
        return reply["error"]
    res.body_s += report["body_s"]
    if trace:
        res.trace.append(report["trace"])
        res.top_level_s += report["trace"]["top_level_s"]
    lines = report["output"].splitlines()
    if report["code"] != 0:
        return f"exit {report['code']}: {lines[-1] if lines else ''}"
    if not command.produces:
        res.checks_run += sum(1 for ln in lines if ln.startswith(("PASS", "FAIL")))
        res.checks_skipped += sum(1 for ln in lines if ln.startswith("SKIP"))
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        return failed[0] if failed else ""
    if not cert.exists():
        return "no certificate written"
    digest = hashlib.sha256(cert.read_bytes()).hexdigest()
    want = expected.setdefault(index, {}).setdefault(cert.stem, digest)
    if digest != want:
        return f"{cert.stem} sha256 {digest[:12]} differs from the recorded {want[:12]}"
    return ""


def closed_loop(step, seconds: float) -> tuple[list, float]:
    """Call step(0), step(1), ... back to back until `seconds` have passed."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return results, elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results: list[JobResult], elapsed: float, setup_s: float) -> tuple[dict, list[str]]:
    walls = [r.wall_s for r in results]
    tail_s, pct = tail(walls)
    attempted = sum(r.commands for r in results)
    failed = sum(len(r.failures) for r in results)
    ok_jobs = sum(1 for r in results if not r.failures)
    verify_s = sum(r.verify_s for r in results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (ok_jobs / elapsed, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "produce_p50_s": (statistics.median(r.produce_s for r in results), "s"),
        "verify_p50_s": (statistics.median(r.verify_s for r in results), "s"),
        "verify_kib_per_s": (sum(r.verified_bytes for r in results) / 1024 / verify_s, "KiB/s"),
        "peak_rss_mib": (statistics.median(r.rss_kb for r in results) / 1024, "MiB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    notes = [
        f"job_tail_s is p{pct:.1f} of {len(results)} jobs "
        f"({TAIL_BEYOND if len(results) > TAIL_BEYOND else 0} beyond it)",
        f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} commands)",
        "peak_rss_mib is the median over jobs of the largest child RSS in the job",
    ]
    return metrics, notes


def per_layer(traced: list[JobResult], untraced: list[JobResult]) -> tuple[dict, list[str], list[str]]:
    """Per-job means of the traced runs, plus notes and coverage problems."""
    n = len(traced)
    calls, self_s, counts = Counter(), Counter(), Counter()
    for snap in (snap for res in traced for snap in res.trace):
        calls.update(snap["calls"])
        self_s.update(snap["self_s"])
        counts.update(snap["counts"])
    metrics = {}
    for layer in layers.SPAN_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    for layer in layers.CHECK_LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    for key, unit in layers.COUNTERS.items():
        metrics[key] = (counts[key] / n, unit)
    metrics["cli.checks.run"] = (sum(r.checks_run for r in traced) / n, "count")
    metrics["cli.checks.skipped"] = (sum(r.checks_skipped for r in traced) / n, "count")
    ratios = [t.wall_s / u.wall_s for t, u in zip(traced, untraced)]
    overhead = statistics.median(ratios)
    quartiles = statistics.quantiles(ratios, n=4) if n > 1 else [overhead] * 3
    noise = quartiles[2] - quartiles[0]
    wall = sum(r.wall_s for r in traced)
    covered = sum(r.top_level_s for r in traced) / wall
    unspanned = sum(r.body_s - r.top_level_s for r in traced) / wall
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.top_level_share"] = (covered, "ratio")
    metrics["trace.unspanned_share"] = (unspanned, "ratio")
    unknown = sorted(set(self_s) - set(layers.SPAN_LAYERS) - set(layers.CHECK_LAYERS))
    notes = [
        f"traced {n} jobs; per-layer values are means per job",
        f"tracing overhead: median over {n} jobs of traced / untraced job time = {overhead:.3f} "
        f"(quartiles {quartiles[0]:.3f}..{quartiles[2]:.3f})",
        f"top-level spans cover {covered:.3f} of traced job wall time; {unspanned:.3f} is in the "
        f"command processes outside any span, {1 - covered - unspanned:.3f} is fork, pipe and reap",
        "no wait metrics: the program is single-threaded and waits on no queue or lock",
    ]
    if unknown:
        notes.append(f"unlisted layers seen: {unknown}")
    # Spans must account for the job up to what tracing itself adds; when
    # that is below the pair-to-pair noise, the noise is the allowance.
    allowance = max(overhead - 1, noise)
    problems = []
    if unspanned > allowance:
        problems.append(
            f"coverage: {unspanned:.3f} of job time runs outside every span, more than the "
            f"tracing overhead allowance {allowance:.3f}; some layer is unmeasured"
        )
    return metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOL))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + HARD_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workers = Workers()
    try:
        try:
            jobs, setup_times = setup(args.workload, args.seed, work, workers)
        except ImportError as exc:
            print(f"cannot start the workers: {exc}", file=sys.stderr)
            return 2
        expected: dict[int, dict[str, str]] = {}
        if args.seed == DEFAULT_SEED:
            golden = json.loads((HERE / "golden.json").read_text())
            expected = {int(k): dict(v) for k, v in golden["digests"][args.workload].items()}

        header = [
            f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
            f"host: nproc={os.cpu_count()} python={platform.python_version()}; "
            "scope: process-local timings and child rusage, no system-wide tracing or cache control",
            f"closed loop, 1 client; job i runs on worker i mod {len(HASH_SEEDS)} "
            f"(PYTHONHASHSEED {HASH_SEEDS[0]}..{HASH_SEEDS[-1]}), every command in a child forked after import",
        ]

        def job(i):
            return jobs[i % len(jobs)]

        if args.trace == 0:
            results, elapsed = closed_loop(
                lambda i: run_job(workers, i, job(i), expected, False, deadline), args.seconds)
            metrics, notes = end_to_end(results, elapsed, statistics.median(setup_times))
            all_results, problems = results, []
        else:
            def pair(i):
                # Untraced then traced, back to back on one worker, so a drift
                # in machine speed reaches both halves of the ratio alike.
                return (run_job(workers, i, job(i), expected, False, deadline),
                        run_job(workers, i, job(i), expected, True, deadline))

            pairs, _ = closed_loop(pair, args.seconds)
            untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            metrics, notes, problems = per_layer(traced, untraced)
            all_results = untraced + traced
        failures = [msg for r in all_results for msg in r.failures]
        attempted = sum(r.commands for r in all_results)

        for line in header + notes + problems + failures[:20]:
            print(line)
        width = max(len(k) for k in metrics)
        for key, (value, unit) in metrics.items():
            print(f"{key:<{width}}  {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failures and not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        workers.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
