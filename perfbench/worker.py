"""A command server: imports ultrafraisse once, then forks one child per command.

    PYTHONHASHSEED=3 python3 perfbench/worker.py

run.py starts several of these, each with its own string-hash seed, and
sends each job to one of them.  A CLI user's every run gets a fresh hash
seed, and the seed alone moves a job's time by up to about 15%, so a run
spread over a fixed set of seeds measures the program, not one hash layout.

Protocol, one JSON object per line: the worker first writes
{"import_s": ...} (or {"error": ...} and exits); then for each request
{"kind", "args", "trace", "remaining_s"} it writes {"elapsed_s", "rss_kb",
"report", "error"}, where `report` is what the command child sent back:
{"code", "output", "body_s"} plus "trace" when tracing.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import layers

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "ultrafraisse"


def load() -> SimpleNamespace:
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in ("cli", "generic", "serial", "spaces")})


def lift_command(prog, input_path: str, out_path: str) -> int:
    """Solve a lift problem through the library and write its certificate.

    The CLI has no `lift` command, so this mirrors what one would do:
    presentation_from_subset + lift_through_generic + lift_certificate_payload.
    """
    data = json.loads(Path(input_path).read_text())
    serial, spaces, generic = prog.serial, prog.spaces, prog.generic
    ambient = serial.tree_from_json(data["ambient"], name="lift input ambient")
    f = spaces.Surjection(
        spaces.FiniteSpace("Y", tuple(data["f_source"])),
        spaces.FiniteSpace("X", tuple(data["f_target"])),
        data["f"],
    )
    pres = generic.presentation_from_subset(ambient, data["subset"])
    result = generic.lift_through_generic(pres, f, data["b"], data["g"])
    payload = prog.cli.lift_certificate_payload(pres, f, data["b"], data["g"], result)
    Path(out_path).write_text(serial.dumps(payload))
    return 0


def _child(prog, request: dict, recorder, pipe_fd: int) -> None:
    """Body of a forked command process; never returns."""
    status = 1
    try:
        signal.alarm(max(1, int(request["remaining_s"])))
        out = io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if request["kind"] == "lift":
                    code = lift_command(prog, *request["args"])
                else:
                    code = prog.cli.main([request["kind"], *request["args"]])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            out.write(traceback.format_exc())
        body_s = time.perf_counter() - begin
        report = {"code": code, "output": out.getvalue(), "body_s": body_s}
        if recorder is not None:
            report["trace"] = recorder.snapshot()
        with os.fdopen(pipe_fd, "wb") as pipe:
            pipe.write(json.dumps(report).encode())
        status = 0
    finally:
        os._exit(status)


def run_command(prog, request: dict, recorder) -> dict:
    """Fork, run one command, reap it; time it from fork to reap."""
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(prog, request, recorder, write_fd)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0 or not data:
        return {"elapsed_s": elapsed, "rss_kb": usage.ru_maxrss, "report": None,
                "error": f"process ended with status {status}"}
    return {"elapsed_s": elapsed, "rss_kb": usage.ru_maxrss, "report": json.loads(data), "error": ""}


def main() -> int:
    start = time.perf_counter()
    try:
        prog = load()
    except ImportError as exc:
        print(json.dumps({"error": str(exc)}), flush=True)
        return 2
    print(json.dumps({"import_s": time.perf_counter() - start}), flush=True)

    recorder = layers.Recorder()
    for line in sys.stdin:
        request = json.loads(line)
        if request["trace"]:
            recorder.reset()
            restore = layers.install(recorder, PACKAGE)
            try:
                reply = run_command(prog, request, recorder)
            finally:
                restore()
        else:
            reply = run_command(prog, request, None)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
