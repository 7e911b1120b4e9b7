"""Child processes of the benchmark: spawn, time, reap with their rusage.

``os.posix_spawn`` plus ``os.wait4`` give the exit code, the peak RSS and
the moment the child's first line of output arrived, without a thread or
a shell.  Every child is waited for before ``run_child`` returns.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import ROOT, SRC

WORK = ROOT / ".perfbench"
# The bytecode cache lives here, not in src/*/__pycache__: each run compiles
# the checkout's sources into it before timing, so both sides of a
# comparison start from a fresh, valid cache whatever src/ held before.
PYCACHE = WORK / "pycache"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    seconds: float  # spawn until exit
    first_line_s: float | None  # spawn until the first line of stdout
    peak_rss_mb: float


def run_child(argv: list[str], env: dict) -> Child:
    """Run ``argv`` to completion; stderr goes to a file under WORK."""
    WORK.mkdir(exist_ok=True)
    err_path = WORK / "stderr.txt"
    r, w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    os.close(w)
    first_line_s = None
    try:
        with os.fdopen(r, "rb") as pipe:
            first = pipe.readline()
            if first:
                first_line_s = time.perf_counter() - t0
            out = first + pipe.read()
    except BaseException:
        # interrupted (the run's deadline alarm, or ^C): end the child first
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    return Child(
        code=os.waitstatus_to_exitcode(status),
        out=out,
        err=Path(err_path).read_bytes(),
        seconds=seconds,
        first_line_s=first_line_s,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )
