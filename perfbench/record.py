"""Record the known answers the benchmark checks against.

    python3 perfbench/record.py

Runs the CLI of the current tree and writes ``known_answers.json``: the md5
of ``starhom suite --seed S --scale small`` stdout for every recorded seed,
and the md5 of the stdout of every cli-oneshot command with its exit code.
Two seeds are recorded at a time, one per core of a 2-core machine.
Record only at a commit whose answers are trusted; a later change that
alters a digest alters report bytes and fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from inputs import CLI_COMMANDS, KNOWN_ANSWERS, KNOWN_SEEDS, SEEDED_COMMANDS, ROOT, cli_argv, documents
from spawn import child_env


def _cli(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "starhom.cli", *args],
        env=child_env(), cwd=ROOT, capture_output=True, check=False,
    )
    return proc.returncode, hashlib.md5(proc.stdout).hexdigest()


def _suite_digest(seed: int) -> str:
    code, digest = _cli(["suite", "--seed", str(seed), "--scale", "small"])
    if code != 0:
        raise SystemExit(f"suite --seed {seed} exited {code}; refusing to record")
    return digest


def _cli_answers(seed: int, names, tmp: Path) -> dict:
    docs = documents(seed)
    out = {}
    for name, args, doc, want in CLI_COMMANDS:
        if name not in names:
            continue
        path = None
        if doc is not None:
            path = tmp / f"{seed}-{doc}.json"
            path.write_text(docs[doc], encoding="utf-8")
        code, digest = _cli(cli_argv(args, path))
        if code != want:
            raise SystemExit(f"{name} (seed {seed}) exited {code}, expected {want}")
        out[name] = digest
    return out


def main() -> int:
    seeds = range(KNOWN_SEEDS)
    fixed = [name for name, *_ in CLI_COMMANDS if name not in SEEDED_COMMANDS]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp, ThreadPoolExecutor(2) as pool:
        suite = list(pool.map(_suite_digest, seeds))
        seeded = list(pool.map(lambda s: _cli_answers(s, SEEDED_COMMANDS, Path(tmp)), seeds))
        fixed_answers = _cli_answers(0, fixed, Path(tmp))
    doc = {
        "seeds": KNOWN_SEEDS,
        "suite-small": {str(s): d for s, d in zip(seeds, suite)},
        "cli-seeded": {str(s): d for s, d in zip(seeds, seeded)},
        "cli-fixed": fixed_answers,
    }
    KNOWN_ANSWERS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {KNOWN_ANSWERS}: {KNOWN_SEEDS} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
