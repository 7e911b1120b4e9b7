"""The starhom benchmark: time-to-verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is suite-small, cycles-d3, geometry or cli-oneshot (see README.md in
this directory).  Every iteration runs in a fresh single-threaded
interpreter spawned from this process, one child at a time, and every
verdict is compared with a known answer.  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs one untraced and one traced iteration and reports the per-layer
metrics.  The last line of stdout is the result as one JSON object.  A
copy of the result, with the Python version, the CPU count and the commit,
goes to ``.perfbench/results/``.

This process never imports starhom.  Exit code 2 means the checkout cannot
be benchmarked (no ``src/starhom``, a missing known-answer file, a child
that cannot import the package); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from inputs import (
    CLI_COMMANDS,
    HERE,
    ROOT,
    SEEDED_COMMANDS,
    SRC,
    cli_argv,
    documents,
    KNOWN_ANSWERS,
    known_seed,
)
from spawn import PYCACHE, WORK, child_env, run_child
from tracer import merge

WORKLOADS = ("suite-small", "cycles-d3", "geometry", "cli-oneshot")
SETUP_PROBES = 15
# a run must end within 180 s; past this the current child is killed
DEADLINE_S = 170
PROBE = "import starhom; print(starhom.__file__, flush=True)"


class Unusable(Exception):
    """The checkout cannot be benchmarked; no result may be printed."""


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


@dataclass
class Iteration:
    wall_s: float
    peak_rss_mb: float
    observed: dict
    trace: dict | None = None
    errors: list = field(default_factory=list)


# -- known answers --------------------------------------------------------------


def expected_answers(workload: str, seed: int, known: dict) -> dict:
    if workload == "suite-small":
        out = {f"C{i:02d}": "verified" for i in range(1, 13)}
        out["digest"] = known["suite-small"][str(seed)]
        return out
    if workload == "cycles-d3":
        names = ("b_phi_E_is_zero", "B_phi_E_is_zero", "b_phi_A_is_zero", "B_phi_A_is_zero",
                 "chain_map_phi_E_to_phi_A")
        return dict.fromkeys(names, True)
    if workload == "geometry":
        out = dict.fromkeys(
            ("flat_d2_k12", "flat_d3_k8", "lift_curvature_d2_k8", "lift_curvature_d3_k6",
             "rr_d4_deg10", "rr_d3_deg12", "to_chern_basis_round_trip"),
            True,
        )
        out["psi_invariance"] = "verified"
        return out
    out = {}
    for name, _, _, exit_code in CLI_COMMANDS:
        digests = known["cli-seeded"][str(seed)] if name in SEEDED_COMMANDS else known["cli-fixed"]
        out[name] = {"exit": exit_code, "digest": digests[name]}
    return out


def count_failed(expected: dict, observed: dict) -> int:
    return sum(1 for name, want in expected.items() if observed.get(name) != want)


# -- iterations -----------------------------------------------------------------


def _check_import(child) -> None:
    if child.code != 0 or not child.out.strip():
        raise Unusable(f"python cannot import starhom here:\n{child.err.decode(errors='replace')}")
    where = os.path.dirname(os.path.dirname(child.out.decode().strip()))
    if os.path.realpath(where) != os.path.realpath(SRC):
        raise Unusable(f"starhom is imported from {where}, not from {SRC}")


def warm_bytecode_cache(env: dict) -> None:
    """Compile src/ into the benchmark's own cache, untimed, so set-up is
    always measured against a fresh, valid cache on both commits."""
    child = run_child(python("-m", "compileall", "-q", str(SRC)), env)
    if child.code != 0:
        raise Unusable(f"compileall failed:\n{child.err.decode(errors='replace')}")
    _check_import(run_child(python("-c", PROBE), env))


def setup_sample(env: dict) -> float:
    """Spawn until ``import starhom`` has finished, as the parent sees it."""
    child = run_child(python("-c", PROBE), env)
    _check_import(child)
    return child.first_line_s


def _trace_path(n: int):
    return WORK / f"trace-{n}.json"


def _read_trace(path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
    finally:
        if os.path.exists(path):
            os.remove(path)


def inprocess_iteration(workload: str, seed: int, env: dict, traced: bool) -> Iteration:
    argv = python(str(HERE / "child.py"), workload, "--seed", str(seed))
    if traced:
        argv += ["--trace", str(_trace_path(0))]
    child = run_child(argv, env)
    trace = _read_trace(_trace_path(0)) if traced else None
    lines = child.out.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1]) if child.code == 0 and lines else None
    except ValueError:
        result = None
    if result is None:
        err = child.err.decode(errors="replace").strip()
        return Iteration(child.seconds, child.peak_rss_mb, {}, trace,
                         [f"{workload} child exited {child.code}: {err[-2000:]}"])
    return Iteration(result["wall_s"], child.peak_rss_mb, result["observed"], trace)


def write_documents(seed: int) -> dict:
    docs_dir = WORK / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in documents(seed).items():
        paths[name] = docs_dir / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def cli_iteration(doc_paths: dict, env: dict, traced: bool) -> Iteration:
    """The CLI commands one after another, each its own process.  wall_s is
    the sum of spawn-to-exit times: a one-shot user pays import too."""
    wall = 0.0
    peak = 0.0
    observed = {}
    traces = []
    errors = []
    for n, (name, args, doc, _) in enumerate(CLI_COMMANDS):
        cli_args = cli_argv(args, doc_paths.get(doc))
        if traced:
            argv = python(str(HERE / "child.py"), "cli", "--trace", str(_trace_path(n)),
                               "--", *cli_args)
        else:
            argv = python("-m", "starhom.cli", *cli_args)
        child = run_child(argv, env)
        wall += child.seconds
        peak = max(peak, child.peak_rss_mb)
        observed[name] = {"exit": child.code, "digest": hashlib.md5(child.out).hexdigest()}
        if b"Traceback" in child.err:
            errors.append(f"{name}: {child.err.decode(errors='replace')[-2000:]}")
        if traced:
            traces.append(_read_trace(_trace_path(n)) or {})
    return Iteration(wall, peak, observed, merge(traces) if traced else None, errors)


def make_iteration(workload: str, seed: int, env: dict, doc_paths: dict, traced: bool):
    if workload == "cli-oneshot":
        return cli_iteration(doc_paths, env, traced)
    return inprocess_iteration(workload, seed, env, traced)


# -- metrics --------------------------------------------------------------------


def layer_value(name: str, raw: dict, overhead_ratio: float) -> float:
    if name == "trace.overhead_ratio":
        return overhead_ratio
    layer, _, kind = name.rpartition(".")
    calls = raw["calls"].get(layer, 0)
    if kind == "calls":
        return calls
    if kind in ("self_s", "wall_s"):
        return raw["self_s"].get(layer, 0.0)
    if kind in ("words_in", "words_out"):
        return raw["counts"].get(name, 0)
    if kind == "distinct_ratio":
        return raw["distinct"].get(layer, 0) / calls if calls else 0.0
    raise Unusable(f"BENCHMARK.json names a per-layer metric this benchmark cannot measure: {name}")


def timed_run(workload, seed, seconds, env, doc_paths, spec):
    setups = [setup_sample(env) for _ in range(SETUP_PROBES)]
    iterations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iterations.append(make_iteration(workload, seed, env, doc_paths, traced=False))
        took = time.perf_counter() - t0
        # stop before an iteration that would overrun the measuring time
        if time.perf_counter() - start + took > seconds:
            break
    values = {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    samples = {
        "setup_s": setups,
        "wall_s": [it.wall_s for it in iterations],
        "peak_rss_mb": [it.peak_rss_mb for it in iterations],
    }
    return iterations, metrics, samples


def traced_run(workload, seed, env, doc_paths, spec):
    plain = make_iteration(workload, seed, env, doc_paths, traced=False)
    traced = make_iteration(workload, seed, env, doc_paths, traced=True)
    if traced.trace is None:
        traced.errors.append("the traced child wrote no trace")
        traced.trace = merge([])
    if traced.observed != plain.observed:
        traced.errors.append("traced verdicts differ from untraced ones")
        traced.observed = {"traced-differs": True}
    overhead = traced.wall_s / plain.wall_s
    metrics = {
        m["name"]: {"value": layer_value(m["name"], traced.trace, overhead), "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    samples = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s, "raw": traced.trace}
    return [plain, traced], metrics, samples


# -- provenance -----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "bytecode_cache": str(PYCACHE.relative_to(ROOT)) + " (compiled before timing)",
    }


# -- entry point -----------------------------------------------------------------


def _on_alarm(signum, frame):
    raise Unusable(f"no result within {DEADLINE_S} s")


def run_workload(workload: str, args, spec: dict, known: dict) -> dict:
    seed = known_seed(args.seed)
    env = child_env()
    signal.alarm(DEADLINE_S)
    try:
        warm_bytecode_cache(env)
        doc_paths = write_documents(seed) if workload == "cli-oneshot" else {}
        if args.trace:
            iterations, metrics, samples = traced_run(workload, seed, env, doc_paths, spec)
        else:
            iterations, metrics, samples = timed_run(workload, seed, args.seconds, env, doc_paths, spec)
    finally:
        signal.alarm(0)
    expected = expected_answers(workload, seed, known)
    attempted = len(expected) * len(iterations)
    failed = sum(count_failed(expected, it.observed) for it in iterations)
    errors = [e for it in iterations for e in it.errors]
    for error in errors:
        print(error, file=sys.stderr)
    record = {
        "workload": workload,
        "seed": args.seed,
        "suite_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "samples": samples,
        "observed": [it.observed for it in iterations],
        "expected": expected,
        "errors": errors,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    return result


def summary(workload: str, result: dict) -> str:
    parts = [
        f"{name} {m['value'] if isinstance(m['value'], int) else format(m['value'], '.6g')} {m['unit']}"
        for name, m in result["metrics"].items()
    ]
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac {frac:.6g} ({result['failed']}/{result['attempted']})")
    return f"{workload}: " + ", ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if not (SRC / "starhom" / "__init__.py").is_file():
            raise Unusable(f"no package at {SRC / 'starhom'}; run from a starhom checkout")
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            known = json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise Unusable(f"cannot read the benchmark's definition: {exc}") from None
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result = run_workload(workload, args, spec, known)
            print(summary(workload, result), flush=True)
            print(json.dumps(result, sort_keys=True), flush=True)
    except Unusable as exc:
        print(f"benchmark not run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
