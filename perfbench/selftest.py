"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all four) it makes the traced run twice, under
PYTHONHASHSEED 0 and 1, and checks that

* every verdict equals its known answer; run.py already counts a traced
  verdict that differs from the untraced one as failed;
* each layer listed for the workload in LAYERS records nonzero calls;
* every deterministic count (calls, words in and out, distinct keys) is the
  same in both runs; a count that differs is printed as a finding;
* the tracing overhead is reported.

Then it checks that the benchmark refuses, with a nonzero exit and no
result, a directory holding only BENCHMARK.json and perfbench/.  It takes
about five minutes; exit code 0 means every check held.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from inputs import HERE, ROOT
from spawn import WORK

# the layers each workload exercises; README.md maps them to end-to-end metrics
LAYERS = {
    "suite-small": [
        "series.Poly.init", "series.Poly.mul", "series.Poly.add", "weyl.moyal_star",
        "hochschild.diff_b", "hochschild.diff_B", "hochschild.is_zero",
        "hochschild.induced_chain_map", "rees.localized_to_weyl", "rees.diffop_mul",
        "hkr.hkr_map", "hkr.de_rham", "fedosov.kazhdan_assemble", "fedosov.lift_connection",
        "fedosov.curvature", "fedosov.psi_conjugate", "charclass.rr_identity_check",
        "charclass.to_chern_basis", *(f"suite.C{i:02d}" for i in range(1, 13)),
    ],
    "cycles-d3": [
        "series.Poly.init", "series.Poly.mul", "series.Poly.add", "weyl.moyal_star",
        "hochschild.diff_b", "hochschild.diff_B", "hochschild.is_zero",
        "hochschild.induced_chain_map", "rees.localized_to_weyl", "rees.diffop_mul",
    ],
    "geometry": [
        "series.Poly.init", "series.Poly.mul", "series.Poly.add", "weyl.moyal_star",
        "fedosov.kazhdan_assemble", "fedosov.lift_connection", "fedosov.curvature",
        "fedosov.psi_conjugate", "charclass.rr_identity_check", "charclass.to_chern_basis",
        "suite.C10",
    ],
    "cli-oneshot": [
        "cli.main", "serialize.from_json", "serialize.to_json", "weyl.moyal_star",
        "hochschild.diff_b", "hochschild.diff_B", "hkr.hkr_map", "charclass.to_chern_basis",
        "fedosov.kazhdan_assemble", "fedosov.curvature", "rees.localized_to_weyl",
        "suite.C01", "suite.C02",
    ],
}

# layers a workload must never enter; the prediction there is no change
BYPASSED = {"geometry": ["hochschild.diff_b", "hochschild.induced_chain_map", "rees.localized_to_weyl"]}


def traced(workload: str, hash_seed: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((WORK / "results" / f"{workload}-seed0-trace1.json").read_text())
    return result, record["samples"]["raw"]


def deterministic(raw: dict) -> dict:
    return {part: raw[part] for part in ("calls", "counts", "distinct")}


def check_workload(workload: str) -> list[str]:
    problems = []
    (result0, raw0), (result1, raw1) = traced(workload, "0"), traced(workload, "1")
    for label, result in (("PYTHONHASHSEED=0", result0), ("PYTHONHASHSEED=1", result1)):
        if not result["correct"]:
            problems.append(f"{workload} {label}: {result['failed']} of {result['attempted']} failed")
    for layer in LAYERS[workload]:
        if raw0["calls"].get(layer, 0) == 0:
            problems.append(f"{workload}: layer {layer} recorded no calls")
    for layer in BYPASSED.get(workload, []):
        if raw0["calls"].get(layer, 0):
            problems.append(f"{workload}: layer {layer} was expected to be bypassed")
    a, b = deterministic(raw0), deterministic(raw1)
    for part in a:
        for name in sorted(set(a[part]) | set(b[part])):
            if a[part].get(name) != b[part].get(name):
                problems.append(
                    f"finding: {workload} {part} {name} differs across hash seeds: "
                    f"{a[part].get(name)} vs {b[part].get(name)}"
                )
    overhead = result0["metrics"].get("trace.overhead_ratio", {}).get("value", 0)
    if not overhead > 0:
        problems.append(f"{workload}: tracing overhead not reported")
    print(f"{workload}: traced/untraced wall {overhead:.3f}, "
          f"{sum(raw0['calls'].values())} traced calls", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    """Without src/ the benchmark must fail without printing a result."""
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "suite-small", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode}: {proc.stderr.strip()}", flush=True)
    return []


def main(argv: list[str]) -> int:
    workloads = argv or list(LAYERS)
    problems = []
    for workload in workloads:
        problems += check_workload(workload)
    problems += check_bare_directory()
    for problem in problems:
        print(problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
