"""One iteration of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --seed N [--trace PATH]
    python3 perfbench/child.py cli [--trace PATH] -- CLI-ARGUMENTS...

The first form runs an in-process workload and prints, as its last line,
``{"wall_s": ..., "observed": {...}}``: the time from ``import starhom``
having finished to the last verdict, and every verdict by name.  The
second form is ``python -m starhom.cli`` with the tracer installed, for
the traced run of cli-oneshot.  With ``--trace`` the per-layer sums go to
PATH as JSON.  The benchmark's parent process compares the verdicts with
the known answers; nothing here decides pass or fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from inputs import SRC


# -- workloads ------------------------------------------------------------------
# Each returns (verdicts, post).  post() runs after the clock stops and adds
# the benchmark's own known-answer checks, which are not part of the program.
# An exception ends the child; the parent then counts every verdict of the
# iteration as failed.


def suite_small(seed: int):
    from starhom.suite import run_suite

    report = run_suite(seed, "small")
    observed = {check.id: check.status for check in report.checks}
    observed["digest"] = hashlib.md5(report.to_json_bytes() + b"\n").hexdigest()
    return observed, None


def cycles_d3(seed: int):
    # the trace cycles at d = 3 are fixed objects: the seed is unused
    from starhom.hochschild import diff_B, diff_b, induced_chain_map, phi_A, phi_E
    from starhom.suite import localization_morphism

    pe, pa = phi_E(3), phi_A(3)
    observed = {
        "b_phi_E_is_zero": diff_b(pe).is_zero(),
        "B_phi_E_is_zero": diff_B(pe).is_zero(),
        "b_phi_A_is_zero": diff_b(pa).is_zero(),
        "B_phi_A_is_zero": diff_B(pa).is_zero(),
        "chain_map_phi_E_to_phi_A": induced_chain_map(localization_morphism(3), pe) == pa,
    }
    return observed, None


def _chart(d: int):
    """The CLI's default chart data: a0 = z_min(2,d) E_11 on z1..zd."""
    from starhom.series import Poly

    base = tuple(f"z{i}" for i in range(1, d + 1))
    mat = [[Poly.zero(base) for _ in range(d)] for _ in range(d)]
    mat[0][0] = Poly.gen(base, base[min(1, d - 1)])
    return base, {(0,): mat}


def _flat(d: int, k: int) -> bool:
    from starhom import fedosov

    base, mform = _chart(d)
    assembled = fedosov.kazhdan_assemble(fedosov.matrix_form_to_vf(mform, base, d, k + 4), k)
    return fedosov.curvature(assembled.total()).fiber_truncate(k).is_zero()


def _lift_curvature(d: int, k: int, t_trunc: int = 8) -> bool:
    from starhom import fedosov

    base, mform = _chart(d)
    assembled = fedosov.kazhdan_assemble(fedosov.matrix_form_to_vf(mform, base, d, k + 4), k)
    half_trace = fedosov.half_trace_form(mform, base, d, t_trunc=t_trunc)
    lifted = fedosov.lift_connection(assembled.total(), half_trace, t_trunc=t_trunc)
    return fedosov.curvature(lifted).fiber_truncate(k) == half_trace.exterior_d()


def geometry(seed: int):
    from starhom import charclass, suite

    observed = {
        "flat_d2_k12": _flat(2, 12),
        "flat_d3_k8": _flat(3, 8),
        "lift_curvature_d2_k8": _lift_curvature(2, 8),
        "lift_curvature_d3_k6": _lift_curvature(3, 6),
        "psi_invariance": suite.check_psi_invariance(seed, "small").status,
        "rr_d4_deg10": charclass.rr_identity_check(4, 10).equal,
        "rr_d3_deg12": charclass.rr_identity_check(3, 12).equal,
    }
    converted = charclass.to_chern_basis(charclass.todd(5, 8))

    def post():
        # substitute c_i = e_i(roots) back and compare with todd in the roots
        images = {f"c{i}": charclass.elementary_symmetric(5, i) for i in range(1, 6)}
        back = converted.poly.substitute(images).truncate_degree(8)
        observed["to_chern_basis_round_trip"] = back == charclass.todd(5, 8).poly

    return observed, post


WORKLOADS = {"suite-small": suite_small, "cycles-d3": cycles_d3, "geometry": geometry}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=[*WORKLOADS, "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", default=None, help="write per-layer sums here")
    split = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    import starhom

    if Path(starhom.__file__).resolve().parent.parent != SRC:
        print(f"starhom imported from {starhom.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        holders = tracer.unwrapped_holders()
        if holders:
            print("untraced aliases remain: " + "; ".join(holders), file=sys.stderr)
            return 3

    if args.workload == "cli":
        from starhom import cli

        code = cli.main(cli_args)
        sys.stdout.flush()
    else:
        t0 = time.perf_counter()
        observed, post = WORKLOADS[args.workload](args.seed)
        wall_s = time.perf_counter() - t0
        if post is not None:
            post()
        print(json.dumps({"wall_s": wall_s, "observed": observed}, sort_keys=True))
        code = 0
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.raw(), sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
