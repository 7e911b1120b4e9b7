"""Batch command-line front end with JSON input and output.

Exit codes: 0 when every requested check verified (or a value command
succeeded), 1 when some exact identity was violated, 2 on malformed input,
3 when the program itself failed (an internal error, reported on one line
of stderr, or a suite criterion that raised and so has status "error").
The machine-readable document goes to stdout; a short human summary goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import charclass, fedosov, serialize, suite
from .hochschild import diff_B, diff_b, phi_A, phi_E
from .hkr import hkr_map
from .rees import rees_from_localized, rees_iota, rees_sigma
from .series import Poly, SeriesError
from .serialize import DecodeError
from .suite import ERROR, VERIFIED, VIOLATED, CheckResult, Report
from .weyl import moyal_star

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3


def _read_json(path: str | None):
    if path is None:
        raise DecodeError("this command needs an input document (--json PATH or '-')")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DecodeError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _emit(doc, summary: str) -> None:
    json.dump(doc, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _report_exit(report: Report) -> int:
    sys.stdout.write(report.to_json_bytes().decode())
    sys.stdout.write("\n")
    for c in sorted(report.checks, key=lambda c: c.id):
        print(f"{c.id} {c.name}: {c.status}", file=sys.stderr)
    print(f"overall: {report.status}", file=sys.stderr)
    if any(c.status == ERROR for c in report.checks):
        return EXIT_INTERNAL
    return EXIT_OK if report.status == VERIFIED else EXIT_VIOLATED


def _single_check_report(args, check: CheckResult) -> int:
    status = VERIFIED if check.status == VERIFIED else check.status
    report = Report(status=status, seed=args.seed, scale="small", checks=[check])
    return _report_exit(report)


# -- subcommands -----------------------------------------------------------------


def cmd_star(args) -> int:
    doc = _read_json(args.json)
    if not isinstance(doc, dict) or "f" not in doc or "g" not in doc:
        raise DecodeError("expected fields 'f' and 'g'")
    f = serialize.weyl_from_json(doc["f"], dim=args.dim, trunc=args.trunc_t)
    g = serialize.weyl_from_json(doc["g"], dim=args.dim, trunc=args.trunc_t)
    product = moyal_star(f, g)
    _emit(serialize.weyl_to_json(product), f"star product computed (trunc {product.value.trunc})")
    return EXIT_OK


def _load_chain(args):
    doc = _read_json(args.json)
    return serialize.chain_from_json(doc, dim=args.dim, trunc=args.trunc_t)


def cmd_hb(args) -> int:
    chain = _load_chain(args)
    out = diff_b(chain)
    _emit(serialize.chain_to_json(out), f"b image has {out.term_count()} word(s)")
    return EXIT_OK


def cmd_hB(args) -> int:
    chain = _load_chain(args)
    out = diff_B(chain)
    _emit(serialize.chain_to_json(out), f"B image has {out.term_count()} word(s)")
    return EXIT_OK


def cmd_verify_cycle(args) -> int:
    if args.chain in ("phi_E", "phi_A"):
        chain = phi_E(args.dim) if args.chain == "phi_E" else phi_A(args.dim)
        label = f"{args.chain}({args.dim})"
    else:
        chain = _load_chain(args)
        label = "input chain"
    image = diff_b(chain)
    ok = image.is_zero()
    check = CheckResult(
        id="CYCLE",
        name=f"b({label}) = 0",
        status=VERIFIED if ok else VIOLATED,
        details=[] if ok else [{"b_image_words": image.term_count()}],
        precision={"degree": chain.degree},
    )
    return _single_check_report(args, check)


def cmd_hkr(args) -> int:
    chain = _load_chain(args)
    form = hkr_map(chain)
    _emit(serialize.dform_to_json(form), f"form with {len(form.terms)} term(s)")
    return EXIT_OK


def cmd_charclass(args) -> int:
    d, deg = args.dim, args.max_deg
    if args.klass == "rr-check":
        rep = charclass.rr_identity_check(d, deg)
        check = CheckResult(
            id="RR",
            name="a-hat * exp(c1/2) = todd",
            status=VERIFIED if rep.equal else VIOLATED,
            details=rep.to_json_dict()["mismatches"],
            precision={"dim": d, "max_cohomological_degree": 2 * deg},
        )
        return _single_check_report(args, check)
    if args.klass == "a-hat":
        series = charclass.a_hat(d, deg)
    elif args.klass == "todd":
        series = charclass.todd(d, deg)
    else:
        doc = _read_json(args.json) if args.json else None
        if doc is None:
            theta = charclass.ChernClassExpr.half_c1(d, deg)
        else:
            poly = serialize.poly_from_json(doc, charclass.chern_names(d))
            theta = charclass.ChernClassExpr(d, deg, poly)
        series = charclass.exp_class(theta, deg)
    if args.basis == "chern":
        out = serialize.chern_expr_to_json(charclass.to_chern_basis(series))
    else:
        out = serialize.root_series_to_json(series)
    _emit(out, f"{args.klass}(dim {d}) to cohomological degree {2 * deg}")
    return EXIT_OK


def _default_a0_matrix(base, d: int):
    zero = Poly.zero(base)
    mat = [[zero for _ in range(d)] for _ in range(d)]
    coord = Poly.gen(base, base[min(1, d - 1)])
    mat[0][0] = coord
    return {(0,): mat}


def cmd_fedosov(args) -> int:
    d = args.dim
    base = tuple(f"z{i}" for i in range(1, d + 1))
    a0, frame = serialize.chart_from_json(_read_json(args.json), base) if args.json else (None, None)
    mform = _default_a0_matrix(base, d) if a0 is None else a0
    k = args.fiber_trunc
    failures = []
    if args.check == "flat":
        assembled = fedosov.kazhdan_assemble(
            fedosov.matrix_form_to_vf(mform, base, d, k + 4), k
        )
        residue = fedosov.curvature(assembled.total()).fiber_truncate(k)
        if not residue.is_zero():
            failures.append({"residue": repr(residue)})
        name = f"kazhdan flatness to fiber degree {k}"
    elif args.check == "lift-curvature":
        assembled = fedosov.kazhdan_assemble(
            fedosov.matrix_form_to_vf(mform, base, d, k + 4), k
        )
        lifted = fedosov.lift_connection(
            assembled.total(),
            fedosov.half_trace_form(mform, base, d, t_trunc=args.trunc_t),
            t_trunc=args.trunc_t,
        )
        got = fedosov.curvature(lifted).fiber_truncate(k)
        half_tr_sq = _half_trace_curvature(mform, base, d, args.trunc_t)
        if got != half_tr_sq:
            failures.append({"got": repr(got), "want": repr(half_tr_sq)})
        name = "lifted curvature equals half-trace curvature"
    elif args.check == "transition":
        g, g_inv = _default_transition(base, d) if frame is None else frame
        datum = fedosov.TransitionDatum(base, g, g_inv)
        rep = fedosov.transition_check(datum, mform, t_trunc=args.trunc_t)
        if not rep.ok:
            failures.append({"lift_identity": rep.lift_identity, "trace_identity": rep.trace_identity})
        name = "overlap gauge identity for lifted forms"
    elif args.check == "psi":
        # the invariance is exact when the curvature is exactly central,
        # so the default data is exactly flat: any connection on a
        # one-dimensional chart, the zero connection above that
        if a0 is None and d > 1:
            mform = {}
        cotangent = base + tuple(f"xi{i}" for i in range(1, d + 1))
        assembled = fedosov.kazhdan_assemble(
            fedosov.matrix_form_to_vf(mform, base, d, k + 4), k
        )
        lifted = fedosov.lift_connection(
            assembled.total(),
            fedosov.half_trace_form(mform, base, d, t_trunc=args.trunc_t),
            t_trunc=args.trunc_t,
        )
        extended = fedosov.extend_base(lifted, cotangent)
        before = fedosov.curvature(extended)
        after = fedosov.curvature(
            fedosov.psi_conjugate(extended, k, d, t_trunc=args.trunc_t)
        )
        if before != after:
            failures.append({"before": repr(before), "after": repr(after)})
        name = "psi conjugation preserves central curvature"
    else:
        raise DecodeError(f"unknown fedosov check {args.check!r}")
    check = CheckResult(
        id="FEDOSOV",
        name=name,
        status=VERIFIED if not failures else VIOLATED,
        details=failures,
        precision={"fiber_trunc": k, "trunc_t": args.trunc_t, "dim": d},
    )
    return _single_check_report(args, check)


def _half_trace_curvature(mform, base, d, t_trunc):
    ht = fedosov.half_trace_form(mform, base, d, t_trunc=t_trunc)
    return ht.exterior_d()


def _default_transition(base, d):
    one = Poly.const(base, 1)
    zero = Poly.zero(base)
    coord = Poly.gen(base, base[0])
    g = [[one if i == j else zero for j in range(d)] for i in range(d)]
    g_inv = [[one if i == j else zero for j in range(d)] for i in range(d)]
    if d >= 2:
        g[0][1] = coord
        g_inv[0][1] = -coord
    return g, g_inv


def cmd_rees(args) -> int:
    from .corpus import random_rees
    import random as _random

    rng = _random.Random(f"{args.seed}:cli-rees")
    failures = []
    if args.check == "phi-compat":
        image = suite.check_chain_map_compatibility(args.seed, "small")
        return _single_check_report(args, image)
    for n in range(50):
        d = rng.choice((1, 2))
        a, b = random_rees(rng, d), random_rees(rng, d)
        if args.check == "sigma":
            if rees_sigma(a * b) != rees_sigma(a) * rees_sigma(b):
                failures.append({"case": n})
        elif args.check == "iota":
            if rees_iota(a * b) != rees_iota(a) * rees_iota(b):
                failures.append({"case": n, "identity": "multiplicative"})
            if rees_from_localized(rees_iota(a)) != a:
                failures.append({"case": n, "identity": "round trip"})
        elif args.check == "to-weyl":
            from .rees import rees_to_weyl
            from .weyl import moyal_star as _star

            lhs = rees_to_weyl(a * b, trunc=10)
            rhs = _star(rees_to_weyl(a, trunc=10), rees_to_weyl(b, trunc=10))
            if not (lhs - rhs).is_zero():
                failures.append({"case": n})
        else:
            raise DecodeError(f"unknown rees check {args.check!r}")
    check = CheckResult(
        id="REES",
        name=f"rees-{args.check}",
        status=VERIFIED if not failures else VIOLATED,
        details=failures,
        precision={"pairs": 50},
    )
    return _single_check_report(args, check)


def cmd_suite(args) -> int:
    if args.mutate_moyal_sign:
        checks = [
            suite.check_moyal_associativity(args.seed, args.scale, mutate=True),
            suite.check_bracket_normalization(args.seed, args.scale, mutate=True),
        ]
        status = VERIFIED if all(c.status == VERIFIED for c in checks) else VIOLATED
        report = Report(status=status, seed=args.seed, scale=args.scale, checks=checks)
        return _report_exit(report)
    return _report_exit(suite.run_suite(seed=args.seed, scale=args.scale))


# -- parser ------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starhom",
        description="Exact star products, Hochschild/cyclic checks, trace cycles, "
        "connection curvature, and characteristic-class identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="corpus seed (u64)")
        p.add_argument("--dim", type=_positive_int, default=1, help="dimension d (>= 1)")
        p.add_argument("--trunc-t", dest="trunc_t", type=int, default=8, help="t-order window")
        p.add_argument("--max-deg", dest="max_deg", type=int, default=4, help="max algebraic degree")
        p.add_argument("--fiber-trunc", dest="fiber_trunc", type=int, default=4, help="fiber degree")
        p.add_argument("--json", default=None, help="input document path, or '-' for stdin")

    p = sub.add_parser("star", help="star product of two values")
    common(p)
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("hb", help="Hochschild boundary of a chain")
    common(p)
    p.set_defaults(fn=cmd_hb)

    p = sub.add_parser("hB", help="cyclic differential of a chain")
    common(p)
    p.set_defaults(fn=cmd_hB)

    p = sub.add_parser("verify-cycle", help="check that b(chain) = 0")
    common(p)
    p.add_argument("--chain", default=None, help="built-in cycle: phi_E or phi_A")
    p.set_defaults(fn=cmd_verify_cycle)

    p = sub.add_parser("hkr", help="chains-to-forms map over polynomials")
    common(p)
    p.set_defaults(fn=cmd_hkr)

    p = sub.add_parser("charclass", help="characteristic-class series")
    common(p)
    p.add_argument("--class", dest="klass", required=True,
                   choices=("a-hat", "todd", "exp", "rr-check"))
    p.add_argument("--basis", default="roots", choices=("roots", "chern"))
    p.set_defaults(fn=cmd_charclass)

    p = sub.add_parser("fedosov", help="connection and curvature checks")
    common(p)
    p.add_argument("--check", required=True,
                   choices=("flat", "lift-curvature", "transition", "psi"))
    p.set_defaults(fn=cmd_fedosov)

    p = sub.add_parser("rees", help="filtration structure checks")
    common(p)
    p.add_argument("--check", required=True,
                   choices=("sigma", "iota", "to-weyl", "phi-compat"))
    p.set_defaults(fn=cmd_rees)

    p = sub.add_parser("suite", help="run the full verification suite")
    common(p)
    p.add_argument("--scale", default="small", choices=("small", "full"))
    p.add_argument("--mutate-moyal-sign", action="store_true",
                   help="corrupt the product kernel to prove the checks can fail")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DecodeError, SeriesError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:
        # a crash must not read as "identity violated" (1) or "malformed" (2);
        # traceback is imported here because only this path needs it
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"(at {os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
