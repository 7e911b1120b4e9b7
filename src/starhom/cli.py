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

from . import charclass, serialize, suite
from .hochschild import diff_B, diff_b, phi_A, phi_E
from .hkr import hkr_map
from .series import SeriesError
from .serialize import DecodeError
from .suite import ERROR, VERIFIED, CheckResult, Report
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


def _write(text: str) -> None:
    """``text`` to stdout.  A reader that closed the pipe has stopped
    reading, which changes no verdict: stdout then points at os.devnull, as
    Python's ``signal`` docs advise, so the flush at exit does not raise."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc, summary: str) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(summary, file=sys.stderr)


def _report_exit(report: Report) -> int:
    _write(report.to_json_bytes().decode() + "\n")
    for c in sorted(report.checks, key=lambda c: c.id):
        print(f"{c.id} {c.name}: {c.status}", file=sys.stderr)
    print(f"overall: {report.status}", file=sys.stderr)
    if report.status == ERROR:
        return EXIT_INTERNAL
    return EXIT_OK if report.status == VERIFIED else EXIT_VIOLATED


def _single_check_report(args, check: CheckResult) -> int:
    return _report_exit(suite.report(args.seed, "small", [check]))


# -- subcommands -----------------------------------------------------------------


def cmd_star(args) -> int:
    doc = _read_json(args.json)
    if not isinstance(doc, dict) or "f" not in doc or "g" not in doc:
        raise DecodeError("expected fields 'f' and 'g'")
    f = serialize.weyl_from_json(doc["f"], dim=args.dim, trunc=args.trunc_t)
    g = serialize.weyl_from_json(doc["g"], dim=args.dim, trunc=args.trunc_t)
    product = moyal_star(f, g)
    _emit(serialize.weyl_to_json(product), f"star product computed (trunc {product.trunc})")
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
    if args.chain is not None:
        chain = phi_E(args.dim) if args.chain == "phi_E" else phi_A(args.dim)
        label = f"{args.chain}({args.dim})"
    else:
        chain = _load_chain(args)
        label = "input chain"
    failures = suite.cycle_failures(chain)
    check = suite.result("CYCLE", f"b({label}) = 0", failures, {"degree": chain.degree})
    return _single_check_report(args, check)


def cmd_hkr(args) -> int:
    chain = _load_chain(args)
    doc = serialize.dform_to_json(hkr_map(chain))
    _emit(doc, f"form with {len(doc['terms'])} term(s)")
    return EXIT_OK


def cmd_charclass(args) -> int:
    d, deg = args.dim, args.max_deg
    if args.klass == "rr-check":
        rep = charclass.rr_identity_check(d, deg)
        check = suite.result(
            "RR",
            "a-hat * exp(c1/2) = todd",
            rep.mismatches,
            {"dim": d, "max_cohomological_degree": 2 * deg},
        )
        return _single_check_report(args, check)
    if args.klass == "a-hat":
        series = charclass.a_hat(d, deg)
    elif args.klass == "todd":
        series = charclass.todd(d, deg)
    elif args.json is None:
        series = charclass.exp_class(charclass.half_c1(d, deg), deg)
    else:
        poly = serialize.poly_from_json(_read_json(args.json), charclass.chern_names(d))
        series = charclass.exp_class(charclass.ChernClassExpr(d, deg, poly), deg)
    if args.basis == "chern":
        series = charclass.to_chern_basis(series)
    doc = serialize.class_series_to_json(series, args.basis)
    _emit(doc, f"{args.klass}(dim {d}) to cohomological degree {2 * deg}")
    return EXIT_OK


def cmd_fedosov(args) -> int:
    d, k = args.dim, args.fiber_trunc
    base = tuple(f"z{i}" for i in range(1, d + 1))
    a0 = None if args.json is None else serialize.chart_from_json(_read_json(args.json), base)
    if a0 is not None:
        chart = (base, a0)
    elif args.check == "psi" and d > 1:
        # the invariance is exact when the curvature is exactly central,
        # so the default data is exactly flat: any connection on a
        # one-dimensional chart, the zero connection above that
        chart = (base, {})
    else:
        chart = suite.default_chart(d)
    identity, name = {
        "flat": (suite.kazhdan_flatness, f"kazhdan flatness to fiber degree {k}"),
        "lift-curvature": (suite.lift_curvature, "lifted curvature equals half-trace curvature"),
        "psi": (suite.psi_invariance, "psi conjugation preserves central curvature"),
    }[args.check]
    failures = identity(suite.ChartConnection(chart, k, args.trunc_t))
    precision = {"fiber_trunc": k, "trunc_t": args.trunc_t, "dim": d}
    return _single_check_report(args, suite.result("FEDOSOV", name, failures, precision))


# the rows of suite.REES_IDENTITIES that each ``rees --check`` mode runs
REES_ROWS = {
    "sigma": ("sigma multiplicative",),
    "iota": ("order bound",),
    "to-weyl": ("to-weyl",),
}


def cmd_rees(args) -> int:
    if args.check == "phi-compat":
        return _single_check_report(args, suite.check_chain_map_compatibility(args.seed, "small"))
    failures = suite.rees_failures(args.seed, "cli-rees", 50, REES_ROWS[args.check])
    check = suite.result("REES", f"rees-{args.check}", failures, {"pairs": 50})
    return _single_check_report(args, check)


def cmd_suite(args) -> int:
    if args.mutate_moyal_sign:
        checks = suite.mutated_controls(args.seed, args.scale)
        return _report_exit(suite.report(args.seed, args.scale, checks))
    return _report_exit(suite.run_suite(seed=args.seed, scale=args.scale))


# -- parser ------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer that is at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starhom",
        description="Exact star products, Hochschild/cyclic checks, trace cycles, "
        "connection curvature, and characteristic-class identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly the options its handler reads
    options = {
        "--seed": dict(type=int, default=0, help="corpus seed (u64)"),
        "--dim": dict(type=_int_at_least(1), default=1, help="dimension d (>= 1)"),
        "--trunc-t": dict(type=_int_at_least(1), default=8, help="t-order window (>= 1)"),
        "--max-deg": dict(type=_int_at_least(0), default=4, help="max algebraic degree (>= 0)"),
        "--fiber-trunc": dict(type=_int_at_least(0), default=4, help="fiber degree (>= 0)"),
        "--json": dict(default=None, help="input document path, or '-' for stdin"),
    }

    def command(name, fn, text, *flags):
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
        return p

    element = ("--json", "--dim", "--trunc-t")
    command("star", cmd_star, "star product of two values", *element)
    command("hb", cmd_hb, "Hochschild boundary of a chain", *element)
    command("hB", cmd_hB, "cyclic differential of a chain", *element)

    p = command("verify-cycle", cmd_verify_cycle, "check that b(chain) = 0", *element, "--seed")
    p.add_argument("--chain", default=None, choices=("phi_E", "phi_A"),
                   help="built-in cycle, used instead of --json")

    command("hkr", cmd_hkr, "chains-to-forms map over polynomials", *element)

    p = command("charclass", cmd_charclass, "characteristic-class series",
                "--dim", "--max-deg", "--json", "--seed")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("a-hat", "todd", "exp", "rr-check"))
    p.add_argument("--basis", default="roots", choices=("roots", "chern"))

    p = command("fedosov", cmd_fedosov, "connection and curvature checks",
                "--dim", "--fiber-trunc", "--trunc-t", "--json", "--seed")
    p.add_argument("--check", required=True,
                   choices=("flat", "lift-curvature", "psi"))

    p = command("rees", cmd_rees, "filtration structure checks", "--seed")
    p.add_argument("--check", required=True,
                   choices=("sigma", "iota", "to-weyl", "phi-compat"))

    p = command("suite", cmd_suite, "run the full verification suite", "--seed")
    p.add_argument("--scale", default="small", choices=("small", "full"))
    p.add_argument("--mutate-moyal-sign", action="store_true",
                   help="corrupt the product kernel to prove the checks can fail")

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
