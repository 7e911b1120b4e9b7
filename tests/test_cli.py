"""Exit codes, JSON output, and determinism of the command-line front end."""

import contextlib
import copy
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starhom
from starhom import cli, fedosov, suite
from starhom.cli import EXIT_INTERNAL, EXIT_MALFORMED, EXIT_OK, EXIT_VIOLATED, main
from starhom.weyl import moyal_star, star_commutator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STAR_DOC = json.dumps(
    {
        "f": {"gens": ["x1", "xi1"], "terms": [{"exp": [1, 0], "coef": "1/1"}]},
        "g": {"gens": ["x1", "xi1"], "terms": [{"exp": [0, 1], "coef": "1/1"}]},
    }
)


class TestStar:
    def test_product(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(STAR_DOC)
        code, out, err = run_cli(
            capsys, "star", "--dim", "1", "--trunc-t", "6", "--json", str(path)
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["trunc"] == 6
        assert doc["value"]["coeffs"]["1"]["terms"][0]["coef"] == "-1/2"

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "star")
        assert code == EXIT_MALFORMED
        assert "input" in err


class TestVerifyCycle:
    @pytest.mark.parametrize("chain,dim", [("phi_E", 1), ("phi_E", 2), ("phi_A", 2)])
    def test_builtin_cycles_verify(self, capsys, chain, dim):
        code, out, _ = run_cli(
            capsys, "verify-cycle", "--chain", chain, "--dim", str(dim)
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "verified"

    def test_non_cycle_violates(self, capsys, tmp_path):
        doc = {
            "algebra": "poly",
            "degree": 1,
            "terms": [
                {
                    "coef": "1/1",
                    "word": [
                        {"gens": ["x", "y"], "terms": [{"exp": [1, 0], "coef": "1/1"}]},
                        {"gens": ["x", "y"], "terms": [{"exp": [0, 2], "coef": "1/1"}]},
                    ],
                }
            ],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify-cycle", "--json", str(path))
        # b of a 1-chain over a commutative ring is zero: this one verifies
        assert code == EXIT_OK

    def test_hb_endpoint(self, capsys, tmp_path):
        doc = {
            "algebra": "weyl",
            "degree": 1,
            "dim": 1,
            "terms": [
                {
                    "coef": "1/1",
                    "word": [
                        {"gens": ["x1", "xi1"], "terms": [{"exp": [1, 0], "coef": "1/1"}]},
                        {"gens": ["x1", "xi1"], "terms": [{"exp": [0, 1], "coef": "1/1"}]},
                    ],
                }
            ],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "hb", "--dim", "1", "--trunc-t", "6", "--json", str(path))
        assert code == EXIT_OK
        parsed = json.loads(out)
        assert parsed["algebra"] == "weyl" and parsed["degree"] == 0


class TestMalformedInput:
    def test_bad_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "star", "--json", str(path))
        assert code == EXIT_MALFORMED
        assert "line 1" in err and "column" in err

    def test_bad_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "f": {"gens": ["x1", "xi1"], "terms": [{"exp": [1, 0], "coef": "x"}]},
                    "g": {"gens": ["x1", "xi1"], "terms": []},
                }
            )
        )
        code, _, _ = run_cli(capsys, "star", "--json", str(path))
        assert code == EXIT_MALFORMED


class TestChecks:
    def test_charclass_rr(self, capsys):
        code, out, _ = run_cli(
            capsys, "charclass", "--class", "rr-check", "--dim", "2", "--max-deg", "6"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "verified"

    def test_charclass_value_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "charclass", "--class", "todd", "--dim", "1", "--max-deg", "2",
            "--basis", "chern",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["components"]["2"]["terms"][0]["coef"] == "1/2"

    def test_fedosov_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "fedosov", "--check", "flat", "--dim", "2", "--fiber-trunc", "3"
        )
        assert code == EXIT_OK

    def test_rees_sigma(self, capsys):
        code, out, _ = run_cli(capsys, "rees", "--check", "sigma", "--seed", "7")
        assert code == EXIT_OK


class TestSuiteCommand:
    def test_mutation_makes_checks_fail(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--mutate-moyal-sign")
        assert code == EXIT_VIOLATED
        doc = json.loads(out)
        statuses = {c["id"]: c["status"] for c in doc["checks"]}
        assert statuses["C02"] == "violated"

    def test_repeat_runs_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify-cycle", "--chain", "phi_A", "--dim", "2")
        _, out2, _ = run_cli(capsys, "verify-cycle", "--chain", "phi_A", "--dim", "2")
        assert out1 == out2


class TestFedosovPsi:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_psi_check_exact_at_flat_data(self, capsys, dim):
        code, out, _ = run_cli(
            capsys, "fedosov", "--check", "psi", "--dim", str(dim), "--fiber-trunc", "3"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "verified"

    @pytest.mark.parametrize("dim,k", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_fiber_degree_below_two_is_malformed(self, capsys, dim, k):
        # the cut at fiber degree k < 2 would drop the quadratic gl(d) part
        # of every lift, and with it the identity being checked
        code, out, err = run_cli(
            capsys, "fedosov", "--check", "psi", "--dim", str(dim), "--fiber-trunc", str(k)
        )
        assert code == EXIT_MALFORMED
        assert out == "" and "fiber degree >= 2" in err

    def test_fiber_degree_two_runs(self, capsys):
        code, out, _ = run_cli(capsys, "fedosov", "--check", "psi", "--dim", "1", "--fiber-trunc", "2")
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "verified"


class TestDimension:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-cycle", "--chain", "phi_E", "--dim", "0"),
            ("verify-cycle", "--chain", "phi_A", "--dim", "0"),
            ("fedosov", "--check", "flat", "--dim", "0"),
        ],
    )
    def test_dim_below_one_is_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "--dim" in err and "Traceback" not in err


def _bare_chain(*exps):
    """A weyl chain of one word whose slots are bare polynomials in x1, xi1."""
    word = [{"gens": ["x1", "xi1"], "terms": [{"exp": e, "coef": "1/1"}]} for e in exps]
    return {"algebra": "weyl", "degree": len(exps) - 1, "terms": [{"coef": "1/1", "word": word}]}


class TestStatedDimension:
    """A document's own "dim" belongs to its value, as a windowed value's own
    "trunc" does: ``--dim`` fills in only where a document states none."""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("star", {side: {"dim": 1, **op} for side, op in json.loads(STAR_DOC).items()}),
            ("hb", {"dim": 1, **_bare_chain([1, 0], [0, 1])}),
            # x1 (x) x1 is a cycle
            ("verify-cycle", {"dim": 1, **_bare_chain([1, 0], [1, 0])}),
        ],
        ids=["star", "hb", "verify-cycle"],
    )
    def test_stated_dim_is_read_over_the_option(self, capsys, tmp_path, command, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        outs = []
        for dim in ("1", "3"):
            code, out, _ = run_cli(capsys, command, "--dim", dim, "--json", str(path))
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "command,doc",
        [("star", json.loads(STAR_DOC)), ("hb", _bare_chain([1, 0], [0, 1]))],
        ids=["star", "hb"],
    )
    def test_bare_gens_under_another_dim_exit_2(self, capsys, tmp_path, command, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, command, "--dim", "1", "--json", str(path))[0] == EXIT_OK
        code, _, err = run_cli(capsys, command, "--dim", "2", "--json", str(path))
        assert code == EXIT_MALFORMED
        assert "generator mismatch" in err


class TestOptionRanges:
    @pytest.mark.parametrize(
        "argv,option",
        [
            (("star", "--dim", "1", "--trunc-t", "0"), "--trunc-t"),
            (("star", "--dim", "1", "--trunc-t", "-3"), "--trunc-t"),
            (("fedosov", "--check", "flat", "--dim", "2", "--fiber-trunc", "-2"), "--fiber-trunc"),
            (("charclass", "--class", "todd", "--max-deg", "-1"), "--max-deg"),
            (("charclass", "--class", "todd", "--max-deg", "two"), "--max-deg"),
            (("fedosov", "--check", "transition", "--dim", "2"), "--check"),
        ],
    )
    def test_out_of_range_option_is_rejected_by_the_parser(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("charclass", "--class", "todd", "--dim", "2", "--max-deg", "0"),
            ("charclass", "--class", "rr-check", "--dim", "2", "--max-deg", "0"),
            ("fedosov", "--check", "flat", "--dim", "2", "--fiber-trunc", "0"),
            ("fedosov", "--check", "lift-curvature", "--dim", "2", "--fiber-trunc", "0"),
        ],
    )
    def test_lowest_allowed_value_runs(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err


# the required part of each subcommand's command line
COMMAND_ARGV = {
    "star": ("star",),
    "hb": ("hb",),
    "hB": ("hB",),
    "hkr": ("hkr",),
    "verify-cycle": ("verify-cycle", "--chain", "phi_E"),
    "charclass": ("charclass", "--class", "todd"),
    "fedosov": ("fedosov", "--check", "flat"),
    "rees": ("rees", "--check", "sigma"),
    "suite": ("suite",),
}

# (subcommand, option): options that the subcommand's handler never read
UNREAD_OPTIONS = [
    *((command, option) for command in ("star", "hb", "hB", "hkr")
      for option in ("--seed", "--max-deg", "--fiber-trunc")),
    ("verify-cycle", "--max-deg"),
    ("verify-cycle", "--fiber-trunc"),
    ("charclass", "--trunc-t"),
    ("charclass", "--fiber-trunc"),
    ("fedosov", "--max-deg"),
    # no corpus is drawn, and polynomial chains carry no window
    ("verify-cycle", "--seed"),
    ("charclass", "--seed"),
    ("fedosov", "--seed"),
    ("hkr", "--trunc-t"),
    *(("rees", option) for option in ("--dim", "--trunc-t", "--max-deg", "--fiber-trunc", "--json")),
    *(("suite", option) for option in ("--dim", "--trunc-t", "--max-deg", "--fiber-trunc", "--json")),
]


class TestOptionsPerCommand:
    """Each subcommand takes only the options its handler reads; any other
    option is a usage error (exit 2) rather than silently ignored."""

    @pytest.mark.parametrize(
        "command,option", UNREAD_OPTIONS, ids=[" ".join(pair) for pair in UNREAD_OPTIONS]
    )
    def test_option_the_handler_does_not_read_exits_2(self, capsys, command, option):
        value = "d.json" if option == "--json" else "2"
        with pytest.raises(SystemExit) as exc:
            main([*COMMAND_ARGV[command], option, value])
        assert exc.value.code == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option}" in err and "Traceback" not in err

    def test_unknown_builtin_cycle_exits_2(self, capsys, tmp_path):
        # the document is a cycle, so the command must not fall back to it
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_chain("weyl", WEYL_SLOT)))
        assert run_cli(capsys, "verify-cycle", "--json", str(path))[0] == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["verify-cycle", "--chain", "phi_X", "--json", str(path)])
        assert exc.value.code == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "--chain" in err and "Traceback" not in err


class TestRefusedCombinations:
    """An option that a mode would not read is refused (exit 2), not
    ignored: ``verify-cycle`` takes one of ``--json`` and ``--chain``,
    ``charclass`` reads ``--json`` for ``exp`` only, and ``rr-check``
    compares the two sides in the root basis."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("charclass", "--class", "todd", "--dim", "1", "--json", "X"),
            ("charclass", "--class", "rr-check", "--dim", "1", "--json", "X"),
            ("verify-cycle", "--chain", "phi_E", "--dim", "1", "--json", "X"),
            ("charclass", "--class", "rr-check", "--dim", "1", "--basis", "chern"),
            ("verify-cycle", "--dim", "1"),
        ],
        ids=["todd-json", "rr-check-json", "chain-and-json", "rr-check-chern", "no-chain"],
    )
    def test_exits_2(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == EXIT_MALFORMED, captured.err
        assert captured.out == "" and "Traceback" not in captured.err


def _violated(*_):
    return [{"case": "patched"}]


class TestOneDefinitionPerCheck:
    """Each CLI check calls the suite's definition of its identity, so a
    fault there shows in the CLI verdict and in the battery criterion."""

    @pytest.mark.parametrize(
        "check,identity,criterion",
        [
            ("flat", "kazhdan_flatness", suite.check_fedosov_curvature),
            ("lift-curvature", "lift_curvature", suite.check_fedosov_curvature),
            ("psi", "psi_invariance", suite.check_psi_invariance),
        ],
    )
    def test_fedosov_identity(self, capsys, monkeypatch, check, identity, criterion):
        monkeypatch.setattr(suite, identity, _violated)
        code, out, _ = run_cli(capsys, "fedosov", "--check", check, "--dim", "2")
        assert code == EXIT_VIOLATED
        assert json.loads(out)["checks"][0]["details"] == [{"case": "patched"}]
        assert criterion(0, "small").status == "violated"

    @pytest.mark.parametrize(
        "check,row,in_c11",
        [
            ("sigma", "sigma multiplicative", True),
            ("iota", "order bound", True),
            ("to-weyl", "to-weyl", False),
        ],
    )
    def test_rees_identity(self, capsys, monkeypatch, check, row, in_c11):
        monkeypatch.setitem(suite.REES_IDENTITIES, row, lambda a, b, ab: False)
        code, out, _ = run_cli(capsys, "rees", "--check", check)
        assert code == EXIT_VIOLATED
        details = json.loads(out)["checks"][0]["details"]
        assert len(details) == 50 and {d["identity"] for d in details} == {row}
        status = suite.check_rees_structure(0, "small").status
        assert status == ("violated" if in_c11 else "verified")

    def test_mutation_controls(self, capsys, monkeypatch):
        calls = []

        def controls(seed, scale):
            calls.append((seed, scale))
            return []

        monkeypatch.setattr(suite, "mutated_controls", controls)
        run_cli(capsys, "suite", "--mutate-moyal-sign", "--seed", "5")
        # a child that prints nothing stands in for the second battery pass
        child = subprocess.Popen(
            [sys.executable, "-c", "pass"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        suite.check_determinism_and_controls(5, "full", first_pass=[], second_pass=child)
        assert calls == [(5, "small"), (5, "small")]

    def test_vacuous_controls_violate_c12(self, monkeypatch):
        """With the true products in place of the sign-flipped ones, C01 and
        C02 pass under the control, and C12 must say the checks are vacuous."""
        monkeypatch.setattr(suite, "_flipped_star", moyal_star)
        monkeypatch.setattr(suite, "_flipped_commutator", star_commutator)
        # a child that prints the first pass's bytes, so only the controls fail
        same = suite.Report(0, "small", []).to_json_bytes()
        child = subprocess.Popen(
            [sys.executable, "-c", f"import sys; sys.stdout.buffer.write({same!r})"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        check = suite.check_determinism_and_controls(0, "small", first_pass=[], second_pass=child)
        assert check.status == "violated"
        assert [d["case"] for d in check.details] == ["kernel-sign-mutation"]


class TestHalfTraceNormalization:
    """The lift identity's expected value does not come from the half-trace
    form, so a wrong factor there is seen by C09 and by the CLI."""

    def test_doubled_half_trace_is_violated(self, capsys, monkeypatch):
        original = fedosov.half_trace_form

        def doubled(*args, **kwargs):
            return original(*args, **kwargs) * 2

        monkeypatch.setattr(fedosov, "half_trace_form", doubled)
        assert suite.check_fedosov_curvature(0, "small").status == "violated"
        code, out, _ = run_cli(
            capsys, "fedosov", "--check", "lift-curvature", "--dim", "2", "--fiber-trunc", "4"
        )
        assert code == EXIT_VIOLATED
        assert json.loads(out)["status"] == "violated"


def _readme_commands():
    """The lines of README's one-off command block that need no input document."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## One-off commands", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("starhom ") and "--json" not in line]


def _readme_option_table():
    """(subcommands, options) per row of README's one-off option table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## One-off commands", 1)[1].split("```sh", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [
        (
            {c.strip("` ") for c in names.strip("| ").split(",")},
            {o.strip("` ").split()[0] for o in options.strip("| ").split(",")},
        )
        for names, options in rows
    ]


class TestReadmeExamples:
    def test_block_is_found(self):
        assert len(_readme_commands()) >= 9

    def test_option_table_matches_the_parser(self):
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        table = _readme_option_table()
        assert sorted(c for names, _ in table for c in names) == sorted(commands.choices)
        for names, options in table:
            for name in names:
                parser = commands.choices[name]
                taken = {a.option_strings[0] for a in parser._actions if a.option_strings}
                assert taken - {"-h"} == options, name

    @pytest.mark.parametrize("line", _readme_commands())
    def test_example_exits_0(self, capsys, line):
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == EXIT_OK, err


class TestInternalError:
    def test_crash_exits_3_with_one_line(self, capsys, monkeypatch):
        def crash(dim):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "phi_E", crash)
        code, out, err = run_cli(capsys, "verify-cycle", "--chain", "phi_E", "--dim", "1")
        assert code == EXIT_INTERNAL
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("internal error: RuntimeError: boom")


class TestClosedStdout:
    """A reader that closed the pipe before the command wrote stopped
    reading; the command still exits with its own verdict."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["charclass", "--class", "todd", "--dim", "2", "--max-deg", "4"],
            ["verify-cycle", "--chain", "phi_E", "--dim", "1"],
        ],
        ids=["value", "one-check-report"],
    )
    def test_exit_code_is_the_verdict(self, argv):
        src = str(Path(starhom.__file__).resolve().parent.parent)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "starhom.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_OK, err
        assert "internal error" not in err and "BrokenPipeError" not in err


class TestJsonIsRead:
    """``--json`` is read whenever it is given, even when it names nothing
    or holds a JSON null."""

    def test_null_document_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("null"))
        code, out, err = run_cli(capsys, "charclass", "--class", "exp", "--json", "-")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error:")

    @pytest.mark.parametrize(
        "argv", [("charclass", "--class", "exp"), ("fedosov", "--check", "flat")]
    )
    def test_empty_path_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--json", "")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error: cannot read ''")


class TestReport:
    @pytest.mark.parametrize(
        "statuses,status",
        [
            ((), "verified"),
            (("verified", "verified"), "verified"),
            (("verified", "violated"), "violated"),
            (("violated", "error", "verified"), "error"),
        ],
        ids=["empty", "verified", "violated", "error"],
    )
    def test_error_over_violated_over_verified(self, statuses, status):
        checks = [suite.CheckResult(f"C{n}", "c", s, [], {}) for n, s in enumerate(statuses)]
        assert suite.Report(0, "small", checks).status == status


class TestCriterionErrors:
    def test_raising_criterion_is_reported_and_exits_3(self, capsys, monkeypatch):
        def boom(seed, scale):
            raise RuntimeError("criterion exploded")

        def control_boom(seed, scale, mutate=False):
            raise ZeroDivisionError("control exploded")

        # C03 in the battery; C12 through the negative control it calls by name
        monkeypatch.setattr(suite, "BATTERY", [*suite.BATTERY[:2], boom, *suite.BATTERY[3:]])
        monkeypatch.setattr(suite, "check_bracket_normalization", control_boom)
        code, out, err = run_cli(capsys, "suite", "--seed", "0", "--scale", "small")
        assert code == EXIT_INTERNAL
        report = json.loads(out)
        assert report["status"] == "error"
        checks = {c["id"]: c for c in report["checks"]}
        assert sorted(checks) == [f"C{n:02d}" for n in range(1, 13)]
        assert checks["C03"]["status"] == "error"
        assert checks["C03"]["details"] == [
            {"exception": "RuntimeError", "message": "criterion exploded"}
        ]
        assert checks["C12"]["status"] == "error"
        assert checks["C12"]["details"][0]["exception"] == "ZeroDivisionError"
        others = [c["status"] for cid, c in checks.items() if cid not in ("C03", "C12")]
        assert others == ["verified"] * 10
        assert "C03 boom: error" in err and "overall: error" in err


class TestCrossProcessDeterminism:
    def test_suite_report_ignores_hash_seed(self):
        src = str(Path(starhom.__file__).resolve().parent.parent)
        argv = [sys.executable, "-m", "starhom.cli", "suite", "--seed", "0", "--scale", "small"]
        procs = [
            subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            )
            for hash_seed in ("0", "1")
        ]
        outs = []
        try:
            for proc in procs:
                out, _ = proc.communicate(timeout=300)
                assert proc.returncode == EXIT_OK
                outs.append(out)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert outs[0] == outs[1]
        assert hashlib.md5(outs[0]).hexdigest() == "ff48212cf5b98764f02042c14f39e3d9"


@pytest.fixture
def children(monkeypatch):
    """Every child that ``run_suite`` starts for its second battery pass."""
    started = []
    start = suite._start_second_pass

    def recorded(seed, scale):
        started.append(start(seed, scale))
        return started[-1]

    monkeypatch.setattr(suite, "_start_second_pass", recorded)
    return started


class TestSecondPass:
    """C12 compares the first pass with a second one in a child interpreter,
    which sees none of this process's patches."""

    def test_patch_seen_only_in_process_is_violated(self, monkeypatch, children):
        monkeypatch.setitem(suite.REES_IDENTITIES, "order bound", lambda a, b, ab: False)
        checks = {c.id: c for c in suite.run_suite(0, "small").checks}
        assert checks["C11"].status == "violated"
        assert checks["C12"].status == "violated"
        assert checks["C12"].details == [{"case": "byte-reproducibility"}]
        assert [child.returncode for child in children] == [0]

    @pytest.mark.parametrize("failure", ["cannot-start", "exits-7"])
    def test_failed_child_is_an_error(self, capsys, monkeypatch, tmp_path, children, failure):
        executable = tmp_path / "python"
        if failure == "exits-7":
            executable.write_text("#!/bin/sh\necho 'no battery here' >&2\nexit 7\n")
            executable.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(executable))
        code, out, err = run_cli(capsys, "suite", "--seed", "0", "--scale", "small")
        assert code == EXIT_INTERNAL
        report = json.loads(out)
        assert report["status"] == "error"
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["C12"]["status"] == "error"
        (detail,) = checks["C12"]["details"]
        if failure == "exits-7":
            assert detail["exception"] == "ChildProcessError"
            assert detail["message"] == "second battery pass exited 7: no battery here"
            assert children[0].returncode == 7
        else:
            assert detail["exception"] == "FileNotFoundError"
            assert isinstance(children[0], FileNotFoundError)
        others = [c["status"] for cid, c in checks.items() if cid != "C12"]
        assert others == ["verified"] * 11
        assert "overall: error" in err

    def test_child_is_reaped_when_the_first_pass_raises(self, monkeypatch, children):
        def interrupted(seed, scale):
            raise KeyboardInterrupt

        monkeypatch.setattr(suite, "BATTERY", [interrupted])
        with pytest.raises(KeyboardInterrupt):
            suite.run_suite(0, "small")
        assert len(children) == 1 and children[0].returncode is not None


class TestImportCost:
    def test_cli_import_does_not_load_subprocess(self):
        """Only ``run_suite`` starts a child, so importing the CLI (set-up
        time of every one-shot command) leaves ``subprocess`` unloaded."""
        src = str(Path(starhom.__file__).resolve().parent.parent)
        code = "import sys, starhom.cli; assert 'subprocess' not in sys.modules"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()


def _poly(*terms):
    """A polynomial document over x1, xi1 from (x-exponent, xi-exponent, coef)."""
    return {"gens": ["x1", "xi1"], "terms": [{"exp": [a, b], "coef": q} for a, b, q in terms]}


def _t_series(lower, trunc, coeffs):
    return {"lower": lower, "trunc": trunc, "coeffs": {str(e): p for e, p in coeffs.items()}}


def _xyz(*terms):
    """A polynomial document over x, y, z from (x, y, z exponents, coef)."""
    return {"gens": ["x", "y", "z"], "terms": [{"exp": [a, b, c], "coef": q} for a, b, c, q in terms]}


def _op(*terms):
    """An operator document in dimension 1 from (x-exponent, d-exponent, coef)."""
    return {"dim": 1, "terms": [{"x": [a], "d": [b], "coef": q} for a, b, q in terms]}


def _op_series(coeffs):
    return {"dim": 1, "coeffs": {str(e): op for e, op in coeffs.items()}}


class TestPinnedStdout:
    """Recorded stdout bytes of six one-check commands and of the
    negative controls, each a ``suite.Report``, of ``charclass`` in
    both bases, and of ``hb`` (over every algebra), ``hB``, ``hkr`` and
    ``star`` on fixed documents."""

    @pytest.mark.parametrize(
        "argv,md5",
        [
            ("suite --mutate-moyal-sign", "844feb9249c75d73db12bc35d0b0d9dd"),
            ("verify-cycle --chain phi_E --dim 2", "40306e7678d07f44617a3327f7c19d5f"),
            ("fedosov --check flat --dim 2 --fiber-trunc 4", "c527ef11e3a46b09120313e5efe0673b"),
            ("rees --check to-weyl", "610eb3dde5c9c06823ce8fcdb689ad07"),
            ("fedosov --check lift-curvature --dim 2 --fiber-trunc 4",
             "9d51caaa9de74e4ca83633edfa748278"),
            ("fedosov --check psi --dim 1 --fiber-trunc 3", "c4983bbca781dee4591856d52306d6ec"),
            ("charclass --class todd --dim 2 --max-deg 5", "a22e8014a7e72a56ba44f7e54a7321a0"),
            ("charclass --class a-hat --dim 3 --max-deg 6 --basis roots",
             "177728869eb6c0b88f8d5d285dc70ad1"),
            ("charclass --class exp --dim 2 --max-deg 4 --basis chern",
             "69cb91c5a17c4b10b1cb2f0f889153ab"),
            ("charclass --class rr-check --dim 2 --max-deg 6", "cef8d9022ae5a99f31e0ac647ec75c6b"),
        ],
    )
    def test_stdout_md5(self, capsys, argv, md5):
        _, out, _ = run_cli(capsys, *argv.split())
        assert hashlib.md5(out.encode()).hexdigest() == md5

    @pytest.mark.parametrize(
        "doc,md5",
        [
            # a 0-form with two monomials
            (
                {"algebra": "poly", "degree": 0, "terms": [
                    {"coef": "3/2", "word": [_xyz((1, 1, 0, "1/1"), (0, 0, 1, "2/3"))]},
                ]},
                "580b9526ef34966602bee8a0413f8dff",
            ),
            # a 1-form with the monomial xy under dx and dy
            (
                {"algebra": "poly", "degree": 1, "terms": [
                    {"coef": "1/1", "word": [_xyz((1, 1, 0, "1/1")),
                                             _xyz((1, 0, 0, "1/1"), (0, 1, 0, "1/1"))]},
                    {"coef": "-1/2", "word": [_xyz((0, 0, 1, "1/1")), _xyz((2, 0, 0, "1/1"))]},
                ]},
                "fc0ee4b41eaff8c11069190916d29e65",
            ),
            # a 2-form with each of yz, xz and xy under two wedge indices
            (
                {"algebra": "poly", "degree": 2, "terms": [
                    {"coef": "1/1", "word": [
                        _xyz((0, 0, 0, "1/1")),
                        _xyz((1, 1, 1, "1/1")),
                        _xyz((1, 0, 0, "1/1"), (0, 1, 0, "1/1"), (0, 0, 1, "1/1")),
                    ]},
                    {"coef": "2/3", "word": [
                        _xyz((1, 0, 0, "1/1")), _xyz((0, 1, 0, "1/1")), _xyz((0, 0, 2, "1/1")),
                    ]},
                ]},
                "9511fbf99c495ee31d7a247c3652dc81",
            ),
        ],
        ids=["0-form", "1-form", "2-form"],
    )
    def test_hkr_stdout_md5(self, capsys, monkeypatch, doc, md5):
        """The form JSON format: one entry per wedge index, its monomials
        gathered into one polynomial."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "hkr", "--json", "-")
        assert code == EXIT_OK
        assert hashlib.md5(out.encode()).hexdigest() == md5

    @pytest.mark.parametrize(
        "doc,md5",
        [
            # an operator-series coefficient at two t-powers, over rees
            (
                {"algebra": "rees", "degree": 2, "dim": 1, "terms": [{
                    "coef": _op_series({0: _op((0, 0, "1/2")), 2: _op((0, 0, "-3/1"))}),
                    "word": [
                        _op_series({0: _op((0, 0, "1/1"))}),
                        _op_series({0: _op((1, 0, "1/1"))}),
                        _op_series({1: _op((0, 1, "1/1"), (1, 0, "2/1"))}),
                    ],
                }]},
                "91364f5f98918eca8e435ae4b3ace1bc",
            ),
            # a windowed coefficient with a t^-1 term, over weyl-loc
            (
                {"algebra": "weyl-loc", "degree": 2, "dim": 1, "terms": [{
                    "coef": _t_series(-1, 5, {-1: _poly((0, 0, "2/1")), 1: _poly((0, 0, "-1/3"))}),
                    "word": [
                        _poly((0, 0, "1/1")),
                        _poly((1, 0, "1/1")),
                        {"dim": 1, "trunc": 8, "value": _t_series(
                            -1, 8, {-1: _poly((0, 1, "1/1")), 0: _poly((1, 1, "1/2"))}
                        )},
                    ],
                }]},
                "ab31982f20c3f30c7f5f386ec5e02b44",
            ),
            # two words of polynomial slots with rational coefficients
            (
                {"algebra": "poly", "degree": 2, "terms": [
                    {"coef": "2/3", "word": [
                        _xyz((1, 0, 0, "1/1")),
                        _xyz((0, 1, 0, "1/1"), (0, 0, 2, "-1/2")),
                        _xyz((1, 1, 0, "3/1")),
                    ]},
                    {"coef": "-1/1", "word": [
                        _xyz((0, 0, 1, "1/1")), _xyz((1, 0, 0, "1/1")), _xyz((0, 1, 1, "1/1")),
                    ]},
                ]},
                "a1d0181e3384fad9a798721525cd0dd4",
            ),
            # a windowed coefficient at t^0 and t^2, over weyl
            (
                {"algebra": "weyl", "degree": 2, "dim": 1, "terms": [{
                    "coef": _t_series(0, 6, {0: _poly((0, 0, "1/2")), 2: _poly((0, 0, "-1/1"))}),
                    "word": [
                        _poly((1, 0, "1/1")),
                        {"dim": 1, "trunc": 8, "value": _t_series(
                            0, 8, {0: _poly((0, 1, "1/1")), 1: _poly((1, 1, "1/3"))}
                        )},
                        _poly((1, 1, "1/1")),
                    ],
                }]},
                "1c6fa65fea8a6c62e6614b844255f46f",
            ),
        ],
        ids=["rees", "weyl-loc", "poly", "weyl"],
    )
    def test_hb_stdout_md5(self, capsys, monkeypatch, doc, md5):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_OK and out
        assert hashlib.md5(out.encode()).hexdigest() == md5

    def test_hB_stdout_md5(self, capsys, monkeypatch):
        """An operator-series coefficient at t^1 over rees, through B."""
        doc = {"algebra": "rees", "degree": 1, "dim": 1, "terms": [{
            "coef": _op_series({1: _op((0, 0, "1/1"))}),
            "word": [
                _op_series({0: _op((1, 0, "1/1"))}),
                _op_series({1: _op((0, 1, "1/1"), (2, 0, "1/2"))}),
            ],
        }]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "hB", "--json", "-")
        assert code == EXIT_OK and out
        assert hashlib.md5(out.encode()).hexdigest() == "f46cfa0e8c33ff565e328b323040c894"

    def test_star_stdout_md5(self, capsys, monkeypatch):
        """The Weyl JSON format: a windowed value with a t^-1 term times a
        plain polynomial in the default window."""
        doc = {
            "f": {"dim": 1, "trunc": 4, "value": _t_series(-1, 4, {
                -1: _poly((0, 1, "1/1")),
                0: _poly((1, 1, "1/2"), (0, 0, "-2/1")),
                2: _poly((2, 0, "3/1")),
            })},
            "g": _poly((2, 0, "1/1"), (1, 2, "-1/3")),
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "star", "--json", "-")
        assert code == EXIT_OK
        assert hashlib.md5(out.encode()).hexdigest() == "4fe9c75819f793fb7e2e4975e1f600f9"


class TestChainDocumentShape:
    @pytest.mark.parametrize(
        "doc",
        [
            {"algebra": "poly", "degree": 1, "terms": [{"coef": "1/1", "word": [5, 6]}]},
            {"algebra": "poly", "degree": 1, "terms": 5},
            {"algebra": "poly", "degree": 1, "terms": [7]},
            {"algebra": "weyl", "degree": 1, "dim": 1, "terms": [{"coef": "1/1", "word": 5}]},
            {"algebra": "weyl", "degree": "one", "dim": 1, "terms": []},
            # a t^-1 coefficient over the unlocalized algebra
            {"algebra": "weyl", "degree": 2, "dim": 1, "terms": [{
                "coef": _t_series(-1, 8, {-1: _poly((0, 0, "1/1"))}),
                "word": [_poly((0, 0, "1/1")), _poly((1, 0, "1/1")), _poly((0, 1, "1/1"))],
            }]},
            # a windowed coefficient over the exact polynomial algebra
            {"algebra": "poly", "degree": 1, "terms": [{
                "coef": _t_series(0, 5, {0: _poly((0, 0, "1/1"))}),
                "word": [_poly((0, 0, "1/1")), _poly((1, 0, "1/1"))],
            }]},
            # a window declared on an exact operator series, with a t^3 term above it
            {"algebra": "rees", "degree": 1, "dim": 1, "terms": [{
                "coef": {**_op_series({3: _op((0, 0, "1/1"))}), "lower": 0, "trunc": 1},
                "word": [_op_series({0: _op((0, 0, "1/1"))}), _op_series({0: _op((1, 0, "1/1"))})],
            }]},
            # an x multi-index of length 2 and a d multi-index of length 0 at dim 1
            {"algebra": "rees", "degree": 1, "dim": 1, "terms": [{
                "coef": "1/1",
                "word": [
                    _op_series({0: _op((0, 0, "1/1"))}),
                    _op_series({0: {"dim": 1, "terms": [{"x": [1, 0], "d": [], "coef": "1/1"}]}}),
                ],
            }]},
        ],
    )
    def test_wrong_shapes_exit_2(self, capsys, monkeypatch, doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_MALFORMED
        assert out == "" and err.startswith("input error:")

    @pytest.mark.parametrize(
        "algebra,coef",
        [
            (
                "weyl",
                {"lower": 0, "trunc": 8, "coeffs": {
                    "0": {"gens": ["x1", "xi1"], "terms": [{"exp": [1, 0], "coef": "1/1"}]}}},
            ),
            (
                "rees",
                {"dim": 1, "coeffs": {
                    "0": {"dim": 1, "terms": [{"x": [0], "d": [1], "coef": "1/1"}]}}},
            ),
        ],
    )
    def test_non_scalar_coefficient_exits_2(self, capsys, monkeypatch, algebra, coef):
        slot = (
            {"gens": ["x1", "xi1"], "terms": [{"exp": [0, 1], "coef": "1/1"}]}
            if algebra == "weyl"
            else {"dim": 1, "coeffs": {"0": {"dim": 1, "terms": [{"x": [1], "d": [0], "coef": "1/1"}]}}}
        )
        doc = {"algebra": algebra, "degree": 1, "dim": 1, "terms": [{"coef": coef, "word": [slot, slot]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_MALFORMED
        assert "constant" in err

    @pytest.mark.parametrize("dim", [None, 1])
    def test_slot_of_another_dimension_exits_2(self, capsys, monkeypatch, dim):
        slot = {"dim": 1, "coeffs": {"0": {"dim": 1, "terms": [{"x": [1], "d": [0], "coef": "1/1"}]}}}
        wide = {"dim": 2, "coeffs": {"0": {"dim": 2, "terms": [{"x": [1, 0], "d": [0, 0], "coef": "1/1"}]}}}
        doc = {"algebra": "rees", "degree": 1, "terms": [{"coef": "1/1", "word": [slot, wide]}]}
        if dim is not None:
            doc["dim"] = dim
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_MALFORMED
        assert out == "" and "dimension" in err


class TestWeylDocumentWindow:
    """A Weyl document's "trunc" is the window of its value: it must be a
    windowed value's own, and it places a polynomial value in [0, trunc)
    in place of --trunc-t."""

    @pytest.mark.parametrize("trunc", [99, "abc"])
    def test_trunc_other_than_the_value_s_exits_2(self, capsys, monkeypatch, trunc):
        f = {"dim": 1, "trunc": trunc, "value": _t_series(0, 3, {0: _poly((1, 0, "1/1"))})}
        doc = {"f": f, "g": _poly((0, 1, "1/1"))}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "star", "--json", "-")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error:")

    def test_trunc_windows_a_polynomial(self, capsys, monkeypatch):
        doc = {"f": {"dim": 1, "trunc": 3, "value": _poly((1, 0, "1/1"))}, "g": _poly((0, 1, "1/1"))}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "star", "--trunc-t", "6", "--json", "-")
        assert code == EXIT_OK
        assert json.loads(out)["trunc"] == 3

    @pytest.mark.parametrize("width,code", [(1, EXIT_MALFORMED), (7, EXIT_MALFORMED), (8, 1)])
    @pytest.mark.parametrize("command", ["verify-cycle", "hb", "hB"])
    def test_chain_slot_narrower_than_the_chain_exits_2(self, capsys, monkeypatch, command,
                                                        width, code):
        # b(x (x) xi) = -t: a slot window of width 1 would cut that term and
        # fake a cycle; a slot as wide as the chain's window is read
        doc = _chain("weyl", {"dim": 1, "trunc": width, "value": _poly((1, 0, "1/1"))},
                     {"dim": 1, "trunc": width, "value": _poly((0, 1, "1/1"))})
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        got, out, err = run_cli(capsys, command, "--dim", "1", "--trunc-t", "8", "--json", "-")
        if code == EXIT_MALFORMED:
            assert got == EXIT_MALFORMED and out == "" and err.startswith("input error:")
        else:
            assert got == (1 if command == "verify-cycle" else EXIT_OK), err

    @pytest.mark.parametrize("command", ["hb", "hB"])
    def test_weyl_loc_output_round_trips(self, capsys, monkeypatch, command):
        doc = {"algebra": "weyl-loc", "degree": 1, "dim": 1, "terms": [{
            "coef": _t_series(-1, 5, {-1: _poly((0, 0, "2/1"))}),
            "word": [
                _poly((1, 0, "1/1")),
                {"dim": 1, "trunc": 8, "value": _t_series(-1, 8, {-1: _poly((0, 1, "1/1"))})},
            ],
        }]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, command, "--json", "-")
        assert code == EXIT_OK and json.loads(out)["terms"], err
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, again, err = run_cli(capsys, command, "--json", "-")
        assert code == EXIT_OK, err
        # b b = 0 and B B = 0 on the decoded image
        assert json.loads(again)["terms"] == []


class TestDocumentDimension:
    """A "dim" stated in a document is at least 1, like a chain's own."""

    def test_star_operand_of_dimension_0_exits_2(self, capsys, monkeypatch):
        doc = {"f": {"dim": 0, "trunc": 4, "value": _t_series(0, 4, {0: _poly((1, 0, "1/1"))})},
               "g": _poly((0, 1, "1/1"))}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "star", "--dim", "1", "--json", "-")
        assert code == EXIT_MALFORMED and out == "" and "bad dimension 0" in err

    @pytest.mark.parametrize("chain_dim", [True, False], ids=["chain-dim", "no-chain-dim"])
    def test_chain_slot_of_dimension_0_exits_2(self, capsys, monkeypatch, chain_dim):
        doc = _chain("weyl", {"dim": 0, "trunc": 8, "value": _poly((1, 0, "1/1"))},
                     _poly((0, 1, "1/1")))
        if not chain_dim:
            del doc["dim"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_MALFORMED and out == "" and "bad dimension 0" in err


WEYL_SLOT = {"gens": ["x1", "xi1"], "terms": [{"exp": [1, 0], "coef": "1/1"}]}
REES_SLOT = {"dim": 1, "coeffs": {"0": {"dim": 1, "terms": [{"x": [1], "d": [0], "coef": "1/1"}]}}}


def _chain(algebra, first, second=None, coef="1/1"):
    return {
        "algebra": algebra,
        "degree": 1,
        "dim": 1,
        "terms": [{"coef": coef, "word": [first, first if second is None else second]}],
    }


class TestSlotDocumentTypes:
    """A wrongly typed field inside a slot, a coefficient or a star operand
    is malformed input (exit 2), not an internal error (exit 3)."""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("hb", _chain("poly", {"gens": ["x1", "xi1"], "terms": 5})),
            ("hb", _chain("poly", {"gens": 5, "terms": []})),
            ("hb", _chain("weyl", {"gens": ["x1", "xi1"], "terms": [{"exp": "ab", "coef": "1/1"}]},
                          WEYL_SLOT)),
            ("hb", _chain("rees", {"dim": 1, "coeffs": [1]}, REES_SLOT)),
            ("hb", _chain("weyl", WEYL_SLOT, coef={"lower": 0, "trunc": 8, "coeffs": []})),
            ("star", {"f": 5, "g": WEYL_SLOT}),
            ("star", 5),
            ("hb", {**_chain("weyl", WEYL_SLOT), "dim": -1}),
            ("hb", _chain("weyl", {"dim": "two", "value": WEYL_SLOT}, WEYL_SLOT)),
            ("hb", _chain("rees", {"dim": 1, "coeffs": {"0": {"dim": 1, "terms": [
                {"x": 5, "d": [0], "coef": "1/1"}]}}}, REES_SLOT)),
        ],
    )
    def test_mistyped_field_exits_2(self, capsys, monkeypatch, command, doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, command, "--json", "-")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error:")


POLY_SLOT = {"gens": ["x", "y"], "terms": [{"exp": [1, 0], "coef": "1/1"}]}


def _poly_chain(first, degree=1):
    return {"algebra": "poly", "degree": degree, "terms": [{"coef": "1/1", "word": [first, POLY_SLOT]}]}


def _weyl_coef_chain(coef):
    return _chain("weyl", WEYL_SLOT, {"gens": ["x1", "xi1"], "terms": [{"exp": [0, 1], "coef": "1/1"}]}, coef)


class TestStrictIntegers:
    """An integer field holding a float, a boolean or a numeric string is
    malformed input; it is never truncated into a different value."""

    @pytest.mark.parametrize(
        "doc",
        [
            _poly_chain({"gens": ["x", "y"], "terms": [{"exp": [1.7, True], "coef": "1/1"}]}),
            _poly_chain({"gens": ["x", "y"], "terms": [{"exp": ["2", 0], "coef": "1/1"}]}),
            _poly_chain(POLY_SLOT, degree=1.9),
            _poly_chain(POLY_SLOT, degree=True),
            {**_chain("weyl", WEYL_SLOT), "dim": 1.0},
            _chain("weyl", {"dim": True, "value": WEYL_SLOT}, WEYL_SLOT),
            _weyl_coef_chain({"lower": 0.5, "trunc": 8, "coeffs": {}}),
            _weyl_coef_chain({"lower": 0, "trunc": "8", "coeffs": {}}),
            _weyl_coef_chain({"lower": 0, "trunc": 8, "coeffs": {
                "+0": {"gens": ["x1", "xi1"], "terms": [{"exp": [0, 0], "coef": "1/1"}]}}}),
            _chain("rees", {"dim": 1, "coeffs": {"0_0": {"dim": 1, "terms": [
                {"x": [1], "d": [0], "coef": "1/1"}]}}}, REES_SLOT),
            _poly_chain({"gens": ["x", "y"], "terms": [{"exp": [1, 0], "coef": True}]}),
        ],
    )
    def test_mistyped_integer_exits_2(self, capsys, monkeypatch, doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "hb", "--json", "-")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error:")


ZERO_ENTRY = {"terms": []}
UNIT_ENTRY = {"terms": [{"exp": [0, 0], "coef": "1/1"}]}
IDENTITY = [[UNIT_ENTRY, ZERO_ENTRY], [ZERO_ENTRY, UNIT_ENTRY]]


class TestFedosovDocument:
    @pytest.mark.parametrize(
        "check,doc",
        [
            ("flat", [1, 2]),
            ("flat", {"a0": 5}),
            ("flat", {"a0": {"0": 5}}),
            ("flat", {"a0": {"x": [[ZERO_ENTRY, ZERO_ENTRY], [ZERO_ENTRY, ZERO_ENTRY]]}}),
            ("flat", {"a0": {"0": [[ZERO_ENTRY]]}}),
            ("flat", {"a0": {"0": [[ZERO_ENTRY], [ZERO_ENTRY]]}}),
            ("flat", {"a0": {"2": [[ZERO_ENTRY, ZERO_ENTRY], [ZERO_ENTRY, ZERO_ENTRY]]}}),
            ("flat", {"a0": {"1,0": [[ZERO_ENTRY, ZERO_ENTRY], [ZERO_ENTRY, ZERO_ENTRY]]}}),
            ("flat", {"a0": {"0": [[UNIT_ENTRY, ZERO_ENTRY], [ZERO_ENTRY, ZERO_ENTRY]]},
                      "g": IDENTITY, "g_inv": IDENTITY}),
            ("psi", {"g": IDENTITY, "g_inv": IDENTITY}),
        ],
    )
    def test_malformed_document_exits_2(self, capsys, monkeypatch, check, doc):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "fedosov", "--check", check, "--dim", "2", "--json", "-")
        assert code == EXIT_MALFORMED, err
        assert out == "" and err.startswith("input error:")

    def test_well_formed_document_runs(self, capsys, monkeypatch):
        entry = {"terms": [{"exp": [0, 1], "coef": "1/1"}]}
        doc = {"a0": {"0": [[entry, ZERO_ENTRY], [ZERO_ENTRY, ZERO_ENTRY]]}}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "fedosov", "--check", "flat", "--dim", "2", "--json", "-")
        assert code == EXIT_OK, err
        assert json.loads(out)["status"] == "verified"


class TestKeyErrorIsInternal:
    def test_internal_key_error_exits_3(self, capsys, monkeypatch):
        def crash(dim):
            raise KeyError("slot")

        monkeypatch.setattr(cli, "phi_E", crash)
        code, out, err = run_cli(capsys, "verify-cycle", "--chain", "phi_E", "--dim", "1")
        assert code == EXIT_INTERNAL
        assert out == "" and err.startswith("internal error: KeyError")


HB_WEYL_DOC = {
    "algebra": "weyl",
    "degree": 1,
    "dim": 1,
    "terms": [{"coef": "1/1", "word": [WEYL_SLOT, {"gens": ["x1", "xi1"], "terms": [
        {"exp": [0, 1], "coef": "1/1"}]}]}],
}
FUZZED_DOCUMENTS = [
    (("hb", "--dim", "1", "--trunc-t", "6"), HB_WEYL_DOC),
    (("hb",), _chain("rees", REES_SLOT)),
    (("hkr",), _poly_chain(POLY_SLOT)),
    (("star", "--dim", "1", "--trunc-t", "6"), json.loads(STAR_DOC)),
    (("fedosov", "--check", "flat", "--dim", "2", "--fiber-trunc", "2"),
     {"a0": {"0": [[{"terms": [{"exp": [0, 1], "coef": "1/1"}]}, ZERO_ENTRY],
                   [ZERO_ENTRY, ZERO_ENTRY]]}}),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["", "0", "1/1", "-1/2", "x1", "xi1", "weyl", "rees", "poly"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "terms", "exp", "coef", "gens"]), inner, max_size=3),
    max_leaves=6,
)


def _node_paths(doc, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _node_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestDecoderFuzz:
    """One node of a valid document replaced by an arbitrary JSON value is
    verified, violated or malformed input, never an internal error."""

    @pytest.mark.parametrize(
        "argv,doc", FUZZED_DOCUMENTS, ids=[" ".join(argv) for argv, _ in FUZZED_DOCUMENTS]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_node_replaced(self, argv, doc, data):
        path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
        fuzzed = _replaced(doc, path, data.draw(json_values, label="value"))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(fuzzed))), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json", "-"])
        assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_MALFORMED), err.getvalue()
        assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()
