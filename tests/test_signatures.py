"""Every definition and option of ``starhom`` has a production reader.

Two ``ast`` audits of the source, each against the same production
code, ``CALLERS``: ``src/starhom`` other than ``__init__.py``, and
``perfbench/``.  Tests and the package's exports do not count.  Two
more audits run the production paths.

- **Parameters.**  A parameter with a default value, of a module-level
  function or a method in ``src/starhom``, must be passed by some call in
  ``CALLERS``, by keyword or in its position.  Calls are matched by
  function or attribute name, and a class name matches its ``__init__``.
  A parameter that only tests set is a test-only hook in a production
  signature.
- **Definitions.**  Every module-level function and class in
  ``src/starhom`` must be referenced by name (a bare name or an
  attribute) somewhere in ``CALLERS`` outside its own body.  A definition
  that only tests reach is dead code.
- **Methods.**  Every method whose name is not a dunder, of a
  module-level class in ``src/starhom``, must be entered, as
  ``sys.setprofile`` sees it, while the production paths run in-process:
  each mode below (the ``suite`` mode is one battery pass at small), the
  document commands on documents written by the package's own writers,
  and the benchmark's in-process workloads.  Matching by name would pass
  a method whenever any other method, or any attribute, shares its name.
- **CLI options.**  A *mode* is a subcommand, or one value of its
  ``--class``, ``--check`` or ``--chain``, or ``suite`` with or without
  ``--mutate-moyal-sign``.  Each mode runs in-process once per option it
  accepts, on its own command line plus that option, parsed into a
  namespace that records the attributes read from it; the handler must
  read the option.  A handler that reads an option and then refuses it
  (exit 2) reads it.  Options that the mode's mutually exclusive group
  forbids are not run.  An option that nothing reads is accepted and
  silently ignored.

Each audit has a ``KEEP_*`` table of its exceptions, each with the reason
it stays, and a second test that fails when an exception no longer is one;
definitions and methods share ``KEEP_DEFINITIONS``.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from starhom import charclass, cli, serialize, suite
from starhom.corpus import random_chain, random_rees, random_weyl
from starhom.hochschild import HochschildChain, rees_handle, weyl_handle
from starhom.serialize import DecodeError
from starhom.series import Q_ZERO, Poly, SeriesError, TSeries

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starhom"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# (where, parameter): reason it stays although no production call sets it
KEEP_PARAMETERS = {
    ("hochschild.HochschildChain.scale", "tpow"): (
        "the trace-cycle normalization criterion scales phi_A(d) by t^d"
    ),
    ("corpus.random_weyl", "max_t"): "the corpus is shared with the tests, which set it",
    ("corpus.random_weyl", "min_t"): "the corpus is shared with the tests, which set it",
    ("corpus.random_chain", "words"): "the corpus is shared with the tests, which set it",
}

# where: reason the definition stays although no production path reaches it
KEEP_DEFINITIONS = {
    "series.TSeries.set_t_zero": (
        "the planned trace-cycle normalization criterion (C13 in ROADMAP.md) maps "
        "each slot to its t^0 coefficient"
    ),
    "hochschild.HochschildChain.scale": (
        "unary minus calls it, which no production path does since a - b merges in "
        "one pass; the planned C13 scales phi_A(d) by t^d"
    ),
}


def _caller_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in CALLERS]


def _signature(fn: ast.FunctionDef, method: bool) -> tuple[list, list]:
    """(positional parameter names as a call sees them, defaulted names)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def defaulted_parameters() -> list[tuple[str, str, list, list]]:
    """(where, called name, positional names, defaulted names) per callable."""
    out = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node.name, *_signature(node, False)))
            elif isinstance(node, ast.ClassDef):
                where = f"{path.stem}.{node.name}"
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        called = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{where}.{fn.name}", called, *_signature(fn, True)))
    return [entry for entry in out if entry[3]]


def production_calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, positional: list, param: str) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param in positional and positional.index(param) < len(call.args)


def unpassed() -> set[tuple[str, str]]:
    calls = production_calls()
    return {
        (where, param)
        for where, called, positional, defaulted in defaulted_parameters()
        for param in defaulted
        if not any(_passes(c, positional, param) for c in calls.get(called, ()))
    }


def test_every_defaulted_parameter_has_a_production_caller():
    assert sorted(unpassed() - KEEP_PARAMETERS.keys()) == []


def test_keep_list_names_only_unpassed_parameters():
    assert sorted(KEEP_PARAMETERS.keys() - unpassed()) == []


# -- definitions -------------------------------------------------------------------


def _names(node: ast.AST) -> Counter:
    """How often each name is referenced below ``node``, as a bare name or
    as an attribute."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def definitions() -> list[tuple[str, str, ast.AST]]:
    """(where, name, node) per module-level function and class."""
    return [
        (f"{path.stem}.{node.name}", node.name, node)
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def unreferenced() -> set[str]:
    total = sum(map(_names, _caller_trees()), Counter())
    return {
        where for where, name, node in definitions() if total[name] == _names(node)[name]
    }


def test_every_definition_is_referenced_outside_its_body():
    assert sorted(unreferenced() - KEEP_DEFINITIONS.keys()) == []


# -- CLI options -------------------------------------------------------------------

# a star document and a one-word polynomial chain, for the modes that read one
POLY = {"gens": ["x", "y"], "terms": [{"exp": [1, 0], "coef": "1/1"}]}
DOCS = {
    "STAR": {"f": POLY, "g": POLY},
    "CHAIN": {"algebra": "poly", "degree": 1, "terms": [{"coef": "1/1", "word": [POLY, POLY]}]},
}

# the options that pick a mode: each value of them is a mode of its own
SELECTORS = ("--class", "--check", "--chain", "--mutate-moyal-sign")

# the command line of each mode; STAR and CHAIN stand for a document's path
MODES = [
    ("star", "--json", "STAR"),
    *((command, "--json", "CHAIN") for command in ("hb", "hB", "hkr", "verify-cycle")),
    *(("verify-cycle", "--chain", c) for c in ("phi_E", "phi_A")),
    *(("charclass", "--class", c) for c in ("a-hat", "todd", "exp", "rr-check")),
    *(("fedosov", "--check", c) for c in ("flat", "lift-curvature", "psi")),
    *(("rees", "--check", c) for c in ("sigma", "iota", "to-weyl", "phi-compat")),
    ("suite",),
    ("suite", "--mutate-moyal-sign"),
]

# (mode prefix, option): reason the option stays although those modes never read it
KEEP_OPTIONS = {
    (("verify-cycle", "--chain"), "--trunc-t"): (
        "the built-in cycles carry their own windows, and refusing --trunc-t there "
        "would need a second default for an option that five commands share"
    ),
}


class Reads(argparse.Namespace):
    """A namespace that records each attribute read from it once ``seen``
    is a set."""

    seen = None

    def __getattribute__(self, name):
        seen = object.__getattribute__(self, "seen")
        if seen is not None:
            seen.add(name)
        return object.__getattribute__(self, name)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (commands,) = [
        a for a in cli.build_parser()._actions if a.choices and a.dest == "command"
    ]
    return commands.choices


def _read(argv: list[str]) -> set[str]:
    """The attributes that the handler reads when it runs on ``argv``."""
    args = cli.build_parser().parse_args(argv, namespace=Reads())
    args.seen = seen = set()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args.fn(args)
        except (DecodeError, SeriesError):
            pass  # an option that is read and then refused (exit 2) is read
    return seen


def unread_options(tmp: Path) -> set[tuple[tuple, str]]:
    """(mode, option) per option that the mode accepts and its handler never
    reads.  Each run is the mode's command line plus that one option, at its
    default value, or at a path that names no file for ``--json``."""
    paths = {name: tmp / f"{name}.json" for name in DOCS}
    for name, path in paths.items():
        path.write_text(json.dumps(DOCS[name]))
    missing = str(tmp / "missing.json")
    subcommands, out = _subcommands(), set()
    for mode in MODES:
        argv = [str(paths[a]) if a in paths else a for a in mode]
        parser = subcommands[mode[0]]
        forbidden = {
            flag
            for group in parser._mutually_exclusive_groups
            if any(set(a.option_strings) & set(mode) for a in group._group_actions)
            for a in group._group_actions
            for flag in a.option_strings
        }
        for action in parser._actions:
            flags = action.option_strings
            if not flags or action.dest == "help" or set(flags) & {*mode, *SELECTORS, *forbidden}:
                continue
            value = missing if action.default is None else str(action.default)
            if action.dest not in _read([*argv, flags[0], value]):
                out.add((mode, flags[0]))
    return out


def _kept(mode: tuple, option: str) -> bool:
    return any(mode[: len(prefix)] == prefix and option == kept for prefix, kept in KEEP_OPTIONS)


@pytest.fixture(scope="module")
def unread(tmp_path_factory) -> set[tuple[tuple, str]]:
    return unread_options(tmp_path_factory.mktemp("modes"))


def test_mode_table_covers_every_subcommand_and_choice():
    want = set()
    for command, parser in _subcommands().items():
        picks = [a for a in parser._actions if set(a.option_strings) & set(SELECTORS)]
        for action in picks:
            flag = action.option_strings[0]
            want |= {(command, flag, c) for c in action.choices or ()}
            if not action.choices:
                want.add((command, flag))
        if not any(a.required for a in picks):
            want.add((command,))
    got = [m if len(m) > 1 and m[1] in SELECTORS else m[:1] for m in MODES]
    assert len(set(got)) == len(got)
    assert set(got) == want


def test_every_cli_option_is_read_by_its_handler(unread):
    assert sorted(pair for pair in unread if not _kept(*pair)) == []


def test_keep_list_names_only_unread_options(unread):
    for prefix, option in KEEP_OPTIONS:
        modes = [m for m in MODES if m[: len(prefix)] == prefix]
        assert modes and all((m, option) in unread for m in modes), (prefix, option)


# -- methods -----------------------------------------------------------------------


def methods() -> dict[str, object]:
    """{where: code object} per method whose name is not a dunder, of each
    module-level class; a classmethod, property or cached property gives
    the code of the function it wraps."""
    out = {}
    for path in SOURCES:
        module = importlib.import_module(f"starhom.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    member = vars(getattr(module, node.name))[fn.name]
                    for attr in ("__func__", "fget", "func"):
                        member = getattr(member, attr, member)
                    out[f"{path.stem}.{node.name}.{fn.name}"] = member.__code__
    return out


def _written_docs() -> dict[str, object]:
    """Documents for the commands that read one, written by the package's
    own writers: two Weyl operands, a rees chain, a weyl chain with a
    t-series coefficient, a fedosov connection form and a Chern polynomial."""
    rng = random.Random("entered")
    wh = weyl_handle(1, trunc=8)
    a, b = (random_weyl(rng, 1, 8) for _ in range(2))
    t_coeff = TSeries(Q_ZERO, {0: Fraction(1), 1: Fraction(-2, 3)}, 0, 8)
    base, a0 = suite.default_chart(2)
    chern = charclass.chern_names(2)
    return {
        "WEYL_STAR": {"f": serialize.weyl_to_json(a), "g": serialize.weyl_to_json(b)},
        "REES_CHAIN": serialize.chain_to_json(
            random_chain(rng, rees_handle(1), 2, lambda r: random_rees(r, 1), words=3)
        ),
        "WEYL_CHAIN": serialize.chain_to_json(
            HochschildChain(wh, 1, [(t_coeff, (a, b)), (1, (b, a * b))])
        ),
        "A0": {"a0": {
            ",".join(map(str, widx)): [[serialize.poly_to_json(e) for e in row] for row in mat]
            for widx, mat in a0.items()
        }},
        "CHERN": serialize.poly_to_json(Poly.gen(chern, "c1") + Poly.gen(chern, "c2")),
    }


# the document commands: each must exit 0 or 1, so that it ran past its decoder
DOCUMENT_RUNS = [
    ("star", "--json", "WEYL_STAR"),
    *((command, "--json", doc) for command in ("hb", "hB", "verify-cycle")
      for doc in ("REES_CHAIN", "WEYL_CHAIN")),
    ("fedosov", "--check", "flat", "--dim", "2", "--json", "A0"),
    ("charclass", "--class", "exp", "--dim", "2", "--json", "CHERN"),
]


# the benchmark's in-process workloads; its suite-small is the suite mode's run
BENCHMARK_WORKLOADS = ("cycles-d3", "geometry")


def entered_codes(tmp: Path) -> set:
    """The code objects that ``sys.setprofile`` sees entered while each mode
    of ``MODES`` (``suite`` runs one battery pass at small) and each of
    ``DOCUMENT_RUNS`` runs through ``cli.main``, and each of
    ``BENCHMARK_WORKLOADS`` runs with its known-answer checks."""
    docs = {**DOCS, **_written_docs()}
    paths = {name: tmp / f"{name}.json" for name in docs}
    for name, path in paths.items():
        path.write_text(json.dumps(docs[name]))
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("child").WORKLOADS
    seen = set()
    add = seen.add

    def profile(frame, event, arg):
        add(frame.f_code)

    codes = {}
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in [*MODES, *DOCUMENT_RUNS]:
                codes[argv] = cli.main([str(paths[a]) if a in paths else a for a in argv])
            for name in BENCHMARK_WORKLOADS:
                _, post = workloads[name](0)
                if post is not None:
                    post()
    finally:
        sys.setprofile(before)
    assert {argv: codes[argv] for argv in DOCUMENT_RUNS if codes[argv] not in (0, 1)} == {}
    return seen


@pytest.fixture(scope="module")
def unentered(tmp_path_factory) -> set[str]:
    seen = entered_codes(tmp_path_factory.mktemp("entered"))
    return {where for where, code in methods().items() if code not in seen}


def test_every_method_is_entered_by_a_production_path(unentered):
    assert sorted(unentered - KEEP_DEFINITIONS.keys()) == []


def test_keep_list_names_only_unreferenced_definitions(unentered):
    assert sorted(KEEP_DEFINITIONS.keys() - unreferenced() - unentered) == []
