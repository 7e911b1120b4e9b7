"""Every definition and option of ``starhom`` has a production reader.

Two ``ast`` audits of the source, each against the same production
code, ``CALLERS``: ``src/starhom`` other than ``__init__.py``, and
``perfbench/``.  Tests and the package's exports do not count.  A third
audit runs the command line.

- **Parameters.**  A parameter with a default value, of a module-level
  function or a method in ``src/starhom``, must be passed by some call in
  ``CALLERS``, by keyword or in its position.  Calls are matched by
  function or attribute name, and a class name matches its ``__init__``.
  A parameter that only tests set is a test-only hook in a production
  signature.
- **Definitions.**  Every module-level function and class, and every
  method whose name is not a dunder, in ``src/starhom`` must be referenced
  by name (a bare name or an attribute) somewhere in ``CALLERS`` outside
  its own body.  A definition that only tests reach is dead code.
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
it stays, and a second test that fails when an exception no longer is one.
"""

import argparse
import ast
import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from starhom import cli
from starhom.serialize import DecodeError
from starhom.series import SeriesError

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

# where: reason the definition stays although nothing in CALLERS refers to it
KEEP_DEFINITIONS = {
    "series.TSeries.set_t_zero": (
        "the planned trace-cycle normalization criterion (C13 in ROADMAP.md) maps "
        "each slot to its t^0 coefficient"
    ),
}

# (subcommand, dest): reason the option stays although its handler never reads it
KEEP_OPTIONS: dict[tuple[str, str], str] = {}


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
    """(where, name, node) per module-level function and class and per
    method whose name is not a dunder."""
    out = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{path.stem}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{fn.name}", fn.name, fn)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    return out


def unreferenced() -> set[str]:
    total = sum(map(_names, _caller_trees()), Counter())
    return {
        where for where, name, node in definitions() if total[name] == _names(node)[name]
    }


def test_every_definition_is_referenced_outside_its_body():
    assert sorted(unreferenced() - KEEP_DEFINITIONS.keys()) == []


def test_keep_list_names_only_unreferenced_definitions():
    assert sorted(KEEP_DEFINITIONS.keys() - unreferenced()) == []


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
