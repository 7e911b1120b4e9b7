"""Every definition and option of ``starhom`` has a production reader.

Three ``ast`` audits of the source, each against the same production
code, ``CALLERS``: ``src/starhom`` other than ``__init__.py``, and
``perfbench/``.  Tests and the package's exports do not count.

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
- **CLI options.**  Every option of every ``starhom`` subcommand must be
  read as ``args.<dest>`` by the subcommand's handler, or by a ``cli.py``
  function that the handler (or such a function) passes ``args`` to.  An
  option that nothing reads is accepted and silently ignored.

Each audit has a ``KEEP_*`` table of its exceptions, each with the reason
it stays, and a second test that fails when an exception no longer is one.
"""

import ast
from collections import Counter
from pathlib import Path

from starhom import cli

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


def _reads(functions: dict[str, ast.FunctionDef], name: str, param: str, seen: set) -> set[str]:
    """The ``param.<attr>`` names that ``name`` reads, itself or through a
    ``cli.py`` function it passes ``param`` to."""
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    out = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == param:
            out.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
            callee = functions[node.func.id]
            params = [a.arg for a in callee.args.args]
            for pos, arg in enumerate(node.args[: len(params)]):
                if getattr(arg, "id", None) == param:
                    out |= _reads(functions, callee.name, params[pos], seen)
    return out


def unread_options() -> set[tuple[str, str]]:
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    (commands,) = [
        a for a in cli.build_parser()._actions if a.choices and a.dest == "command"
    ]
    out = set()
    for command, parser in commands.choices.items():
        handler = functions[parser.get_default("fn").__name__]
        reads = _reads(functions, handler.name, handler.args.args[0].arg, set())
        out |= {
            (command, action.dest)
            for action in parser._actions
            if action.option_strings and action.dest != "help" and action.dest not in reads
        }
    return out


def test_every_cli_option_is_read_by_its_handler():
    assert sorted(unread_options() - KEEP_OPTIONS.keys()) == []


def test_keep_list_names_only_unread_options():
    assert sorted(KEEP_OPTIONS.keys() - unread_options()) == []

