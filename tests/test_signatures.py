"""Every option of ``starhom`` has a production caller.

An ``ast`` audit of the source: a parameter with a default value, of a
module-level function, a method or a dataclass field in ``src/starhom``,
must be passed by some call in ``src/`` or ``perfbench/``, by keyword or
in its position.  Calls are matched by function or attribute name, and a
class name matches its ``__init__`` (or its dataclass fields).  A
parameter that only tests set is a test-only hook in a production
signature; ``KEEP`` names the exceptions and why each stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starhom"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# (where, parameter): reason it stays although no production call sets it
KEEP = {
    ("hochschild.HochschildChain.scale", "tpow"): (
        "the trace-cycle normalization criterion scales phi_A(d) by t^d"
    ),
    ("charclass.rr_identity_check", "theta"): (
        "tests pass another theta to show that C07's identity can fail"
    ),
    ("corpus.random_weyl", "max_t"): "the corpus is shared with the tests, which set it",
    ("corpus.random_weyl", "min_t"): "the corpus is shared with the tests, which set it",
    ("corpus.random_chain", "words"): "the corpus is shared with the tests, which set it",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", None) == "dataclass" or getattr(fn, "attr", None) == "dataclass":
            return True
    return False


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
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node.name, *_signature(node, False)))
            elif isinstance(node, ast.ClassDef):
                where = f"{path.stem}.{node.name}"
                if _is_dataclass(node):
                    fields = [
                        s for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    ]
                    names = [s.target.id for s in fields]
                    out.append((where, node.name, names, [s.target.id for s in fields if s.value]))
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        called = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{where}.{fn.name}", called, *_signature(fn, True)))
    return [entry for entry in out if entry[3]]


def production_calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
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
    assert sorted(unpassed() - KEEP.keys()) == []


def test_keep_list_names_only_unpassed_parameters():
    assert sorted(KEEP.keys() - unpassed()) == []

