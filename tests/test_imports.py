"""What ``import starhom.cli`` costs a fresh interpreter beyond the standard
library modules that starhom uses.

Every CLI command starts a new process, so each module that the package
pulls in is paid on every call.  The budget: importing ``starhom.cli``
after the stdlib modules it depends on loads ``starhom.*`` and
``__future__`` and nothing else.  A new stdlib dependency goes on
``STDLIB`` here, on purpose.  ``dataclasses`` (which loads ``inspect``,
``ast``, ``dis``, ``tokenize`` and more) and ``typing`` are ruled out by
name as well, in the source.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every stdlib module that src/starhom imports at module level, besides
# the os and sys of every interpreter
STDLIB = (
    "argparse", "fractions", "json", "random", "itertools", "functools", "math",
    "operator", "bisect", "re",
)
BANNED = {"dataclasses", "typing"}

PROBE = f"""
import sys
import {", ".join(STDLIB)}
before = set(sys.modules)
import starhom.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_only_starhom_beyond_its_stdlib():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = json.loads(out)
    assert "starhom.cli" in added
    foreign = [m for m in added if m != "__future__" and m.split(".")[0] != "starhom"]
    assert foreign == []


def test_no_module_imports_dataclasses_or_typing():
    found = []
    for path in sorted((SRC / "starhom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] in BANNED]
    assert found == []
