"""Seeded inputs of the benchmark, built with the standard library alone.

The documents follow the JSON format that ``starhom.serialize`` reads, so
the CLI receives them the way a user would hand them over.  Nothing here
imports ``starhom``: the parent process of the benchmark never loads the
code under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KNOWN_ANSWERS = HERE / "known_answers.json"

# Digests are recorded for seeds 0..KNOWN_SEEDS-1; a larger benchmark seed
# maps onto that range, so every run has a known answer to check.
KNOWN_SEEDS = 128


def known_seed(seed: int) -> int:
    return seed % KNOWN_SEEDS


def _frac(rng: random.Random) -> str:
    return f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.choice((1, 1, 2, 3))}"


def _poly(rng: random.Random, gens, terms: int, max_deg: int) -> dict:
    """A polynomial document with no constant term, so chain slots survive
    the reduced normalization."""
    out = []
    for _ in range(terms):
        exp = [0] * len(gens)
        for _ in range(rng.randint(1, max_deg)):
            exp[rng.randrange(len(gens))] += 1
        out.append({"exp": exp, "coef": _frac(rng)})
    return {"gens": list(gens), "terms": out}


def _chain(rng: random.Random, algebra: str, gens, degree: int, words: int, max_deg: int) -> dict:
    doc = {
        "algebra": algebra,
        "degree": degree,
        "terms": [
            {
                "coef": _frac(rng),
                "word": [_poly(rng, gens, 2, max_deg) for _ in range(degree + 1)],
            }
            for _ in range(words)
        ],
    }
    if algebra != "poly":
        doc["dim"] = len(gens) // 2
    return doc


def documents(seed: int) -> dict[str, str]:
    """Input documents of the seeded CLI commands, as JSON text."""
    s = known_seed(seed)

    def rng(name):
        return random.Random(f"{s}:{name}")

    weyl2 = ("x1", "x2", "xi1", "xi2")
    weyl1 = ("x1", "xi1")
    r = rng("star")
    star = {"f": _poly(r, weyl2, 5, 4), "g": _poly(r, weyl2, 5, 4)}
    return {
        "star": json.dumps(star),
        "hb": json.dumps(_chain(rng("hb"), "weyl", weyl1, 3, 5, 3)),
        "hB": json.dumps(_chain(rng("hB"), "weyl", weyl1, 3, 5, 3)),
        "hkr": json.dumps(_chain(rng("hkr"), "poly", ("x", "y", "z"), 3, 6, 2)),
        # a chain document cut off mid-array: the CLI must answer 2
        "malformed": '{"algebra": "weyl", "degree": 1, "dim": 1, "terms": [',
    }


# (name, CLI arguments, input document name or None, expected exit code).
# The "{doc}" placeholder becomes the path of the written document.
CLI_COMMANDS = [
    ("star", ["star", "--dim", "2", "--trunc-t", "8", "--json", "{doc}"], "star", 0),
    ("hb", ["hb", "--dim", "1", "--trunc-t", "8", "--json", "{doc}"], "hb", 0),
    ("hB", ["hB", "--dim", "1", "--trunc-t", "8", "--json", "{doc}"], "hB", 0),
    ("hkr", ["hkr", "--json", "{doc}"], "hkr", 0),
    ("verify-cycle", ["verify-cycle", "--chain", "phi_E", "--dim", "2"], None, 0),
    ("charclass", ["charclass", "--class", "todd", "--dim", "3", "--max-deg", "4",
                   "--basis", "chern"], None, 0),
    ("fedosov", ["fedosov", "--check", "flat", "--dim", "2", "--fiber-trunc", "4"], None, 0),
    ("rees", ["rees", "--check", "to-weyl"], None, 0),
    ("malformed", ["hb", "--dim", "1", "--json", "{doc}"], "malformed", 2),
    ("suite-mutated", ["suite", "--mutate-moyal-sign"], None, 1),
]

# commands whose output depends on the seed; the others have one answer
SEEDED_COMMANDS = ("star", "hb", "hB", "hkr")


def cli_argv(args: list[str], doc_path: Path | None) -> list[str]:
    return [str(doc_path) if a == "{doc}" else a for a in args]
