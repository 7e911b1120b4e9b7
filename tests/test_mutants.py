"""Mutation table: each known mutant is killed by a named criterion.

A row is a source patch.  It is applied to a copy of ``src/`` under a
temporary directory, and the named criterion runs on that copy in a fresh
interpreter.  A kill is a ``violated`` status; an ``error`` (the mutant
crashed the criterion) does not count.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import json, sys
from starhom import suite
result = getattr(suite, sys.argv[1])(0, "small")
print(json.dumps({"status": result.status, "cases": [d.get("case") for d in result.details]}))
"""

# (id, module, original text, mutated text, criterion, a failure case it must report)
MUTANTS = [
    (
        "diffop-binomial",
        "rees.py",
        "w *= comb(ad[i], k) * perm(bx[i], k)",
        "w *= comb(ad[i], k) * comb(bx[i], k)",
        "check_rees_structure",
        None,
    ),
    (
        "weyl-ordered-factors-swapped",
        "weyl.py",
        "moyal_star(x_part, xi_part)",
        "moyal_star(xi_part, x_part)",
        "check_gl_embedding",
        "E11",
    ),
    (
        # every gl(d) value of C08 is i_map's, so its frozen E11 sees the t-power
        "realization-t-power-dropped",
        "fedosov.py",
        "(e[:d], e[d:], -1, q)",
        "(e[:d], e[d:], 0, q)",
        "check_gl_embedding",
        "E11",
    ),
    (
        "moyal-order-two-dropped",
        "weyl.py",
        "row[exp] = row.get(exp, 0) + (w << (top - k))",
        "row[exp] = row.get(exp, 0) + (k != 2) * (w << (top - k))",
        "check_moyal_associativity",
        None,
    ),
    (
        "moyal-binomial-falling",
        "weyl.py",
        "left = comb(b, alpha) * perm(c, alpha)",
        "left = perm(b, alpha) * perm(c, alpha)",
        "check_moyal_associativity",
        None,
    ),
    (
        "commutator-keeps-even-orders",
        "weyl.py",
        "factor = [1 - sign ** k for k in range(top + 1)]",
        "factor = [1 + sign ** k for k in range(top + 1)]",
        "check_bracket_normalization",
        None,
    ),
    (
        "commutator-factor-two-dropped",
        "weyl.py",
        "factor = [1 - sign ** k for k in range(top + 1)]",
        "factor = [(1 - sign ** k) // 2 for k in range(top + 1)]",
        "check_bracket_normalization",
        None,
    ),
    (
        # the connection brackets are operator commutators and make no Poly
        # product; the characteristic-class series do
        "poly-product-right-denominator-dropped",
        "series.py",
        "den = lden * rden",
        "den = lden",
        "check_rr_identity",
        None,
    ),
    (
        # the vector-field bracket of the flatness recursion becomes zero
        "diffop-bracket-operands-swapped",
        "rees.py",
        "diffop_mul(self, other) - diffop_mul(other, self)",
        "diffop_mul(self, other) - diffop_mul(self, other)",
        "check_fedosov_curvature",
        "kazhdan-flatness",
    ),
    (
        # the one exterior derivative: C06 reads it through de_rham
        "form-d-exponent-factor-dropped",
        "hkr.py",
        "val * (sign * e)",
        "val * sign",
        "check_hkr_chain_map",
        None,
    ),
    (
        # and C09 through the connection forms.  Both sides of the lift
        # identity take the one derivative, so the sign flips on both and
        # only the frozen value sees it
        "form-d-sign-on-the-right",
        "hkr.py",
        "_merge_sign((i,), widx)",
        "_merge_sign(widx, (i,))",
        "check_fedosov_curvature",
        "frozen-value",
    ),
    (
        # the flatness check reads one fiber degree the recursion never made
        "field-cut-one-degree-high",
        "fedosov.py",
        "lambda m: m <= k + 1",
        "lambda m: m <= k + 2",
        "check_fedosov_curvature",
        "kazhdan-flatness",
    ),
    (
        "half-square-skips-next-term",
        "fedosov.py",
        "combinations(self.terms.items(), 2)",
        "((s, t) for n, s in enumerate(self.terms.items()) for t in list(self.terms.items())[n + 2:])",
        "check_fedosov_curvature",
        "kazhdan-flatness",
    ),
    (
        "chain-slot-zero-flag-dropped",
        "hochschild.py",
        "key = (id(a), first)",
        "key = id(a)",
        "check_hochschild_identities",
        None,
    ),
    (
        "half-c1-one-third",
        "charclass.py",
        'Poly.gen(gens, "c1") * Fraction(1, 2)',
        'Poly.gen(gens, "c1") * Fraction(1, 3)',
        "check_rr_identity",
        None,
    ),
    (
        # only the last subset T with a nonzero S[sort(nu - 1_T)] counts
        "elementary-product-one-subset",
        "charclass.py",
        "c += s.get(tuple(sorted(mu, reverse=True)), 0)",
        "c = s.get(tuple(sorted(mu, reverse=True)), 0) or c",
        "check_rr_identity",
        None,
    ),
    (
        # unit weights: c_i counts as degree 1 in the cut and the parts
        "class-series-unit-weights",
        "charclass.py",
        "sum(map(mul, e, weights))",
        "sum(e)",
        "check_rr_identity",
        None,
    ),
    (
        "hkr-laplace-sign-flipped",
        "hkr.py",
        "det = det - term if k % 2 else det + term",
        "det = det + term if k % 2 else det - term",
        "check_hkr_chain_map",
        None,
    ),
    (
        "zero-test-coefficient-denominators-ignored",
        "hochschild.py",
        "c = [(e, q.numerator * (cden // q.denominator)) for e, q in coeff.coeffs.items()]",
        "c = [(e, q.numerator) for e, q in coeff.coeffs.items()]",
        "check_hochschild_identities",
        None,
    ),
    (
        "zero-test-monomial-t-powers-dropped",
        "hochschild.py",
        "[(q.numerator * (sden // q.denominator), m, key) for q, m, key in mono]",
        "[(q.numerator * (sden // q.denominator), 0, key) for q, m, key in mono]",
        "check_hochschild_identities",
        None,
    ),
    (
        # only C05 subtracts chains: it compares phi_E's image with phi_A
        # by ==; the other chain criteria add and test is_zero
        "chain-difference-sign-dropped",
        "hochschild.py",
        "(-coeff if negate else coeff, ",
        "(coeff, ",
        "check_chain_map_compatibility",
        None,
    ),
    (
        "chain-merge-sum-dropped",
        "hochschild.py",
        "coeff, stored = hit[0] + coeff, hit[1]",
        "coeff, stored = coeff, hit[1]",
        "check_hochschild_identities",
        None,
    ),
    (
        "cyclic-B-rotation-sign",
        "hochschild.py",
        "signed[(p * i) % 2]",
        "signed[i % 2]",
        "check_hochschild_identities",
        None,
    ),
]


def run_criterion(src: Path, criterion: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", RUN, criterion],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "module,original,mutated,criterion,case",
    [row[1:] for row in MUTANTS],
    ids=[row[0] for row in MUTANTS],
)
def test_mutant_is_killed(tmp_path, module, original, mutated, criterion, case):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "starhom" / module
    text = path.read_text()
    assert text.count(original) == 1, f"patch site not unique in {module}"
    path.write_text(text.replace(original, mutated))
    got = run_criterion(src, criterion)
    assert got["status"] == "violated"
    if case is not None:
        assert case in got["cases"]


@pytest.mark.parametrize("criterion", sorted({row[4] for row in MUTANTS}))
def test_unpatched_copy_verifies(criterion):
    assert run_criterion(SRC, criterion)["status"] == "verified"
