"""The acceptance gate: every criterion of the verification suite, run at
its stated size and exact tolerance (which is always: none).

One pass/fail line is printed per criterion.
"""

import subprocess

import pytest

from starhom import suite
from starhom.suite import VERIFIED, run_suite

CRITERIA = [
    ("C01", "moyal associativity on 100 seeded triples, deg <= 4, d <= 2, trunc 6"),
    ("C02", "[x_i, xi_j] = -t delta_ij and same-block brackets vanish, d <= 3"),
    ("C03", "b^2 = B^2 = bB+Bb = 0 on 200 seeded chains over poly and weyl"),
    ("C04", "b(phi_E(d)) = 0 and b(phi_A(d)) = 0 for d = 1, 2"),
    ("C05", "localized phi_E(d) maps to phi_A(d) under the weyl chain map, d = 1, 2"),
    ("C06", "hkr b = 0, hkr B = d hkr on 200 chains; hkr(1,x,y) = dx^dy/2 bit-exact"),
    ("C07", "a-hat * exp(c1/2) = todd: per-root to degree 8, c-basis d <= 3 to degree 4"),
    ("C08", "i(E11) = z xi / t - 1/2 and gl-embedding brackets on 50 random pairs"),
    ("C09", "lifted curvature = (1/2) dz2^dz1 central; flatness to fiber degree 4"),
    ("C10", "curvature unchanged under the shift conjugation, fiber trunc 3, d = 1"),
    ("C11", "sigma multiplicative, iota injective with round trip, order bounds; 100 pairs"),
    (
        "C12",
        "battery bytes equal in a child under another hash seed; "
        "kernel sign mutation breaks criteria 1-2",
    ),
]


@pytest.fixture(scope="module")
def report():
    return run_suite(seed=0, scale="small")


@pytest.mark.parametrize("cid,label", CRITERIA, ids=[c for c, _ in CRITERIA])
def test_criterion(report, cid, label):
    check = next(c for c in report.checks if c.id == cid)
    status = "PASS" if check.status == VERIFIED else "FAIL"
    print(f"{status} {cid}: {label}")
    assert check.status == VERIFIED, check.details


def test_overall_verdict(report):
    print(f"overall: {report.status} (seed {report.seed}, scale {report.scale})")
    assert report.status == VERIFIED


def test_rerun_in_this_process_gives_the_same_bytes(report, capsysbinary, monkeypatch):
    """C12's child cannot see state that one pass leaks into the next inside
    one process, such as a module-level memo.  So the child's entry point
    reruns the battery here, after the fixture's first pass, and must print
    that pass's bytes without starting a process."""

    def no_process(*args, **kwargs):
        raise AssertionError("the battery pass started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    suite._print_battery(0, "small")
    first_pass = [c for c in report.checks if c.id != "C12"]
    assert capsysbinary.readouterr().out == suite._battery_bytes(0, "small", first_pass)
