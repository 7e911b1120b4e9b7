"""The verification suite: every acceptance check as replayable data.

Each criterion draws its corpus from random.Random(f"{seed}:{id}"), so a
report is reproduced byte-for-byte by rerunning with the same seed.  All
comparisons are exact rational equality inside the stated truncation
windows; no tolerances exist anywhere.

The last criterion checks that the bytes hold across processes and hash
seeds, and guards against vacuous checks.  ``run_suite`` starts a second
pass of the battery in a child interpreter under another PYTHONHASHSEED
before it runs the first pass, so the two run side by side; C12 compares
the child's battery bytes with the first pass's.  It also reruns C01 and
C02 on ``_flipped_star`` and ``_flipped_commutator``, the Moyal kernel with
its sign flipped, defined here beside the controls, and demands that one of
them fails.  C02 does: the flipped product is commutative.

A criterion that raises does not end the run: it gets status "error" with
the exception's type and message, and the report status is "error".

The command-line checks call the identities defined here (the connection
identities on a ``ChartConnection`` and the rows of ``REES_IDENTITIES``),
so each check has one definition.  Every check result comes from
``result`` and every report, with its status, from ``Report``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import charclass, fedosov, hkr
from .corpus import random_chain, random_poly, random_rees, random_weyl
from .hochschild import (
    AlgebraMorphism,
    HochschildChain,
    diff_B,
    diff_b,
    induced_chain_map,
    phi_A,
    phi_E,
    poly_handle,
    rees_handle,
    weyl_handle,
)
from .rees import DiffOp, OpSeries, localized_to_weyl, rees_sigma
from .series import Poly
from .weyl import (
    WeylElement,
    _kernel,
    lie_bracket,
    moyal_star,
    star_commutator,
    weyl_gens,
)

VERIFIED = "verified"
VIOLATED = "violated"
ERROR = "error"


class CheckResult:
    __slots__ = ("id", "name", "status", "details", "precision")

    def __init__(self, id: str, name: str, status: str, details: list, precision: dict):
        self.id, self.name, self.status = id, name, status
        self.details, self.precision = details, precision

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "status": self.status,
            "details": self.details,
            "precision": self.precision,
        }


class Report:
    """The report of ``checks``: error if any check errored, else violated
    if any was violated, else verified."""

    __slots__ = ("status", "seed", "scale", "checks")

    def __init__(self, seed: int, scale: str, checks: list):
        statuses = {c.status for c in checks}
        self.status = ERROR if ERROR in statuses else VIOLATED if VIOLATED in statuses else VERIFIED
        self.seed, self.scale, self.checks = seed, scale, checks

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "seed": self.seed,
            "scale": self.scale,
            "checks": [c.to_json_dict() for c in sorted(self.checks, key=lambda c: c.id)],
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2).encode()


def result(cid, name, failures, precision) -> CheckResult:
    """A criterion's result: verified exactly when it has no failures."""
    return CheckResult(cid, name, VERIFIED if not failures else VIOLATED, failures, precision)


def _rng(seed: int, cid: str) -> random.Random:
    return random.Random(f"{seed}:{cid}")


# -- criteria -------------------------------------------------------------------


def check_moyal_associativity(seed: int, scale: str, mutate: bool = False) -> CheckResult:
    cid, name = "C01", "moyal-associativity"
    rng = _rng(seed, cid)
    trunc = 6
    count = 100 if scale == "small" else 300
    star = _flipped_star if mutate else moyal_star
    failures = []
    for n in range(count):
        d = rng.choice((1, 2))
        f, g, h = (
            WeylElement.from_poly(random_poly(rng, weyl_gens(d), max_degree=4, terms=3), trunc)
            for _ in range(3)
        )
        lhs = star(star(f, g), h)
        rhs = star(f, star(g, h))
        if not (lhs - rhs).is_zero():
            failures.append(
                {"case": n, "dim": d, "left": repr(lhs), "right": repr(rhs)}
            )
    return result(cid, name, failures, {"trunc_t": trunc, "triples": count})


def check_bracket_normalization(seed: int, scale: str, mutate: bool = False) -> CheckResult:
    cid, name = "C02", "star-bracket-normalization"
    commutator = _flipped_commutator if mutate else star_commutator
    failures = []
    for d in (1, 2, 3):
        gens = weyl_gens(d)
        lifts = [WeylElement.from_poly(Poly.gen(gens, g), 4) for g in gens]
        for i in range(d):
            for j in range(d):
                got = commutator(lifts[i], lifts[d + j])
                want = WeylElement.from_poly(
                    Poly.const(gens, -1 if i == j else 0), got.trunc, t_exp=1
                )
                if not (got - want).is_zero():
                    failures.append(
                        {"dim": d, "bracket": f"[x{i+1}, xi{j+1}]", "got": repr(got)}
                    )
        for block in (lifts[:d], lifts[d:]):
            for a, b in itertools.combinations(block, 2):
                got = commutator(a, b)
                if not got.is_zero():
                    failures.append({"dim": d, "bracket": "same-block", "got": repr(got)})
    return result(cid, name, failures, {"trunc_t": 4, "dims": [1, 2, 3]})


def check_hochschild_identities(seed: int, scale: str) -> CheckResult:
    cid, name = "C03", "hochschild-differential-identities"
    rng = _rng(seed, cid)
    per_handle = 100 if scale == "small" else 200
    trunc = 9
    gens3 = ("x", "y", "z")
    ph = poly_handle(gens3)
    wh = weyl_handle(1, trunc=trunc)
    failures = []

    def poly_slot(r):
        return random_poly(r, gens3, max_degree=2, terms=2, nonzero=True)

    def weyl_slot(r):
        return random_weyl(r, 1, trunc, max_degree=2, terms=2)

    for handle, slot in ((ph, poly_slot), (wh, weyl_slot)):
        for n in range(per_handle):
            degree = rng.randint(1, 4)
            c = random_chain(rng, handle, degree, slot)
            b, B = diff_b(c), diff_B(c)
            bb = diff_b(b)
            BB = diff_B(B)
            anti = diff_b(B) + diff_B(b)
            for label, chain in (("b^2", bb), ("B^2", BB), ("bB+Bb", anti)):
                if not chain.is_zero():
                    failures.append(
                        {"case": n, "algebra": handle.kind, "identity": label}
                    )
    return result(
        cid, name, failures, {"chains_per_algebra": per_handle, "trunc_t": trunc}
    )


def cycle_failures(chain) -> list:
    """The cycle check b(chain) = 0, the one behind C04 and ``verify-cycle``."""
    image = diff_b(chain)
    return [] if image.is_zero() else [{"b_image_words": image.term_count()}]


def check_trace_cycles(seed: int, scale: str) -> CheckResult:
    cid, name = "C04", "trace-cycles-are-cycles"
    failures = []
    for d in (1, 2):
        for label, chain in (("phi_E", phi_E(d)), ("phi_A", phi_A(d))):
            failures += [{"dim": d, "cycle": label, **f} for f in cycle_failures(chain)]
    return result(cid, name, failures, {"dims": [1, 2], "words_d2": 24})


def localization_morphism(dim: int) -> AlgebraMorphism:
    """The algebra map x -> x, t d -> xi, t -> t on the Laurent model, as a
    chain map; scalars keep their t-powers below 3, the window of phi_A."""
    trunc = 3
    return AlgebraMorphism(
        source=rees_handle(dim),
        target=weyl_handle(dim, trunc=trunc, localized=True),
        element_map=lambda s: localized_to_weyl(s, trunc=trunc),
    )


def check_chain_map_compatibility(seed: int, scale: str) -> CheckResult:
    cid, name = "C05", "trace-cycle-chain-map-compatibility"
    failures = []
    for d in (1, 2):
        image = induced_chain_map(localization_morphism(d), phi_E(d))
        if image != phi_A(d):
            failures.append({"dim": d, "note": "image of phi_E differs from phi_A"})
    return result(cid, name, failures, {"dims": [1, 2], "trunc_t": 3})


def check_hkr_chain_map(seed: int, scale: str) -> CheckResult:
    cid, name = "C06", "hkr-chain-map"
    rng = _rng(seed, cid)
    count = 200 if scale == "small" else 400
    gens = ("x", "y", "z")
    ph = poly_handle(gens)
    failures = []
    x, y, one = Poly.gen(gens, "x"), Poly.gen(gens, "y"), Poly.const(gens, 1)
    normalization = hkr.hkr_map(HochschildChain.single(ph, (one, x, y)))
    want = hkr.DForm.d_gen(gens, 0) * hkr.DForm.d_gen(gens, 1) * Fraction(1, 2)
    if normalization != want:
        failures.append({"case": "normalization", "got": repr(normalization)})

    def slot(r):
        return random_poly(r, gens, max_degree=2, terms=2, nonzero=True)

    for n in range(count):
        degree = rng.randint(1, 4)
        c = random_chain(rng, ph, degree, slot)
        if not hkr.hkr_map(diff_b(c)).is_zero():
            failures.append({"case": n, "identity": "hkr b = 0"})
        if hkr.hkr_map(diff_B(c)) != hkr.de_rham(hkr.hkr_map(c)):
            failures.append({"case": n, "identity": "hkr B = d hkr"})
    return result(cid, name, failures, {"chains": count, "variables": 3})


def check_rr_identity(seed: int, scale: str) -> CheckResult:
    cid, name = "C07", "todd-equals-ahat-times-exp-half-c1"
    failures = []
    rep1 = charclass.rr_identity_check(1, 8)
    if not rep1.equal:
        failures.append({"dim": 1, "max_deg": 8, "mismatches": len(rep1.mismatches)})
    for d in (1, 2, 3):
        rep = charclass.rr_identity_check(d, 4)
        if not rep.equal:
            failures.append({"dim": d, "max_deg": 4, "mismatches": len(rep.mismatches)})
    cn = charclass.chern_names(3)
    c1, c2 = Poly.gen(cn, "c1"), Poly.gen(cn, "c2")
    td = charclass.to_chern_basis(charclass.todd(3, 3))
    frozen = {
        1: c1 * Fraction(1, 2),
        2: (c1 * c1 + c2) * Fraction(1, 12),
        3: c1 * c2 * Fraction(1, 24),
    }
    for deg, want in frozen.items():
        got = td.degree_part(deg)
        if got != want:
            failures.append({"todd_degree": 2 * deg, "got": repr(got), "want": repr(want)})
    return result(cid, name, failures, {"per_root_degree": 8, "c_basis_degree": 4})


def check_gl_embedding(seed: int, scale: str) -> CheckResult:
    cid, name = "C08", "gl-embedding-with-trace-correction"
    rng = _rng(seed, cid)
    pairs = 50 if scale == "small" else 150
    failures = []

    def gl(a, d, trunc):
        """(a_ij) in (1/t)W through the lift's own map, i_map on linear fields."""
        return fedosov.i_map(fedosov.gl_to_vf(a, d), trunc)

    gens = fedosov.fiber_weyl_names(1)
    got = gl([[1]], 1, 6)
    want = WeylElement(
        Poly.zero(gens),
        {-1: Poly.monomial(gens, (1, 1), 1), 0: Poly.const(gens, Fraction(-1, 2))},
        -1,
        6,
    )
    if not (got - want).is_zero():
        failures.append({"case": "E11", "got": repr(got)})

    def rmat(r):
        return [[r.randint(-4, 4) for _ in range(2)] for _ in range(2)]

    for n in range(pairs):
        a, b = rmat(rng), rmat(rng)
        ab_minus_ba = [
            [
                sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        lhs = lie_bracket(gl(a, 2, 6), gl(b, 2, 6))
        rhs = gl(ab_minus_ba, 2, 5)
        if not (lhs - rhs).is_zero():
            failures.append({"case": n, "a": a, "b": b})
    return result(cid, name, failures, {"pairs": pairs, "trunc_t": 6})


def default_chart(d: int) -> tuple[tuple, dict]:
    """The built-in chart ``(base, a0)``: coordinates z1..zd and the
    torsion-free connection form a0 = z_min(2,d) dz1 (x) E_11, a matrix
    1-form {wedge index: d x d matrix of base polynomials}."""
    base = tuple(f"z{i}" for i in range(1, d + 1))
    mat = [[Poly.zero(base)] * d for _ in range(d)]
    mat[0][0] = Poly.gen(base, base[min(1, d - 1)])
    return base, {(0,): mat}


class ChartConnection:
    """A chart's connection form, assembled to a flat connection through
    fiber degree k and lifted into (1/t)W with the half-trace correction
    inside the window t_trunc.  Each piece is built on first use and kept,
    so identities that share a connection build it once."""

    def __init__(self, chart, k: int, t_trunc: int):
        self.base, self.a0 = chart
        self.dim, self.k, self.t_trunc = len(self.base), k, t_trunc

    @functools.cached_property
    def assembled(self) -> fedosov.LieValuedForm:
        vf = fedosov.matrix_form_to_vf(self.a0, self.base, self.dim)
        return fedosov.kazhdan_assemble(vf, self.k).total()

    @functools.cached_property
    def lifted(self) -> fedosov.LieValuedForm:
        half_trace = fedosov.half_trace_form(
            self.a0, self.base, self.dim, t_trunc=self.t_trunc
        )
        return fedosov.lift_connection(self.assembled, half_trace, t_trunc=self.t_trunc)

    @functools.cached_property
    def lifted_curvature(self) -> fedosov.LieValuedForm:
        return fedosov.curvature(self.lifted).fiber_truncate(self.k)


def kazhdan_flatness(conn: ChartConnection) -> list:
    """The assembled connection is flat through fiber degree k."""
    residue = fedosov.curvature(conn.assembled).fiber_truncate(conn.k)
    return [] if residue.is_zero() else [{"case": "kazhdan-flatness", "residue": repr(residue)}]


def lift_curvature(conn: ChartConnection) -> list:
    """The lift's curvature is the central form (1/2) d(tr a0).  The expected
    value comes from the matrix trace through ``hkr.de_rham``, not from the
    half-trace form that the lift adds."""
    trace = fedosov.trace_form(conn.a0, conn.base, conn.dim)
    want = fedosov.central_scalar_form(
        hkr.de_rham(trace) * Fraction(1, 2), conn.dim, t_trunc=conn.t_trunc
    )
    got = conn.lifted_curvature
    if got == want:
        return []
    return [{"case": "lift-curvature", "got": repr(got), "want": repr(want)}]


def psi_invariance(conn: ChartConnection) -> list:
    """On the cotangent chart the shift conjugation Psi moves the lift but
    keeps its curvature, which is central."""
    cotangent = conn.base + tuple(f"xi{i}" for i in range(1, conn.dim + 1))
    extended = fedosov.extend_base(conn.lifted, cotangent)
    conjugated = fedosov.psi_conjugate(extended, conn.k, conn.dim, t_trunc=conn.t_trunc)
    before, after = fedosov.curvature(extended), fedosov.curvature(conjugated)
    failures = []
    if before != after:
        failures.append({"case": "curvature", "before": repr(before), "after": repr(after)})
    if conjugated == extended:
        failures.append({"case": "conjugation-acts", "note": "psi left the connection fixed"})
    return failures


def check_fedosov_curvature(seed: int, scale: str) -> CheckResult:
    cid, name = "C09", "fedosov-lift-curvature-identity"
    conn = ChartConnection(default_chart(2), 4, 8)
    failures = kazhdan_flatness(conn) + lift_curvature(conn)
    volume = hkr.DForm.d_gen(conn.base, 0) * hkr.DForm.d_gen(conn.base, 1)
    frozen = fedosov.central_scalar_form(volume * Fraction(-1, 2), 2, t_trunc=8)
    if conn.lifted_curvature != frozen:
        failures.append({"case": "frozen-value", "got": repr(conn.lifted_curvature)})
    return result(cid, name, failures, {"fiber_trunc": 4, "trunc_t": 8})


def check_psi_invariance(seed: int, scale: str) -> CheckResult:
    cid, name = "C10", "psi-conjugation-preserves-curvature"
    failures = psi_invariance(ChartConnection(default_chart(1), 3, 10))
    return result(cid, name, failures, {"fiber_trunc": 3, "trunc_t": 10})


def _associates_with_x1(a, b, ab) -> bool:
    """(ab) x1 == a (b x1), with x1 the grade-0 generator: this sees a wrong
    Leibniz coefficient in ``diffop_mul`` that the other rows miss."""
    x1 = OpSeries.from_op(DiffOp.x(a.dim, 1))
    return ab * x1 == a * (b * x1)


# one row per identity on a pair (a, b) of Rees elements, given ab = a * b
REES_IDENTITIES = {
    "sigma multiplicative": lambda a, b, ab: rees_sigma(ab) == rees_sigma(a) * rees_sigma(b),
    "order bound": lambda a, b, ab: all(p >= 0 and op.order() <= p for p, op in ab.coeffs.items()),
    "associative": _associates_with_x1,
    "to-weyl": lambda a, b, ab: (
        localized_to_weyl(ab, trunc=10)
        - moyal_star(localized_to_weyl(a, trunc=10), localized_to_weyl(b, trunc=10))
    ).is_zero(),
}


def rees_failures(seed: int, cid: str, pairs: int, rows) -> list:
    """Run the named rows of REES_IDENTITIES on ``pairs`` seeded pairs."""
    rng = _rng(seed, cid)
    failures = []
    for n in range(pairs):
        d = rng.choice((1, 2))
        a, b = random_rees(rng, d), random_rees(rng, d)
        ab = a * b
        failures += [
            {"case": n, "identity": row} for row in rows if not REES_IDENTITIES[row](a, b, ab)
        ]
    return failures


def check_rees_structure(seed: int, scale: str) -> CheckResult:
    cid, name = "C11", "rees-ring-structure-maps"
    pairs = 100 if scale == "small" else 200
    # the Rees -> Weyl row stays out, so the report bytes stay as recorded;
    # it costs about 0.2 s per 100 pairs, so time is not what keeps it out
    rows = [row for row in REES_IDENTITIES if row != "to-weyl"]
    return result(cid, name, rees_failures(seed, cid, pairs, rows), {"pairs": pairs})


BATTERY = [
    check_moyal_associativity,
    check_bracket_normalization,
    check_hochschild_identities,
    check_trace_cycles,
    check_chain_map_compatibility,
    check_hkr_chain_map,
    check_rr_identity,
    check_gl_embedding,
    check_fedosov_curvature,
    check_psi_invariance,
    check_rees_structure,
]


def _guarded(cid: str, fn, *args, **kwargs) -> CheckResult:
    """Run one criterion.  An exception becomes an ``error`` result that
    names its type and message, so the rest of the report is still built."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        failure = {"exception": type(exc).__name__, "message": str(exc)}
        return CheckResult(cid, fn.__name__, ERROR, [failure], {})


def _run_battery(seed: int, scale: str) -> list[CheckResult]:
    return [_guarded(f"C{n:02d}", fn, seed, scale) for n, fn in enumerate(BATTERY, 1)]


def _print_battery(seed: int, scale: str) -> None:
    """The whole work of the child interpreter: one battery pass, its bytes
    to stdout.  It never reaches C12, so it starts no process."""
    sys.stdout.buffer.write(Report(seed, scale, _run_battery(seed, scale)).to_json_bytes())


def _start_second_pass(seed: int, scale: str):
    """Start ``_print_battery`` in a child interpreter, with this package's
    root first on its import path and a hash seed other than this
    process's: its PYTHONHASHSEED + 1 when that is a number, else 0.
    Returns the ``Popen``, or the exception that kept the child from
    starting, which C12 raises."""
    import subprocess  # here, so that importing the package does not load it

    own = os.environ.get("PYTHONHASHSEED", "")
    hash_seed = (int(own) + 1) % 2**32 if own.isdigit() else 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    entry = _print_battery.__name__
    code = (
        f"import sys; sys.path.insert(0, {root!r}); "
        f"from starhom.suite import {entry}; {entry}({seed!r}, {scale!r})"
    )
    try:
        return subprocess.Popen(
            [sys.executable, "-c", code],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )
    except Exception as exc:
        return exc


def _flipped_star(f: WeylElement, g: WeylElement) -> WeylElement:
    """The star product with the sign of its kernel flipped: the negative
    control's product.  It is symmetric, so it is commutative and still
    associative."""
    return _kernel(f, g, 1, False)


def _flipped_commutator(f: WeylElement, g: WeylElement) -> WeylElement:
    """The commutator of ``_flipped_star``: zero, as that product is
    commutative."""
    return _kernel(f, g, 1, True)


def mutated_controls(seed: int, scale: str) -> list[CheckResult]:
    """C01 and C02 under a sign-flipped product kernel: the negative control."""
    return [
        check_moyal_associativity(seed, scale, mutate=True),
        check_bracket_normalization(seed, scale, mutate=True),
    ]


def check_determinism_and_controls(
    seed: int, scale: str, first_pass: list, second_pass
) -> CheckResult:
    """Run the negative controls, then compare the battery bytes that the
    child ``second_pass`` printed with those of ``first_pass``.  A child
    that could not start, or that exited nonzero, raises, so C12 is an
    error and never verified."""
    cid, name = "C12", "determinism-and-negative-controls"
    controls_vacuous = all(c.status == VERIFIED for c in mutated_controls(seed, "small"))
    if isinstance(second_pass, Exception):
        raise second_pass
    out, err = second_pass.communicate()
    if second_pass.returncode != 0:
        tail = err.decode(errors="replace").strip()[-500:]
        raise ChildProcessError(
            f"second battery pass exited {second_pass.returncode}: {tail}"
        )
    failures = []
    if Report(seed, scale, first_pass).to_json_bytes() != out:
        failures.append({"case": "byte-reproducibility"})
    if controls_vacuous:
        failures.append(
            {"case": "kernel-sign-mutation", "note": "mutated product passed; checks are vacuous"}
        )
    return result(cid, name, failures, {"mutation": "kernel sign flip"})


def run_suite(seed: int = 0, scale: str = "small") -> Report:
    """Run every criterion; deterministic for a fixed seed and scale.  The
    battery's second pass, for C12, runs in a child interpreter beside the
    first; the child is reaped before this returns or raises."""
    if scale not in ("small", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    child = _start_second_pass(seed, scale)
    try:
        checks = _run_battery(seed, scale)
        checks.append(
            _guarded("C12", check_determinism_and_controls, seed, scale, checks, second_pass=child)
        )
    finally:
        if not isinstance(child, Exception):  # reap it, and close its pipes
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()
    return Report(seed, scale, checks)
