"""Connection forms, the flatness recursion, lifts, and conjugation."""

import math
import random
from fractions import Fraction

import pytest

from starhom.fedosov import (
    LieValuedForm,
    TorsionError,
    _ad_series,
    central_scalar_form,
    curvature,
    extend_base,
    fiber_weyl_names,
    gl_to_vf,
    half_trace_form,
    i_map,
    kazhdan_assemble,
    lift_connection,
    matrix_form_to_vf,
    psi_conjugate,
    shift_conjugator,
    tautological_shift_form,
)
from starhom.hkr import DForm
from starhom.rees import DiffOp, op_ring
from starhom.series import Poly, SeriesError, accumulate
from starhom.suite import default_chart
from starhom.weyl import LieElement, WeylElement, lie_bracket

BASE2 = ("z1", "z2")
# the value rings: vector fields and Weyl values over fibers of dimension 1, 2
VF1, VF2 = op_ring(1), op_ring(2)
LIE1, LIE2 = (WeylElement.zero(fiber_weyl_names(d), 8) for d in (1, 2))


def from_entries(base, ring, entries):
    """The form sum_(I, p, v) p dz_I (x) v over entries (I, base Poly p,
    value v), each monomial's coefficient folded into its value."""
    terms = {}
    for widx, bpoly, val in entries:
        for bexp, q in bpoly.terms.items():
            accumulate(terms, (widx, bexp), val * q)
    return LieValuedForm(base, ring, terms)


def field(dim, comps):
    """The vector field sum_j P_j D_j from the components P_j, each given as
    {x-exponent: coefficient}."""
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    terms = {}
    for j, comp in enumerate(comps):
        for exp, q in comp.items():
            accumulate(terms, tuple(exp) + unit[j], Fraction(q))
    return DiffOp(dim, terms)


def components(v):
    """The components P_j of a vector field, as Polys over x_1..x_d."""
    d = v.dim
    names = v.gens[:d]
    return [
        Poly(names, {e[:d]: q for e, q in v.terms.items() if e[d + j]}) for j in range(d)
    ]


def rvf(rng, dim=2, max_deg=2):
    comps = [
        {tuple(rng.randint(0, max_deg) for _ in range(dim)): rng.randint(-3, 3) for _ in range(2)}
        for _ in range(dim)
    ]
    return field(dim, comps)


def fiber_part(v, k):
    """The w-degree-k piece of a field: components homogeneous of degree
    k + 1, so terms x^a D_j of total degree k + 2."""
    return DiffOp(v.dim, {e: q for e, q in v.terms.items() if sum(e) == k + 2})


def is_field(v):
    """Every term of ``v`` carries exactly one D."""
    return all(sum(e[v.dim:]) == 1 for e in v.terms)


class TestVectorFields:
    def test_constant_against_euler(self):
        dz = DiffOp.d(1, 1)
        euler = DiffOp.x(1, 1) * DiffOp.d(1, 1)
        assert dz.bracket(euler) == dz

    def test_constant_fields_commute(self):
        a = DiffOp.d(2, 1)
        b = DiffOp.d(2, 2)
        assert a.bracket(b).is_zero()

    def test_constant_field_lowers_the_degree_exactly(self):
        # the bracket is exact in every degree: nothing of x1^5 D1 is cut
        v = field(1, [{(5,): 1}])
        assert DiffOp.d(1, 1).bracket(v) == field(1, [{(4,): 5}])
        assert v.bracket(DiffOp.d(1, 1)) == field(1, [{(4,): -5}])

    def test_bracket_grading(self):
        rng = random.Random("grading")
        for _ in range(10):
            u = fiber_part(rvf(rng), 1)
            v = fiber_part(rvf(rng), -1)
            br = u.bracket(v)
            assert br == fiber_part(br, 0)

    def test_jacobi(self):
        rng = random.Random("jacobi")
        for _ in range(10):
            u, v, w = rvf(rng), rvf(rng), rvf(rng)
            total = (
                u.bracket(v.bracket(w))
                + v.bracket(w.bracket(u))
                + w.bracket(u.bracket(v))
            )
            assert total.is_zero()

    def test_bracket_equals_truncated_full_products(self):
        """The operator commutator is the bracket of derivations: component
        j is sum_i (u_i d_i v_j - v_i d_i u_j), in every degree, on fields
        with constant, linear and higher terms."""
        rng = random.Random("capped-bracket")
        euler = field(2, [{(1, 0): 1}, {(0, 1): 1}])
        constant = field(2, [{(0, 0): 2}, {(0, 0): -1}])
        for _ in range(10):
            u = rvf(rng, max_deg=4) + euler + constant
            v = rvf(rng, max_deg=4)
            cu, cv = components(u), components(v)
            want = [
                sum(
                    (cu[i] * cv[j].partial(n) - cv[i] * cu[j].partial(n)
                     for i, n in enumerate(u.gens[:2])),
                    Poly.zero(u.gens[:2]),
                )
                for j in range(2)
            ]
            got = u.bracket(v)
            assert type(got) is DiffOp and is_field(got)
            assert components(got) == want
            assert v.bracket(u) == -got


class TestIMap:
    def test_linear_field_with_correction(self):
        gens = fiber_weyl_names(1)
        got = i_map(gl_to_vf([[1]], 1), 8)
        # zh1 * (xih1 / t) = zh1 xih1 / t - 1/2
        want = WeylElement(
            Poly.zero(gens), {-1: Poly.monomial(gens, (1, 1), 1), 0: Poly.const(gens, Fraction(-1, 2))}, -1, 8
        )
        assert (got - want).is_zero()

    def test_constant_field(self):
        gens = fiber_weyl_names(1)
        got = i_map(DiffOp.d(1, 1), 8)
        want = WeylElement.from_poly(Poly.gen(gens, "xih1"), 8, t_exp=-1)
        assert (got - want).is_zero()

    @pytest.mark.parametrize(
        "value", [DiffOp.one(1), DiffOp.d(1, 1) * DiffOp.d(1, 1)], ids=["order-0", "order-2"]
    )
    def test_rejects_values_that_are_not_fields(self, value):
        # 1 and D1^2 would be realized as 1/t and xih1^2/t
        with pytest.raises(SeriesError):
            i_map(value, 8)

    def test_lie_morphism_on_random_fields(self):
        rng = random.Random("imorph")
        for _ in range(12):
            u, v = rvf(rng), rvf(rng)
            lhs = i_map(u.bracket(v), t_trunc=6)
            rhs = lie_bracket(i_map(u, t_trunc=6), i_map(v, t_trunc=6))
            assert (lhs - rhs).is_zero()

    def test_gl_difference_is_central(self):
        # i on linear fields minus the quadratic embedding is a scalar
        gens = fiber_weyl_names(2)
        a = [[1, -2], [4, 3]]
        quad = Poly.zero(gens)
        for i in range(2):
            for j in range(2):
                if a[i][j]:
                    exp = [0] * 4
                    exp[i] += 1
                    exp[2 + j] += 1
                    quad = quad + Poly.monomial(gens, exp, a[i][j])
        std = WeylElement.from_poly(quad, 8, t_exp=-1)
        diff = i_map(gl_to_vf(a, 2), 8) - std
        for p in diff.coeffs.values():
            assert p.is_constant()


def e11_form():
    z2p = Poly.gen(BASE2, "z2")
    return from_entries(BASE2, VF2, [((0,), z2p, gl_to_vf([[1, 0], [0, 0]], 2))])


class TestCurvature:
    def test_zero_connection(self):
        assert curvature(LieValuedForm(BASE2, VF2, {})).is_zero()

    def test_flat_shift_form(self):
        shift = tautological_shift_form(BASE2, 2)
        assert curvature(shift).is_zero()

    def test_gl_example(self):
        got = curvature(e11_form())
        want = from_entries(
            BASE2, VF2, [((0, 1), Poly.const(BASE2, -1), gl_to_vf([[1, 0], [0, 0]], 2))]
        )
        assert got == want

    def test_rejects_two_forms(self):
        two_form = from_entries(
            BASE2, VF2, [((0, 1), Poly.const(BASE2, 1), gl_to_vf([[1, 0], [0, 0]], 2))]
        )
        with pytest.raises(SeriesError):
            curvature(two_form)


def random_one_form(rng, value, cancelling):
    """A 1-form on BASE2 with several terms per wedge index, at different
    base exponents.  With ``cancelling`` it also holds v at (0,) z1 and
    (1,) z2 and w at (0,) z2 and (1,) z1: their brackets at dz1^dz2 z1 z2
    cancel."""
    terms = {}
    for _ in range(5):
        key = ((rng.randint(0, 1),), (rng.randint(0, 2), rng.randint(0, 2)))
        terms[key] = value()
    if cancelling:
        v, w = value(), value()
        terms.update({((0,), (1, 0)): v, ((1,), (0, 1)): v, ((0,), (0, 1)): w, ((1,), (1, 0)): w})
    return terms


def assert_same_terms(got, want):
    """Equal keys and values (``==`` on a Weyl value compares its window)."""
    assert got.terms == want.terms


def random_lie_value(rng):
    gens = fiber_weyl_names(1)
    p = Poly.zero(gens)
    for _ in range(2):
        exp = (rng.randint(0, 2), rng.randint(0, 2))
        p = p + Poly.monomial(gens, exp, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return LieElement(WeylElement.from_poly(p, 4, t_exp=rng.choice((-1, 0))))


class TestHalfSquare:
    """curvature sums (1/2)[A, A] once per unordered pair of terms; these
    compare it with the ordered-pair bracket halved."""

    @pytest.mark.parametrize("kind", ["vf", "lie"])
    def test_equals_halved_bracket(self, kind):
        rng = random.Random(f"half-square-{kind}")
        value = (lambda: rvf(rng)) if kind == "vf" else (lambda: random_lie_value(rng))
        for n in range(12):
            cancelling = n % 2 == 0
            ring = VF2 if kind == "vf" else LIE1
            a = LieValuedForm(BASE2, ring, random_one_form(rng, value, cancelling))
            want = a.exterior_d() + a.bracket(a) * Fraction(1, 2)
            assert_same_terms(curvature(a), want)
            assert_same_terms(a.half_square(), a.bracket(a) * Fraction(1, 2))

    def test_cancelling_brackets_leave_no_term(self):
        rng = random.Random("half-square-cancel")
        a = LieValuedForm(BASE2, VF2, random_one_form(rng, lambda: rvf(rng), True))
        cancelled = LieValuedForm(
            BASE2, VF2, {k: v for k, v in a.terms.items() if k[1] in ((1, 0), (0, 1))}
        )
        assert len(cancelled.terms) == 4
        got = cancelled.half_square()
        assert sorted(got.terms) == [((0, 1), (0, 2)), ((0, 1), (2, 0))]
        assert_same_terms(got, cancelled.bracket(cancelled) * Fraction(1, 2))

    def test_one_value_bracket_per_unordered_pair(self, monkeypatch):
        calls = []
        original = DiffOp.bracket

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(DiffOp, "bracket", counted)
        rng = random.Random("half-square-count")
        for _ in range(6):
            a = LieValuedForm(BASE2, VF2, random_one_form(rng, lambda: rvf(rng), True))
            widx = [w for w, _ in a.terms]
            distinct = sum(
                1 for s in range(len(widx)) for t in range(s + 1, len(widx)) if widx[s] != widx[t]
            )
            calls.clear()
            curvature(a)
            assert len(calls) == distinct

    def test_rejects_forms_of_other_degrees(self):
        value = gl_to_vf([[1, 0], [0, 0]], 2)
        one = Poly.const(BASE2, 1)
        for entries in (
            [((0, 1), one, value)],
            [((), one, value), ((0,), one, value)],
        ):
            form = from_entries(BASE2, VF2, entries)
            with pytest.raises(SeriesError):
                form.half_square()
            with pytest.raises(SeriesError):
                curvature(form)


class TestConnectionFormsAreDForms:
    """A connection form is an ``hkr.DForm`` over its value ring: the form's
    own operations return connection forms, built without the checked
    constructor, and forms over different rings do not mix."""

    @pytest.mark.parametrize("kind", ["vf", "lie"])
    def test_operations_stay_connection_forms(self, kind):
        rng = random.Random(f"dform-{kind}")
        value = (lambda: rvf(rng)) if kind == "vf" else (lambda: random_lie_value(rng))
        ring = VF2 if kind == "vf" else LIE1
        for _ in range(4):
            a = LieValuedForm(BASE2, ring, random_one_form(rng, value, False))
            b = LieValuedForm(BASE2, ring, random_one_form(rng, value, True))
            results = [
                a + b, a - b, -a, a * Fraction(2, 3), a * 0, a.exterior_d(), a.bracket(b),
                a.half_square(), curvature(b), a.fiber_truncate(1), a.map_values(lambda v: v * 2),
            ]
            for got in results:
                assert type(got) is LieValuedForm and type(got.ring) is type(ring)
                assert all(got.terms.values())
                assert got.terms == LieValuedForm(BASE2, got.ring, got.terms).terms
            assert (a * 0).terms == {} and a - a == LieValuedForm(BASE2, ring, {})

    def test_rings_do_not_mix(self):
        vf_form = e11_form()
        lie_form = central_scalar_form(DForm.d_gen(BASE2, 0), 2, t_trunc=8)
        for op in (lambda: vf_form + lie_form, lambda: vf_form.bracket(lie_form)):
            with pytest.raises(SeriesError):
                op()
        with pytest.raises(SeriesError):
            kazhdan_assemble(lie_form, 2)
        with pytest.raises(SeriesError):
            psi_conjugate(extend_base(vf_form, BASE2 + ("xi1", "xi2")), 2, 2, 10)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_fiber_truncate_keeps_x_degree_k_plus_one(self, k):
        # x^a D_j has fiber degree |a| - 1: the cut at k keeps the terms of
        # x-degree up to k + 1 and drops those of x-degree k + 2
        z1 = Poly.gen(BASE2, "z1")

        def form(top):
            fields = (field(2, [{(m, 0): 1}, {(0, m): m + 1}]) for m in range(top + 1))
            value = sum(fields, DiffOp(2, {}))
            return from_entries(BASE2, VF2, [((0,), z1, value), ((0, 1), z1, value)])

        assert form(k + 2).fiber_truncate(k) == form(k + 1)

    def test_central_scalar_form_is_the_form_times_the_unit(self):
        z1 = Poly.gen(BASE2, "z1")
        form = DForm.scalar(BASE2, {(0,): z1 * 3 - 1, (0, 1): z1})
        unit = WeylElement.const(fiber_weyl_names(2), 1, 8)
        got = central_scalar_form(form, 2, t_trunc=8)
        want = from_entries(BASE2, LIE2, [((0,), z1 * 3 - 1, unit), ((0, 1), z1, unit)])
        assert type(got) is LieValuedForm and got == want
        assert got.terms == {key: unit * q for key, q in form.terms.items()}


class TestKazhdan:
    def test_flat_chart(self):
        assembled = kazhdan_assemble(LieValuedForm(BASE2, VF2, {}), 4)
        assert assembled.total() == tautological_shift_form(BASE2, 2)
        assert curvature(assembled.total()).is_zero()

    def test_prescribed_low_degrees(self):
        assembled = kazhdan_assemble(e11_form(), 3)
        assert assembled.components[0] == e11_form()
        assert assembled.components[-1] == tautological_shift_form(BASE2, 2)

    def test_example_produces_first_correction(self):
        assembled = kazhdan_assemble(e11_form(), 3)
        a1 = assembled.components[1]
        want = from_entries(
            BASE2,
            VF2,
            [
                ((0,), Poly.const(BASE2, Fraction(1, 3)), field(2, [{(1, 1): 1}, {}])),
                ((1,), Poly.const(BASE2, Fraction(-1, 3)), field(2, [{(2, 0): 1}, {}])),
            ],
        )
        assert a1 == want

    @pytest.mark.parametrize("deg", [3, 4])
    def test_flatness_to_requested_degree(self, deg):
        assembled = kazhdan_assemble(e11_form(), deg)
        residue = curvature(assembled.total()).fiber_truncate(deg)
        assert residue.is_zero()

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 4), (2, 6), (3, 3)])
    def test_two_more_fiber_degrees_change_no_component(self, d, k):
        # A^(k) is homogeneous of fiber degree k + 1, and running the
        # recursion further changes none of the components already built
        base, a0 = default_chart(d)
        vf = matrix_form_to_vf(a0, base, d)
        low, high = (kazhdan_assemble(vf, n).components for n in (k, k + 2))
        assert set(low) == {j for j in high if j <= k + 1}
        for j, form in low.items():
            assert form.terms == high[j].terms
            assert all(fiber_part(v, j) == v for v in form.terms.values())

    def test_fields_must_match_the_chart(self):
        with pytest.raises(SeriesError):
            kazhdan_assemble(LieValuedForm(BASE2, op_ring(3), {}), 2)

    def test_rejects_values_that_are_not_fields(self):
        # z1 dz1 (x) 1: an order-0 value
        bad = from_entries(BASE2, VF2, [((0,), Poly.gen(BASE2, "z1"), DiffOp.one(2))])
        with pytest.raises(SeriesError):
            kazhdan_assemble(bad, 2)

    def test_torsion_is_detected(self):
        bad = from_entries(
            BASE2, VF2, [((1,), Poly.gen(BASE2, "z1"), gl_to_vf([[1, 0], [0, 0]], 2))]
        )
        with pytest.raises(TorsionError):
            kazhdan_assemble(bad, 2)


class TestLift:
    def test_flat_chart_lift(self):
        assembled = kazhdan_assemble(LieValuedForm(BASE2, VF2, {}), 3)
        lifted = lift_connection(assembled.total(), LieValuedForm(BASE2, LIE2, {}), t_trunc=8)
        gens = fiber_weyl_names(2)
        entries = [
            (
                (i,),
                Poly.const(BASE2, 1),
                LieElement(
                    WeylElement.from_poly(Poly.gen(gens, gens[2 + i]), 8, t_exp=-1)
                ).scale(-1),
            )
            for i in range(2)
        ]
        assert lifted == from_entries(BASE2, LIE2, entries)

    def test_curvature_is_half_trace_curvature(self):
        fiber_deg = 4
        assembled = kazhdan_assemble(e11_form(), fiber_deg)
        mform = {(0,): [[Poly.gen(BASE2, "z2"), Poly.zero(BASE2)],
                        [Poly.zero(BASE2), Poly.zero(BASE2)]]}
        lifted = lift_connection(
            assembled.total(), half_trace_form(mform, BASE2, 2, t_trunc=8), t_trunc=8
        )
        got = curvature(lifted).fiber_truncate(fiber_deg)
        volume = DForm.scalar(BASE2, {(0, 1): Poly.const(BASE2, Fraction(-1, 2))})
        want = central_scalar_form(volume, 2, t_trunc=8)
        assert got == want


def _exp_ad(h, form):
    """exp(ad h)(form), the series psi_conjugate applies: Psi alone, with
    no gauge term."""
    return _ad_series(h, form, lambda n: Fraction(1, math.factorial(n)))


class TestPsi:
    def build_lift(self):
        chart = ("z1",)
        a0 = from_entries(chart, VF1, [((0,), Poly.gen(chart, "z1"), gl_to_vf([[1]], 1))])
        assembled = kazhdan_assemble(a0, 3)
        mform = {(0,): [[Poly.gen(chart, "z1")]]}
        lifted = lift_connection(
            assembled.total(), half_trace_form(mform, chart, 1, t_trunc=10), t_trunc=10
        )
        return extend_base(lifted, ("z1", "xi1"))

    def test_curvature_preserved(self):
        lifted = self.build_lift()
        conjugated = psi_conjugate(lifted, 3, 1, t_trunc=10)
        assert conjugated != lifted
        assert curvature(conjugated) == curvature(lifted)

    def test_central_values_fixed(self):
        chart = ("z1", "xi1")
        cs = central_scalar_form(DForm.scalar(chart, {(0,): Poly.gen(chart, "xi1")}), 1, 10)
        assert _exp_ad(shift_conjugator(chart, 1, 10), cs) == cs

    def test_inverse_series(self):
        rng = random.Random("psi-inv")
        chart = ("z1", "xi1")
        gens = fiber_weyl_names(1)
        for _ in range(8):
            p = Poly.zero(gens)
            for _ in range(3):
                exp = (rng.randint(0, 2), rng.randint(0, 2))
                p = p + Poly.monomial(gens, exp, Fraction(rng.randint(-3, 3)))
            val = LieElement(WeylElement.from_poly(p, 12, t_exp=rng.choice((-1, 0))))
            form = from_entries(chart, LIE1, [((0,), Poly.gen(chart, "xi1"), val)])
            h = shift_conjugator(chart, 1, 10)
            assert _exp_ad(h * -1, _exp_ad(h, form)) == form


class TestMatrixFormHelpers:
    def test_matrix_form_to_vf_matches_entries(self):
        z2 = Poly.gen(BASE2, "z2")
        mform = {(0,): [[z2, Poly.zero(BASE2)], [Poly.zero(BASE2), Poly.zero(BASE2)]]}
        assert matrix_form_to_vf(mform, BASE2, 2) == e11_form()
        # the fourth argument is not read
        assert matrix_form_to_vf(mform, BASE2, 2, 7).terms == e11_form().terms
