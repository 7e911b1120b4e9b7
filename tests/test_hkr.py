"""Exterior algebra and the chains-to-forms map."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from starhom.corpus import random_chain, random_poly
from starhom.hkr import DForm, FormError, de_rham, hkr_map
from starhom.hochschild import (
    ChainError,
    HochschildChain,
    diff_B,
    diff_b,
    poly_handle,
    weyl_handle,
)
from starhom.series import Q_ZERO, Poly, SeriesError

V = ("x", "y", "z")
PH = poly_handle(V)
x, y, z = (Poly.gen(V, n) for n in V)
one = Poly.const(V, 1)
dx, dy, dz = (DForm.d_gen(V, i) for i in range(3))


def slot(rng):
    return random_poly(rng, V, max_degree=2, terms=2, nonzero=True)


class TestWedge:
    def test_antisymmetry(self):
        assert dx * dy == -(dy * dx)

    def test_square_vanishes(self):
        assert (dx * dx).is_zero()

    def test_function_coefficients_pass_through(self):
        got = DForm.scalar(V, {(1,): x}) * dz
        assert got == DForm.scalar(V, {(1, 2): x})

    def test_dimension_mismatch(self):
        other = DForm.d_gen(("u", "v"), 0)
        with pytest.raises(FormError):
            dx * other

    def test_strictly_increasing_indices_enforced(self):
        with pytest.raises(FormError):
            DForm.scalar(V, {(1, 1): x})


class TestFormRing:
    """A form's values lie in the ring its zero names: rationals here."""

    def test_scalars(self):
        form = DForm.scalar(V, {(0,): x, (1, 2): y - 3})
        assert (form * 0).terms == {} and form * 0 == DForm(V, Q_ZERO, {})
        assert (-form).terms == {k: -q for k, q in form.terms.items()}
        assert (form * Fraction(2, 3)).terms == {k: q * Fraction(2, 3) for k, q in form.terms.items()}

    @pytest.mark.parametrize(
        "key,value",
        [
            (((0,), (1, 0)), Fraction(1)),
            (((0,), (-1, 0, 0)), Fraction(1)),
            (((3,), (0, 0, 0)), Fraction(1)),
            (((1, 0), (0, 0, 0)), Fraction(1)),
            (((0,), (0, 0, 0)), x),
        ],
        ids=["short-exponent", "negative-exponent", "wedge-out-of-range", "wedge-unsorted", "poly-value"],
    )
    def test_constructor_checks_keys_and_values(self, key, value):
        with pytest.raises(SeriesError):
            DForm(V, Q_ZERO, {key: value})

    def test_scalar_checks_the_chart(self):
        with pytest.raises(FormError):
            DForm.scalar(V, {(0,): Poly.gen(("x", "y"), "x")})

    def test_another_ring_is_a_ring_error(self):
        gens = ("a",)
        other = DForm(V, Poly.zero(gens), {((0,), (0, 0, 0)): Poly.gen(gens, "a")})
        for op in (lambda: dx + other, lambda: other - dx, lambda: dx * other, lambda: dx == other):
            with pytest.raises(SeriesError) as exc:
                op()
            assert not isinstance(exc.value, FormError)

    def test_map_values_names_the_new_ring(self):
        gens = ("a",)
        form = DForm.scalar(V, {(0,): x * 2, (): Poly.const(V, 5)})
        got = form.map_values(lambda q: Poly.const(gens, q))
        assert got.ring == Poly.zero(gens)
        assert got.terms == {k: Poly.const(gens, q) for k, q in form.terms.items()}

    def test_repr_prints_each_monomial(self):
        form = DForm.scalar(V, {(): x * y, (0, 2): x * x - Fraction(1, 2)})
        assert repr(form) == "(1) x*y + (-1/2) dx^dz + (1) x^2 dx^dz"
        assert repr(DForm(V, Q_ZERO, {})) == "0"


class TestDeRham:
    def test_on_functions(self):
        assert de_rham(DForm.scalar(V, {(): x})) == dx

    def test_on_one_forms(self):
        assert de_rham(DForm.scalar(V, {(1,): x})) == dx * dy

    def test_squares_to_zero(self):
        rng = random.Random("dsq")
        for _ in range(20):
            form = DForm.scalar(V, {(rng.randrange(3),): slot(rng)})
            assert de_rham(de_rham(form)).is_zero()
        assert de_rham(de_rham(DForm.scalar(V, {(): x * y}))).is_zero()


class TestHkrMap:
    def test_degree_zero(self):
        c = HochschildChain.single(PH, (Poly.const(V, 5),))
        assert hkr_map(c) == DForm.scalar(V, {(): Poly.const(V, 5)})

    def test_degree_one(self):
        c = HochschildChain.single(PH, (x, y))
        assert hkr_map(c) == DForm.scalar(V, {(1,): x})

    def test_one_tensor_f(self):
        assert hkr_map(HochschildChain.single(PH, (one, x))) == dx

    def test_half_factor_in_degree_two(self):
        c = HochschildChain.single(PH, (one, x, y))
        assert hkr_map(c) == dx * dy * Fraction(1, 2)

    def test_kills_boundaries(self):
        c = HochschildChain.single(PH, (x, y, z))
        assert hkr_map(diff_b(c)).is_zero()

    def test_rejects_noncommutative_handles(self):
        wh = weyl_handle(1, trunc=4)
        c = HochschildChain.single(wh, (wh.unit,))
        with pytest.raises(ChainError):
            hkr_map(c)

    def test_top_degree_is_the_volume_form_over_p_factorial(self):
        c = HochschildChain.single(PH, (one, x, y, z))
        assert hkr_map(c) == DForm.scalar(V, {(0, 1, 2): Poly.const(V, Fraction(1, 6))})

    def test_p_form_in_fewer_variables_is_zero_without_partials(self, monkeypatch):
        c = HochschildChain.single(PH, (one, x, y, z, x * y))
        monkeypatch.setattr(Poly, "partial", None)
        assert hkr_map(c) == DForm(V, Q_ZERO, {})

    def test_chain_map_identities_random(self):
        rng = random.Random("hkr")
        for _ in range(60):
            degree = rng.randint(1, 4)
            c = random_chain(rng, PH, degree, slot)
            assert hkr_map(diff_b(c)).is_zero()
            assert hkr_map(diff_B(c)) == de_rham(hkr_map(c))

    def test_partials_once_per_distinct_inner_slot(self, monkeypatch):
        rng = random.Random("hkr-once")
        pool = [slot(rng) for _ in range(4)]
        words = [tuple(rng.choice(pool) for _ in range(4)) for _ in range(12)]
        c = HochschildChain(PH, 3, [(k + 1, w) for k, w in enumerate(words)])
        want = wedge_chain_hkr_map(c)
        calls = Counter()
        partial = Poly.partial

        def counting(p, name):
            calls[p, name] += 1
            return partial(p, name)

        monkeypatch.setattr(Poly, "partial", counting)
        assert hkr_map(c) == want
        inner = {a for _, word in c.items() for a in word[1:]}
        assert calls == Counter({(a, v): 1 for a in inner for v in V})


def wedge_chain_hkr_map(c: HochschildChain) -> DForm:
    """The chains-to-forms map as a chain of wedges: f_0 times
    d f_1 ^ ... ^ d f_p from ``de_rham`` and the wedge product, word by word; an
    independent reference for the Jacobian minors of ``hkr_map``."""
    p = c.degree
    gens = c.handle.unit.gens
    out = DForm(gens, Q_ZERO, {})
    for coeff, word in c.items():
        form = DForm.scalar(gens, {(): word[0] * (coeff.coefficient(0) / math.factorial(p))})
        for a in word[1:]:
            form = form * de_rham(DForm.scalar(gens, {(): a}))
        out = out + form
    return out


class TestJacobianMinorsMatchWedgeChains:
    @pytest.mark.parametrize("variables", [V, ("w", "x", "y", "z")], ids=["3vars", "4vars"])
    def test_random_chains_and_their_b_and_B_images(self, variables):
        rng = random.Random(f"hkr-minors-{len(variables)}")
        handle = poly_handle(variables)

        def maker(r):
            return random_poly(r, variables, max_degree=2, terms=2, nonzero=True)

        zeros = 0
        for n in range(60):
            c = random_chain(rng, handle, n % 6, maker, words=3)
            for chain in (c, diff_b(c), diff_B(c)):
                got = hkr_map(chain)
                assert got == wedge_chain_hkr_map(chain)
                zeros += got.is_zero()
        assert 0 < zeros < 180
