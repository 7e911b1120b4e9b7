"""Polynomial and t-series arithmetic: examples, windows, ring axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starhom.hkr import DForm
from starhom.rees import DiffOp, OpSeries
from starhom.series import (
    Q_ZERO,
    EmptyWindow,
    GeneratorMismatch,
    NegativeTPowers,
    Poly,
    SeriesError,
    TSeries,
    accumulate,
)
from starhom.weyl import LieElement, WeylElement, star_commutator, weyl_gens

GENS = ("x", "xi")
Z = Poly.zero(GENS)


def P(**monomials):
    terms = {}
    for key, coef in monomials.items():
        ex, exi = (int(c) for c in key.strip("m").split("_"))
        terms[(ex, exi)] = Fraction(coef)
    return Poly(GENS, terms)


x = Poly.gen(GENS, "x")
xi = Poly.gen(GENS, "xi")
one = Poly.const(GENS, 1)


class TestPoly:
    def test_monomial_product(self):
        assert x * xi == Poly(GENS, {(1, 1): 1})

    def test_add_cancels(self):
        assert (x + one) + Poly.const(GENS, -1) == x

    def test_binomial_square(self):
        assert (x + xi) ** 2 == Poly(GENS, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_partial(self):
        assert (x * x * xi).partial("x") == Poly(GENS, {(1, 1): 2})
        assert x.partial("xi").is_zero()
        assert (x ** 3).partial("x") == Poly(GENS, {(2, 0): 3})

    def test_partial_unknown_generator(self):
        with pytest.raises(GeneratorMismatch):
            x.partial("zeta")

    def test_cross_ring_is_an_error(self):
        other = Poly.gen(("x", "y"), "x")
        with pytest.raises(GeneratorMismatch):
            x + other
        with pytest.raises(GeneratorMismatch):
            x * other

    def test_substitute(self):
        target = ("u", "v")
        image = (x * x + xi).substitute(
            {"x": Poly.gen(target, "v"), "xi": Poly.gen(target, "u")}
        )
        assert image == Poly(target, {(0, 2): 1, (1, 0): 1})

    def test_no_zero_terms_stored(self):
        p = x - x
        assert p.terms == {}
        assert p.is_zero()


small_polys = st.builds(
    lambda terms: Poly(GENS, {e: Fraction(c) for e, c in terms}),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
        ),
        max_size=4,
    ),
)


class TestPolyRingAxioms:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a


class TestTSeries:
    def test_set_t_zero(self):
        assert (TSeries(Z, {0: one, 1: x}, 0, 3)).set_t_zero() == one
        s = TSeries(Z, {0: x * xi, 1: Poly.const(GENS, Fraction(-1, 2))}, 0, 3)
        assert s.set_t_zero() == x * xi

    def test_set_t_zero_rejects_localized(self):
        s = TSeries(Z, {-1: x}, -1, 2)
        with pytest.raises(NegativeTPowers):
            s.set_t_zero()

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            TSeries(Z, {}, 2, 2)

    def test_stored_exponent_below_lower_rejected(self):
        with pytest.raises(SeriesError):
            TSeries(Z, {-1: x}, 0, 3)

    def test_add_window_is_min(self):
        a = TSeries(Z, {0: x}, 0, 5)
        b = TSeries(Z, {2: xi}, 0, 3)
        assert (a + b).trunc == 3

    def test_shift_is_exact(self):
        a = TSeries(Z, {0: x}, 0, 5)
        assert a.shift(2).trunc == 7 and a.shift(2).coefficient(2) == x

    def test_generator_mismatch(self):
        a = TSeries(Z, {0: x}, 0, 5)
        b = TSeries(Poly.zero(("x", "y")), {0: Poly.const(("x", "y"), 1)}, 0, 5)
        with pytest.raises(GeneratorMismatch):
            a + b


def revalidated_poly(p):
    """The same data passed through the validating constructor."""
    assert all(type(e) is tuple and type(q) is Fraction for e, q in p.terms.items())
    return Poly(p.gens, p.terms)


class TestOperationsBuildCanonicalValues:
    """Operations build their results through a trusted constructor; each
    result must equal its data re-read by the validating one."""

    @given(small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_poly_results(self, a, b):
        results = [a + b, a - b, a - a, a * b, a * Fraction(-2, 3), a * 0, -a]
        results += [a.partial(g) for g in GENS]
        for r in results:
            assert r == revalidated_poly(r)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_wedge_results_cancel(self, p, q, r):
        # a ^ a of a 1-form cancels term by term; a ^ b need not
        a = DForm.scalar(GENS, {(0,): p, (1,): q})
        b = DForm.scalar(GENS, {(): r, (1,): p})
        assert (a * a).terms == {}
        for form in (a * a, a * b, b * a, a * b + b * a):
            assert all(type(v) is Fraction and v for v in form.terms.values())
            assert form.terms == DForm(form.base, form.ring, form.terms).terms


additions = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-2, 2).map(Fraction)), max_size=40
)


class TestAccumulate:
    @given(additions)
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_sum_without_zeros(self, adds):
        out, reference = {}, {}
        for key, q in adds:
            accumulate(out, key, q)
            assert all(out.values())
            reference[key] = reference.get(key, Fraction(0)) + q
        assert out == {k: q for k, q in reference.items() if q}

    def test_dict_order(self):
        out = {}
        accumulate(out, "a", Fraction(1))
        accumulate(out, "b", Fraction(2))
        accumulate(out, "a", Fraction(0))
        accumulate(out, "c", Fraction(0))
        assert list(out.items()) == [("a", 1), ("b", 2)]
        accumulate(out, "a", Fraction(-1))
        assert list(out) == ["b"]
        accumulate(out, "a", Fraction(3))
        assert list(out.items()) == [("b", 2), ("a", 3)]

    def test_ring_values_cancel(self):
        out = {0: x + one}
        accumulate(out, 0, -x)
        assert out == {0: one}
        accumulate(out, 0, -one)
        assert out == {}


W1 = weyl_gens(1)
# values of each ring type, by the constructor that builds them
RING_VALUES = {
    "Poly": [Poly.zero(GENS), x - 2],
    "TSeries": [
        TSeries(Z, {}, 0, 4),
        TSeries(Z, {1: xi}, 0, 4),
        TSeries(Q_ZERO),
        TSeries(Q_ZERO, {-1: Fraction(2)}),
        TSeries(Q_ZERO, {}, 0, 4),
        TSeries(Q_ZERO, {3: Fraction(1)}, 0, 4),
    ],
    "DiffOp": [DiffOp(1), DiffOp.x(1, 1)],
    "OpSeries": [OpSeries(1), OpSeries.from_op(DiffOp.one(1) * 3, 2)],
    "WeylElement": [WeylElement.zero(W1, 4), WeylElement.const(W1, Fraction(1, 2), 4)],
    "LieElement": [
        LieElement(WeylElement.zero(W1, 4)),
        LieElement(WeylElement.from_poly(Poly.gen(W1, "x1"), 4, t_exp=-1)),
    ],
}


class TestTruthiness:
    """The ring types are false exactly when they are zero, as Fraction is."""

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(v, id=f"{name}{i}")
            for name, values in RING_VALUES.items()
            for i, v in enumerate(values)
        ],
    )
    def test_bool_is_not_is_zero(self, value):
        assert bool(value) == (not value.is_zero())
        cancelled = value + (-value)
        assert cancelled.is_zero() and not cancelled


capped_operands = st.one_of(
    small_polys,
    st.just(Poly.zero(GENS)),
    st.integers(-5, 5).map(lambda c: Poly.const(GENS, c)),
)


class TestDegreeCappedProduct:
    @given(capped_operands, capped_operands, st.integers(-1, 8))
    @settings(max_examples=150, deadline=None)
    def test_equals_truncated_full_product(self, a, b, k):
        assert a.mul_truncated(b, k) == (a * b).truncate_degree(k)

    def test_cap_below_every_pair_gives_zero(self):
        assert (x + 1).mul_truncated(xi + 1, -1).is_zero()
        assert (x + 1).mul_truncated(xi + 1, 0) == one

    def test_generator_mismatch(self):
        with pytest.raises(GeneratorMismatch):
            x.mul_truncated(Poly.gen(("x",), "x"), 3)


def fraction_product(a, b, max_deg):
    """Term-by-term Fraction product, the reference for the integer kernel."""
    out = {}
    for e1, q1 in a.terms.items():
        for e2, q2 in b.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if max_deg is None or sum(e) <= max_deg:
                out[e] = out.get(e, Fraction(0)) + q1 * q2
    return {e: q for e, q in out.items() if q}


rational_polys = st.builds(
    lambda terms: Poly(GENS, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(-6, 6, max_denominator=12),
        ),
        max_size=6,
    ),
)

kernel_operands = st.one_of(
    rational_polys,
    st.just(Poly.zero(GENS)),
    st.fractions(-3, 3, max_denominator=7).map(lambda c: Poly.const(GENS, c)),
)


class TestIntegerKernel:
    """``*`` and ``mul_truncated`` equal the Fraction product term by term."""

    @given(kernel_operands, kernel_operands, st.one_of(st.none(), st.integers(-1, 8)))
    @settings(max_examples=200, deadline=None)
    def test_equals_fraction_product(self, a, b, k):
        got = a * b if k is None else a.mul_truncated(b, k)
        assert got.gens == GENS
        assert got.terms == fraction_product(a, b, k)
        assert all(type(q) is Fraction and q for q in got.terms.values())

    def test_cancelling_terms_are_dropped(self):
        a = x * Fraction(1, 6) + xi * Fraction(1, 4)
        b = x * Fraction(1, 6) - xi * Fraction(1, 4)
        product = a * b
        assert product.terms == {(2, 0): Fraction(1, 36), (0, 2): Fraction(-1, 16)}
        assert a.mul_truncated(b, 1).is_zero()

    def test_empty_operand(self):
        for a, b in ((Poly.zero(GENS), x + 1), (x + 1, Poly.zero(GENS))):
            assert (a * b).terms == {}
            assert a.mul_truncated(b, 4).terms == {}
        with pytest.raises(GeneratorMismatch):
            Poly.zero(GENS) * Poly.zero(("x",))


class TestPower:
    @given(capped_operands, st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_equals_repeated_product(self, p, n):
        product = one
        for _ in range(n):
            product = product * p
        assert p ** n == product


# -- the one t-series type over each coefficient ring --------------------------

W1 = weyl_gens(1)
small_fractions = st.fractions(-3, 3, max_denominator=3)
COEFFICIENTS = {
    "Fraction": (Q_ZERO, small_fractions),
    "Poly": (
        Poly.zero(W1),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fractions, max_size=3
        ).map(lambda terms: Poly(W1, terms)),
    ),
    "DiffOp": (
        DiffOp(1),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fractions, max_size=3
        ).map(lambda terms: DiffOp(1, terms)),
    ),
}
# a series over each ring with coefficients of another ring or rank
FOREIGN = {
    "Fraction": [
        WeylElement(Poly.zero(W1), {0: Poly.gen(W1, "x1")}, None, None),
        OpSeries.from_op(DiffOp.x(1, 1)),
    ],
    "Poly": [
        TSeries(Q_ZERO, {0: Fraction(1)}, 0, 6),
        WeylElement.from_poly(Poly.gen(weyl_gens(2), "x2"), 6),
    ],
    "DiffOp": [TSeries(Q_ZERO, {0: Fraction(1)}), OpSeries.from_op(DiffOp.x(2, 1))],
}


def series_over(ring: str, data, window: bool) -> TSeries:
    """A series over ``ring`` with a few t-powers in [-1, 3]; windowed ones
    have lower in {-1, 0} and trunc in 1..4.  Series over Poly are
    ``WeylElement`` values and exact series over DiffOp are ``OpSeries``,
    so that their products are drawn too."""
    zero, coefficient = COEFFICIENTS[ring]
    lower = data.draw(st.integers(-1, 0)) if window else None
    trunc = data.draw(st.integers(1, 4)) if window else None
    powers = st.integers(-1 if lower is None else lower, 3)
    coeffs = data.draw(st.dictionaries(powers, coefficient, max_size=3))
    if ring == "Poly":
        return WeylElement(zero, coeffs, lower, trunc)
    if ring == "DiffOp" and not window:
        return OpSeries(1, coeffs)
    return TSeries(zero, coeffs, lower, trunc)


def revalidated(s: TSeries) -> TSeries:
    """The same data passed through the checked constructors."""
    for c in s.coeffs.values():
        assert c
        if isinstance(c, DiffOp):
            assert all(type(q) is Fraction for q in c.terms.values())
            assert c == DiffOp(c.dim, c.terms)
        elif isinstance(c, Poly):
            assert c == revalidated_poly(c)
    return TSeries(s.ring, s.coeffs, s.lower, s.trunc)


@pytest.mark.parametrize("ring", sorted(COEFFICIENTS))
class TestSeriesLaws:
    """The laws of ``TSeries`` over Q, over Poly (as ``WeylElement``) and
    over DiffOp; every result keeps the operands' type."""

    @given(data=st.data(), window=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_trusted_results_equal_checked_constructor(self, ring, data, window):
        a, b = series_over(ring, data, window), series_over(ring, data, window)
        q = Fraction(2, 3)
        results = [a + b, a - b, a - a, -a, a.scale(q), a.shift(-1), a.mul_monomial(q, 2)]
        results += [a.mul_monomial(0, 1), a.map_coeffs(lambda c: c * q)]
        if window:
            results.append(a.with_lower(-2))
        if isinstance(a, (OpSeries, WeylElement)):
            results += [a * q, q * a, a.scalar_part()]
        if isinstance(a, OpSeries):
            results += [a * b, a * b - b * a]
        if isinstance(a, WeylElement) and window:
            results += [a * b, star_commutator(a, b), a.bracket(b)]
        for r in results:
            assert type(r) is type(a)
            assert r == revalidated(r)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_takes_the_smaller_bounds_and_drops_above_trunc(self, ring, data):
        a, b = series_over(ring, data, True), series_over(ring, data, True)
        total = a + b
        trunc = min(a.trunc, b.trunc)
        assert (total.lower, total.trunc) == (min(a.lower, b.lower), trunc)
        for e in range(-1, 4):
            want = a.coefficient(e) + b.coefficient(e) if e < trunc else COEFFICIENTS[ring][0]
            assert total.coefficient(e) == want

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_plus_windowed_raises(self, ring, data):
        exact, windowed = series_over(ring, data, False), series_over(ring, data, True)
        for left, right in ((exact, windowed), (windowed, exact)):
            with pytest.raises(SeriesError):
                left + right

    @given(data=st.data(), window=st.booleans(), m=st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_mul_monomial_shifts_the_window(self, ring, data, window, m):
        a = series_over(ring, data, window)
        q = Fraction(-1, 2)
        got = a.mul_monomial(q, m)
        if window:
            assert (got.lower, got.trunc) == (a.lower + m, a.trunc + m)
        else:
            assert (got.lower, got.trunc) == (None, None)
        assert got.coeffs == {e + m: c * q for e, c in a.coeffs.items()}
        assert got.shift(-m) == a.scale(q)

    def test_ring_mismatch_raises(self, ring):
        zero, _ = COEFFICIENTS[ring]
        for other in FOREIGN[ring]:
            # the same window kind, so that only the rings differ
            mine = TSeries(zero, {}, other.lower, other.trunc)
            with pytest.raises(SeriesError):
                mine + other
            with pytest.raises(SeriesError):
                other + mine
            with pytest.raises(SeriesError):
                TSeries(zero, {0: other.coefficient(0)}, other.lower, other.trunc)
