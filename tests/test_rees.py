"""Differential operators, the graded ring of the order filtration, and
its structure maps."""

import itertools
import random
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starhom.corpus import random_diffop, random_rees
from starhom.rees import (
    DiffOp,
    FiltrationError,
    OpSeries,
    ReesElement,
    diffop_mul,
    localized_to_weyl,
    rees_sigma,
)
from starhom.serialize import opseries_from_json, opseries_to_json
from starhom.series import GeneratorMismatch, Poly, accumulate
from starhom.weyl import WeylElement, moyal_star, star_commutator, weyl_gens

D = DiffOp.d(1, 1)
X = DiffOp.x(1, 1)
G1 = weyl_gens(1)


class TestDiffOp:
    def test_leibniz(self):
        assert diffop_mul(D, X) == DiffOp(1, {(1, 1): 1, (0, 0): 1})

    def test_already_ordered(self):
        assert diffop_mul(X, D) == DiffOp(1, {(1, 1): 1})

    def test_iterated_leibniz(self):
        got = diffop_mul(diffop_mul(D, D), X)
        assert got == DiffOp(1, {(1, 2): 1, (0, 1): 2})

    def test_order_bound(self):
        rng = random.Random("order")
        for _ in range(30):
            a, b = random_diffop(rng, 2), random_diffop(rng, 2)
            prod = diffop_mul(a, b)
            if not prod.is_zero():
                assert prod.order() <= a.order() + b.order()

    def test_associative(self):
        rng = random.Random("assoc")
        for _ in range(20):
            a, b, c = (random_diffop(rng, 2) for _ in range(3))
            assert diffop_mul(diffop_mul(a, b), c) == diffop_mul(a, diffop_mul(b, c))


class TestEmbedding:
    def test_examples(self):
        # an operator of order <= p placed in grade p is the class a t^p
        assert ReesElement(1, {1: D}) == OpSeries.from_op(D, 1)
        assert ReesElement(1, {0: X}) == OpSeries.from_op(X)

    def test_level_below_order_rejected(self):
        with pytest.raises(FiltrationError):
            ReesElement(1, {0: D})

    def test_products_respect_filtration(self):
        rng = random.Random("filt")
        for _ in range(40):
            d = rng.choice((1, 2))
            a, b = random_rees(rng, d), random_rees(rng, d)
            for p, op in (a * b).coeffs.items():
                assert op.order() <= p


class TestSigma:
    def test_generators(self):
        assert rees_sigma(ReesElement(1, {1: D})) == Poly.gen(G1, "xi1")
        assert rees_sigma(ReesElement(1, {0: X})) == Poly.gen(G1, "x1")

    def test_lower_order_parts_die(self):
        r = ReesElement(1, {2: diffop_mul(D, D) + DiffOp.one(1)})
        assert rees_sigma(r) == Poly.gen(G1, "xi1") ** 2

    def test_multiplicative(self):
        rng = random.Random("sigma")
        for _ in range(40):
            d = rng.choice((1, 2))
            a, b = random_rees(rng, d), random_rees(rng, d)
            assert rees_sigma(a * b) == rees_sigma(a) * rees_sigma(b)


class TestIota:
    """Localization is the inclusion: a Rees element is an OpSeries, and an
    OpSeries comes back only through the grade-checking constructor."""

    def test_localization_reaches_operators(self):
        assert ReesElement(1, {1: D}).shift(-1) == OpSeries.from_op(D)

    def test_out_of_image_rejected(self):
        with pytest.raises(FiltrationError):
            ReesElement(1, OpSeries.from_op(D).coeffs)

    def test_localized_elements_have_unique_preimage_after_clearing_t(self):
        rng = random.Random("loc-preimage")
        for _ in range(25):
            d = rng.choice((1, 2))
            s = random_rees(rng, d).shift(rng.randint(-3, 0))
            if s.is_zero():
                continue
            clear = max(
                [0] + [op.order() - p for p, op in s.coeffs.items()]
            )
            strict = ReesElement(d, s.shift(clear).coeffs)
            assert strict.shift(-clear) == s


class TestWeylImage:
    def test_generator_assignment(self):
        # the grade-1 class of d/dx is t*d/dx, whose image xi sits at t^0
        got = localized_to_weyl(ReesElement(1, {1: D}), trunc=1)
        assert got.coefficient(0) == Poly.gen(G1, "xi1")
        assert got.min_exponent() == 0

    def test_commutator_matches(self):
        # [t d, x] = t on the operator side and [xi, x] = t on the star side
        r, s = ReesElement(1, {1: D}), ReesElement(1, {0: X})
        comm = r * s - s * r
        assert comm == OpSeries.from_op(DiffOp.one(1), 1)
        xi = WeylElement.from_poly(Poly.gen(G1, "xi1"), 6)
        x = WeylElement.from_poly(Poly.gen(G1, "x1"), 6)
        star_comm = star_commutator(xi, x)
        assert star_comm.coefficient(1) == Poly.const(G1, 1)

    def test_normal_order_convention(self):
        # the image of x (t d) is the ordered product x * xi = x xi - t/2
        r = ReesElement(1, {0: X}) * ReesElement(1, {1: D})
        got = localized_to_weyl(r, trunc=4)
        want = moyal_star(
            WeylElement.from_poly(Poly.gen(G1, "x1"), 4),
            WeylElement.from_poly(Poly.gen(G1, "xi1"), 4),
        )
        assert (got - want).is_zero()

    def test_multiplicative_on_generator_corpus(self):
        for d in (1, 2):
            gens = []
            for i in range(1, d + 1):
                gens.append(ReesElement(d, {0: DiffOp.x(d, i)}))
                gens.append(ReesElement(d, {1: DiffOp.d(d, i)}))
            for a in gens:
                for b in gens:
                    for c in gens:
                        lhs = localized_to_weyl(a * b * c, trunc=8)
                        rhs = moyal_star(
                            moyal_star(localized_to_weyl(a, trunc=8), localized_to_weyl(b, trunc=8)),
                            localized_to_weyl(c, trunc=8),
                        )
                        assert (lhs - rhs).is_zero()

    def test_symbol_square(self):
        rng = random.Random("square")
        for _ in range(30):
            d = rng.choice((1, 2))
            a = random_rees(rng, d)
            assert localized_to_weyl(a, trunc=1).set_t_zero() == rees_sigma(a)

    def test_localized_image_allows_negative_powers(self):
        s = OpSeries.from_op(D)  # the bare derivative, grade 0
        got = localized_to_weyl(s, trunc=3)
        assert got.coefficient(-1) == Poly.gen(G1, "xi1")


small_ops = st.builds(
    lambda terms: DiffOp(1, {(i, j): Fraction(c) for (i, j), c in terms}),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3)),
        max_size=3,
    ),
)


class TestOperationsBuildCanonicalValues:
    # the series results over DiffOp are checked in test_series.TestSeriesLaws

    @given(small_ops, small_ops)
    @settings(max_examples=60, deadline=None)
    def test_diffop_results(self, a, b):
        for r in (diffop_mul(a, b), diffop_mul(a, b) - diffop_mul(b, a), a + b, a - a):
            assert all(type(q) is Fraction and q for q in r.terms.values())
            assert r == DiffOp(r.dim, r.terms)

    def test_diffop_product_that_cancels(self):
        # (x + D)(x - D) = x^2 - xD + (xD + 1) - D^2: the xD terms cancel
        r = diffop_mul(X + D, X - D)
        assert r.terms == {(2, 0): 1, (0, 0): 1, (0, 2): -1}
        assert all(type(q) is Fraction for q in r.terms.values())


class TestDiffOpIsAPoly:
    """An operator is a Poly over x_1..x_d, D_1..D_d: Poly's sums, scalars
    and scalar part return operators, and only ``*`` differs."""

    A = DiffOp(2, {(1, 0, 0, 2): Fraction(1, 2), (0, 1, 1, 0): -2, (0, 0, 0, 0): 3})
    B = DiffOp.d(2, 1) + DiffOp.x(2, 2)

    def test_generators(self):
        assert isinstance(self.A, Poly) and DiffOp.__slots__ == ()
        assert self.A.gens == weyl_gens(2, "x", "D") and self.A.dim == 2

    def test_ring_operations_stay_operators(self):
        a, b = self.A, self.B
        q = Fraction(2, 3)
        results = [a + b, a - b, -a, a * q, q * a, a * 0, a + 1, a.scalar_part(), a.order_part(2)]
        results += [a.truncate_degree(2), a.partial("x1"), a.bracket(b)]
        for got in results:
            assert type(got) is DiffOp
            assert got == DiffOp(got.dim, got.terms)
        xd = DiffOp.x(1, 1) * DiffOp.d(1, 1)
        for got in (xd.truncate_degree(3), xd.partial("x1")):
            assert type(got) is DiffOp
        assert xd.partial("x1") == DiffOp.d(1, 1)
        assert a.bracket(b) == a * b - b * a
        assert a.scalar_part() == DiffOp.one(2) * 3
        assert a.order_part(2) == DiffOp(2, {(1, 0, 0, 2): Fraction(1, 2)})

    def test_poly_over_darboux_generators_is_another_ring(self):
        p = Poly.gen(weyl_gens(2), "x1")
        for op in (lambda: self.A + p, lambda: p + self.A, lambda: self.A * p, lambda: p * self.A):
            with pytest.raises(GeneratorMismatch):
                op()

    def test_symbol_renames_the_generators(self):
        sym = self.A.symbol()
        assert type(sym) is Poly
        assert sym.gens == weyl_gens(2)
        assert sym.terms == self.A.terms

    def test_gen_and_monomial_build_operators(self):
        gens = weyl_gens(1, "x", "D")
        for got in (DiffOp.gen(gens, "x1"), DiffOp.monomial(gens, (1, 0))):
            assert type(got) is DiffOp
            assert got == DiffOp.x(1, 1)


class TestOneRingPerDimension:
    """Every operator series of one dimension shares one ring object, so
    that ring checks on sums and products hit on identity."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constructors_products_and_decoder_share_the_ring(self, dim):
        one = OpSeries.one(dim)
        x = OpSeries.from_op(DiffOp.x(dim, 1), 1)
        d = ReesElement(dim, {1: DiffOp.d(dim, dim)})
        decoded = opseries_from_json(opseries_to_json(x * d + one), dim)
        for s in (OpSeries.one(dim), OpSeries(dim), x, d, x * d, d * x - x * d, x + one, decoded):
            assert s.ring is one.ring
        assert OpSeries.one(3 - dim).ring is not one.ring


def reference_diffop_mul(a, b):
    """The Fraction Leibniz loop that ``diffop_mul`` replaced: one Fraction
    product per pair of terms and per power commuted."""
    dim = a.dim
    out = {}
    for ae, qa in a.terms.items():
        ax, ad = ae[:dim], ae[dim:]
        for be, qb in b.terms.items():
            bx, bd = be[:dim], be[dim:]
            ranges = [range(min(ad[i], bx[i]) + 1) for i in range(dim)]
            for kvec in itertools.product(*ranges):
                coef = qa * qb
                for i, k in enumerate(kvec):
                    if k:
                        coef *= comb(ad[i], k) * perm(bx[i], k)
                xe = tuple(ax[i] + bx[i] - kvec[i] for i in range(dim))
                de = tuple(ad[i] + bd[i] - kvec[i] for i in range(dim))
                accumulate(out, xe + de, coef)
    return out


def operators(dim):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * (2 * dim)),
        st.fractions(-4, 4, max_denominator=6),
        max_size=4,
    ).map(lambda terms: DiffOp(dim, terms))


operator_pairs = st.integers(1, 3).flatmap(lambda d: st.tuples(operators(d), operators(d)))


class TestIntegerLeibnizKernel:
    """``diffop_mul`` equals the Fraction Leibniz loop term by term."""

    @given(operator_pairs)
    @settings(max_examples=150, deadline=None)
    def test_equals_fraction_loop(self, pair):
        a, b = pair
        # (a + b)(a - b) cancels the terms where a and b commute
        for left, right in ((a, b), (b, a), (a + b, a - b)):
            got = diffop_mul(left, right)
            assert type(got) is DiffOp and got.gens == a.gens
            assert got.terms == reference_diffop_mul(left, right)
            assert all(type(q) is Fraction and q for q in got.terms.values())
