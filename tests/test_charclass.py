"""Characteristic-class series and the multiplicative identity."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from starhom.charclass import (
    ChernClassExpr,
    ChernRootSeries,
    ClassSeries,
    SymmetryError,
    a_hat,
    a_hat_root_series,
    chern_names,
    elementary_symmetric,
    exp_class,
    half_c1,
    root_names,
    rr_identity_check,
    to_chern_basis,
    to_roots,
    todd,
    todd_root_series,
)
from starhom.series import Poly, SeriesError


class TestRootSeriesOracles:
    def test_a_hat_coefficients(self):
        assert a_hat_root_series(4) == [
            Fraction(1),
            Fraction(0),
            Fraction(-1, 24),
            Fraction(0),
            Fraction(7, 5760),
        ]

    def test_todd_coefficients(self):
        assert todd_root_series(4) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]


class TestAHat:
    def test_constant_terms_are_one(self):
        for d in (1, 2, 3):
            assert a_hat(d, 4).degree_part(0) == Poly.const(root_names(d), 1)
            assert todd(d, 4).degree_part(0) == Poly.const(root_names(d), 1)
            theta = half_c1(d, 4)
            assert exp_class(theta, 4).degree_part(0) == Poly.const(root_names(d), 1)

    def test_d1_to_degree_two(self):
        r = root_names(1)
        assert a_hat(1, 2).poly == Poly.const(r, 1) + Poly.monomial(r, (2,), Fraction(-1, 24))

    def test_d2_in_chern_basis(self):
        cn = chern_names(2)
        c1, c2 = Poly.gen(cn, "c1"), Poly.gen(cn, "c2")
        got = to_chern_basis(a_hat(2, 2)).poly
        assert got == Poly.const(cn, 1) - (c1 * c1 - c2 * 2) * Fraction(1, 24)

    @pytest.mark.parametrize("maker", [a_hat, todd])
    def test_multiplicativity_over_roots(self, maker):
        # d-root series factor exactly into single-root series
        for d in (2, 3):
            whole = maker(d, 4).poly
            single = maker(1, 4).poly
            roots = root_names(d)
            product = Poly.const(roots, 1)
            for i in range(d):
                factor = Poly(
                    roots,
                    {
                        tuple(e if j == i else 0 for j in range(d)): q
                        for (e,), q in single.terms.items()
                    },
                )
                product = (product * factor).truncate_degree(4)
            assert product == whole


class TestTodd:
    def test_d1_to_degree_one(self):
        r = root_names(1)
        assert todd(1, 1).poly == Poly.const(r, 1) + Poly.monomial(r, (1,), Fraction(1, 2))

    def test_low_degrees_in_chern_basis(self):
        cn = chern_names(2)
        c1, c2 = Poly.gen(cn, "c1"), Poly.gen(cn, "c2")
        got = to_chern_basis(todd(2, 2)).poly
        want = Poly.const(cn, 1) + c1 * Fraction(1, 2) + (c1 * c1 + c2) * Fraction(1, 12)
        assert got == want

    def test_degree_three_term(self):
        cn = chern_names(3)
        deg3 = to_chern_basis(todd(3, 3)).degree_part(3)
        assert deg3 == Poly.gen(cn, "c1") * Poly.gen(cn, "c2") * Fraction(1, 24)


class TestExpClass:
    def test_zero_class(self):
        got = exp_class(ChernClassExpr(2, 4, Poly.zero(chern_names(2))), 4)
        assert got.poly == Poly.const(root_names(2), 1)

    def test_half_c1(self):
        cn = chern_names(2)
        c1 = Poly.gen(cn, "c1")
        got = to_chern_basis(exp_class(half_c1(2, 2), 2)).poly
        want = Poly.const(cn, 1) + c1 * Fraction(1, 2) + c1 * c1 * Fraction(1, 8)
        assert got == want

    def test_inverse(self):
        theta = half_c1(2, 4)
        minus = ChernClassExpr(2, 4, -theta.poly)
        assert (exp_class(theta, 4) * exp_class(minus, 4)).poly == Poly.const(root_names(2), 1)

    def test_rejects_degree_zero_component(self):
        cn = chern_names(1)
        with pytest.raises(SeriesError):
            exp_class(ChernClassExpr(1, 3, Poly.const(cn, 1)), 3)


class TestChernBasis:
    def test_elementary_images(self):
        r = root_names(2)
        x1, x2 = Poly.gen(r, "r1"), Poly.gen(r, "r2")
        assert to_chern_basis(ChernRootSeries(r, 3, x1 + x2)).poly == Poly.gen(
            chern_names(2), "c1"
        )
        assert to_chern_basis(ChernRootSeries(r, 3, x1 * x2)).poly == Poly.gen(
            chern_names(2), "c2"
        )

    def test_power_sum_two(self):
        r = root_names(2)
        x1, x2 = Poly.gen(r, "r1"), Poly.gen(r, "r2")
        cn = chern_names(2)
        c1, c2 = Poly.gen(cn, "c1"), Poly.gen(cn, "c2")
        assert to_chern_basis(ChernRootSeries(r, 3, x1 ** 2 + x2 ** 2)).poly == c1 * c1 - c2 * 2

    def test_round_trip_random_symmetric(self):
        rng = random.Random("roundtrip")
        for _ in range(25):
            d = rng.randint(1, 3)
            roots = root_names(d)
            p = Poly.zero(roots)
            for _ in range(3):
                exp = sorted((rng.randint(0, 2) for _ in range(d)), reverse=True)
                q = Fraction(rng.randint(-3, 3))
                for perm in set(itertools.permutations(exp)):
                    p = p + Poly.monomial(roots, perm, q)
            s = ChernRootSeries(roots, 6, p)
            assert to_roots(to_chern_basis(s), 6).poly == s.poly

    def test_rejects_asymmetric_input(self):
        # the constructor holds any root polynomial; the basis change checks
        r = root_names(2)
        s = ChernRootSeries(r, 3, Poly.gen(r, "r1"))
        with pytest.raises(SymmetryError):
            to_chern_basis(s)

    @pytest.mark.parametrize("d,make", [
        (3, lambda x: x[0]),
        # leading exponent (2, 1) is a partition; the asymmetry is further down
        (2, lambda x: x[0] ** 2 * x[1] - x[0] * x[1] ** 2),
    ], ids=["r1", "r1^2r2-r1r2^2"])
    def test_to_chern_basis_rejects_asymmetric_input(self, d, make):
        r = root_names(d)
        p = make([Poly.gen(r, g) for g in r])
        with pytest.raises(SymmetryError):
            to_chern_basis(ChernRootSeries(r, 3, p))

    def test_todd_d5_degree8_round_trip(self):
        # substitute c_i = e_i(roots) back and compare with todd in the roots
        todd58 = todd(5, 8)
        converted = to_chern_basis(todd58)
        images = {f"c{i}": elementary_symmetric(5, i) for i in range(1, 6)}
        assert converted.poly.substitute(images).truncate_degree(8) == todd58.poly
        assert to_roots(converted, 8) == todd58

    def test_todd_d6_degree8_round_trip(self):
        todd68 = todd(6, 8)
        images = {f"c{i}": elementary_symmetric(6, i) for i in range(1, 7)}
        back = to_chern_basis(todd68).poly.substitute(images).truncate_degree(8)
        assert back == todd68.poly


class TestClassSeries:
    """One class-series type holds both bases; only the weights differ."""

    @pytest.mark.parametrize("d,trunc", [(1, 6), (2, 6), (3, 5), (4, 6)])
    def test_chern_basis_product_matches_root_product(self, d, trunc):
        # a product cut at weighted degree trunc in c1..cd equals the same
        # product taken in the roots and brought back
        left, right = todd(d, trunc), a_hat(d, trunc - 1) * exp_class(half_c1(d, trunc), trunc)
        got = to_chern_basis(left) * to_chern_basis(right)
        assert got == to_chern_basis(left * right)
        assert got.trunc == trunc - 1

    def test_cut_and_parts_follow_the_weights(self):
        cn = chern_names(3)
        c1, c2, c3 = (Poly.gen(cn, g) for g in cn)
        e = ChernClassExpr(3, 3, c1 + c2 + c3 + c1 * c2 + c3 * c1 + c2 ** 2)
        assert e.weights == (1, 2, 3)
        assert e.poly == c1 + c2 + c3 + c1 * c2
        assert [e.degree_part(k) for k in range(4)] == [Poly.zero(cn), c1, c2, c3 + c1 * c2]
        r = root_names(3)
        s = ChernRootSeries(r, 1, Poly.gen(r, "r1") + Poly.gen(r, "r2") ** 2)
        assert s.weights == (1, 1, 1) and s.poly == Poly.gen(r, "r1")

    def test_dimension_one_bases_share_weights(self):
        # which is why the JSON encoder takes the basis label as an argument
        assert todd(1, 3).weights == to_chern_basis(todd(1, 3)).weights == (1,)

    def test_checked_constructors_reject_other_generators(self):
        with pytest.raises(SeriesError):
            ChernRootSeries(root_names(2), 3, Poly.zero(chern_names(2)))
        with pytest.raises(SeriesError):
            ChernClassExpr(2, 3, Poly.zero(root_names(2)))
        with pytest.raises(SeriesError):
            ClassSeries((1,), 3, Poly.zero(root_names(2)))

    def test_product_rejects_mixed_bases(self):
        with pytest.raises(SeriesError):
            todd(2, 3) * half_c1(2, 3)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            todd(1, 2).trunc = 5


def leading_term_reference(s: ClassSeries) -> ClassSeries:
    """Leading-term subtraction over the whole root polynomial, with full
    Poly products of the powers e_i^k: an independent reference for
    to_chern_basis, which holds only the coefficients on partitions."""
    d = s.dim
    roots, cgens = root_names(d), chern_names(d)
    remainder = s.poly
    out = Poly.zero(cgens)
    powers = [[Poly.const(roots, 1), elementary_symmetric(d, i)] for i in range(1, d + 1)]
    while not remainder.is_zero():
        lam = max(remainder.terms)
        q = remainder.terms[lam]
        if any(lam[i] < lam[i + 1] for i in range(d - 1)):
            raise SymmetryError(f"leading exponent {lam} is not a partition")
        cexp = [0] * d
        prod = Poly.const(roots, q)
        for i in range(d):
            power = lam[i] - (lam[i + 1] if i + 1 < d else 0)
            cexp[i] = power
            if power:
                table = powers[i]
                while len(table) <= power:
                    table.append(table[-1] * table[1])
                prod = prod * table[power]
        out = out + Poly.monomial(cgens, cexp, q)
        remainder = remainder - prod
    return ChernClassExpr(d, s.trunc, out)


def random_symmetric(rng, d, trunc):
    """A sum of zero to four monomial symmetric functions with rational
    coefficients, cut at total degree ``trunc``."""
    roots = root_names(d)
    p = Poly.zero(roots)
    for _ in range(rng.randint(0, 4)):
        lam = sorted((rng.randint(0, 3) for _ in range(d)), reverse=True)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for perm in set(itertools.permutations(lam)):
            p = p + Poly.monomial(roots, perm, q)
    return ChernRootSeries(roots, trunc, p)


class TestAgainstLeadingTermReference:
    """Same Chern-basis class as the reference, term order included."""

    @staticmethod
    def assert_same(s):
        got, want = to_chern_basis(s), leading_term_reference(s)
        assert got == want
        assert list(got.poly.terms) == list(want.poly.terms)

    @pytest.mark.parametrize("maker", [todd, a_hat])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_root_function_classes(self, maker, d):
        for trunc in range(9):
            self.assert_same(maker(d, trunc))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_exp_half_c1(self, d):
        for trunc in range(9):
            self.assert_same(exp_class(half_c1(d, trunc), trunc))

    def test_random_symmetric(self):
        rng = random.Random("partitions")
        for _ in range(60):
            d = rng.randint(1, 4)
            self.assert_same(random_symmetric(rng, d, rng.randint(0, 8)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_constant_and_trunc_zero(self, d):
        roots = root_names(d)
        self.assert_same(ChernRootSeries(roots, 4, Poly.zero(roots)))
        self.assert_same(ChernRootSeries(roots, 4, Poly.const(roots, Fraction(-3, 7))))
        self.assert_same(todd(d, 0))
        self.assert_same(random_symmetric(random.Random(d), d, 0))


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("deg", [4, 8])
    def test_holds(self, d, deg):
        report = rr_identity_check(d, deg)
        assert report.equal, report.mismatches

    def test_negative_control_without_theta(self):
        theta = ChernClassExpr(1, 2, Poly.zero(chern_names(1)))
        lhs = a_hat(1, 2) * exp_class(theta, 2)
        rhs = todd(1, 2)
        assert lhs.degree_part(0) == rhs.degree_part(0)
        assert lhs.degree_part(1) != rhs.degree_part(1)

    def test_capped_products_drop_nothing_up_to_trunc(self):
        # reference: the same series from untruncated products, cut once at the end
        d, trunc = 3, 8
        roots = root_names(d)
        theta = ChernClassExpr(d, trunc, Poly.gen(chern_names(d), "c1") * Fraction(1, 3))

        def root_product(coeffs):
            out = Poly.const(roots, 1)
            for i in range(d):
                out = out * Poly(roots, {
                    tuple(k if j == i else 0 for j in range(d)): q
                    for k, q in enumerate(coeffs[: trunc + 1])
                })
            return out

        base = to_roots(theta, trunc).poly
        exp_full = Poly.zero(roots)
        for k in range(trunc + 1):
            exp_full = exp_full + base ** k * Fraction(1, math.factorial(k))
        lhs = (root_product(a_hat_root_series(trunc)) * exp_full).truncate_degree(trunc)
        rhs = root_product(todd_root_series(trunc)).truncate_degree(trunc)
        want = []
        for k in range(trunc + 1):
            diff = Poly(roots, {e: q for e, q in (lhs - rhs).terms.items() if sum(e) == k})
            if not diff.is_zero():
                want.append((k, diff))
        got_lhs = a_hat(d, trunc) * exp_class(theta, trunc)
        got_rhs = todd(d, trunc)
        got = []
        for k in range(trunc + 1):
            diff = got_lhs.degree_part(k) - got_rhs.degree_part(k)
            if not diff.is_zero():
                got.append((k, diff))
        assert want and got == want

    def test_report_shape(self):
        report = rr_identity_check(2, 3)
        assert report.equal is True and report.mismatches == []
