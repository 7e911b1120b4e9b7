"""Star product conventions, brackets, and embeddings."""

import random
from fractions import Fraction

import pytest

from starhom.corpus import random_poly
from starhom.fedosov import fiber_weyl_names, gl_to_vf, i_map
from starhom.series import Poly, SeriesError, TSeries
from starhom.weyl import (
    LieElement,
    WeylElement,
    lie_bracket,
    moyal_star,
    star_commutator,
    weyl_gens,
)

G1 = weyl_gens(1)
x = Poly.gen(G1, "x1")
xi = Poly.gen(G1, "xi1")


def lift(p, trunc=6, t_exp=0):
    return WeylElement.from_poly(p, trunc, t_exp)


def t_times(q, dim=1, trunc=6, e=1):
    gens = weyl_gens(dim)
    return WeylElement.from_poly(Poly.const(gens, q), trunc, t_exp=e)


def symbol_bracket(f, g):
    """The t^1 coefficient of the star commutator of the t-independent lifts."""
    return star_commutator(lift(f, trunc=2), lift(g, trunc=2)).coefficient(1)


class TestMoyalStar:
    def test_x_star_xi(self):
        got = moyal_star(lift(x), lift(xi))
        want = TSeries(Poly.zero(G1), {0: x * xi, 1: Poly.const(G1, Fraction(-1, 2))}, 0, 6)
        assert got == want

    def test_unit(self):
        f = lift(x * xi + x)
        assert (moyal_star(lift(Poly.const(G1, 1)), f) - f).is_zero()
        assert (moyal_star(f, lift(Poly.const(G1, 1))) - f).is_zero()

    def test_x2_star_xi2(self):
        got = moyal_star(lift(x * x), lift(xi * xi))
        want = TSeries(
            Poly.zero(G1),
            {
                0: x * x * xi * xi,
                1: x * xi * Fraction(-2),
                2: Poly.const(G1, Fraction(1, 2)),
            },
            0,
            6,
        )
        assert got == want

    def test_dimension_mismatch(self):
        with pytest.raises(SeriesError):
            moyal_star(lift(x), lift(Poly.gen(weyl_gens(2), "x1")))

    def test_associativity_random(self):
        rng = random.Random(20)
        for _ in range(25):
            d = rng.choice((1, 2))
            f, g, h = (
                lift(random_poly(rng, weyl_gens(d), max_degree=4, terms=3))
                for _ in range(3)
            )
            lhs = moyal_star(moyal_star(f, g), h)
            rhs = moyal_star(f, moyal_star(g, h))
            assert (lhs - rhs).is_zero()

    def test_center(self):
        f = lift(x * xi)
        assert star_commutator(t_times(1), f).is_zero()

    def test_graded_weight_respected(self):
        # homogeneous inputs: every output monomial has the summed weight
        f = lift(x * xi)      # weight 2
        g = lift(xi * xi)     # weight 2
        prod = moyal_star(f, g)
        for e, p in prod.coeffs.items():
            for exp in p.terms:
                assert sum(exp) + 2 * e == 4


class TestBrackets:
    def test_x_xi_bracket_is_minus_t(self):
        got = star_commutator(lift(x), lift(xi))
        assert (got - t_times(-1)).is_zero()

    def test_same_block_brackets_vanish(self):
        g2 = weyl_gens(2)
        x1, x2 = (lift(Poly.gen(g2, n)) for n in ("x1", "x2"))
        xi1, xi2 = (lift(Poly.gen(g2, n)) for n in ("xi1", "xi2"))
        assert star_commutator(x1, x2).is_zero()
        assert star_commutator(xi1, xi2).is_zero()

    # the bracket the product induces on symbols, {f, g}: the t^1
    # coefficient of f~ * g~ - g~ * f~ for the t-independent lifts

    def test_poisson_convention(self):
        assert symbol_bracket(x, xi) == Poly.const(G1, -1)

    def test_poisson_antisymmetry(self):
        f = x * x + xi
        assert symbol_bracket(f, f).is_zero()

    def test_poisson_quadratic(self):
        assert symbol_bracket(x * x, xi) == x * Fraction(-2)

    def test_poisson_jacobi_and_leibniz(self):
        rng = random.Random(21)
        for _ in range(15):
            f, g, h = (random_poly(rng, G1, max_degree=3, terms=2) for _ in range(3))
            jac = (
                symbol_bracket(f, symbol_bracket(g, h))
                + symbol_bracket(g, symbol_bracket(h, f))
                + symbol_bracket(h, symbol_bracket(f, g))
            )
            assert jac.is_zero()
            leib = symbol_bracket(f, g * h) - (
                symbol_bracket(f, g) * h + g * symbol_bracket(f, h)
            )
            assert leib.is_zero()

class TestLieAlgebra:
    def test_sp2_bracket(self):
        a = LieElement(lift(x * x, t_exp=-1))
        b = LieElement(lift(xi * xi, t_exp=-1))
        got = lie_bracket(a, b)
        want = lift(x * xi * Fraction(-4), t_exp=-1)
        assert (got - want).is_zero()

    def test_central_elements(self):
        g = LieElement(lift(x * xi + x, t_exp=-1))
        for e in (-1, 0, 1):
            c = LieElement(t_times(3, e=e))
            assert lie_bracket(c, g).is_zero()

    def test_cartan_weight_on_root_vector(self):
        h = LieElement(lift(x * xi, t_exp=-1))
        z = LieElement(lift(x, t_exp=-1))
        got = lie_bracket(h, z)
        assert (got - lift(x, t_exp=-1)).is_zero()


class TestLieElementIsAWeylElement:
    def test_t_minus_two_rejected(self):
        with pytest.raises(SeriesError):
            LieElement(lift(x, t_exp=-2))

    def test_returns_its_argument(self):
        w = lift(x * xi, t_exp=-1)
        assert LieElement(w) is w
        assert type(w) is WeylElement

    def test_bracket_is_a_plain_weyl_element(self):
        rng = random.Random("lie-bracket")
        for _ in range(20):
            a, b = (LieElement(lift(random_poly(rng, G1, 3, 2), t_exp=-1)) for _ in range(2))
            got = a.bracket(b)
            assert type(got) is WeylElement
            assert got == lie_bracket(a, b)
            assert LieElement(got) is got
            assert got.lower == -1

    def test_sums_and_scalars_stay_weyl_elements(self):
        a, b = LieElement(lift(x * x, t_exp=-1)), LieElement(lift(xi, t_exp=-1))
        for got in (a + b, a - b, -a, a.scale(3), a * Fraction(1, 2), 2 * a):
            assert type(got) is WeylElement
            assert LieElement(got) is got


def ad_matrix(elem: WeylElement, dim: int):
    """Matrix of [elem, -] on the span of the 2d linear generators."""
    gens = weyl_gens(dim)
    cols = []
    for name in gens:
        v = LieElement(WeylElement.from_poly(Poly.gen(gens, name), 6))
        image = lie_bracket(elem, v)
        col = []
        linear = image.coefficient(0)
        for target in gens:
            exp = tuple(1 if g == target else 0 for g in gens)
            col.append(linear.terms.get(exp, Fraction(0)))
        cols.append(col)
    n = 2 * dim
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def quadratic_form(q, dim: int) -> WeylElement:
    """(sum_{u,v} Q_uv w_u w_v) / t with w = (x_1..x_d, xi_1..xi_d)."""
    gens = weyl_gens(dim)
    n = 2 * dim
    quad = Poly.zero(gens)
    for u in range(n):
        for v in range(n):
            if q[u][v]:
                exp = [0] * n
                exp[u] += 1
                exp[v] += 1
                quad = quad + Poly.monomial(gens, exp, q[u][v])
    return LieElement(WeylElement.from_poly(quad, 8, t_exp=-1))


class TestEmbeddings:
    def test_sp_bracket_matches_defining_representation(self):
        rng = random.Random(22)
        d = 2
        n = 2 * d
        for _ in range(6):
            def sym(r):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = Fraction(r.randint(-2, 2))
                return m
            qa, qb = sym(rng), sym(rng)
            ea, eb = quadratic_form(qa, d), quadratic_form(qb, d)
            ma, mb = ad_matrix(ea, d), ad_matrix(eb, d)
            commutator = [
                [
                    sum(ma[i][k] * mb[k][j] - mb[i][k] * ma[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert ad_matrix(lie_bracket(ea, eb), d) == commutator

    # gl(d) lives in (1/t)W as i_map of the linear fields gl_to_vf(a, d)
    def test_gl_embed_displays_trace_correction(self):
        f1 = fiber_weyl_names(1)
        got = i_map(gl_to_vf([[1]], 1), 8)
        # zh1 * (xih1 / t) = zh1 xih1 / t - 1/2
        want = TSeries(
            Poly.zero(f1), {-1: Poly.monomial(f1, (1, 1), 1), 0: Poly.const(f1, Fraction(-1, 2))}, -1, 8
        )
        assert got == want

    def test_gl_embed_zero(self):
        assert i_map(gl_to_vf([[0, 0], [0, 0]], 2), 8).is_zero()

    def test_gl_embed_is_a_lie_morphism(self):
        rng = random.Random(23)
        for _ in range(10):
            a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            comm = [
                [
                    sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
            lhs = lie_bracket(i_map(gl_to_vf(a, 2), 8), i_map(gl_to_vf(b, 2), 8))
            rhs = i_map(gl_to_vf(comm, 2), 7)
            assert (lhs - rhs).is_zero()

    def test_gl_vs_quadratic_embedding_differ_by_center(self):
        f2 = fiber_weyl_names(2)
        a = [[1, 2], [0, 3]]
        quad = Poly.zero(f2)
        for i in range(2):
            for j in range(2):
                if a[i][j]:
                    exp = [0] * 4
                    exp[i] += 1
                    exp[2 + j] += 1
                    quad = quad + Poly.monomial(f2, exp, a[i][j])
        std = WeylElement.from_poly(quad, 8, t_exp=-1)
        diff = i_map(gl_to_vf(a, 2), 8) - std
        assert not diff.is_zero()
        for p in diff.coeffs.values():
            assert p.is_constant()
