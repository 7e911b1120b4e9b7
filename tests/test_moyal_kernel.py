"""The closed-form Moyal kernel against the derivative-table kernel it replaced,
and the one-pass star commutator against the two products it replaced.

``reference_moyal_star`` is the former body of ``weyl.moyal_star``: tables of
iterated partials of each t-coefficient, multiplied pairwise with the weight
(-1)^|beta| 2^-k / (alpha! beta!).  The tests pin the value and the window
[lower, trunc) on random operands with several t-powers, negative ones
included, and non-unit denominators, with the kernel sign both ways: the
Moyal products of ``weyl``, and the sign-flipped products that the suite's
negative control runs (``suite._flipped_star``, ``_flipped_commutator``).
"""

import math
import random
from fractions import Fraction

import pytest

from starhom import suite, weyl
from starhom.corpus import random_fraction
from starhom.series import Poly, accumulate
from starhom.weyl import (
    LieElement,
    WeylElement,
    lie_bracket,
    moyal_star,
    star_commutator,
    weyl_gens,
)


def derivative_table(p, names):
    """All nonzero iterated partials d^alpha p, each multi-index reached once."""
    zero = (0,) * len(names)
    table = {zero: p}
    frontier = {zero: p}
    while frontier:
        nxt = {}
        for alpha, q in frontier.items():
            top = max((j for j in range(len(names)) if alpha[j]), default=0)
            for i in range(top, len(names)):
                dq = q.partial(names[i])
                if dq.is_zero():
                    continue
                beta = list(alpha)
                beta[i] += 1
                nxt[tuple(beta)] = dq
        table.update(nxt)
        frontier = nxt
    return table


def bidiff_table(p, first, second):
    out = {}
    for alpha, q in derivative_table(p, first).items():
        for beta, r in derivative_table(q, second).items():
            out[(alpha, beta)] = r
    return out


def multi_factorial(alpha):
    return math.prod(math.factorial(a) for a in alpha)


def reference_moyal_star(f, g, mutate_kernel_sign=False):
    d = f.dim
    gens = f.gens
    xs, xis = gens[:d], gens[d:]
    lower = f.lower + g.lower
    trunc = min(f.trunc + g.lower, g.trunc + f.lower)
    out = {}
    g_tables = {n: bidiff_table(gn, xs, xis) for n, gn in g.coeffs.items()}
    for m, fm in f.coeffs.items():
        f_table = bidiff_table(fm, xis, xs)
        for n in g.coeffs:
            if m + n >= trunc:
                continue
            budget = trunc - 1 - (m + n)
            for (alpha, beta), p1 in f_table.items():
                k = sum(alpha) + sum(beta)
                p2 = g_tables[n].get((alpha, beta))
                if k > budget or p2 is None:
                    continue
                sign = 1 if (mutate_kernel_sign or sum(beta) % 2 == 0) else -1
                coef = Fraction(sign, 2**k * multi_factorial(alpha) * multi_factorial(beta))
                accumulate(out, m + n + k, p1 * p2 * coef)
    return WeylElement(Poly.zero(gens), out, lower, trunc)


def products(mutate):
    """The star product and commutator under test: Moyal's, or the control's."""
    if mutate:
        return suite._flipped_star, suite._flipped_commutator
    return moyal_star, star_commutator


def random_operand(rng, d, trunc):
    """A few t-powers from [lower, trunc), lower in {-1, 0}, each a sparse
    polynomial with rational coefficients of degree up to 3 per generator."""
    gens = weyl_gens(d)
    lower = rng.choice((-1, 0))
    coeffs = {}
    for m in rng.sample(range(lower, trunc), min(3, trunc - lower)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in gens)
            accumulate(terms, exp, random_fraction(rng))
        coeffs[m] = Poly(gens, terms)
    return WeylElement(Poly.zero(gens), coeffs, lower, trunc)


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_matches_reference(d, mutate):
    rng = random.Random(f"moyal-kernel:{d}:{mutate}")
    star, _ = products(mutate)
    negative = fractional = 0
    for trunc in range(1, 10):
        for _ in range(4 if d == 3 else 8):
            f = random_operand(rng, d, trunc)
            g = random_operand(rng, d, rng.randint(1, 9))
            got = star(f, g)
            want = reference_moyal_star(f, g, mutate_kernel_sign=mutate)
            assert got.dim == want.dim
            assert (got.lower, got.trunc) == (want.lower, want.trunc)
            assert got.coeffs == want.coeffs
            negative += -1 in f.coeffs
            fractional += any(q.denominator > 1 for q, _, _ in f.monomials())
    assert negative and fractional


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_commutator_is_the_difference_of_products(d, mutate):
    """The one-pass commutator against the two products it replaced, window
    included, with both kernel signs; swapping the operands negates it."""
    rng = random.Random(f"star-commutator:{d}:{mutate}")
    star, commutator = products(mutate)
    nonzero = 0
    for trunc in range(1, 10):
        for _ in range(3 if d == 3 else 6):
            f = random_operand(rng, d, trunc)
            g = random_operand(rng, d, rng.randint(1, 9))
            got = commutator(f, g)
            want = star(f, g) - star(g, f)
            assert (got.lower, got.trunc) == (want.lower, want.trunc)
            assert got.coeffs == want.coeffs
            assert commutator(g, f) == -got
            nonzero += not got.is_zero()
    assert bool(nonzero) is not mutate


def test_commutator_makes_no_product(monkeypatch):
    """star_commutator and lie_bracket never call moyal_star."""

    def refuse(*args, **kwargs):
        raise AssertionError("moyal_star called")

    rng = random.Random("star-commutator:one-pass")
    f, g = random_operand(rng, 2, 6), random_operand(rng, 2, 6)
    a, b = LieElement(random_operand(rng, 1, 6)), LieElement(random_operand(rng, 1, 6))
    monkeypatch.setattr(weyl, "moyal_star", refuse)
    assert not star_commutator(f, g).is_zero()
    assert not lie_bracket(a, b).is_zero()
