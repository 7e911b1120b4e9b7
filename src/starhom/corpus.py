"""Seeded random value generators shared by the verification suite and tests.

Everything is driven by an explicit random.Random instance so any report
can be replayed from its recorded seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hochschild import AlgebraHandle, HochschildChain
from .rees import DiffOp, OpSeries, ReesElement
from .series import Poly, accumulate
from .weyl import WeylElement, weyl_gens


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-4, 4)
    return Fraction(num, rng.choice((1, 1, 2, 3)))


def random_poly(
    rng: random.Random,
    gens,
    max_degree: int = 4,
    terms: int = 3,
    nonzero: bool = False,
) -> Poly:
    gens = tuple(gens)
    table: dict[tuple, Fraction] = {}
    for _ in range(terms):
        exp = [0] * len(gens)
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(len(gens))] += 1
        accumulate(table, tuple(exp), random_fraction(rng))
    if nonzero and not table:
        exp = [0] * len(gens)
        exp[rng.randrange(len(gens))] = rng.randint(1, max_degree)
        table[tuple(exp)] = Fraction(1)
    return Poly._raw(gens, table)


def random_weyl(
    rng: random.Random,
    dim: int,
    trunc: int,
    max_degree: int = 3,
    terms: int = 2,
    max_t: int = 1,
    min_t: int = 0,
) -> WeylElement:
    gens = weyl_gens(dim)
    coeffs: dict[int, Poly] = {}
    for _ in range(terms):
        e = rng.randint(min_t, max_t)
        accumulate(coeffs, e, random_poly(rng, gens, max_degree, 1))
    kept = {e: p for e, p in coeffs.items() if e < trunc}
    if not kept:
        return WeylElement.from_poly(Poly.gen(gens, gens[rng.randrange(len(gens))]), trunc)
    return WeylElement._raw(Poly.zero(gens), kept, min([0, *coeffs]), trunc)


def random_diffop(rng: random.Random, dim: int) -> DiffOp:
    """Two random terms with x- and d-exponents up to 2; never zero."""
    table = {}
    for _ in range(2):
        xe = tuple(rng.randint(0, 2) for _ in range(dim))
        de = tuple(rng.randint(0, 2) for _ in range(dim))
        accumulate(table, xe + de, random_fraction(rng))
    op = DiffOp(dim, table)
    if op.is_zero():
        op = DiffOp.x(dim, 1)
    return op


def random_rees(rng: random.Random, dim: int) -> OpSeries:
    """Random graded element: a few operators placed at admissible grades,
    each at most one grade above its order."""
    out = OpSeries(dim)
    for _ in range(rng.randint(1, 2)):
        op = random_diffop(rng, dim)
        out = out + OpSeries.from_op(op, max(op.order(), 0) + rng.randint(0, 1))
    return ReesElement(dim, out.coeffs)


def random_chain(
    rng: random.Random,
    handle: AlgebraHandle,
    degree: int,
    element_maker,
    words: int = 2,
) -> HochschildChain:
    """Chain with the given number of random words; slots from element_maker."""
    terms = []
    for _ in range(words):
        word = tuple(element_maker(rng) for _ in range(degree + 1))
        if any(a.is_zero() for a in word):
            continue
        coeff = Fraction(rng.randint(-3, 3) or 1)
        terms.append((coeff, word))
    return HochschildChain(handle, degree, terms)
