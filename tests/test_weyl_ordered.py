"""The one Weyl-ordered realization against the three loops it replaced.

``localized_to_weyl`` and ``i_map`` build their values through
``weyl.weyl_ordered``, and the gl(d) embedding is ``i_map`` on the linear
fields of ``gl_to_vf``.  The reference implementations below are the
former per-monomial and per-entry loops, kept here to pin values, windows
and exceptions on random inputs, negative grades included.

The realization departs from its reference in two ways.  A term whose t-power p - |b| is at or above ``trunc`` is dropped, where
the reference raises EmptyWindow.  The declared window is the requested one,
where the reference cuts it short for grades p <= -2.
"""

import random

import pytest

from starhom.corpus import random_diffop, random_fraction, random_rees
from starhom.fedosov import fiber_weyl_names, gl_to_vf, i_map
from starhom.rees import (
    DiffOp,
    FiltrationError,
    OpSeries,
    ReesElement,
    diffop_mul,
    localized_to_weyl,
)
from starhom.series import EmptyWindow, Poly, SeriesError, accumulate
from starhom.weyl import LieElement, WeylElement, moyal_star, weyl_gens


def split(op, e):
    """The x- and d-multi-indices of an operator's term key."""
    return e[:op.dim], e[op.dim:]


def truncated(s, trunc):
    """``s`` in the window [s.lower, min(s.trunc, trunc)), through the
    checked constructor, which drops exponents at or above the window."""
    return WeylElement(s.ring, s.coeffs, s.lower, min(s.trunc, trunc))


def reference_localized_to_weyl(s, trunc):
    dim = s.dim
    gens = weyl_gens(dim)
    lower = 0
    for p, op in s.coeffs.items():
        for e in op.terms:
            lower = min(lower, p - sum(split(op, e)[1]))
    acc = WeylElement.zero(gens, trunc, lower=lower)
    for p, op in s.coeffs.items():
        for e, q in op.terms.items():
            xe, de = split(op, e)
            x_part = WeylElement.from_poly(
                Poly.monomial(gens, tuple(xe) + (0,) * dim, q), trunc + sum(de) + 1
            )
            xi_part = WeylElement.from_poly(
                Poly.monomial(gens, (0,) * dim + tuple(de), 1), trunc + sum(de) + 1
            )
            word = moyal_star(x_part, xi_part).shift(p - sum(de))
            acc = acc + truncated(word, trunc).with_lower(lower)
    return acc


def reference_gl_embed(rows, dim, trunc=8):
    gens = fiber_weyl_names(dim)
    acc = WeylElement.zero(gens, trunc, lower=-1)
    for i in range(dim):
        lift_x = WeylElement.from_poly(Poly.gen(gens, gens[i]), trunc + 1)
        for j in range(dim):
            if not rows[i][j]:
                continue
            xi_over_t = WeylElement.from_poly(Poly.gen(gens, gens[dim + j]), trunc + 1, t_exp=-1)
            acc = acc + moyal_star(lift_x, xi_over_t).scale(rows[i][j])
    return LieElement(truncated(acc, trunc))


def reference_i_map(v, t_trunc=8):
    d = v.dim
    gens = fiber_weyl_names(d)
    acc = WeylElement.zero(gens, t_trunc, lower=-1)
    for j in range(d):
        # the component of D_j, moved onto the fiber coordinates zh
        comp = {e[:d] + (0,) * d: q for e, q in v.terms.items() if e[d + j]}
        if not comp:
            continue
        left = WeylElement.from_poly(Poly(gens, comp), t_trunc + 1)
        right = WeylElement.from_poly(Poly.gen(gens, gens[d + j]), t_trunc + 1, t_exp=-1)
        acc = acc + truncated(moyal_star(left, right), t_trunc)
    return LieElement(acc)


def outcome(fn, *args, **kwargs):
    """The value with its window, or the exception's type and message."""
    try:
        w = fn(*args, **kwargs)
    except SeriesError as exc:
        return type(exc), str(exc)
    return w.lower, w.trunc, w.coeffs


def random_op_series(rng, dim):
    comps = {}
    for _ in range(rng.randint(0, 3)):
        comps[rng.randint(-3, 3)] = random_diffop(rng, dim)
    return OpSeries(dim, comps)


def below_window(s, trunc):
    """``s`` without its terms x^a d^b in grade p with p - |b| >= trunc."""
    comps = {}
    for p, op in s.coeffs.items():
        kept = {k: q for k, q in op.terms.items() if p - sum(split(op, k)[1]) < trunc}
        comps[p] = DiffOp(s.dim, kept)
    return OpSeries(s.dim, comps)


@pytest.mark.parametrize("trunc", [2, 5, 9])
def test_localized_to_weyl_matches_reference(trunc):
    rng = random.Random(f"weyl-ordered:{trunc}")
    cut = shrunk = 0
    for _ in range(60):
        s = random_op_series(rng, rng.choice((1, 2)))
        got = outcome(localized_to_weyl, s, trunc=trunc)
        kept = below_window(s, trunc)
        if kept != s:
            cut += 1
            assert outcome(reference_localized_to_weyl, s, trunc=trunc)[0] is EmptyWindow
        lower, top, coeffs = outcome(reference_localized_to_weyl, kept, trunc=trunc)
        shrunk += top < trunc
        assert got[:2] == (lower, trunc)
        assert {e: p for e, p in got[2].items() if e < top} == coeffs
        # a reference window wide enough for every grade agrees on all of [lower, trunc)
        wide = reference_localized_to_weyl(kept, trunc=trunc + 9)
        wide = truncated(wide, trunc)
        assert got == (wide.lower, wide.trunc, wide.coeffs)
    assert shrunk > 0
    # a window of 2 cuts some grades away
    if trunc == 2:
        assert cut > 0


def test_window_rule_examples():
    x = DiffOp.x(1, 1)
    cut = localized_to_weyl(OpSeries.from_op(x, 5) + OpSeries.from_op(x, 0), trunc=2)
    assert cut == localized_to_weyl(OpSeries.from_op(x, 0), trunc=2)
    deep = localized_to_weyl(OpSeries.from_op(x, -3), trunc=5)
    assert (deep.lower, deep.trunc) == (-3, 5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gl_embed_matches_reference(dim):
    rng = random.Random(f"gl-ordered:{dim}")
    for trunc in (0, 1, 4, 6):
        for _ in range(10):
            rows = [[random_fraction(rng) for _ in range(dim)] for _ in range(dim)]
            want = outcome(reference_gl_embed, rows, dim, trunc)
            assert outcome(i_map, gl_to_vf(rows, dim), trunc) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_i_map_matches_reference(dim):
    rng = random.Random(f"i-ordered:{dim}")
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    for t_trunc in (0, 3, 8):
        for _ in range(10):
            terms = {}
            for j in range(dim):
                for _ in range(rng.randint(0, 3)):
                    exp = tuple(rng.randint(0, 2) for _ in range(dim))
                    accumulate(terms, exp + unit[j], random_fraction(rng))
            v = DiffOp(dim, terms)
            assert outcome(i_map, v, t_trunc) == outcome(reference_i_map, v, t_trunc)


class TestReesElementIsAnOpSeries:
    def test_negative_grade_rejected(self):
        with pytest.raises(FiltrationError):
            ReesElement(1, {-1: DiffOp.x(1, 1)})

    def test_order_above_grade_rejected(self):
        with pytest.raises(FiltrationError):
            ReesElement(1, {0: DiffOp.d(1, 1)})

    def test_product_is_the_localized_product(self):
        rng = random.Random("rees-product")
        for _ in range(30):
            d = rng.choice((1, 2))
            a, b = random_rees(rng, d), random_rees(rng, d)
            ab = a * b
            want = {}
            for p, x in a.coeffs.items():
                for q, y in b.coeffs.items():
                    accumulate(want, p + q, diffop_mul(x, y))
            assert type(ab) is OpSeries
            assert ab == OpSeries(d, want)
            assert ReesElement(d, ab.coeffs) == ab

    def test_shift_is_a_plain_op_series(self):
        shifted = ReesElement(1, {1: DiffOp.d(1, 1)}).shift(-1)
        assert type(shifted) is OpSeries
        assert shifted == OpSeries.from_op(DiffOp.d(1, 1))
