"""Moyal star product, star commutators, and the Weyl-ordered realization.

The product on polynomials in Darboux coordinates x_1..x_d, xi_1..xi_d is

    f * g = exp( (t/2) sum_i (d/dxi_i d/dy_i - d/deta_i d/dx_i) ) f(x,xi) g(y,eta)

restricted to the diagonal y = x, eta = xi.  Expanding the exponential and
collecting mixed partials gives

    f * g = sum_{alpha,beta} (t/2)^{|a|+|b|} (-1)^{|b|} / (a! b!)
            (d_xi^a d_x^b f) (d_x^a d_xi^b g)

On monomials f = x^a xi^b, g = x^c xi^e the partials are falling factorials
and the sum factors over the Darboux pairs.  Pair i contributes, for each
alpha_i <= min(b_i, c_i) and beta_i <= min(a_i, e_i), the integer weight
C(b_i, alpha_i) c_i^(alpha_i falling) C(e_i, beta_i) a_i^(beta_i falling)
(-1)^beta_i on x_i^(a_i+c_i-s_i) xi_i^(b_i+e_i-s_i), s_i = alpha_i + beta_i;
the product over the pairs lands at t^k, k = |alpha| + |beta|, times 2^-k.
``moyal_star`` evaluates this in integers over one common denominator per
operand, and builds one Fraction per output coefficient.

With this sign convention [x_i, xi_j] = -t delta_ij, and every downstream
identity is derived from the product itself rather than from external
convention tables.

A value of W is a ``WeylElement``: the ``series.TSeries`` over the
Darboux polynomials, with the star product as its product.

Lie-algebra side: (1/t)W is a central extension of the derivations of W,
with bracket the star commutator computed in the localized algebra.  Its
values are ``WeylElement``s too, and ``LieElement`` is the checked
constructor that keeps the t-exponents at -1 or above.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .series import (
    Poly,
    SeriesError,
    TSeries,
    _numerators,
    accumulate,
)


def weyl_gens(dim: int, x_prefix: str = "x", xi_prefix: str = "xi") -> tuple[str, ...]:
    """Generator names x_1..x_d, xi_1..xi_d in the fixed Darboux order."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return tuple(f"{x_prefix}{i}" for i in range(1, dim + 1)) + tuple(
        f"{xi_prefix}{i}" for i in range(1, dim + 1)
    )


class WeylElement(TSeries):
    """A value of the Weyl algebra: a ``series.TSeries`` over the
    polynomials in 2d Darboux generators, x_1..x_d then xi_1..xi_d (the
    Fedosov fiber names them zh and xih).  Sums, scalars, shifts, windows,
    keys and equality are the series' own, and their results are again
    Weyl values; the product is the Moyal star product.
    """

    __slots__ = ()

    def __init__(self, ring: Poly, coeffs, lower: int | None, trunc: int | None):
        if not ring.gens or len(ring.gens) % 2:
            raise SeriesError(f"a Weyl algebra has 2d generators, not {len(ring.gens)}")
        super().__init__(ring, coeffs, lower, trunc)

    @classmethod
    def zero(cls, gens, trunc: int, lower: int = 0) -> WeylElement:
        return cls(Poly.zero(gens), {}, lower, trunc)

    @classmethod
    def const(cls, gens, value, trunc: int) -> WeylElement:
        return cls.from_poly(Poly.const(gens, value), trunc)

    @classmethod
    def from_poly(cls, p: Poly, trunc: int, t_exp: int = 0) -> WeylElement:
        return cls(Poly.zero(p.gens), {t_exp: p}, min(t_exp, 0), trunc)

    @property
    def gens(self) -> tuple:
        return self.ring.gens

    @property
    def dim(self) -> int:
        return len(self.ring.gens) // 2

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return moyal_star(self, other)
        return self.scale(other)

    def __rmul__(self, q):
        return self.scale(q)

    def bracket(self, other: WeylElement) -> WeylElement:
        """The bracket of (1/t)W, ``lie_bracket``."""
        return lie_bracket(self, other)


def LieElement(w: WeylElement) -> WeylElement:
    """An element of (1/t)W: the Weyl value ``w`` itself, checked to have
    no stored t-exponent below -1.

    Sums, scalars and brackets stay in (1/t)W, so they are plain Weyl
    values; this checked constructor brings a value into (1/t)W and raises
    SeriesError when it is not there.
    """
    m = w.min_exponent()
    if m is not None and m < -1:
        raise SeriesError(f"t-exponent {m} below -1; not in (1/t)W")
    return w


# -- the star product ---------------------------------------------------------


def _axis_weights(a: int, b: int, c: int, e: int, sign: int) -> list[tuple]:
    """The kernel on one Darboux pair for x^a xi^b * x^c xi^e: entries
    (s, weight, x-exponent, xi-exponent) by s = alpha + beta, sorted by s."""
    weights: dict[int, int] = {}
    for alpha in range(min(b, c) + 1):
        left = comb(b, alpha) * perm(c, alpha)
        for beta in range(min(a, e) + 1):
            accumulate(weights, alpha + beta, left * comb(e, beta) * perm(a, beta) * sign ** beta)
    return [(s, w, a + c - s, b + e - s) for s, w in sorted(weights.items())]


def _kernel(f: WeylElement, g: WeylElement, sign: int, commutator: bool) -> WeylElement:
    """f * g, or f * g - g * f when ``commutator``, with kernel sign ``sign``:
    -1 is the Moyal kernel, and +1 the sign-flipped negative control, which
    only the suite runs (``suite._flipped_star`` and ``_flipped_commutator``).

    Each pair of monomials combines one weight table per Darboux pair (the
    closed form above) while |alpha| + |beta| fits the t-window.  Sums are
    ints scaled by D_f D_g 2^top; one Fraction is built per output term.

    Swapping the operands relabels alpha <-> beta, which multiplies the
    order-k term by sign^|alpha| / sign^|beta| = sign^k.  So the order-k
    term of f * g - g * f is (1 - sign^k) times that of f * g: the odd
    orders doubled for the Moyal kernel, and nothing for the flipped one,
    whose symmetric kernel makes f * g = g * f exactly.  The commutator
    therefore makes one pass over f * g and, at the last Darboux pair,
    keeps only the combos of nonzero factor, scaled by it.  Both products
    share the window [lower, trunc), so the result's window is unchanged.
    """
    f._check(g)
    d = f.dim
    lower = f.lower + g.lower
    trunc = min(f.trunc + g.lower, g.trunc + f.lower)
    f_den, f_rows = _numerators(*(p.terms for p in f.coeffs.values()))
    g_den, g_rows = _numerators(*(p.terms for p in g.coeffs.values()))
    f_terms, g_terms = list(zip(f.coeffs, f_rows)), list(zip(g.coeffs, g_rows))
    top = trunc - 1 - lower
    # the axis whose combos take the order-k factor; none for a product
    odd_axis = d - 1 if commutator else d
    factor = [1 - sign ** k for k in range(top + 1)]
    tables: dict[tuple, list] = {}
    sums: dict[int, dict] = {}
    for m, fm in f_terms:
        for n, gn in g_terms:
            budget = trunc - 1 - m - n
            if budget < 0:
                continue
            for fe, fq in fm:
                for ge, gq in gn:
                    combos = [(0, fq * gq, (), ())]
                    for i in range(d):
                        key = (fe[i], fe[d + i], ge[i], ge[d + i])
                        axis = tables.get(key)
                        if axis is None:
                            axis = tables[key] = _axis_weights(*key, sign)
                        if i == odd_axis:
                            combos = [
                                (k + s, w * ws * factor[k + s], xs + (xe,), xis + (xie,))
                                for k, w, xs, xis in combos
                                for s, ws, xe, xie in axis
                                if k + s <= budget and factor[k + s]
                            ]
                        else:
                            combos = [
                                (k + s, w * ws, xs + (xe,), xis + (xie,))
                                for k, w, xs, xis in combos
                                for s, ws, xe, xie in axis
                                if k + s <= budget
                            ]
                    for k, w, xs, xis in combos:
                        row = sums.setdefault(m + n + k, {})
                        exp = xs + xis
                        row[exp] = row.get(exp, 0) + (w << (top - k))
    den = (f_den * g_den) << top
    terms = {p: {exp: Fraction(v, den) for exp, v in row.items() if v} for p, row in sums.items()}
    out = {p: Poly._raw(f.gens, row) for p, row in terms.items() if row}
    return WeylElement._raw(f.ring, out, lower, trunc)


def moyal_star(f: WeylElement, g: WeylElement) -> WeylElement:
    """Star product of two Weyl elements, exact within the common window."""
    return _kernel(f, g, -1, False)


def star_commutator(f: WeylElement, g: WeylElement) -> WeylElement:
    """f * g - g * f, from the odd orders of one pass over f * g."""
    return _kernel(f, g, -1, True)


def lie_bracket(a: WeylElement, b: WeylElement) -> WeylElement:
    """Bracket on (1/t)W: the star commutator in the localized algebra.

    For a = f/t, b = g/t the t^-2 coefficient of a*b - b*a is the symbol
    commutator, of order 0, and is never built; the result lives back in
    (1/t)W.
    """
    c = LieElement(star_commutator(a, b))
    return c.with_lower(max(c.lower, -1))


# -- the Weyl-ordered realization ----------------------------------------------


def weyl_ordered(terms, dim: int, lower: int, trunc: int, gens=None) -> WeylElement:
    """The Weyl-ordered realization sum q t^m x^a * xi^b over terms (a, b, m, q),
    the star product taken in the written order, in the window [lower, trunc).
    ``a`` and ``b`` are exponent tuples of length ``dim`` and ``q`` is a
    nonzero Fraction.

    Terms sharing (m, b) make one star product: their x-monomials are summed
    into one polynomial first.  Both factors carry the window trunc - m, so
    the product shifted by t^m is exact in [m, trunc); a group with m >= trunc
    lies wholly above the window and is skipped.  The result declares the
    requested window whatever the grades.
    """
    gens = weyl_gens(dim) if gens is None else tuple(gens)
    groups: dict[tuple, dict] = {}
    for a, b, m, q in terms:
        accumulate(groups.setdefault((m, b), {}), a + (0,) * dim, q)
    acc = WeylElement.zero(gens, trunc, lower=lower)
    for (m, b), x_terms in groups.items():
        if m >= trunc:
            continue
        window = trunc - m
        x_part = WeylElement.from_poly(Poly._raw(gens, x_terms), window)
        xi_part = WeylElement.from_poly(Poly._raw(gens, {(0,) * dim + b: Fraction(1)}), window)
        word = moyal_star(x_part, xi_part).shift(m)
        acc = acc + word.with_lower(lower)
    return acc
