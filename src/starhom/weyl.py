"""Moyal star product, star commutators, and quadratic Lie embeddings.

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

Lie-algebra side: (1/t)W is a central extension of the derivations of W,
with bracket the star commutator computed in the localized algebra; gl(d)
embeds with a central -tr/2 correction coming from Weyl ordering.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .series import (
    GeneratorMismatch,
    Poly,
    SeriesError,
    TSeries,
    _numerators,
    accumulate,
    as_fraction,
)


def weyl_gens(dim: int, x_prefix: str = "x", xi_prefix: str = "xi") -> tuple[str, ...]:
    """Generator names x_1..x_d, xi_1..xi_d in the fixed Darboux order."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return tuple(f"{x_prefix}{i}" for i in range(1, dim + 1)) + tuple(
        f"{xi_prefix}{i}" for i in range(1, dim + 1)
    )


class WeylElement:
    """A truncated t-series over 2d Darboux generators.

    The dimension is carried explicitly; operations never infer it from
    generator counts.
    """

    __slots__ = ("value", "dim")

    def __init__(self, value: TSeries, dim: int):
        if len(value.gens) != 2 * dim:
            raise SeriesError(
                f"expected {2 * dim} generators for dim {dim}, got {len(value.gens)}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "dim", int(dim))

    def __setattr__(self, *_):
        raise AttributeError("WeylElement is immutable")

    @classmethod
    def from_poly(cls, p: Poly, dim: int, trunc: int, t_exp: int = 0) -> WeylElement:
        return cls(TSeries.from_poly(p, trunc, t_exp), dim)

    @classmethod
    def const(cls, dim: int, value, trunc: int) -> WeylElement:
        return cls(TSeries.const(weyl_gens(dim), value, trunc), dim)

    @property
    def gens(self):
        return self.value.gens

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __bool__(self) -> bool:
        return bool(self.value)

    def key(self):
        return self.value.key()

    def scalar_part(self) -> WeylElement:
        return WeylElement(self.value.map_coeffs(lambda p: p.scalar_part()), self.dim)

    def lowest_term(self) -> tuple[Fraction, int]:
        return self.value.lowest_term()

    def monomials(self) -> list:
        return self.value.monomials()

    def _check(self, other: WeylElement):
        if self.dim != other.dim:
            raise SeriesError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.gens != other.gens:
            raise GeneratorMismatch(f"{self.gens} vs {other.gens}")

    def __add__(self, other: WeylElement) -> WeylElement:
        self._check(other)
        return WeylElement(self.value + other.value, self.dim)

    def __sub__(self, other: WeylElement) -> WeylElement:
        self._check(other)
        return WeylElement(self.value - other.value, self.dim)

    def __neg__(self) -> WeylElement:
        return WeylElement(-self.value, self.dim)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return moyal_star(self, other)
        return WeylElement(self.value.scale(other), self.dim)

    def __rmul__(self, other):
        if isinstance(other, WeylElement):
            return moyal_star(other, self)
        return WeylElement(self.value.scale(other), self.dim)

    def scale(self, q) -> WeylElement:
        return WeylElement(self.value.scale(q), self.dim)

    def mul_monomial(self, q, m: int = 0) -> WeylElement:
        return WeylElement(self.value.mul_monomial(q, m), self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.dim == other.dim
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.dim, self.value))

    def __repr__(self):
        return f"WeylElement({self.value!r})"


class LieElement:
    """Element of (1/t) * (Weyl algebra): t-exponents bounded below by -1."""

    __slots__ = ("value",)

    def __init__(self, value: WeylElement):
        m = value.value.min_exponent()
        if m is not None and m < -1:
            raise SeriesError(f"t-exponent {m} below -1; not in (1/t)W")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("LieElement is immutable")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other: LieElement) -> LieElement:
        return LieElement(self.value + other.value)

    def __sub__(self, other: LieElement) -> LieElement:
        return LieElement(self.value - other.value)

    def __neg__(self) -> LieElement:
        return LieElement(-self.value)

    def scale(self, q) -> LieElement:
        return LieElement(self.value.scale(q))

    def bracket(self, other: LieElement) -> LieElement:
        return lie_bracket(self, other)

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.value == other.value

    def __repr__(self):
        return f"LieElement({self.value.value!r})"


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
    fv, gv = f.value, g.value
    lower = fv.lower + gv.lower
    trunc = min(fv.trunc + gv.lower, gv.trunc + fv.lower)
    f_den, f_rows = _numerators(*(p.terms for p in fv.coeffs.values()))
    g_den, g_rows = _numerators(*(p.terms for p in gv.coeffs.values()))
    f_terms, g_terms = list(zip(fv.coeffs, f_rows)), list(zip(gv.coeffs, g_rows))
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
    return WeylElement(TSeries._raw(fv.ring, out, lower, trunc), d)


def moyal_star(f: WeylElement, g: WeylElement) -> WeylElement:
    """Star product of two Weyl elements, exact within the common window."""
    return _kernel(f, g, -1, False)


def star_commutator(f: WeylElement, g: WeylElement) -> WeylElement:
    """f * g - g * f, from the odd orders of one pass over f * g."""
    return _kernel(f, g, -1, True)


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bracket on (1/t)W: the star commutator in the localized algebra.

    For a = f/t, b = g/t the t^-2 coefficient of a*b - b*a is the symbol
    commutator, of order 0, and is never built; the result lives back in
    (1/t)W.
    """
    c = star_commutator(a.value, b.value)
    cv = c.value
    m = cv.min_exponent()
    if m is not None and m < -1:
        raise SeriesError(
            f"bracket escaped (1/t)W: leading t-exponent {m} did not cancel"
        )
    return LieElement(WeylElement(cv.with_lower(max(cv.lower, -1)), c.dim))


# -- quadratic embeddings ------------------------------------------------------


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
    acc = TSeries.zero(gens, trunc, lower=lower)
    for (m, b), x_terms in groups.items():
        if m >= trunc:
            continue
        window = trunc - m
        x_part = WeylElement(TSeries.from_poly(Poly._raw(gens, x_terms), window), dim)
        xi_part = WeylElement(
            TSeries.from_poly(Poly._raw(gens, {(0,) * dim + b: Fraction(1)}), window), dim
        )
        word = moyal_star(x_part, xi_part).value.shift(m)
        acc = acc + word.with_lower(lower)
    return WeylElement(acc, dim)


def gl_embed(a_matrix, dim: int, trunc: int = 8) -> LieElement:
    """gl(d) into (1/t)W via Weyl-ordered products.

    (a_ij) maps to sum_ij a_ij x_i * (xi_j / t), which expands to the
    standard quadratic embedding minus the central scalar tr(a)/2.
    """
    rows = [[as_fraction(e) for e in row] for row in a_matrix]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise SeriesError(f"expected a {dim}x{dim} matrix")
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    terms = [
        (unit[i], unit[j], -1, rows[i][j]) for i in range(dim) for j in range(dim) if rows[i][j]
    ]
    return LieElement(weyl_ordered(terms, dim, -1, trunc))

