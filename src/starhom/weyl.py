"""Moyal star product, star commutators, and quadratic Lie embeddings.

The product on polynomials in Darboux coordinates x_1..x_d, xi_1..xi_d is

    f * g = exp( (t/2) sum_i (d/dxi_i d/dy_i - d/deta_i d/dx_i) ) f(x,xi) g(y,eta)

restricted to the diagonal y = x, eta = xi.  Expanding the exponential and
collecting mixed partials gives the closed form used here:

    f * g = sum_{alpha,beta} (t/2)^{|a|+|b|} (-1)^{|b|} / (a! b!)
            (d_xi^a d_x^b f) (d_x^a d_xi^b g)

With this sign convention [x_i, xi_j] = -t delta_ij; the induced bracket on
symbols is therefore {x, xi} = -1, and every downstream identity is derived
from the product itself rather than from external convention tables.

Lie-algebra side: (1/t)W is a central extension of the derivations of W,
with bracket the star commutator computed in the localized algebra.  The
quadratic monomials /t realize sp(2d); gl(d) embeds with a central -tr/2
correction coming from Weyl ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (
    GeneratorMismatch,
    Poly,
    SeriesError,
    TSeries,
    accumulate,
    as_fraction,
    factorial_of_multi_index,
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
    def const(cls, dim: int, value, trunc: int, gens=None) -> WeylElement:
        gens = weyl_gens(dim) if gens is None else tuple(gens)
        return cls(TSeries.const(gens, value, trunc), dim)

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
        """(q, m): the least t-power m and, inside it, the coefficient of
        the least exponent; defined on nonzero elements."""
        m = min(self.value.coeffs)
        p = self.value.coeffs[m]
        return p.terms[min(p.terms)], m

    def monomials(self) -> list:
        """The terms as (q, t-power, basis key) triples."""
        return [
            (q, e, exp) for e, p in self.value.coeffs.items() for exp, q in p.terms.items()
        ]

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

    def shift(self, m: int) -> WeylElement:
        return WeylElement(self.value.shift(m), self.dim)

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

    @property
    def dim(self):
        return self.value.dim

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __bool__(self) -> bool:
        return bool(self.value)

    def key(self):
        return self.value.key()

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


def _derivative_table(p: Poly, names: tuple[str, ...]) -> dict[tuple, Poly]:
    """All nonzero iterated partials d^alpha p over the given variables.

    Each multi-index is generated along a single canonical path (increment
    position i only when all later positions are still zero), so no
    derivative is computed twice.
    """
    zero = (0,) * len(names)
    table = {zero: p}
    frontier = {zero: p}
    while frontier:
        nxt: dict[tuple, Poly] = {}
        for alpha, q in frontier.items():
            top = 0
            for j in range(len(names) - 1, -1, -1):
                if alpha[j]:
                    top = j
                    break
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


def _bidiff_table(p: Poly, first: tuple[str, ...], second: tuple[str, ...]):
    """dict (alpha, beta) -> d_first^alpha d_second^beta p, nonzero only."""
    out: dict[tuple, Poly] = {}
    for alpha, q in _derivative_table(p, first).items():
        for beta, r in _derivative_table(q, second).items():
            out[(alpha, beta)] = r
    return out


def moyal_star(f: WeylElement, g: WeylElement, *, mutate_kernel_sign: bool = False) -> WeylElement:
    """Star product of two Weyl elements, exact within the common window.

    ``mutate_kernel_sign`` flips the minus sign in the bidifferential
    kernel; it exists purely so the verification suite can prove its own
    checks are not vacuous.
    """
    f._check(g)
    d = f.dim
    gens = f.gens
    xs, xis = gens[:d], gens[d:]
    fv, gv = f.value, g.value
    lower = fv.lower + gv.lower
    trunc = min(fv.trunc + gv.lower, gv.trunc + fv.lower)
    out: dict[int, Poly] = {}
    half = Fraction(1, 2)
    g_tables = {n: _bidiff_table(gn, xs, xis) for n, gn in gv.coeffs.items()}
    for m, fm in fv.coeffs.items():
        f_table = _bidiff_table(fm, xis, xs)
        for n, gn in gv.coeffs.items():
            if m + n >= trunc:
                continue
            g_table = g_tables[n]
            budget = trunc - 1 - (m + n)
            for (alpha, beta), p1 in f_table.items():
                k = sum(alpha) + sum(beta)
                if k > budget:
                    continue
                p2 = g_table.get((alpha, beta))
                if p2 is None:
                    continue
                sign = 1 if (mutate_kernel_sign or sum(beta) % 2 == 0) else -1
                coef = (
                    Fraction(sign)
                    * half ** k
                    / (factorial_of_multi_index(alpha) * factorial_of_multi_index(beta))
                )
                accumulate(out, m + n + k, p1 * p2 * coef)
    return WeylElement(TSeries(gens, out, lower, trunc), d)


def star_commutator(f: WeylElement, g: WeylElement, *, mutate_kernel_sign: bool = False) -> WeylElement:
    """f * g - g * f."""
    return moyal_star(f, g, mutate_kernel_sign=mutate_kernel_sign) - moyal_star(
        g, f, mutate_kernel_sign=mutate_kernel_sign
    )


def poisson(f: Poly, g: Poly, dim: int) -> Poly:
    """Bracket induced on symbols: sigma( (1/t) [f~, g~] ).

    The t-independent lifts f~, g~ are used; the resulting convention is
    {x_i, xi_i} = -1, fixed by the product formula itself.
    """
    if len(f.gens) != 2 * dim or f.gens != g.gens:
        raise GeneratorMismatch(f"expected shared generators of length {2 * dim}")
    lift_f = WeylElement.from_poly(f, dim, trunc=2)
    lift_g = WeylElement.from_poly(g, dim, trunc=2)
    comm = star_commutator(lift_f, lift_g)
    return comm.value.shift(-1).set_t_zero()


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bracket on (1/t)W: the star commutator in the localized algebra.

    For a = f/t, b = g/t the t^-2 coefficient of a*b - b*a is the symbol
    commutator and cancels exactly; the result lives back in (1/t)W.
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


def sp_embed(q_matrix, dim: int, trunc: int = 8, gens=None) -> LieElement:
    """Quadratic form on the 2d generators, divided by t.

    ``q_matrix`` is a symmetric 2d x 2d rational matrix Q; the image is
    (sum_{u,v} Q_uv w_u w_v) / t with w = (x_1..x_d, xi_1..xi_d).
    """
    gens = weyl_gens(dim) if gens is None else tuple(gens)
    n = 2 * dim
    rows = [[as_fraction(e) for e in row] for row in q_matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SeriesError(f"expected a {n}x{n} matrix")
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u][v] != rows[v][u]:
                raise SeriesError("quadratic form matrix is not symmetric")
    quad = Poly.zero(gens)
    for u in range(n):
        for v in range(n):
            if rows[u][v]:
                exp = [0] * n
                exp[u] += 1
                exp[v] += 1
                quad = quad + Poly.monomial(gens, exp, rows[u][v])
    return LieElement(WeylElement(TSeries.from_poly(quad, trunc, t_exp=-1), dim))


def weyl_ordered(terms, dim: int, lower: int, trunc: int, gens=None) -> WeylElement:
    """The Weyl-ordered realization sum q t^m x^a * xi^b over terms (a, b, m, q),
    the star product taken in the written order, in the window [lower, trunc).
    ``a`` and ``b`` are exponent tuples of length ``dim`` and ``q`` is a
    nonzero Fraction.

    Terms sharing (m, b) make one star product: their x-monomials are summed
    into one polynomial first.  Both factors carry the window trunc + |b| + 1,
    so the product is exact before it is shifted by t^m and cut to the window.
    """
    gens = weyl_gens(dim) if gens is None else tuple(gens)
    groups: dict[tuple, dict] = {}
    for a, b, m, q in terms:
        accumulate(groups.setdefault((m, b), {}), a + (0,) * dim, q)
    acc = TSeries.zero(gens, trunc, lower=lower)
    for (m, b), x_terms in groups.items():
        window = trunc + sum(b) + 1
        x_part = WeylElement(TSeries.from_poly(Poly._raw(gens, x_terms), window), dim)
        xi_part = WeylElement(
            TSeries.from_poly(Poly._raw(gens, {(0,) * dim + b: Fraction(1)}), window), dim
        )
        word = moyal_star(x_part, xi_part).value.shift(m)
        acc = acc + word.truncated(trunc).with_lower(lower)
    return WeylElement(acc, dim)


def gl_embed(a_matrix, dim: int, trunc: int = 8, gens=None) -> LieElement:
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
    return LieElement(weyl_ordered(terms, dim, -1, trunc, gens))


def graded_weight(m: WeylElement) -> int:
    """Weight of a single monomial: generator degree plus twice the t-power."""
    items = list(m.value.coeffs.items())
    if len(items) != 1 or len(items[0][1].terms) != 1:
        raise SeriesError("graded_weight expects a single monomial")
    e, poly = items[0]
    (exp,) = poly.terms
    return sum(exp) + 2 * e
