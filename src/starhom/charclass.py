"""Characteristic-class series: A-hat, Todd, exponentials, and the
multiplicative identity A-hat * e^(c1/2) = Td.

A class is one ``ClassSeries`` in either basis: an exact polynomial in the
d Chern roots, each of weight 1, or in the elementary symmetric classes
c_1..c_d, c_i of weight i, cut at a weighted degree D (cohomological
degree 2D).

Single-root generating functions, expanded by exact series inversion:

    a_hat:  x / (e^(x/2) - e^(-x/2))  =  1 - x^2/24 + 7x^4/5760 - ...
    todd:   x / (1 - e^(-x))          =  1 + x/2 + x^2/12 - x^4/720 + ...

Per root, a_hat(x) * e^(x/2) = todd(x) exactly, which is what the identity
check verifies after symmetrization.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .series import Poly, SeriesError, accumulate


class SymmetryError(SeriesError):
    """A root-basis expression was not symmetric under root permutations."""


def root_names(d: int) -> tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, d + 1))


def chern_names(d: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(1, d + 1))


# -- univariate series oracles ------------------------------------------------


def invert_unit_series(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Reciprocal of a series with constant term 1, to the given order."""
    if not coeffs or coeffs[0] != 1:
        raise SeriesError("series inversion requires constant term 1")
    inv = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, n + 1):
            if k < len(coeffs):
                s += coeffs[k] * inv[n - k]
        inv[n] = -s
    return inv


def a_hat_root_series(order: int) -> list[Fraction]:
    """Coefficients of x / (e^(x/2) - e^(-x/2)) = 1 / (sinh(x/2)/(x/2))."""
    denom = [Fraction(0)] * (order + 1)
    for k in range(0, order + 1, 2):
        # (e^(x/2) - e^(-x/2)) / x = sum over even k of x^k / (2^k (k+1)!)
        denom[k] = Fraction(1, 2**k * math.factorial(k + 1))
    return invert_unit_series(denom, order)


def todd_root_series(order: int) -> list[Fraction]:
    """Coefficients of x / (1 - e^(-x))."""
    denom = [
        Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)
    ]
    return invert_unit_series(denom, order)


# -- class series in either basis ---------------------------------------------


class ClassSeries:
    """A characteristic class, exact through weighted degree ``trunc``.

    The class is a polynomial in generators of positive weight: 1 for each
    Chern root r_i, and i for the elementary class c_i.  The cohomological
    degree of a weight-k piece is 2k.  A term's weight is never below its
    total degree, so a product capped at total degree ``trunc`` builds
    every term of weight up to ``trunc``, and ``*`` is exact in both bases.
    Symmetry of a root-basis class is checked in one place, by
    ``to_chern_basis``.
    """

    __slots__ = ("weights", "trunc", "poly")

    def __init__(self, weights, trunc: int, poly: Poly):
        weights = tuple(weights)
        if len(weights) != len(poly.gens):
            raise SeriesError("one weight per generator expected")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "poly", _weighted_part(poly, weights, trunc.__ge__))

    def __setattr__(self, *_):
        raise AttributeError("ClassSeries is immutable")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def degree_part(self, k: int) -> Poly:
        """The terms of weighted degree k."""
        return _weighted_part(self.poly, self.weights, k.__eq__)

    def __mul__(self, other: ClassSeries) -> ClassSeries:
        if self.weights != other.weights:
            raise SeriesError("weight mismatch")
        trunc = min(self.trunc, other.trunc)
        return ClassSeries(self.weights, trunc, self.poly.mul_truncated(other.poly, trunc))

    def __eq__(self, other):
        return (
            isinstance(other, ClassSeries)
            and self.weights == other.weights
            and self.trunc == other.trunc
            and self.poly == other.poly
        )

    def __repr__(self):
        return f"ClassSeries({self.poly!r}; weight <= {self.trunc})"


def _weighted_part(p: Poly, weights: tuple, keep) -> Poly:
    """The terms of ``p`` whose weighted degree passes ``keep``."""
    return Poly._raw(
        p.gens, {e: q for e, q in p.terms.items() if keep(sum(map(mul, e, weights)))}
    )


def ChernRootSeries(roots, trunc: int, poly: Poly) -> ClassSeries:
    """A class in the Chern roots, each of weight 1: ``poly``, checked to
    have the generators ``roots``, cut at total degree ``trunc``."""
    roots = tuple(roots)
    if poly.gens != roots:
        raise SeriesError("polynomial generators do not match the roots")
    return ClassSeries((1,) * len(roots), trunc, poly)


def ChernClassExpr(dim: int, trunc: int, poly: Poly) -> ClassSeries:
    """A class in c_1..c_d, with c_i of weight i: ``poly``, checked to have
    the generators c1..cd, cut at weighted degree ``trunc``."""
    if poly.gens != chern_names(dim):
        raise SeriesError("expected generators c1..cd")
    return ClassSeries(range(1, dim + 1), trunc, poly)


def from_root_function(coeffs: list[Fraction], d: int, trunc: int) -> ClassSeries:
    """Product over the d roots of a single-variable series."""
    roots = root_names(d)
    out = Poly.const(roots, 1)
    for i in range(d):
        factor = Poly.zero(roots)
        for k, q in enumerate(coeffs[: trunc + 1]):
            if q:
                exp = [0] * d
                exp[i] = k
                factor = factor + Poly.monomial(roots, exp, q)
        out = out.mul_truncated(factor, trunc)
    return ChernRootSeries(roots, trunc, out)


def half_c1(d: int, trunc: int) -> ClassSeries:
    gens = chern_names(d)
    return ChernClassExpr(d, trunc, Poly.gen(gens, "c1") * Fraction(1, 2))


def to_roots(e: ClassSeries, trunc: int) -> ClassSeries:
    """Expand a Chern-basis class in the roots, c_i as the elementary
    symmetric polynomial e_i(roots), cut at total degree ``trunc``."""
    d = e.dim
    images = {f"c{i}": elementary_symmetric(d, i) for i in range(1, d + 1)}
    return ChernRootSeries(root_names(d), trunc, e.poly.substitute(images))


def _is_symmetric(p: Poly) -> bool:
    d = len(p.gens)
    for i in range(d - 1):
        swapped = {}
        for exp, q in p.terms.items():
            e = list(exp)
            e[i], e[i + 1] = e[i + 1], e[i]
            swapped[tuple(e)] = q
        if swapped != p.terms:
            return False
    return True


def elementary_symmetric(d: int, i: int) -> Poly:
    roots = root_names(d)
    out = Poly.zero(roots)
    for combo in itertools.combinations(range(d), i):
        exp = [0] * d
        for j in combo:
            exp[j] = 1
        out = out + Poly.monomial(roots, exp, 1)
    return out


# -- the four main operations --------------------------------------------------


def a_hat(d: int, trunc: int) -> ClassSeries:
    """Product over the d roots of x / (e^(x/2) - e^(-x/2))."""
    return from_root_function(a_hat_root_series(trunc), d, trunc)


def todd(d: int, trunc: int) -> ClassSeries:
    """Product over the d roots of x / (1 - e^(-x))."""
    return from_root_function(todd_root_series(trunc), d, trunc)


def exp_class(theta: ClassSeries, trunc: int) -> ClassSeries:
    """exp of a Chern-basis class with no constant term, in the root basis.
    Every weight is at least 1, so the constant term is the only term of
    weight 0."""
    if theta.poly.constant_term():
        raise SeriesError("exponential requires positive-degree terms only")
    base = to_roots(theta, trunc).poly
    out = Poly.const(base.gens, 1)
    power = Poly.const(base.gens, 1)
    for k in range(1, trunc + 1):
        power = power.mul_truncated(base, trunc)
        if power.is_zero():
            break
        out = out + power * Fraction(1, math.factorial(k))
    return ChernRootSeries(root_names(theta.dim), trunc, out)


def to_chern_basis(s: ClassSeries) -> ClassSeries:
    """Rewrite a symmetric root polynomial in the elementary basis.

    Classical leading-term subtraction: peel the lex-greatest monomial
    x^lambda against q * e_1^(l1-l2) e_2^(l2-l3) ... e_d^(ld), which has
    the same leading monomial with coefficient 1.  A symmetric polynomial
    is fixed by its coefficients on partitions (exponents l1 >= ... >= ld),
    and its lex-greatest monomial is one of them, so the remainder and the
    products are held on partitions only.  The products are integer dicts
    in one table per call; each is a smaller one times a single e_k, by
    the subset rule of ``_times_elementary``.  Symmetry is checked first,
    since the partition coefficients alone cannot show an asymmetry.
    """
    if not _is_symmetric(s.poly):
        raise SymmetryError("expression is not symmetric in the roots")
    d = s.dim
    remainder = {lam: q for lam, q in s.poly.terms.items() if _is_partition(lam)}
    # products[a] = e_1^a_1 ... e_d^a_d on partitions
    products = {(0,) * d: {(0,) * d: 1}}
    out = {}
    while remainder:
        lam = max(remainder)
        q = remainder[lam]
        cexp = tuple(lam[i] - (lam[i + 1] if i + 1 < d else 0) for i in range(d))
        for nu, c in _elementary_product(products, cexp).items():
            accumulate(remainder, nu, -q * c)
        out[cexp] = q
    return ChernClassExpr(d, s.trunc, Poly._raw(chern_names(d), out))


def _is_partition(exp: tuple) -> bool:
    return all(a >= b for a, b in zip(exp, exp[1:]))


def _elementary_product(products: dict, cexp: tuple) -> dict:
    """``products[cexp]``, built from e_1 up, one factor e_k at a time; every
    partial product on the way is stored in ``products`` too."""
    d = len(cexp)
    key = (0,) * d
    prod = products[key]
    for i in range(d):
        for _ in range(cexp[i]):
            key = key[:i] + (key[i] + 1,) + key[i + 1:]
            nxt = products.get(key)
            if nxt is None:
                nxt = products[key] = _times_elementary(prod, i + 1, d)
            prod = nxt
    return prod


def _times_elementary(s: dict, k: int, d: int) -> dict:
    """S * e_k, with S and the result held by their coefficients on
    partitions.  The coefficient of x^nu in S * e_k is the sum, over the
    k-subsets T of {1..d} with nu - 1_T >= 0, of S[sort(nu - 1_T)]: each T
    picks the roots that e_k's monomial raises.  Each nu with a nonzero
    coefficient is mu + 1_T, already sorted, for a partition mu of S and a
    T that raises the first entries of each run of equal parts of mu."""
    subsets = list(itertools.combinations(range(d), k))
    targets = {}
    for mu in s:
        for t in subsets:
            nu = list(mu)
            for i in t:
                nu[i] += 1
            nu = tuple(nu)
            if _is_partition(nu):
                targets[nu] = None
    out = {}
    for nu in targets:
        c = 0
        for t in subsets:
            if all(nu[i] for i in t):
                mu = list(nu)
                for i in t:
                    mu[i] -= 1
                c += s.get(tuple(sorted(mu, reverse=True)), 0)
        out[nu] = c
    return out


class IdentityReport:
    """Degree-by-degree comparison of two symmetric series: ``mismatches``
    holds one dict per differing cohomological degree."""

    __slots__ = ("equal", "mismatches")

    def __init__(self, equal: bool, mismatches: list):
        self.equal, self.mismatches = equal, mismatches


def rr_identity_check(d: int, trunc: int) -> IdentityReport:
    """Compare a_hat(d) * exp(c1/2) with todd(d) degree by degree.

    c1/2 is the curvature class of the cotangent-bundle quantization; any
    discrepant homogeneous piece is reported rather than raised.
    """
    lhs = a_hat(d, trunc) * exp_class(half_c1(d, trunc), trunc)
    diff = ClassSeries(lhs.weights, trunc, lhs.poly - todd(d, trunc).poly)
    mismatches = []
    for k in range(trunc + 1):
        part = diff.degree_part(k)
        if part:
            mismatches.append({"cohomological_degree": 2 * k, "left_minus_right": repr(part)})
    return IdentityReport(not mismatches, mismatches)
