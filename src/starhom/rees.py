"""Polynomial differential operators, their order filtration, and the Rees ring.

A ``DiffOp`` is stored in normal order (all coordinate factors to the left
of all derivatives) as a ``series.Poly`` over x_1..x_d, D_1..D_d, so its
symbol d -> xi renames generators and keeps the terms.  Products are
normal-ordered through the Leibniz rule

    d^b x^c = sum_k  C(b,k) c!/(c-k)!  x^(c-k) d^(b-k).

The Rees ring of the order filtration places an operator of order <= p in
grade p, realized here as a finite sum of components a_p t^p.  Grades are
exact (no truncation is needed: operator products are finite), and the two
structure maps are

* ``rees_sigma``: t -> 0, sending a_p t^p to its order-p principal symbol
  with d^b replaced by xi^b;
* localization, the inclusion of the Rees ring into Laurent polynomials in
  t with operator coefficients, ``OpSeries``: the exact ``series.TSeries``
  over ``DiffOp`` with the operator product.  ``ReesElement`` is the
  checked constructor of the Rees ring and returns an ``OpSeries``.

The Darboux-ordered Weyl image of a Rees element evaluates each normal
monomial x^a (t d)^b as the star product x^a * xi^b in that written order.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, perm
from operator import add, sub

from .series import Poly, SeriesError, TSeries, _numerators, accumulate
from .weyl import WeylElement, weyl_gens, weyl_ordered


class FiltrationError(SeriesError):
    """An operator was placed below its filtration level."""


class DiffOp(Poly):
    """Normal-ordered polynomial differential operator in d variables: a
    ``Poly`` over x_1..x_d, D_1..D_d whose term x^a D^b is the operator
    x^a d^b.  A term's key is one exponent tuple, the x-part then the
    d-part.  Sums, scalars, keys and equality are Poly's own, and their
    results are again operators; the product is ``diffop_mul``, and Poly's
    commutative ``mul_truncated`` and ``substitute`` do not apply.  The
    operators whose terms each carry exactly one D are the formal vector
    fields sum_j P_j(x) d/dx_j, the values of ``fedosov``'s connection
    forms; ``bracket`` is their Lie bracket.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms=None):
        super().__init__(weyl_gens(dim, "x", "D"), terms)

    @property
    def dim(self) -> int:
        return len(self.gens) // 2

    @classmethod
    def one(cls, dim: int) -> DiffOp:
        return cls(dim, {(0,) * (2 * dim): 1})

    @classmethod
    def x(cls, dim: int, i: int) -> DiffOp:
        """The multiplication operator by x_i (1-based)."""
        return cls(dim, {tuple(int(j == i - 1) for j in range(2 * dim)): 1})

    @classmethod
    def d(cls, dim: int, i: int) -> DiffOp:
        """The derivative d/dx_i (1-based)."""
        return cls(dim, {tuple(int(j == dim + i - 1) for j in range(2 * dim)): 1})

    def order(self) -> int:
        """Maximal total derivative degree; -1 for the zero operator."""
        d = self.dim
        return max((sum(e[d:]) for e in self.terms), default=-1)

    def order_part(self, p: int) -> DiffOp:
        d = self.dim
        return self._raw(self.gens, {e: q for e, q in self.terms.items() if sum(e[d:]) == p})

    def symbol(self) -> Poly:
        """Full symbol: x^a d^b -> x^a xi^b over the 2d Darboux generators."""
        return Poly._raw(weyl_gens(self.dim), self.terms)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return diffop_mul(self, other)
        return super().__mul__(other)

    __rmul__ = __mul__

    def bracket(self, other: DiffOp) -> DiffOp:
        """The commutator self * other - other * self.  On vector fields,
        whose terms each carry one D, the order-2 parts cancel and the
        result is again a vector field."""
        return diffop_mul(self, other) - diffop_mul(other, self)


def diffop_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Normal-ordered product; order(ab) <= order(a) + order(b).

    It runs on integer numerators over one common denominator per operand,
    as ``Poly`` products do, with the integer Leibniz weights above, and
    builds one Fraction per nonzero output term."""
    a._check(b)
    dim = a.dim
    aden, (left,) = _numerators(a.terms)
    bden, (right,) = _numerators(b.terms)
    sums: dict[tuple, int] = {}
    for ae, na in left:
        ad = ae[dim:]
        for be, nb in right:
            bx = be[:dim]
            # commute d^ad past x^bx one variable at a time
            ranges = [range(min(ad[i], bx[i]) + 1) for i in range(dim)]
            base = tuple(map(add, ae, be))
            for kvec in itertools.product(*ranges):
                w = na * nb
                for i, k in enumerate(kvec):
                    if k:
                        w *= comb(ad[i], k) * perm(bx[i], k)
                exp = tuple(map(sub, base, kvec + kvec))
                sums[exp] = sums.get(exp, 0) + w
    den = aden * bden
    return a._raw(a.gens, {exp: Fraction(v, den) for exp, v in sums.items() if v})


@functools.cache
def op_ring(dim: int) -> DiffOp:
    """The zero operator in ``dim`` variables: the one ring of every operator
    series of that dimension, so that their ring checks hit on identity."""
    return DiffOp(dim)


class OpSeries(TSeries):
    """Finite Laurent polynomial in central t with DiffOp coefficients: the
    localized model E[t, t^-1].  It is an exact series (no window), since
    every product here is finite, and adds the operator product."""

    __slots__ = ()

    def __init__(self, dim: int, comps=None):
        super().__init__(op_ring(dim), comps)

    @property
    def dim(self) -> int:
        return self.ring.dim

    @classmethod
    def one(cls, dim: int) -> OpSeries:
        return cls(dim, {0: DiffOp.one(dim)})

    @classmethod
    def from_op(cls, op: DiffOp, t_exp: int = 0) -> OpSeries:
        return cls(op.dim, {t_exp: op})

    def __mul__(self, other):
        if not isinstance(other, OpSeries):
            return self.scale(other)
        self._check(other)
        out: dict[int, DiffOp] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                accumulate(out, p + q, diffop_mul(a, b))
        return OpSeries._raw(self.ring, out, None, None)

    __rmul__ = __mul__


def ReesElement(dim: int, comps=None) -> OpSeries:
    """An element of the Rees ring: the OpSeries of components a_p t^p,
    checked to have p >= 0 and order(a_p) <= p.

    The ring operations are those of the localized model, so sums, shifts
    and products are plain OpSeries; this checked constructor brings a
    value back into the Rees ring and raises FiltrationError when it is
    not there.
    """
    s = OpSeries(dim, comps)
    for p, op in s.coeffs.items():
        if p < 0:
            raise FiltrationError("Rees grades are nonnegative")
        if op.order() > p:
            raise FiltrationError(f"operator of order {op.order()} placed in grade {p}")
    return s


def rees_sigma(r: OpSeries) -> Poly:
    """t -> 0 on a Rees element: each grade contributes the order-p part of
    a_p with d -> xi."""
    out = Poly.zero(weyl_gens(r.dim))
    for p, op in r.coeffs.items():
        out = out + op.order_part(p).symbol()
    return out


def localized_to_weyl(s: OpSeries, trunc: int | None = None) -> WeylElement:
    """Algebra map x_i -> x_i, t d_i -> xi_i, t -> t on the localized model.

    A normal monomial x^a d^b in grade p is read as x^a (t d)^b t^(p-|b|)
    and sent to t^(p-|b|) x^a * xi^b, the star product taken in the written
    order.  The default window is wide enough that nothing real is cut.
    """
    terms = []
    top = lower = 0
    d = s.dim
    for p, op in s.coeffs.items():
        for e, q in op.terms.items():
            xe, de = e[:d], e[d:]
            m = p - sum(de)
            terms.append((xe, de, m, q))
            top = max(top, m + min(sum(xe), sum(de)))
            lower = min(lower, m)
    return weyl_ordered(terms, s.dim, lower, top + 1 if trunc is None else trunc)
