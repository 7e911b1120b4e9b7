"""Polynomial differential operators, their order filtration, and the Rees ring.

A ``DiffOp`` is stored in normal order (all coordinate factors to the left
of all derivatives); products are normal-ordered through the Leibniz rule

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

import itertools
from fractions import Fraction
from math import comb, perm

from .series import Poly, SeriesError, TSeries, accumulate, as_fraction
from .weyl import WeylElement, weyl_gens, weyl_ordered


class FiltrationError(SeriesError):
    """An operator was placed below its filtration level."""


class DiffOp:
    """Normal-ordered polynomial differential operator in d variables.

    ``terms`` maps pairs (x-multi-index, d-multi-index) to Fractions.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for (xe, de), coef in terms.items():
                xe, de = tuple(int(e) for e in xe), tuple(int(e) for e in de)
                if len(xe) != dim or len(de) != dim:
                    raise SeriesError(f"multi-index length mismatch for dim {dim}")
                if any(e < 0 for e in xe + de):
                    raise SeriesError("negative multi-index entry")
                accumulate(clean, (xe, de), as_fraction(coef))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> DiffOp:
        """Trusted constructor for results of DiffOp's own operations:
        ``terms`` has (x, d) tuple-pair keys of length ``dim`` and no zero
        coefficients.  Nothing is copied or checked."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "terms", terms)
        return op

    def __setattr__(self, *_):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def one(cls, dim: int) -> DiffOp:
        z = (0,) * dim
        return cls(dim, {(z, z): 1})

    @classmethod
    def const(cls, dim: int, q) -> DiffOp:
        z = (0,) * dim
        return cls(dim, {(z, z): q})

    @classmethod
    def x(cls, dim: int, i: int) -> DiffOp:
        """The multiplication operator by x_i (1-based)."""
        xe = tuple(1 if j == i - 1 else 0 for j in range(dim))
        return cls(dim, {(xe, (0,) * dim): 1})

    @classmethod
    def d(cls, dim: int, i: int) -> DiffOp:
        """The derivative d/dx_i (1-based)."""
        de = tuple(1 if j == i - 1 else 0 for j in range(dim))
        return cls(dim, {((0,) * dim, de): 1})

    def order(self) -> int:
        """Maximal total derivative degree; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(sum(de) for _, de in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(xe) and not any(de) for xe, de in self.terms)

    def constant_term(self) -> Fraction:
        z = (0,) * self.dim
        return self.terms.get((z, z), Fraction(0))

    def key(self):
        return tuple(sorted(self.terms.items()))

    def _check(self, other: DiffOp):
        if self.dim != other.dim:
            raise SeriesError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: DiffOp) -> DiffOp:
        self._check(other)
        out = dict(self.terms)
        for key, q in other.terms.items():
            accumulate(out, key, q)
        return DiffOp._raw(self.dim, out)

    def __neg__(self) -> DiffOp:
        return DiffOp._raw(self.dim, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def scale(self, q) -> DiffOp:
        q = as_fraction(q)
        if not q:
            return DiffOp._raw(self.dim, {})
        return DiffOp._raw(self.dim, {k: c * q for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return diffop_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def order_part(self, p: int) -> DiffOp:
        return DiffOp._raw(self.dim, {k: q for k, q in self.terms.items() if sum(k[1]) == p})

    def symbol(self) -> Poly:
        """Full symbol: x^a d^b -> x^a xi^b over the 2d Darboux generators."""
        out = {}
        for (xe, de), q in self.terms.items():
            out[tuple(xe) + tuple(de)] = q
        return Poly(weyl_gens(self.dim), out)

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.key()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (xe, de), q in sorted(self.terms.items()):
            mono = "".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(xe) if e
            ) + "".join(
                f"D{i + 1}^{e}" if e > 1 else f"D{i + 1}" for i, e in enumerate(de) if e
            )
            bits.append(f"{q}*{mono}" if mono else str(q))
        return " + ".join(bits)


def diffop_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Normal-ordered product; order(ab) <= order(a) + order(b)."""
    a._check(b)
    dim = a.dim
    out: dict[tuple, Fraction] = {}
    for (ax, ad), qa in a.terms.items():
        for (bx, bd), qb in b.terms.items():
            # commute d^ad past x^bx one variable at a time
            ranges = [range(min(ad[i], bx[i]) + 1) for i in range(dim)]
            for kvec in itertools.product(*ranges):
                coef = qa * qb
                for i, k in enumerate(kvec):
                    if k:
                        coef *= comb(ad[i], k) * perm(bx[i], k)
                xe = tuple(ax[i] + bx[i] - kvec[i] for i in range(dim))
                de = tuple(ad[i] + bd[i] - kvec[i] for i in range(dim))
                accumulate(out, (xe, de), coef)
    return DiffOp._raw(dim, out)


class OpSeries(TSeries):
    """Finite Laurent polynomial in central t with DiffOp coefficients: the
    localized model E[t, t^-1].  It is an exact series (no window), since
    every product here is finite, and adds the operator product."""

    __slots__ = ()

    def __init__(self, dim: int, comps=None):
        super().__init__(DiffOp(dim), comps)

    @property
    def dim(self) -> int:
        return self.ring.dim

    @classmethod
    def one(cls, dim: int) -> OpSeries:
        return cls(dim, {0: DiffOp.one(dim)})

    @classmethod
    def from_op(cls, op: DiffOp, t_exp: int = 0) -> OpSeries:
        return cls(op.dim, {t_exp: op})

    def scalar_part(self) -> OpSeries:
        return self.map_coeffs(lambda op: DiffOp.const(self.dim, op.constant_term()))

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
    for p, op in s.coeffs.items():
        for (xe, de), q in op.terms.items():
            m = p - sum(de)
            terms.append((xe, de, m, q))
            top = max(top, m + min(sum(xe), sum(de)))
            lower = min(lower, m)
    return weyl_ordered(terms, s.dim, lower, top + 1 if trunc is None else trunc)
