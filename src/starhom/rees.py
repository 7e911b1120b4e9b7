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
  t with operator coefficients: a ``ReesElement`` is an ``OpSeries``.

The Darboux-ordered Weyl image of a Rees element evaluates each normal
monomial x^a (t d)^b as the star product x^a * xi^b in that written order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, perm

from .series import Poly, SeriesError, accumulate, as_fraction
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


class OpSeries:
    """Finite Laurent polynomial in central t with DiffOp coefficients.

    This is the localized model E[t, t^-1]; unlike TSeries no truncation
    bookkeeping is needed because all products here are exact.
    """

    __slots__ = ("dim", "comps")

    def __init__(self, dim: int, comps=None):
        clean: dict[int, DiffOp] = {}
        if comps:
            for p, op in comps.items():
                if op.dim != dim:
                    raise SeriesError("component dimension mismatch")
                if not op.is_zero():
                    clean[int(p)] = op
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "comps", clean)

    @classmethod
    def _raw(cls, dim: int, comps: dict) -> OpSeries:
        """Trusted constructor for results of OpSeries's own operations:
        ``comps`` maps int grades to nonzero DiffOps of dimension ``dim``.
        Nothing is copied or checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "dim", dim)
        object.__setattr__(s, "comps", comps)
        return s

    def __setattr__(self, *_):
        raise AttributeError("OpSeries is immutable")

    @classmethod
    def zero(cls, dim: int) -> OpSeries:
        return cls._raw(int(dim), {})

    @classmethod
    def one(cls, dim: int) -> OpSeries:
        return cls(dim, {0: DiffOp.one(dim)})

    @classmethod
    def from_op(cls, op: DiffOp, t_exp: int = 0) -> OpSeries:
        return cls(op.dim, {t_exp: op})

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self) -> bool:
        return bool(self.comps)

    def scalar_part(self) -> OpSeries:
        out = {}
        for p, op in self.comps.items():
            q = op.constant_term()
            if q:
                out[p] = DiffOp.const(self.dim, q)
        return OpSeries._raw(self.dim, out)

    def lowest_term(self) -> tuple[Fraction, int]:
        """(q, m): the least grade m and, inside it, the coefficient of the
        least normal monomial; defined on nonzero elements."""
        m = min(self.comps)
        op = self.comps[m]
        return op.terms[min(op.terms)], m

    def monomials(self) -> list:
        """The terms as (q, t-power, basis key) triples."""
        return [(q, p, key) for p, op in self.comps.items() for key, q in op.terms.items()]

    def key(self):
        return tuple(sorted((p, op.key()) for p, op in self.comps.items()))

    def _check(self, other: OpSeries):
        if self.dim != other.dim:
            raise SeriesError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: OpSeries) -> OpSeries:
        self._check(other)
        out = dict(self.comps)
        for p, op in other.comps.items():
            accumulate(out, p, op)
        return OpSeries._raw(self.dim, out)

    def __neg__(self) -> OpSeries:
        return OpSeries._raw(self.dim, {p: -op for p, op in self.comps.items()})

    def __sub__(self, other: OpSeries) -> OpSeries:
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, OpSeries):
            return self.scale(other)
        self._check(other)
        out: dict[int, DiffOp] = {}
        for p, a in self.comps.items():
            for q, b in other.comps.items():
                accumulate(out, p + q, diffop_mul(a, b))
        return OpSeries._raw(self.dim, out)

    __rmul__ = __mul__

    def scale(self, q) -> OpSeries:
        q = as_fraction(q)
        if not q:
            return OpSeries._raw(self.dim, {})
        return OpSeries._raw(self.dim, {p: op.scale(q) for p, op in self.comps.items()})

    def shift(self, m: int) -> OpSeries:
        return OpSeries._raw(self.dim, {p + m: op for p, op in self.comps.items()})

    def mul_monomial(self, q, m: int = 0) -> OpSeries:
        return self.scale(q).shift(m)

    def __eq__(self, other):
        return isinstance(other, OpSeries) and self.dim == other.dim and self.comps == other.comps

    def __hash__(self):
        return hash((self.dim, self.key()))

    def __repr__(self):
        if not self.comps:
            return "0"
        return " + ".join(f"({self.comps[p]!r})*t^{p}" for p in sorted(self.comps))


class ReesElement(OpSeries):
    """Element of the Rees ring: an OpSeries whose components a_p t^p have
    p >= 0 and order(a_p) <= p.

    The ring operations are those of the localized model, so sums and
    products are plain OpSeries; the constructor brings a value back into
    the Rees ring and raises FiltrationError when it is not there.
    """

    __slots__ = ()

    def __init__(self, dim: int, comps=None):
        super().__init__(dim, comps)
        for p, op in self.comps.items():
            if p < 0:
                raise FiltrationError("Rees grades are nonnegative")
            if op.order() > p:
                raise FiltrationError(f"operator of order {op.order()} placed in grade {p}")


def rees_sigma(r: ReesElement) -> Poly:
    """t -> 0: each grade contributes the order-p part of a_p with d -> xi."""
    out = Poly.zero(weyl_gens(r.dim))
    for p, op in r.comps.items():
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
    for p, op in s.comps.items():
        for (xe, de), q in op.terms.items():
            m = p - sum(de)
            terms.append((xe, de, m, q))
            top = max(top, m + min(sum(xe), sum(de)))
            lower = min(lower, m)
    return weyl_ordered(terms, s.dim, lower, top + 1 if trunc is None else trunc)
