"""Differential forms on a chart and the chains-to-forms map.

``DForm`` is the package's one form type: a sparse sum of terms
z^b dz_I (x) v, with v in a coefficient ring named by its zero.  The
scalar forms of this module have rational values; the connection forms of
``fedosov`` have formal vector fields or Weyl values.  There is one
exterior derivative and one graded product, which takes the pairing of
values: ``*`` multiplies them (the wedge product), ``bracket`` brackets
them.

The map sends f_0 (x) f_1 (x) ... (x) f_p over a commutative polynomial
algebra to (1/p!) f_0 df_1 ^ ... ^ df_p.  The 1/p! factor is kept as an
exact rational so the normalization statements downstream are bit-exact.
Composed with b it vanishes; composed with B it becomes the exterior
derivative, which is the commuting square the cyclic machinery needs.

The map does not wedge one-forms: the coefficient of dx_I in
df_1 ^ ... ^ df_p is the p x p minor of the Jacobian (d f_k / d x_i) on
the columns I, taken by Laplace expansion from partials computed once per
distinct slot.  The wedge product and ``de_rham`` are the exterior
algebra's own operations, used by the checks on the map.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul

from .hochschild import ChainError, HochschildChain
from .series import Q_ZERO, Poly, SeriesError, _check_ring, _merge_sign, accumulate, as_fraction


class FormError(SeriesError):
    """Contract violation in exterior-algebra operations."""


class DForm:
    """A differential form on a chart: a sparse sum of terms z^b dz_I (x) v.

    ``terms`` maps (wedge index I, base exponent b) to a nonzero value v in
    the coefficient ring whose zero is ``ring``, as ``series.TSeries``
    names its ring: ``series.Q_ZERO`` for the scalar forms that
    ``hkr_map`` and ``de_rham`` build, ``rees.op_ring(d)`` for the
    vector-field-valued forms of ``fedosov`` (first-order operators) and a
    ``weyl.WeylElement`` zero for Lie-valued ones.  A value adds, negates,
    takes ``* q`` for a rational q and is false exactly when it is zero.
    Base coordinates commute with values.  Wedge indices are 0-based
    positions into ``base``, strictly increasing within a term; mixed
    degrees are allowed as formal sums.

    Results are built through ``DForm._raw`` on the operand's own class,
    so a subclass form stays one under every operation.
    """

    __slots__ = ("base", "ring", "terms")

    def __init__(self, base, ring, terms: dict):
        base = tuple(base)
        clean: dict = {}
        for (widx, bexp), val in terms.items():
            widx = tuple(int(i) for i in widx)
            bexp = tuple(int(e) for e in bexp)
            if list(widx) != sorted(set(widx)):
                raise FormError(f"wedge indices must be strictly increasing: {widx}")
            if widx and (widx[0] < 0 or widx[-1] >= len(base)):
                raise FormError(f"wedge index out of range: {widx}")
            if len(bexp) != len(base) or any(e < 0 for e in bexp):
                raise FormError(f"base exponent {bexp} does not fit the chart {base}")
            _check_ring(ring, val)
            accumulate(clean, (widx, bexp), val)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, base: tuple, ring, terms: dict) -> DForm:
        """Trusted constructor for results of the form's own operations:
        ``terms`` has valid keys and only nonzero values in ``ring``.
        Nothing is copied or checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "base", base)
        object.__setattr__(f, "ring", ring)
        object.__setattr__(f, "terms", terms)
        return f

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def scalar(cls, base, polys: dict) -> DForm:
        """The scalar form with coefficient ``polys[I]``, a Poly over
        ``base``, at dz_I."""
        base = tuple(base)
        if any(p.gens != base for p in polys.values()):
            raise FormError("coefficient generators do not match the chart")
        return cls(base, Q_ZERO, {(i, e): q for i, p in polys.items() for e, q in p.terms.items()})

    @classmethod
    def d_gen(cls, base, i: int) -> DForm:
        """The scalar 1-form dz_i (0-based)."""
        base = tuple(base)
        return cls(base, Q_ZERO, {((i,), (0,) * len(base)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: DForm):
        if self.base != other.base:
            raise FormError(f"chart mismatch: {self.base} vs {other.base}")
        if other.ring is not self.ring:
            _check_ring(self.ring, other.ring)

    def __add__(self, other: DForm) -> DForm:
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            accumulate(out, key, val)
        return self._raw(self.base, self.ring, out)

    def __neg__(self) -> DForm:
        return self * -1

    def __sub__(self, other: DForm) -> DForm:
        return self + (-other)

    def __mul__(self, other):
        """The wedge product of two forms, values multiplied; by a rational,
        each value scaled."""
        if isinstance(other, DForm):
            self._check(other)
            pairs = itertools.product(self.terms.items(), other.terms.items())
            return self._graded(pairs, mul)
        q = as_fraction(other)
        terms = {key: val * q for key, val in self.terms.items()} if q else {}
        return self._raw(self.base, self.ring, terms)

    def bracket(self, other: DForm) -> DForm:
        """The graded bracket of connection forms: the wedge product with
        the values' bracket."""
        self._check(other)
        pairs = itertools.product(self.terms.items(), other.terms.items())
        return self._graded(pairs, lambda u, v: u.bracket(v))

    def _graded(self, pairs, pair) -> DForm:
        """The one graded product: the sum over ``pairs`` of terms
        (((I, b), u), ((J, c), v)) of z^(b + c) dz_I ^ dz_J (x) pair(u, v)."""
        out: dict = {}
        for ((w1, b1), v1), ((w2, b2), v2) in pairs:
            merged = _merge_sign(w1, w2)
            if merged is None:
                continue
            sign, widx = merged
            val = pair(v1, v2)
            accumulate(out, (widx, tuple(map(add, b1, b2))), val if sign > 0 else -val)
        return self._raw(self.base, self.ring, out)

    def exterior_d(self) -> DForm:
        """The exterior derivative on the base; values ride along."""
        out: dict = {}
        for (widx, bexp), val in self.terms.items():
            for i, e in enumerate(bexp):
                if not e:
                    continue
                merged = _merge_sign((i,), widx)
                if merged is None:
                    continue
                sign, new_widx = merged
                new_bexp = bexp[:i] + (e - 1,) + bexp[i + 1 :]
                accumulate(out, (new_widx, new_bexp), val * (sign * e))
        return self._raw(self.base, self.ring, out)

    def map_values(self, fn) -> DForm:
        """``fn``, an additive map of the value ring into a ring, on every
        value; ``fn(ring)`` is the zero of the result's ring."""
        out = {}
        for key, val in self.terms.items():
            new = fn(val)
            if new:
                out[key] = new
        return self._raw(self.base, fn(self.ring), out)

    def __eq__(self, other):
        if not isinstance(other, DForm):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        bits = []
        for widx, bexp in sorted(self.terms, key=lambda k: (len(k[0]), k)):
            mono = "*".join(
                f"{g}^{e}" if e > 1 else g for g, e in zip(self.base, bexp) if e
            )
            wedge = "^".join(f"d{self.base[i]}" for i in widx)
            head = " ".join(part for part in (mono, wedge) if part)
            val = f"({self.terms[widx, bexp]})"
            bits.append(f"{val} {head}" if head else val)
        return " + ".join(bits) or "0"


def de_rham(a: DForm) -> DForm:
    """Exterior derivative; squares to zero."""
    return a.exterior_d()


def hkr_map(c: HochschildChain) -> DForm:
    """f_0 (x) ... (x) f_p  ->  (1/p!) f_0 df_1 ^ ... ^ df_p, extended
    linearly.  Only defined over the commutative polynomial algebra.

    df_1 ^ ... ^ df_p is the sum over increasing p-subsets I of the
    variables of det(d f_k / d x_i, i in I) dx_I.  The partials of each
    distinct slot in positions >= 1 are computed once, each word's minors
    come from ``_jacobian_minors``, and every word's form is added into
    one dict.  A p-form in fewer than p variables is zero."""
    if c.handle.kind != "poly":
        raise ChainError(f"chains over {c.handle.kind!r} are not in the domain")
    variables = c.handle.unit.gens
    p = c.degree
    if p > len(variables):
        return DForm(variables, Q_ZERO, {})
    factor = Fraction(1, math.factorial(p))
    words = c.terms.values()
    inner = dict.fromkeys(itertools.chain.from_iterable(word[1:] for _, word in words))
    partials = {s: [c.slots[s].partial(v) for v in variables] for s in inner}
    out: dict[tuple, Poly] = {}
    for coeff, word in words:
        f0 = c.slots[word[0]] * (coeff.coefficient(0) * factor)
        minors = _jacobian_minors([partials[s] for s in word[1:]], c.handle.unit)
        for idx, det in minors.items():
            accumulate(out, idx, f0 * det)
    return DForm.scalar(variables, out)


def _jacobian_minors(rows: list, one: Poly) -> dict[tuple, Poly]:
    """{I: det(rows[k][i], i in I)} over the increasing len(rows)-subsets I
    of the columns, zero minors left out; ``one`` is the constant 1 over
    the columns' variables, the minor of no rows.  Laplace expansion along
    the first row, built up from the last row: the r x r minors of the
    last r rows come from the (r - 1) x (r - 1) minors of the rows below
    their first one."""
    n = len(one.gens)
    minors = {(): one}
    for r, row in enumerate(reversed(rows), 1):
        level = {}
        for cols in itertools.combinations(range(n), r):
            det = None
            for k, i in enumerate(cols):
                rest = cols[:k] + cols[k + 1 :]
                if not row[i] or rest not in minors:
                    continue
                term = row[i] if r == 1 else row[i] * minors[rest]
                if det is None:
                    det = -term if k % 2 else term
                else:
                    det = det - term if k % 2 else det + term
            if det:
                level[cols] = det
        minors = level
    return minors
