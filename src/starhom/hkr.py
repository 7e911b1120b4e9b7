"""Exterior algebra with polynomial coefficients and the chains-to-forms map.

The map sends f_0 (x) f_1 (x) ... (x) f_p over a commutative polynomial
algebra to (1/p!) f_0 df_1 ^ ... ^ df_p.  The 1/p! factor is kept as an
exact rational so the normalization statements downstream are bit-exact.
Composed with b it vanishes; composed with B it becomes the exterior
derivative, which is the commuting square the cyclic machinery needs.

The map does not wedge one-forms: the coefficient of dx_I in
df_1 ^ ... ^ df_p is the p x p minor of the Jacobian (d f_k / d x_i) on
the columns I, taken by Laplace expansion from partials computed once per
distinct slot.  ``wedge`` and ``de_rham`` are the exterior algebra's own
operations, used by the checks on the map.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .hochschild import ChainError, HochschildChain
from .series import Poly, SeriesError, accumulate


class FormError(SeriesError):
    """Contract violation in exterior-algebra operations."""


def _merge_sign(left: tuple, right: tuple) -> tuple[int, tuple] | None:
    """Sort the concatenation of two strictly increasing index tuples.

    Returns (sign, merged) or None when an index repeats.
    """
    merged = list(left)
    sign = 1
    for idx in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > idx:
            pos -= 1
        if pos > 0 and merged[pos - 1] == idx:
            return None
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, idx)
    return sign, tuple(merged)


class DForm:
    """Exterior-algebra element: wedge monomials dx_I with Poly coefficients.

    Indices are 0-based positions into the variable tuple and strictly
    increasing within each term; mixed degrees are allowed as formal sums.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean: dict[tuple, Poly] = {}
        if terms:
            for idx, coef in terms.items():
                idx = tuple(int(i) for i in idx)
                if list(idx) != sorted(set(idx)):
                    raise FormError(f"wedge indices must be strictly increasing: {idx}")
                if idx and (idx[0] < 0 or idx[-1] >= len(variables)):
                    raise FormError(f"wedge index out of range: {idx}")
                if coef.gens != variables:
                    raise FormError("coefficient generators do not match form variables")
                accumulate(clean, idx, coef)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("DForm is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> DForm:
        return cls(p.gens, {(): p})

    @classmethod
    def d_gen(cls, variables, i: int) -> DForm:
        variables = tuple(variables)
        return cls(variables, {(i,): Poly.const(variables, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: DForm):
        if self.vars != other.vars:
            raise FormError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: DForm) -> DForm:
        self._check(other)
        out = dict(self.terms)
        for idx, p in other.terms.items():
            accumulate(out, idx, p)
        return DForm(self.vars, out)

    def __neg__(self) -> DForm:
        return DForm(self.vars, {i: -p for i, p in self.terms.items()})

    def __sub__(self, other: DForm) -> DForm:
        return self + (-other)

    def scale(self, q) -> DForm:
        return DForm(self.vars, {i: p * q for i, p in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, DForm)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            p = self.terms[idx]
            wedge = "^".join(f"d{self.vars[i]}" for i in idx)
            if not wedge:
                bits.append(f"({p!r})")
            else:
                bits.append(f"({p!r}) {wedge}")
        return " + ".join(bits)


def wedge(a: DForm, b: DForm) -> DForm:
    """Graded-commutative product with shuffle signs."""
    a._check(b)
    out: dict[tuple, Poly] = {}
    for i1, p1 in a.terms.items():
        for i2, p2 in b.terms.items():
            merged = _merge_sign(i1, i2)
            if merged is None:
                continue
            sign, idx = merged
            accumulate(out, idx, p1 * p2 * sign)
    return DForm(a.vars, out)


def de_rham(a: DForm) -> DForm:
    """Exterior derivative; squares to zero."""
    out: dict[tuple, Poly] = {}
    for idx, p in a.terms.items():
        for i, v in enumerate(a.vars):
            dp = p.partial(v)
            if dp.is_zero():
                continue
            merged = _merge_sign((i,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            accumulate(out, new_idx, dp * sign)
    return DForm(a.vars, out)


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
        return DForm(variables)
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
    return DForm(variables, out)


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
