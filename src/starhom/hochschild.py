"""Hochschild chains over pluggable algebras, with b and B.

A chain of degree p is a finite combination of words a_0 (x) ... (x) a_p
with the slots in positions >= 1 taken modulo scalars (the reduced model
A (x) Abar^p).  Four algebras are wired in:

* ``poly``      commutative polynomials over Q;
* ``weyl``      truncated Moyal star algebra over Q[[t]];
* ``weyl-loc``  its t-localization, scalars Laurent in t;
* ``rees``      Laurent polynomials in t with differential-operator
                coefficients (the localized Rees model; the graded Rees
                ring sits inside it).

The slot values (``Poly``, ``WeylElement``, ``OpSeries``) answer the chain
layer themselves: ``*``, ``-``, ``is_zero``, ``key``, ``scalar_part``,
``monomials`` and ``lowest_term``.  An ``AlgebraHandle`` is plain data: the
kind, the unit, the window of the scalars and the ``strict`` flag.

Every word coefficient is a ``Laurent``: a sparse Laurent polynomial in t
over Q.  Over ``weyl`` and ``weyl-loc`` it carries a window [lower, trunc)
that starts as [0, trunc) of the handle and shifts with every t-power
moved into it; a sum keeps the smaller bounds and drops the exponents at
or above the new trunc.  Over ``poly`` and ``rees`` it is exact.  Which
t-powers a coefficient may take follows from the kind: t^0 only over
poly, t^m with m >= 0 over weyl, any m over weyl-loc and rees.

Stored form of a word: the scalar component of every slot >= 1 is
subtracted (words with a pure scalar slot vanish), and a monomial scalar
factor q * t^m is pulled out of each slot into the word coefficient, which
keeps term tables small.  The stored form is not a complete normal form;
zero tests and equality expand chains against the monomial k-basis of the
algebra, which decides every k-multilinear relation (additive slot
splittings and scalar factors alike) exactly.  Slot windows are ignored by
the merge keys, so data computed under different truncations cancels
wherever the stored values agree; all claims are exact within the
narrowest window used.

Slot work is done once per distinct slot within one call, in dicts that
live for that call only: the constructor normalizes each slot object once
(the key records whether it sits in slot 0, which keeps its scalar part),
``diff_b`` multiplies each ordered pair of slot objects once, and
``induced_chain_map`` maps each distinct value once and checks each pair
of slot objects once.  The image table is keyed on values, the others on
identity, holding the keyed objects so that no ``id`` is reused; none is
keyed on ``key()``, which ignores truncation windows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .series import Laurent, Poly, SeriesError, accumulate, as_fraction
from .rees import DiffOp, OpSeries
from .weyl import WeylElement, weyl_gens


class ChainError(SeriesError):
    """Contract violation in chain-level operations."""


@dataclass(frozen=True)
class AlgebraHandle:
    """The coefficient algebra of a chain complex, as data.

    ``trunc`` is the scalar window [0, trunc) of the weyl kinds and None
    for the exact poly and rees scalars.  With ``strict`` the stored form
    never moves t-powers out of a slot.
    """

    kind: str
    unit: Any
    trunc: int | None = None
    strict: bool = False

    def coerce_coeff(self, c) -> Laurent:
        """Accept Fractions / ints / 'p/q' strings as coefficients."""
        if isinstance(c, Laurent):
            return c
        q = as_fraction(c)
        terms = {0: q} if q else {}
        return Laurent._raw(terms, None if self.trunc is None else 0, self.trunc)

    def scale_coeff(self, c: Laurent, q, m: int) -> Laurent:
        """c * q * t^m, if this algebra's scalars admit t^m."""
        if m and self.kind == "poly":
            raise ChainError("t-power scalar factored over a t-free algebra")
        if m < 0 and self.kind == "weyl":
            raise ChainError("negative t-power coefficient over the unlocalized algebra")
        return c.mul_monomial(q, m)

    def coeff_into(self, c: Laurent) -> Laurent:
        """A coefficient of another algebra moved into this one: t -> t
        inside this algebra's window, so t -> 0 when the target is poly."""
        if self.kind == "poly":
            q = c.coefficient(0)
            return Laurent._raw({0: q} if q else {}, None, None)
        if self.trunc is None:
            return Laurent._raw(dict(c.terms), None, None)
        lower = min([0, *c.terms]) if c.lower is None else c.lower
        trunc = self.trunc if c.trunc is None else min(c.trunc, self.trunc)
        return Laurent(c.terms, lower, trunc)


def poly_handle(gens) -> AlgebraHandle:
    """Commutative polynomials over Q; exact rational scalars."""
    return AlgebraHandle("poly", Poly.const(tuple(gens), 1))


def weyl_handle(dim: int, trunc: int = 8, localized: bool = False) -> AlgebraHandle:
    """Moyal star algebra in dimension d, scalars in the window [0, trunc).

    ``localized`` admits negative t-powers (scalars Laurent in t); the
    plain algebra keeps everything in nonnegative powers.
    """
    unit = WeylElement.const(dim, 1, trunc)
    return AlgebraHandle("weyl-loc" if localized else "weyl", unit, trunc)


def rees_handle(dim: int, strict: bool = False) -> AlgebraHandle:
    """Laurent-in-t differential operators; exact scalars Laurent in t.

    With ``strict`` the stored form never shifts t-powers out of a slot,
    so chains over the graded (unlocalized) subring stay inside it and the
    symbol map t -> 0 can be applied slotwise.
    """
    return AlgebraHandle("rees", OpSeries.one(dim), strict=strict)


class HochschildChain:
    """Exact linear combination of normalized tensor words of one degree."""

    __slots__ = ("handle", "degree", "terms")

    def __init__(self, handle: AlgebraHandle, degree: int, terms=None):
        if degree < 0:
            raise ChainError("chain degree must be >= 0")
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "degree", int(degree))
        merged: dict[Any, tuple[Laurent, tuple]] = {}
        slots: dict[tuple[int, bool], Any] = {}
        for coeff, word in terms or ():
            coeff = handle.coerce_coeff(coeff)
            word = tuple(word)
            if len(word) != degree + 1:
                raise ChainError(
                    f"word length {len(word)} does not match degree {degree}"
                )
            parts = [
                _once(slots, (id(a), i == 0), lambda a: _normal_slot(handle, a, i == 0), a)
                for i, a in enumerate(word)
            ]
            if None in parts:
                continue
            for q, m, _, _ in parts:
                if q != 1 or m:
                    coeff = handle.scale_coeff(coeff, q, m)
            _, _, stored, keys = zip(*parts)
            _merge_term(merged, keys, coeff, stored)
        object.__setattr__(self, "terms", merged)

    def __setattr__(self, *_):
        raise AttributeError("HochschildChain is immutable")

    @classmethod
    def zero(cls, handle: AlgebraHandle, degree: int = 0) -> HochschildChain:
        return cls(handle, degree)

    @classmethod
    def single(cls, handle: AlgebraHandle, word, coeff=1) -> HochschildChain:
        word = tuple(word)
        return cls(handle, len(word) - 1, [(coeff, word)])

    def items(self):
        return list(self.terms.values())

    def is_zero(self) -> bool:
        """Complete zero test: expand every word in the monomial k-basis
        of the algebra, so additive slot relations such as
        a (x) (u+v) (x) b = a (x) u (x) b + a (x) v (x) b are decided.

        Contributions are added one at a time with the window rule of
        ``Laurent``; stored slots have no negative t-power over ``weyl``,
        so no t-power rule can fail here."""
        if not self.terms:
            return True
        table: dict[Any, Laurent] = {}
        for coeff, word in self.terms.values():
            for combo in itertools.product(*(a.monomials() for a in word)):
                q = Fraction(1)
                m = 0
                for mono_q, mono_m, _ in combo:
                    q *= mono_q
                    m += mono_m
                key = tuple(mono_key for _, _, mono_key in combo)
                accumulate(table, key, coeff.mul_monomial(q, m))
        return not table

    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other: HochschildChain) -> HochschildChain:
        if self.handle.kind != other.handle.kind:
            raise ChainError(
                f"mixed algebras: {self.handle.kind} vs {other.handle.kind}"
            )
        if self.degree != other.degree:
            # only a zero side may differ in degree; its words are dropped
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ChainError(f"mixed degrees: {self.degree} vs {other.degree}")
        out = dict(self.terms)
        for key, (coeff, word) in other.terms.items():
            _merge_term(out, key, coeff, word)
        chain = HochschildChain(self.handle, self.degree)
        object.__setattr__(chain, "terms", out)
        return chain

    def __neg__(self) -> HochschildChain:
        return self.scale(-1)

    def __sub__(self, other: HochschildChain) -> HochschildChain:
        return self + (-other)

    def scale(self, q, tpow: int = 0) -> HochschildChain:
        q = as_fraction(q)
        h = self.handle
        chain = HochschildChain(h, self.degree)
        if not q:
            return chain
        out = {
            key: (h.scale_coeff(coeff, q, tpow), word)
            for key, (coeff, word) in self.terms.items()
        }
        object.__setattr__(chain, "terms", out)
        return chain

    def __eq__(self, other):
        return (
            isinstance(other, HochschildChain)
            and self.handle.kind == other.handle.kind
            and (self - other).is_zero()
        )

    def __repr__(self):
        if not self.terms:
            return f"0 (degree {self.degree} chain over {self.handle.kind})"
        n = len(self.terms)
        return f"<{n} word{'s' if n != 1 else ''}, degree {self.degree}, over {self.handle.kind}>"


def _once(table: dict, key, compute: Callable, arg):
    """``compute(arg)``, computed once per ``key`` of ``table``, a dict that
    lives for one call.  The entry holds ``arg``, so an ``id`` inside
    ``key`` is not reused while the table lives."""
    hit = table.get(key)
    if hit is None:
        hit = table[key] = (compute(arg), arg)
    return hit[0]


def _normal_slot(handle: AlgebraHandle, a, first: bool):
    """(q, m, a', a'.key()) with a = q * t^m * a' in the stored form, or
    None when the word vanishes: a is zero, or a pure scalar off slot 0."""
    if not first:
        sp = a.scalar_part()
        if not sp.is_zero():
            a = a - sp
    if a.is_zero():
        return None
    q, m = a.lowest_term()
    if handle.strict:
        m = 0
    if q != 1 or m:
        a = a.mul_monomial(1 / q, -m) if m else a * (1 / q)
    return q, m, a, a.key()


def _merge_term(table: dict, key, coeff: Laurent, word: tuple):
    hit = table.get(key)
    if hit is not None:
        coeff, word = hit[0] + coeff, hit[1]
    if coeff.is_zero():
        table.pop(key, None)
    else:
        table[key] = (coeff, word)


def diff_b(c: HochschildChain) -> HochschildChain:
    """Hochschild boundary: wrap term (-1)^p a_p a_0 (x) ... plus the
    alternating sum of adjacent products.  Zero on degree-0 chains."""
    p = c.degree
    h = c.handle
    if p == 0:
        return HochschildChain.zero(h, 0)
    products: dict[tuple[int, int], Any] = {}

    def mul(a, b):
        return _once(products, (id(a), id(b)), lambda _: a * b, (a, b))

    raw = []
    for coeff, word in c.terms.values():
        signed = (coeff, -coeff)
        raw.append((signed[p % 2], (mul(word[p], word[0]),) + word[1:p]))
        for i in range(p):
            merged = word[:i] + (mul(word[i], word[i + 1]),) + word[i + 2 :]
            raw.append((signed[i % 2], merged))
    return HochschildChain(h, p - 1, raw)


def diff_B(c: HochschildChain) -> HochschildChain:
    """Connes cyclic differential: sum_i (-1)^{pi} 1 (x) a_i ... a_{i-1}."""
    p = c.degree
    h = c.handle
    raw = []
    for coeff, word in c.terms.values():
        signed = (coeff, -coeff)
        for i in range(p + 1):
            rotated = (h.unit,) + word[i:] + word[:i]
            raw.append((signed[(p * i) % 2], rotated))
    return HochschildChain(h, p + 1, raw)


def alt_chain(handle: AlgebraHandle, prefix, slots, coeff=1) -> HochschildChain:
    """Unnormalized antisymmetrization: the signed sum over all
    permutations of the slots, prefixed by the given element."""
    slots = tuple(slots)
    n = len(slots)
    raw = []
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        word = (prefix,) + tuple(slots[i] for i in perm)
        raw.append((handle.coerce_coeff(Fraction(sign) * coeff), word))
    return HochschildChain(handle, n, raw)


def _perm_sign(perm: tuple) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def phi_E(dim: int) -> HochschildChain:
    """Trace cycle over differential operators:
    Alt(1 (x) x_1 ... x_d (x) d_1 ... d_d) in degree 2d."""
    h = rees_handle(dim)
    xs = [OpSeries.from_op(DiffOp.x(dim, i)) for i in range(1, dim + 1)]
    ds = [OpSeries.from_op(DiffOp.d(dim, i)) for i in range(1, dim + 1)]
    return alt_chain(h, h.unit, xs + ds)


def phi_A(dim: int, trunc: int = 3) -> HochschildChain:
    """Trace cycle over the localized star algebra:
    Alt(1 (x) x_1 ... x_d (x) xi_1/t ... xi_d/t) in degree 2d."""
    h = weyl_handle(dim, trunc=trunc, localized=True)
    gens = weyl_gens(dim)
    xs = [
        WeylElement.from_poly(Poly.gen(gens, gens[i]), dim, trunc)
        for i in range(dim)
    ]
    xis = [
        WeylElement.from_poly(Poly.gen(gens, gens[dim + i]), dim, trunc, t_exp=-1)
        for i in range(dim)
    ]
    return alt_chain(h, h.unit, xs + xis)


@dataclass(frozen=True)
class AlgebraMorphism:
    """A unital algebra map; scalars move by ``target.coeff_into``."""

    source: AlgebraHandle
    target: AlgebraHandle
    element_map: Callable[[Any], Any]


def induced_chain_map(
    h: AlgebraMorphism, c: HochschildChain, check: bool = True
) -> HochschildChain:
    """Apply an algebra map slotwise; commutes with b and B.

    With ``check`` on, multiplicativity is spot-checked on every ordered
    pair of slots in every word, and unitality on the unit itself.

    ``element_map`` is applied once per distinct value (slots, the unit
    and the checked products alike): that table is keyed on the values
    themselves (full equality, windows included).  Each ordered pair of
    slot objects is checked once, keyed on identity: a repeat would give
    the same exact answer.  Both tables live for this call only and are
    never keyed on ``key()``, which ignores truncation windows.
    """
    images: dict[Any, Any] = {}

    def image(a):
        return _once(images, a, h.element_map, a)

    def check_pair(pair):
        a, b = pair
        if not (image(a * b) - image(a) * image(b)).is_zero():
            raise ChainError("multiplicativity spot-check failed on a word pair")

    tgt = h.target
    if check:
        if not (image(h.source.unit) - tgt.unit).is_zero():
            raise ChainError("morphism does not preserve the unit")
        checked: dict[tuple[int, int], Any] = {}
        for _, word in c.terms.values():
            for pair in itertools.permutations(word, 2):
                _once(checked, tuple(map(id, pair)), check_pair, pair)
    raw = []
    for coeff, word in c.terms.values():
        raw.append((tgt.coeff_into(coeff), tuple(image(a) for a in word)))
    return HochschildChain(tgt, c.degree, raw)

