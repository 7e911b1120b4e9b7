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
``monomials`` and ``lowest_term``.  ``WeylElement`` and ``OpSeries`` are
the two subclasses of ``series.TSeries``, and all but their ``*`` is
written once there.  An ``AlgebraHandle`` is plain data: the kind, the
unit and the window of the scalars.

Every word coefficient is a ``TSeries`` over Q: a sparse Laurent
polynomial in t.  Over ``weyl`` and ``weyl-loc`` it carries a window
[lower, trunc) that starts as [0, trunc) of the handle and shifts with
every t-power moved into it; a sum keeps the smaller bounds and drops the
exponents at or above the new trunc.  Over ``poly`` and ``rees`` it is
exact.  Which t-powers a coefficient may take follows from the kind: t^0
only over poly, t^m with m >= 0 over weyl, any m over weyl-loc and rees.
``AlgebraHandle.check_t_powers`` holds that rule; it is applied when a
coefficient enters a chain, when a chain map moves one into its target
and when a scalar moves out of a slot into one.

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

A chain holds one tuple ``slots`` of distinct stored slot values, deduped
by full value (windows included), and its words are tuples of small ints
into it.  Each slot also has a merge class: the index of the first slot
with the same ``key()``.  Words merge on their tuples of classes, so the
merge keys are int tuples and slots that differ only in their windows
merge, the stored word keeping the first word's slots.

Slot work is done once per distinct slot within one call, in tables that
live for that call only.  The constructor normalizes each (slot object,
slot-0 flag) once, keyed on identity and holding the objects so that no
``id`` is reused; slot 0 keeps its scalar part.  ``diff_b`` multiplies
each ordered pair of slot indices once, ``diff_B`` appends the unit to
the slot values and rotates int words, and ``is_zero`` expands each slot
into integer monomials once, over one common denominator.
``induced_chain_map`` maps each distinct value once (keyed on the values
themselves) and checks each ordered pair of slot indices once.  ``+``
re-indexes the other chain once per distinct slot: by full value into
this chain's slots and by ``key()`` into its classes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .series import Q_ZERO, Poly, SeriesError, TSeries, _merge_sign, as_fraction
from .rees import DiffOp, OpSeries
from .weyl import WeylElement, weyl_gens


class ChainError(SeriesError):
    """Contract violation in chain-level operations."""


class AlgebraHandle:
    """The coefficient algebra of a chain complex, as data.

    ``trunc`` is the scalar window [0, trunc) of the weyl kinds and None
    for the exact poly and rees scalars.
    """

    __slots__ = ("kind", "unit", "trunc")

    def __init__(self, kind: str, unit, trunc: int | None = None):
        self.kind, self.unit, self.trunc = kind, unit, trunc

    def coerce_coeff(self, c) -> TSeries:
        """A word coefficient: a series over Q, or a Fraction / int / 'p/q'
        string taken as a constant.  A series must be exact over poly and
        rees and windowed over the weyl kinds, and its t-powers must obey
        this algebra's rule (``check_t_powers``)."""
        if isinstance(c, TSeries):
            if not isinstance(c.ring, Fraction):
                raise ChainError(f"a chain coefficient is a series over Q, not {c!r}")
            if (c.trunc is None) != (self.trunc is None):
                kind = "an exact" if c.trunc is None else "a windowed"
                raise ChainError(f"{kind} coefficient over the {self.kind} algebra")
            self.check_t_powers(c.coeffs)
            return c
        q = as_fraction(c)
        terms = {0: q} if q else {}
        return TSeries._raw(Q_ZERO, terms, None if self.trunc is None else 0, self.trunc)

    def check_t_powers(self, powers) -> None:
        """The t-powers that this algebra's scalars admit: t^0 only over
        poly, t^m with m >= 0 over weyl, any m over weyl-loc and rees."""
        if self.kind == "poly" and any(powers):
            raise ChainError("t-power scalar over a t-free algebra")
        if self.kind == "weyl" and min(powers, default=0) < 0:
            raise ChainError("negative t-power coefficient over the unlocalized algebra")

    def scale_coeff(self, c: TSeries, q, m: int) -> TSeries:
        """c * q * t^m, if this algebra's scalars admit t^m."""
        if m:
            self.check_t_powers((m,))
        return c.mul_monomial(q, m)

    def coeff_into(self, c: TSeries) -> TSeries:
        """A coefficient of another algebra moved into this one: t -> t
        inside this algebra's window, so t -> 0 when the target is poly.
        Its t-powers must obey this algebra's rule."""
        if self.kind == "poly":
            return TSeries(Q_ZERO, {0: c.coefficient(0)})
        self.check_t_powers(c.coeffs)
        if self.trunc is None:
            return TSeries._raw(Q_ZERO, c.coeffs, None, None)
        lower = min([0, *c.coeffs]) if c.lower is None else c.lower
        trunc = self.trunc if c.trunc is None else min(c.trunc, self.trunc)
        return TSeries(Q_ZERO, c.coeffs, lower, trunc)

    def algebra(self) -> tuple:
        """What chains must share to be added or compared: the kind, and
        the generators over poly or the dimension over the other kinds.
        Windows may differ."""
        return (self.kind, self.unit.gens if self.kind == "poly" else self.unit.dim)


def poly_handle(gens) -> AlgebraHandle:
    """Commutative polynomials over Q; exact rational scalars."""
    return AlgebraHandle("poly", Poly.const(tuple(gens), 1))


def weyl_handle(dim: int, trunc: int = 8, localized: bool = False) -> AlgebraHandle:
    """Moyal star algebra in dimension d, scalars in the window [0, trunc).

    ``localized`` admits negative t-powers (scalars Laurent in t); the
    plain algebra keeps everything in nonnegative powers.
    """
    unit = WeylElement.const(weyl_gens(dim), 1, trunc)
    return AlgebraHandle("weyl-loc" if localized else "weyl", unit, trunc)


def rees_handle(dim: int) -> AlgebraHandle:
    """Laurent-in-t differential operators; exact scalars Laurent in t."""
    return AlgebraHandle("rees", OpSeries.one(dim))


class HochschildChain:
    """Exact linear combination of normalized tensor words of one degree.

    ``slots`` is a tuple of the distinct stored slot values and a stored
    word is a tuple of indices into it.  ``terms`` maps a merge key, the
    word with each slot replaced by its merge class, to (coefficient,
    word).  ``items()`` gives the words as tuples of slot values.
    """

    __slots__ = ("handle", "degree", "slots", "terms")

    def __init__(self, handle: AlgebraHandle, degree: int, terms=None):
        if degree < 0:
            raise ChainError("chain degree must be >= 0")
        raw = []
        for coeff, word in terms or ():
            coeff = handle.coerce_coeff(coeff)
            word = tuple(word)
            if len(word) != degree + 1:
                raise ChainError(
                    f"word length {len(word)} does not match degree {degree}"
                )
            raw.append((coeff, word))
        objects = {id(a): a for _, word in raw for a in word}
        index = {i: s for s, i in enumerate(objects)}
        raw = [(coeff, tuple(map(index.__getitem__, map(id, word)))) for coeff, word in raw]
        slots, merged = _stored_terms(handle, list(objects.values()), raw)
        _set(self, handle, degree, slots, merged)

    def __setattr__(self, *_):
        raise AttributeError("HochschildChain is immutable")

    @classmethod
    def _raw(cls, handle: AlgebraHandle, degree: int, slots: tuple, terms: dict) -> HochschildChain:
        """Trusted constructor: ``terms`` is already in stored form over ``slots``."""
        chain = object.__new__(cls)
        _set(chain, handle, degree, slots, terms)
        return chain

    @classmethod
    def _from_indexed(cls, handle: AlgebraHandle, degree: int, source, raw) -> HochschildChain:
        """The chain sum(coeff * word) of int words ``raw`` into the list of
        slot values ``source``, brought into stored form."""
        return cls._raw(handle, degree, *_stored_terms(handle, source, raw))

    @classmethod
    def zero(cls, handle: AlgebraHandle, degree: int = 0) -> HochschildChain:
        return cls(handle, degree)

    @classmethod
    def single(cls, handle: AlgebraHandle, word) -> HochschildChain:
        word = tuple(word)
        return cls(handle, len(word) - 1, [(1, word)])

    def items(self):
        slot = self.slots.__getitem__
        return [(coeff, tuple(map(slot, word))) for coeff, word in self.terms.values()]

    def is_zero(self) -> bool:
        """Complete zero test: expand every word in the monomial k-basis
        of the algebra, so additive slot relations such as
        a (x) (u+v) (x) b = a (x) u (x) b + a (x) v (x) b are decided.
        Each distinct slot is expanded once.

        The expansion runs on integers.  All slot monomials share one
        common denominator and all word coefficients another; every word
        has the same length, so every contribution carries the same
        dropped factor and the verdict is unchanged.  Each basis key holds
        a plain {t-power: int} dict and the window of its sum, and the
        contributions are added one at a time with the rule of
        ``TSeries.__add__``: the sum's trunc is the smaller one, every
        exponent at or above it is dropped from either side, a key whose
        dict empties is dropped with its window, and an exact value
        meeting a windowed one raises ``SeriesError``.  Stored slots have
        no negative t-power over ``weyl``, so no t-power rule can fail
        here."""
        if not self.terms:
            return True
        monomials = [a.monomials() for a in self.slots]
        sden = lcm(*[q.denominator for mono in monomials for q, _, _ in mono])
        expanded = [
            [(q.numerator * (sden // q.denominator), m, key) for q, m, key in mono]
            for mono in monomials
        ]
        words = self.terms.values()
        cden = lcm(*[q.denominator for coeff, _ in words for q in coeff.coeffs.values()])
        table: dict[object, list] = {}
        for coeff, word in words:
            c = [(e, q.numerator * (cden // q.denominator)) for e, q in coeff.coeffs.items()]
            trunc = coeff.trunc
            combos = [(1, 0, ())]
            for s in word:
                combos = [
                    (n * mono_n, m + mono_m, key + (mono_key,))
                    for n, m, key in combos
                    for mono_n, mono_m, mono_key in expanded[s]
                ]
            for n, m, key in combos:
                top = None if trunc is None else trunc + m
                entry = table.get(key)
                if entry is None:
                    table[key] = [{e + m: v * n for e, v in c}, top]
                    continue
                sums, old = entry
                if (old is None) != (top is None):
                    raise SeriesError("exact and windowed series do not mix")
                if top is not None and top < old:
                    sums = entry[0] = {e: v for e, v in sums.items() if e < top}
                    entry[1] = old = top
                for e, v in c:
                    e += m
                    if old is not None and e >= old:
                        continue
                    v = sums.get(e, 0) + v * n
                    if v:
                        sums[e] = v
                    else:
                        del sums[e]
                if not sums:
                    del table[key]
        return not table

    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other: HochschildChain) -> HochschildChain:
        if self.handle.algebra() != other.handle.algebra():
            raise ChainError(
                f"mixed algebras: {self.handle.algebra()} vs {other.handle.algebra()}"
            )
        if self.degree != other.degree:
            # only a zero side may differ in degree; its words are dropped
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ChainError(f"mixed degrees: {self.degree} vs {other.degree}")
        # re-index the other chain once per distinct slot: by full value
        # into this chain's slots, by key() into its merge classes
        table = _SlotTable(self.slots)
        remap = [table.add(a, a.key()) for a in other.slots]
        classes = table.classes
        merged = dict(self.terms)
        for coeff, word in other.terms.values():
            word = tuple(map(remap.__getitem__, word))
            _merge_term(merged, tuple(map(classes.__getitem__, word)), coeff, word)
        return HochschildChain._raw(self.handle, self.degree, *_compact(table, merged))

    def __neg__(self) -> HochschildChain:
        return self.scale(-1)

    def __sub__(self, other: HochschildChain) -> HochschildChain:
        return self + (-other)

    def scale(self, q, tpow: int = 0) -> HochschildChain:
        q = as_fraction(q)
        h = self.handle
        if not q:
            return HochschildChain.zero(h, self.degree)
        out = {
            key: (h.scale_coeff(coeff, q, tpow), word)
            for key, (coeff, word) in self.terms.items()
        }
        return HochschildChain._raw(h, self.degree, self.slots, out)

    def __eq__(self, other):
        return (
            isinstance(other, HochschildChain)
            and self.handle.algebra() == other.handle.algebra()
            and (self - other).is_zero()
        )

    def __repr__(self):
        if not self.terms:
            return f"0 (degree {self.degree} chain over {self.handle.kind})"
        n = len(self.terms)
        return f"<{n} word{'s' if n != 1 else ''}, degree {self.degree}, over {self.handle.kind}>"


def _set(chain: HochschildChain, handle, degree: int, slots: tuple, terms: dict):
    object.__setattr__(chain, "handle", handle)
    object.__setattr__(chain, "degree", int(degree))
    object.__setattr__(chain, "slots", slots)
    object.__setattr__(chain, "terms", terms)


class _SlotTable:
    """The distinct stored slot values of one chain being built.

    Values are deduped by full value, windows included.  The merge class
    of a slot is the index of the first slot with the same ``key()``, so
    slots that differ only in their windows merge.
    """

    __slots__ = ("slots", "keys", "classes", "_by_key")

    def __init__(self, values=()):
        self.slots: list = []
        self.keys: list = []
        self.classes: list[int] = []
        self._by_key: dict[object, list[int]] = {}
        for a in values:
            self.add(a, a.key())

    def add(self, a, key) -> int:
        """The index of the value ``a``, whose ``key()`` is ``key``."""
        same = self._by_key.setdefault(key, [])
        for t in same:
            if self.slots[t] == a:
                return t
        t = len(self.slots)
        self.slots.append(a)
        self.keys.append(key)
        self.classes.append(same[0] if same else t)
        same.append(t)
        return t


def _stored_terms(handle: AlgebraHandle, source: list, raw) -> tuple[tuple, dict]:
    """(slots, terms) of sum(coeff * word) over int words into ``source``.

    Each (slot object, slot-0 flag) is normalized once, into a slot index
    and the scalar q * t^m moved out of it (None when q = 1 and m = 0), or
    into (None, None) when the word vanishes.  ``source`` holds the
    objects, so no ``id`` is reused."""
    table = _SlotTable()
    normal: dict[tuple[int, bool], tuple] = {}

    def entry(s: int, first: bool) -> tuple:
        a = source[s]
        key = (id(a), first)
        if key not in normal:
            part = _normal_slot(handle, a, first)
            if part is None:
                normal[key] = (None, None)
            else:
                q, m, a, a_key = part
                normal[key] = (table.add(a, a_key), (q, m) if q != 1 or m else None)
        return normal[key]

    head_slot, head_scale, tail_slot, tail_scale = {}, {}, {}, {}
    for s in dict.fromkeys(word[0] for _, word in raw):
        head_slot[s], head_scale[s] = entry(s, True)
    for s in dict.fromkeys(itertools.chain.from_iterable(word[1:] for _, word in raw)):
        tail_slot[s], tail_scale[s] = entry(s, False)
    classes = table.classes
    merged: dict[tuple, tuple[TSeries, tuple]] = {}
    for coeff, word in raw:
        rest = word[1:]
        stored = (head_slot[word[0]], *map(tail_slot.__getitem__, rest))
        if None in stored:
            continue
        moved = head_scale[word[0]]
        if moved:
            coeff = handle.scale_coeff(coeff, *moved)
        for q, m in filter(None, map(tail_scale.__getitem__, rest)):
            coeff = handle.scale_coeff(coeff, q, m)
        _merge_term(merged, tuple(map(classes.__getitem__, stored)), coeff, stored)
    return _compact(table, merged)


def _compact(table: _SlotTable, merged: dict) -> tuple[tuple, dict]:
    """(slots, terms) with only the slots that the stored words use,
    renumbered in order; words that cancel or vanish leave slots behind."""
    used = set(itertools.chain.from_iterable(word for _, word in merged.values()))
    if len(used) == len(table.slots):
        return tuple(table.slots), merged
    kept = _SlotTable()
    renumber = {t: kept.add(table.slots[t], table.keys[t]) for t in sorted(used)}
    classes = kept.classes
    terms = {}
    for coeff, word in merged.values():
        word = tuple(map(renumber.__getitem__, word))
        terms[tuple(map(classes.__getitem__, word))] = (coeff, word)
    return tuple(kept.slots), terms


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
    if q != 1 or m:
        a = a.mul_monomial(1 / q, -m) if m else a * (1 / q)
    return q, m, a, a.key()


def _merge_term(table: dict, key, coeff: TSeries, word: tuple):
    hit = table.get(key)
    if hit is not None:
        coeff, word = hit[0] + coeff, hit[1]
    if coeff.is_zero():
        table.pop(key, None)
    else:
        table[key] = (coeff, word)


def diff_b(c: HochschildChain) -> HochschildChain:
    """Hochschild boundary: wrap term (-1)^p a_p a_0 (x) ... plus the
    alternating sum of adjacent products.  Zero on degree-0 chains.

    Each ordered pair (i, j) of slot indices is multiplied once; its
    product is appended to the slot values and named by its index."""
    p = c.degree
    h = c.handle
    if p == 0:
        return HochschildChain.zero(h, 0)
    source = list(c.slots)
    products: dict[tuple[int, int], int] = {}

    def mul(i: int, j: int) -> int:
        k = products.get((i, j))
        if k is None:
            k = products[i, j] = len(source)
            source.append(source[i] * source[j])
        return k

    raw = []
    for coeff, word in c.terms.values():
        signed = (coeff, -coeff)
        raw.append((signed[p % 2], (mul(word[p], word[0]),) + word[1:p]))
        for i in range(p):
            merged = word[:i] + (mul(word[i], word[i + 1]),) + word[i + 2 :]
            raw.append((signed[i % 2], merged))
    return HochschildChain._from_indexed(h, p - 1, source, raw)


def diff_B(c: HochschildChain) -> HochschildChain:
    """Connes cyclic differential: sum_i (-1)^{pi} 1 (x) a_i ... a_{i-1}."""
    p = c.degree
    h = c.handle
    unit = (len(c.slots),)
    raw = []
    for coeff, word in c.terms.values():
        signed = (coeff, -coeff)
        for i in range(p + 1):
            raw.append((signed[(p * i) % 2], unit + word[i:] + word[:i]))
    return HochschildChain._from_indexed(h, p + 1, [*c.slots, h.unit], raw)


def alt_chain(handle: AlgebraHandle, prefix, slots) -> HochschildChain:
    """Unnormalized antisymmetrization: the signed sum over all
    permutations of the slots, prefixed by the given element."""
    slots = tuple(slots)
    n = len(slots)
    raw = []
    for perm in itertools.permutations(range(n)):
        word = (prefix,) + tuple(slots[i] for i in perm)
        raw.append((_merge_sign((), perm)[0], word))
    return HochschildChain(handle, n, raw)


def phi_E(dim: int) -> HochschildChain:
    """Trace cycle over differential operators:
    Alt(1 (x) x_1 ... x_d (x) d_1 ... d_d) in degree 2d."""
    h = rees_handle(dim)
    xs = [OpSeries.from_op(DiffOp.x(dim, i)) for i in range(1, dim + 1)]
    ds = [OpSeries.from_op(DiffOp.d(dim, i)) for i in range(1, dim + 1)]
    return alt_chain(h, h.unit, xs + ds)


def phi_A(dim: int) -> HochschildChain:
    """Trace cycle over the localized star algebra:
    Alt(1 (x) x_1 ... x_d (x) xi_1/t ... xi_d/t) in degree 2d, scalars
    in the window [0, 3)."""
    trunc = 3
    h = weyl_handle(dim, trunc=trunc, localized=True)
    gens = weyl_gens(dim)
    xs = [
        WeylElement.from_poly(Poly.gen(gens, gens[i]), trunc)
        for i in range(dim)
    ]
    xis = [
        WeylElement.from_poly(Poly.gen(gens, gens[dim + i]), trunc, t_exp=-1)
        for i in range(dim)
    ]
    return alt_chain(h, h.unit, xs + xis)


class AlgebraMorphism:
    """A unital algebra map; scalars move by ``target.coeff_into``."""

    __slots__ = ("source", "target", "element_map")

    def __init__(self, source: AlgebraHandle, target: AlgebraHandle, element_map):
        self.source, self.target, self.element_map = source, target, element_map


def induced_chain_map(h: AlgebraMorphism, c: HochschildChain) -> HochschildChain:
    """Apply an algebra map slotwise; commutes with b and B.

    Multiplicativity is spot-checked on every ordered pair of slots in
    every word, and unitality on the unit itself.

    ``element_map`` is applied once per distinct value (slots, the unit
    and the checked products alike), in a table keyed on the values
    themselves (full equality, windows included) that lives for this
    call.  Each ordered pair of slot indices is checked once: a repeat
    would give the same exact answer.
    """
    images: dict = {}

    def image(a):
        hit = images.get(a)
        if hit is None:
            hit = images[a] = h.element_map(a)
        return hit

    tgt = h.target
    if not (image(h.source.unit) - tgt.unit).is_zero():
        raise ChainError("morphism does not preserve the unit")
    mapped = [image(a) for a in c.slots]
    # words with the same multiset of slots share their pairs
    shapes = {tuple(sorted(word)) for _, word in c.terms.values()}
    pairs = set()
    for shape in shapes:
        pairs.update(itertools.permutations(shape, 2))
    for i, j in sorted(pairs):
        product = image(c.slots[i] * c.slots[j])
        if not (product - mapped[i] * mapped[j]).is_zero():
            raise ChainError("multiplicativity spot-check failed on a word pair")
    raw = [(tgt.coeff_into(coeff), word) for coeff, word in c.terms.values()]
    return HochschildChain._from_indexed(tgt, c.degree, mapped, raw)
