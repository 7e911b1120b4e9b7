"""Hochschild chains over pluggable algebras, with b, B, and u-windows.

A chain of degree p is a finite combination of words a_0 (x) ... (x) a_p
with the slots in positions >= 1 taken modulo scalars (the reduced model
A (x) Abar^p).  Four algebras are wired in:

* ``poly``      commutative polynomials over Q;
* ``weyl``      truncated Moyal star algebra over Q[[t]];
* ``weyl-loc``  its t-localization, scalars Laurent in t;
* ``rees``      Laurent polynomials in t with differential-operator
                coefficients (the localized Rees model; the graded Rees
                ring sits inside it).

Stored form of a word: the scalar component of every slot >= 1 is
subtracted (words with a pure scalar slot vanish), and a monomial scalar
factor q * t^m is pulled out of each slot into the word coefficient, which
keeps term tables small.  The stored form is not a complete normal form;
zero tests and equality expand chains against the monomial k-basis of the
algebra, which decides every k-multilinear relation (additive slot
splittings and scalar factors alike) exactly.

Coefficients are elements of the scalar subring: plain Fractions for the
poly algebra, constant-coefficient series otherwise.  Series windows are
ignored by the merge keys, so data computed under different truncations
cancels wherever the stored coefficients agree; all claims are exact
within the narrowest window used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .series import Poly, SeriesError, TSeries, as_fraction
from .rees import DiffOp, OpSeries
from .weyl import WeylElement, moyal_star, weyl_gens


class ChainError(SeriesError):
    """Contract violation in chain-level operations."""


@dataclass(frozen=True)
class AlgebraHandle:
    """The operations a chain complex needs from its coefficient algebra.

    ``scalar_part`` returns the k.1 component as an algebra element;
    ``slot_factor`` extracts a canonical monomial factor (q, t-power) from
    a nonzero element.  Coefficient helpers manipulate scalars of k
    (Fraction or constant series depending on the algebra).
    """

    kind: str
    commutative: bool
    unit: Any
    multiply: Callable[[Any, Any], Any]
    add: Callable[[Any, Any], Any]
    scale: Callable[[Any, Fraction], Any]
    is_zero: Callable[[Any], bool]
    is_scalar: Callable[[Any], bool]
    scalar_part: Callable[[Any], Any]
    elem_key: Callable[[Any], Any]
    slot_factor: Callable[[Any], tuple[Fraction, int, Any]]
    monomials: Callable[[Any], list]
    coeff_unit: Callable[[], Any]
    coeff_scale: Callable[[Any, Fraction, int], Any]
    coeff_add: Callable[[Any, Any], Any]
    coeff_is_zero: Callable[[Any], bool]
    coeff_key: Callable[[Any], Any]

    def sub(self, a, b):
        return self.add(a, self.scale(b, Fraction(-1)))

    def equal(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def coerce_coeff(self, c):
        """Accept Fractions / ints as coefficients for any algebra."""
        if isinstance(c, (int, Fraction, str)):
            return self.coeff_scale(self.coeff_unit(), as_fraction(c), 0)
        return c


def poly_handle(gens) -> AlgebraHandle:
    """Commutative polynomials over Q; scalars are Fractions."""
    gens = tuple(gens)
    unit = Poly.const(gens, 1)

    def slot_factor(p: Poly):
        exp = min(p.terms)
        q = p.terms[exp]
        return q, 0, p * (1 / q)

    return AlgebraHandle(
        kind="poly",
        commutative=True,
        unit=unit,
        multiply=lambda a, b: a * b,
        add=lambda a, b: a + b,
        scale=lambda a, q: a * q,
        is_zero=lambda a: a.is_zero(),
        is_scalar=lambda a: a.is_constant(),
        scalar_part=lambda a: a.constant_part(),
        elem_key=lambda a: a.key(),
        slot_factor=slot_factor,
        monomials=lambda a: [(q, 0, exp) for exp, q in a.terms.items()],
        coeff_unit=lambda: Fraction(1),
        coeff_scale=_fraction_coeff_scale,
        coeff_add=lambda c1, c2: c1 + c2,
        coeff_is_zero=lambda c: not c,
        coeff_key=lambda c: c,
    )


def _fraction_coeff_scale(c: Fraction, q: Fraction, m: int) -> Fraction:
    if m != 0:
        raise ChainError("t-power scalar factored over a t-free algebra")
    return c * q


def _weyl_scalar_part(w: WeylElement) -> WeylElement:
    return WeylElement(w.value.map_coeffs(lambda p: p.constant_part()), w.dim)


def _weyl_slot_factor(w: WeylElement):
    m = min(w.value.coeffs)
    p = w.value.coeffs[m]
    exp = min(p.terms)
    q = p.terms[exp]
    return q, m, w.mul_monomial(1 / q, -m)


def weyl_handle(dim: int, trunc: int = 8, localized: bool = False, gens=None) -> AlgebraHandle:
    """Moyal star algebra in dimension d at window [lower, trunc).

    ``localized`` admits negative t-powers (scalars Laurent in t); the
    plain algebra keeps everything in nonnegative powers.
    """
    gens = weyl_gens(dim) if gens is None else tuple(gens)
    unit = WeylElement(TSeries.const(gens, 1, trunc), dim)

    def coeff_unit():
        return unit

    def coeff_scale(c: WeylElement, q: Fraction, m: int):
        if m and not localized and m < 0:
            raise ChainError("negative t-power coefficient over the unlocalized algebra")
        return c.mul_monomial(q, m)

    def monomials(a: WeylElement):
        out = []
        for e, p in a.value.coeffs.items():
            for exp, q in p.terms.items():
                out.append((q, e, exp))
        return out

    return AlgebraHandle(
        kind="weyl-loc" if localized else "weyl",
        commutative=False,
        unit=unit,
        multiply=moyal_star,
        add=lambda a, b: a + b,
        scale=lambda a, q: a.scale(q),
        is_zero=lambda a: a.is_zero(),
        is_scalar=lambda a: all(p.is_constant() for p in a.value.coeffs.values()),
        scalar_part=_weyl_scalar_part,
        elem_key=lambda a: a.key(),
        slot_factor=_weyl_slot_factor,
        monomials=monomials,
        coeff_unit=coeff_unit,
        coeff_scale=coeff_scale,
        coeff_add=lambda c1, c2: c1 + c2,
        coeff_is_zero=lambda c: c.is_zero(),
        coeff_key=lambda c: c.key(),
    )


def _ops_slot_factor(s: OpSeries):
    m = min(s.comps)
    op = s.comps[m]
    key = min(op.terms)
    q = op.terms[key]
    return q, m, s.mul_monomial(1 / q, -m)


def _ops_slot_factor_strict(s: OpSeries):
    # keep t-grades in the slots: scalars are polynomial in t, so moving a
    # t-power into the coefficient would leave the graded subalgebra
    op = s.comps[min(s.comps)]
    q = op.terms[min(op.terms)]
    return q, 0, s.scale(1 / q)


def rees_handle(dim: int, strict: bool = False) -> AlgebraHandle:
    """Laurent-in-t differential operators; scalars are Laurent in t.

    With ``strict`` the canonical form never shifts t-powers out of a
    slot, so chains over the graded (unlocalized) subring stay inside it
    and the symbol map t -> 0 can be applied slotwise.
    """
    unit = OpSeries.one(dim)

    def monomials(a: OpSeries):
        out = []
        for p, op in a.comps.items():
            for key, q in op.terms.items():
                out.append((q, p, key))
        return out

    return AlgebraHandle(
        kind="rees",
        commutative=False,
        unit=unit,
        multiply=lambda a, b: a * b,
        add=lambda a, b: a + b,
        scale=lambda a, q: a.scale(q),
        is_zero=lambda a: a.is_zero(),
        is_scalar=lambda a: a.is_scalar(),
        scalar_part=lambda a: a.scalar_part(),
        elem_key=lambda a: a.key(),
        slot_factor=_ops_slot_factor_strict if strict else _ops_slot_factor,
        monomials=monomials,
        coeff_unit=lambda: unit,
        coeff_scale=lambda c, q, m: c.mul_monomial(q, m),
        coeff_add=lambda c1, c2: c1 + c2,
        coeff_is_zero=lambda c: c.is_zero(),
        coeff_key=lambda c: c.key(),
    )


class HochschildChain:
    """Exact linear combination of normalized tensor words of one degree."""

    __slots__ = ("handle", "degree", "terms")

    def __init__(self, handle: AlgebraHandle, degree: int, terms=None, _normalized=False):
        if degree < 0:
            raise ChainError("chain degree must be >= 0")
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "degree", int(degree))
        merged: dict[Any, tuple[Any, tuple]] = {}
        for coeff, word in terms or ():
            coeff = handle.coerce_coeff(coeff)
            word = tuple(word)
            if len(word) != degree + 1:
                raise ChainError(
                    f"word length {len(word)} does not match degree {degree}"
                )
            if not _normalized:
                normalized = _normalize_term(handle, coeff, word)
                if normalized is None:
                    continue
                coeff, word = normalized
            _merge_term(handle, merged, coeff, word)
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
        a (x) (u+v) (x) b = a (x) u (x) b + a (x) v (x) b are decided."""
        if not self.terms:
            return True
        h = self.handle
        table: dict[Any, Any] = {}
        for coeff, word in self.terms.values():
            slot_monos = [h.monomials(a) for a in word]
            for combo in itertools.product(*slot_monos):
                q = Fraction(1)
                m = 0
                for mono_q, mono_m, _ in combo:
                    q *= mono_q
                    m += mono_m
                key = tuple(mono_key for _, _, mono_key in combo)
                c = h.coeff_scale(coeff, q, m)
                hit = table.get(key)
                c = c if hit is None else h.coeff_add(hit, c)
                if h.coeff_is_zero(c):
                    table.pop(key, None)
                else:
                    table[key] = c
        return not table

    def term_count(self) -> int:
        return len(self.terms)

    def _check(self, other: HochschildChain):
        if self.handle.kind != other.handle.kind:
            raise ChainError(
                f"mixed algebras: {self.handle.kind} vs {other.handle.kind}"
            )
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ChainError(f"mixed degrees: {self.degree} vs {other.degree}")

    def __add__(self, other: HochschildChain) -> HochschildChain:
        self._check(other)
        degree = other.degree if self.is_zero() else self.degree
        out = dict(self.terms)
        for coeff, word in other.terms.values():
            _merge_term(self.handle, out, coeff, word)
        chain = HochschildChain(self.handle, degree)
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
            key: (h.coeff_scale(coeff, q, tpow), word)
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


def _normalize_term(handle: AlgebraHandle, coeff, word):
    slots = list(word)
    for i in range(1, len(slots)):
        sp = handle.scalar_part(slots[i])
        if not handle.is_zero(sp):
            slots[i] = handle.sub(slots[i], sp)
        if handle.is_zero(slots[i]):
            return None
    if handle.is_zero(slots[0]):
        return None
    for i in range(len(slots)):
        q, m, reduced = handle.slot_factor(slots[i])
        if q != 1 or m != 0:
            coeff = handle.coeff_scale(coeff, q, m)
            slots[i] = reduced
    return coeff, tuple(slots)


def _merge_term(handle: AlgebraHandle, table: dict, coeff, word):
    key = tuple(handle.elem_key(a) for a in word)
    hit = table.get(key)
    if hit is None:
        if not handle.coeff_is_zero(coeff):
            table[key] = (coeff, word)
        return
    merged = handle.coeff_add(hit[0], coeff)
    if handle.coeff_is_zero(merged):
        del table[key]
    else:
        table[key] = (merged, hit[1])


def diff_b(c: HochschildChain) -> HochschildChain:
    """Hochschild boundary: wrap term (-1)^p a_p a_0 (x) ... plus the
    alternating sum of adjacent products.  Zero on degree-0 chains."""
    p = c.degree
    h = c.handle
    if p == 0:
        return HochschildChain.zero(h, 0)
    raw = []
    for coeff, word in c.terms.values():
        sign = Fraction(-1) ** p
        wrap = (h.multiply(word[p], word[0]),) + word[1:p]
        raw.append((h.coeff_scale(coeff, sign, 0), wrap))
        for i in range(p):
            sign = Fraction(-1) ** i
            merged = (
                word[:i] + (h.multiply(word[i], word[i + 1]),) + word[i + 2 :]
            )
            raw.append((h.coeff_scale(coeff, sign, 0), merged))
    return HochschildChain(h, p - 1, raw)


def diff_B(c: HochschildChain) -> HochschildChain:
    """Connes cyclic differential: sum_i (-1)^{pi} 1 (x) a_i ... a_{i-1}."""
    p = c.degree
    h = c.handle
    raw = []
    for coeff, word in c.terms.values():
        for i in range(p + 1):
            sign = Fraction(-1) ** (p * i)
            rotated = (h.unit,) + word[i:] + word[:i]
            raw.append((h.coeff_scale(coeff, sign, 0), rotated))
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
    """A unital algebra map together with its action on scalars."""

    source: AlgebraHandle
    target: AlgebraHandle
    element_map: Callable[[Any], Any]
    coeff_map: Callable[[Any], Any]


def induced_chain_map(
    h: AlgebraMorphism, c: HochschildChain, check: bool = True
) -> HochschildChain:
    """Apply an algebra map slotwise; commutes with b and B.

    With ``check`` on, multiplicativity is spot-checked on every ordered
    pair of slots in every word, and unitality on the unit itself.

    ``element_map`` is applied once per distinct value (slots, the unit
    and the checked products alike), and each distinct ordered pair of
    slot values is checked once: a repeat would give the same exact
    answer.  Both tables live for this call only and are keyed on the
    values themselves (full equality, windows included), never on
    ``elem_key``, which ignores truncation windows.
    """
    images: dict[Any, Any] = {}

    def image(a):
        out = images.get(a)
        if out is None:
            out = images[a] = h.element_map(a)
        return out

    if check:
        tgt = h.target
        if not tgt.equal(image(h.source.unit), tgt.unit):
            raise ChainError("morphism does not preserve the unit")
        checked: set[tuple[Any, Any]] = set()
        for _, word in c.terms.values():
            for pair in itertools.permutations(word, 2):
                if pair in checked:
                    continue
                checked.add(pair)
                a, b = pair
                lhs = image(h.source.multiply(a, b))
                rhs = tgt.multiply(image(a), image(b))
                if not tgt.equal(lhs, rhs):
                    raise ChainError(
                        "multiplicativity spot-check failed on a word pair"
                    )
    raw = []
    for coeff, word in c.terms.values():
        raw.append((h.coeff_map(coeff), tuple(image(a) for a in word)))
    return HochschildChain(h.target, c.degree, raw)


class UChain:
    """Homogeneous element of the cyclic complexes in the u-notation.

    Components live at u-exponents inside [lo, hi]; below lo they are
    exactly zero, above hi they are unknown (hi is a validity bound, the
    u-side mirror of t-truncation).  u has homological degree -2, so the
    component at u^j has chain degree total_degree + 2j.
    """

    __slots__ = ("handle", "window", "total_degree", "components")

    def __init__(self, handle: AlgebraHandle, window: tuple[int, int], total_degree: int, components=None):
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ChainError(f"u-window [{lo}, {hi}] is empty")
        clean: dict[int, HochschildChain] = {}
        for j, chain in (components or {}).items():
            j = int(j)
            if chain.is_zero():
                continue
            if not lo <= j <= hi:
                raise ChainError(f"u-exponent {j} outside window [{lo}, {hi}]")
            if chain.degree != total_degree + 2 * j:
                raise ChainError(
                    f"component at u^{j} has degree {chain.degree}, "
                    f"expected {total_degree + 2 * j}"
                )
            clean[j] = chain
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "total_degree", int(total_degree))
        object.__setattr__(self, "components", clean)

    def __setattr__(self, *_):
        raise AttributeError("UChain is immutable")

    def component(self, j: int) -> HochschildChain:
        chain = self.components.get(j)
        if chain is None:
            return HochschildChain.zero(self.handle, max(self.total_degree + 2 * j, 0))
        return chain

    def is_zero(self) -> bool:
        return not self.components

    def is_negative_cyclic(self) -> bool:
        return self.window[0] >= 0

    def __add__(self, other: UChain) -> UChain:
        lo = min(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        if self.components and other.components and self.total_degree != other.total_degree:
            raise ChainError("mixed total degrees")
        total = self.total_degree if self.components else other.total_degree
        comps: dict[int, HochschildChain] = {}
        for j in set(self.components) | set(other.components):
            if not lo <= j <= hi:
                continue
            s = self.component(j) + other.component(j)
            if not s.is_zero():
                comps[j] = s
        return UChain(self.handle, (lo, hi), total, comps)

    def __neg__(self) -> UChain:
        return UChain(
            self.handle,
            self.window,
            self.total_degree,
            {j: -c for j, c in self.components.items()},
        )

    def __sub__(self, other: UChain) -> UChain:
        return self + (-other)

    def u_shift(self, k: int = 1) -> UChain:
        """Multiplication by u^k: an injective chain map of total degree -2k."""
        return UChain(
            self.handle,
            (self.window[0] + k, self.window[1] + k),
            self.total_degree - 2 * k,
            {j + k: c for j, c in self.components.items()},
        )

    def u0_part(self) -> HochschildChain:
        """The quotient map CC- -> C at u^0; carries b alone."""
        return self.component(0)

    def __eq__(self, other):
        return isinstance(other, UChain) and (self - other).is_zero()

    def __repr__(self):
        lo, hi = self.window
        return (
            f"<u-chain on [{lo},{hi}], total degree {self.total_degree}, "
            f"{len(self.components)} component(s)>"
        )


def diff_cyclic(c: UChain) -> UChain:
    """b + uB, computed per u-exponent and clipped to the validity window."""
    lo, hi = c.window
    comps: dict[int, HochschildChain] = {}
    for j in range(lo, hi + 1):
        part = diff_b(c.component(j))
        if j - 1 >= lo:
            part = part + diff_B(c.component(j - 1))
        if not part.is_zero():
            comps[j] = part
    return UChain(c.handle, (lo, hi), c.total_degree - 1, comps)
