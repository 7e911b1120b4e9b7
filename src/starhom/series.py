"""Exact polynomial and truncated t-series arithmetic.

Everything downstream (star products, Hochschild chains, curvature forms,
characteristic classes, differential operators) is built on two types:

* ``Poly``: a sparse multivariate polynomial over a fixed, ordered tuple
  of generator names, with ``fractions.Fraction`` coefficients.  Exact, no
  floating point anywhere.  Its subclass ``rees.DiffOp`` is the
  normal-ordered differential operators, a Poly over x_1..x_d, D_1..D_d
  with the operator product; the formal vector fields of ``fedosov`` are
  its first-order operators.  Sums, negation, scalars, partials and
  degree cuts are built through ``Poly._raw`` on the operand's own class,
  so an operator stays one.
* ``TSeries``: a sparse Laurent polynomial in a central variable ``t``
  over a coefficient ring, with an optional validity window
  ``[lower, trunc)``; binary operations intersect windows so that a
  truncated tail can never masquerade as an exact zero.  It is a module
  over Q: sums, scalars and shifts by t^m.  Two subclasses add a
  product: over ``Poly``, ``weyl.WeylElement``, the values of the Weyl
  algebra with the Moyal star product; over ``rees.DiffOp``,
  ``rees.OpSeries``, the operator series of the Rees model with the
  operator product.  Over Q (``Q_ZERO``) it holds the scalars of the
  chain complexes.  Results are built through ``TSeries._raw`` on the
  operand's own class, so a subclass value stays one under every
  operation.

Values are immutable after construction and all operations are pure.

Every sparse sum of ring values goes through ``accumulate``: add a value
into a dict entry and drop the entry when the sum is zero.  Its zero test
is truthiness, so each ring type here and downstream defines ``__bool__``
as ``not is_zero()``, the convention ``Fraction`` already follows.  Chain
words merge in ``hochschild._stored_terms``; the integer kernels sum ints.

Products run on integers.  ``_numerators`` scales each operand to one
common denominator; the product loop multiplies and sums int numerators
per output exponent and builds one ``Fraction`` per nonzero output term,
over the product of the two denominators.  ``Poly`` products (``*`` and
``mul_truncated``), the Moyal kernel in ``weyl`` and the operator product
in ``rees`` share that helper.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from operator import add


class SeriesError(ValueError):
    """Base class for arithmetic contract violations."""


class GeneratorMismatch(SeriesError):
    """Operands live over different generator tuples."""


class EmptyWindow(SeriesError):
    """A series was requested with no representable t-exponents."""


class NegativeTPowers(SeriesError):
    """The t=0 evaluation was applied to a localized series."""


def as_fraction(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def accumulate(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``; a zero sum removes the key.

    A key that cancels and comes back is stored at the end of the dict, and
    a zero added to an absent key stores nothing."""
    s = out.get(key)
    s = value if s is None else s + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _numerators(*terms: dict) -> tuple[int, list]:
    """One common denominator D for the Fraction values of all the ``terms``
    dicts, and each dict's items as [(key, integer numerator q * D), ...]."""
    den = lcm(*[q.denominator for t in terms for q in t.values()])
    return den, [
        [(key, q.numerator * (den // q.denominator)) for key, q in t.items()] for t in terms
    ]


def _merge_sign(left: tuple, right: tuple) -> tuple[int, tuple] | None:
    """Sort the concatenation of a strictly increasing index tuple ``left``
    and the indices of ``right``, in any order, inserted one at a time.

    Returns (sign of the sorting permutation, merged), or None when an index
    repeats.  ``_merge_sign((), perm)[0]`` is the sign of a permutation.
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


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per generator, in order) to
    nonzero Fractions.  Generator order is fixed at construction; mixing
    polynomials over different generator tuples raises GeneratorMismatch
    rather than coercing.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms: dict[tuple, object] | None = None):
        gens = tuple(gens)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != len(gens):
                    raise SeriesError(
                        f"exponent {exp} has length {len(exp)}, expected {len(gens)}"
                    )
                if any(e < 0 for e in exp):
                    raise SeriesError(f"negative exponent in {exp}")
                accumulate(clean, exp, as_fraction(coef))
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, gens: tuple, terms: dict) -> Poly:
        """Trusted constructor for results of Poly's own operations:
        ``gens`` is a tuple and ``terms`` has tuple keys of the right
        length and no zero coefficients.  Nothing is copied or checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "gens", gens)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens) -> Poly:
        return cls._raw(tuple(gens), {})

    @classmethod
    def const(cls, gens, value) -> Poly:
        gens = tuple(gens)
        q = as_fraction(value)
        return cls._raw(gens, {(0,) * len(gens): q} if q else {})

    @classmethod
    def gen(cls, gens, name: str) -> Poly:
        gens = tuple(gens)
        if name not in gens:
            raise GeneratorMismatch(f"unknown generator {name!r} (have {gens})")
        exp = tuple(1 if g == name else 0 for g in gens)
        return cls._raw(gens, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, gens, exp, coef=1) -> Poly:
        p = Poly(gens, {tuple(exp): coef})
        return cls._raw(p.gens, p.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.gens), Fraction(0))

    def scalar_part(self) -> Poly:
        return self.const(self.gens, self.constant_term())

    def lowest_term(self) -> tuple[Fraction, int]:
        """(q, 0) for the coefficient q of the least exponent; nonzero only."""
        return self.terms[min(self.terms)], 0

    def monomials(self) -> list:
        """The terms as (q, t-power, basis key) triples."""
        return [(q, 0, exp) for exp, q in self.terms.items()]

    def truncate_degree(self, max_deg: int) -> Poly:
        """Drop all terms of total degree above ``max_deg``."""
        return self._raw(self.gens, {e: q for e, q in self.terms.items() if sum(e) <= max_deg})

    def key(self):
        """Canonical hashable form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: Poly):
        if self.gens != other.gens:
            raise GeneratorMismatch(f"{self.gens} vs {other.gens}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.const(self.gens, other)
        self._check(other)
        out = dict(self.terms)
        for exp, q in other.terms.items():
            accumulate(out, exp, q)
        return self._raw(self.gens, out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.gens, {e: -q for e, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.const(self.gens, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            q = as_fraction(other)
            if not q:
                return self._raw(self.gens, {})
            return self._raw(self.gens, {e: c * q for e, c in self.terms.items()})
        return self._product(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other: Poly, max_deg: int) -> Poly:
        """``(self * other).truncate_degree(max_deg)``, without building the
        terms of total degree above ``max_deg``."""
        return self._product(other, max_deg)

    def _product(self, other: Poly, max_deg: int | None) -> Poly:
        """The one loop of Poly products, on integer numerators.  Under a
        degree cap the right operand's terms are sorted by degree, and each
        left term meets only the prefix that keeps the sum within the cap."""
        self._check(other)
        if not self.terms or not other.terms:
            return Poly._raw(self.gens, {})
        lden, (left,) = _numerators(self.terms)
        rden, (right,) = _numerators(other.terms)
        if max_deg is not None:
            right.sort(key=lambda t: sum(t[0]))
            degrees = [sum(e) for e, _ in right]
        sums: dict[tuple, int] = {}
        for e1, n1 in left:
            if max_deg is None:
                partners = right
            else:
                partners = right[: bisect_right(degrees, max_deg - sum(e1))]
            for e2, n2 in partners:
                exp = tuple(map(add, e1, e2))
                sums[exp] = sums.get(exp, 0) + n1 * n2
        den = lden * rden
        return Poly._raw(self.gens, {exp: Fraction(v, den) for exp, v in sums.items() if v})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.const(self.gens, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def partial(self, name: str) -> Poly:
        """Formal partial derivative with respect to one generator."""
        if name not in self.gens:
            raise GeneratorMismatch(f"unknown generator {name!r} (have {self.gens})")
        i = self.gens.index(name)
        out: dict[tuple, Fraction] = {}
        for exp, q in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = q * exp[i]
        return self._raw(self.gens, out)

    def substitute(self, images: dict[str, Poly]) -> Poly:
        """Ring map sending each generator to the given image polynomial.

        All image polynomials must share one target generator tuple;
        generators absent from ``images`` are sent to themselves (and must
        exist in the target ring).
        """
        if images:
            target = next(iter(images.values())).gens
        else:
            target = self.gens
        img: list[Poly] = []
        for g in self.gens:
            if g in images:
                p = images[g]
                if p.gens != target:
                    raise GeneratorMismatch("inconsistent image generator tuples")
                img.append(p)
            else:
                img.append(Poly.gen(target, g))
        out = Poly.zero(target)
        for exp, q in self.terms.items():
            term = Poly.const(target, q)
            for p, e in zip(img, exp):
                if e:
                    term = term * (p ** e)
            out = out + term
        return out

    # -- comparisons / display ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, self.key()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, q in sorted(self.terms.items()):
            mono = "*".join(
                f"{g}^{e}" if e > 1 else g
                for g, e in zip(self.gens, exp)
                if e
            )
            if not mono:
                bits.append(str(q))
            elif q == 1:
                bits.append(mono)
            elif q == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{q}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


class TSeries:
    """A sparse Laurent polynomial in a central variable t over a coefficient
    ring: the one t-series type of the package.

    ``ring`` is the zero of the coefficient ring and names it.  A ``Poly``
    ring over 2d Darboux generators gives the values of the Weyl algebra
    (``weyl.WeylElement``), the ``Fraction`` zero ``Q_ZERO`` the scalars of
    the chain complexes, and a ``rees.DiffOp`` ring the operator series of
    the Rees model (``rees.OpSeries``).  A coefficient adds, negates, takes
    ``* q`` for a rational q and is false exactly when it is zero.

    ``coeffs`` maps t-exponents to nonzero coefficients.  A windowed series
    keeps ``[lower, trunc)``: ``lower`` is a hard support bound
    (coefficients below it are exactly zero), while ``trunc`` is a validity
    bound: nothing at or above it is stored or known, so a truncated tail
    can never masquerade as an exact zero.  An exact series has
    ``lower = trunc = None``.  A sum takes the smaller of each bound and
    drops what lies at or above the new ``trunc``; exact and windowed
    series do not mix.  Multiplying by q t^m shifts the window by m.
    """

    __slots__ = ("ring", "coeffs", "lower", "trunc")

    def __init__(self, ring, coeffs: dict | None = None,
                 lower: int | None = None, trunc: int | None = None):
        if (lower is None) != (trunc is None) or (trunc is not None and trunc <= lower):
            raise EmptyWindow(f"window [{lower}, {trunc}) is empty or half open")
        clean = {}
        for e, c in (coeffs or {}).items():
            e = int(e)
            _check_ring(ring, c)
            if lower is not None and e < lower:
                raise SeriesError(f"stored exponent {e} below declared lower {lower}")
            if c and (trunc is None or e < trunc):
                clean[e] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _raw(cls, ring, coeffs: dict, lower: int | None, trunc: int | None) -> TSeries:
        """Trusted constructor for results of the series' own operations:
        the window is None or ``lower < trunc``, and ``coeffs`` holds only
        nonzero elements of ``ring`` at exponents inside it.  Nothing is
        copied or checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "coeffs", coeffs)
        object.__setattr__(s, "lower", lower)
        object.__setattr__(s, "trunc", trunc)
        return s

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- queries -----------------------------------------------------------

    def coefficient(self, e: int):
        return self.coeffs.get(e, self.ring)

    def is_zero(self) -> bool:
        """True when nothing is stored (inside the window, if any)."""
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def min_exponent(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def lowest_term(self) -> tuple[Fraction, int]:
        """(q, m): the least t-power m and, inside its coefficient's
        ``terms``, the coefficient q of the least basis key; defined on
        nonzero series over Poly, a DiffOp ring included."""
        m = min(self.coeffs)
        c = self.coeffs[m]
        return c.terms[min(c.terms)], m

    def monomials(self) -> list:
        """The terms as (q, t-power, basis key) triples, over Poly."""
        return [(q, e, key) for e, c in self.coeffs.items() for key, q in c.terms.items()]

    def scalar_part(self) -> TSeries:
        """The constant term of every coefficient, over Poly."""
        return self.map_coeffs(Poly.scalar_part)

    def key(self):
        """Canonical hashable form; deliberately ignores the window so that
        equal stored data computed under different truncations merges."""
        return tuple(sorted(self.coeffs.items()))

    def set_t_zero(self):
        """Evaluate at t=0.  Defined only when no negative powers are stored."""
        m = self.min_exponent()
        if m is not None and m < 0:
            raise NegativeTPowers(
                f"negative t-powers present (lowest stored exponent {m})"
            )
        return self.coefficient(0)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: TSeries):
        if other.ring is not self.ring:
            _check_ring(self.ring, other.ring)

    def __add__(self, other: TSeries) -> TSeries:
        self._check(other)
        ring = self.ring
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            accumulate(out, e, c)
        trunc = self.trunc
        if trunc is None and other.trunc is None:
            return self._raw(ring, out, None, None)
        if trunc is None or other.trunc is None:
            raise SeriesError("exact and windowed series do not mix")
        trunc = min(trunc, other.trunc)
        out = {e: c for e, c in out.items() if e < trunc}
        return self._raw(ring, out, min(self.lower, other.lower), trunc)

    def __neg__(self) -> TSeries:
        return self._raw(self.ring, {e: -c for e, c in self.coeffs.items()}, self.lower, self.trunc)

    def __sub__(self, other: TSeries) -> TSeries:
        return self + (-other)

    def scale(self, q) -> TSeries:
        """Exact multiplication by a rational; the window is unchanged."""
        return self.mul_monomial(as_fraction(q))

    def shift(self, m: int) -> TSeries:
        """Exact multiplication by t^m; the window shifts with the data."""
        return self.mul_monomial(1, m)

    def mul_monomial(self, q, m: int = 0) -> TSeries:
        """Exact multiplication by q * t^m, q a rational; a window shifts by m."""
        coeffs = {e + m: c * q for e, c in self.coeffs.items()} if q else {}
        if self.trunc is None:
            return self._raw(self.ring, coeffs, None, None)
        return self._raw(self.ring, coeffs, self.lower + m, self.trunc + m)

    def with_lower(self, lower: int) -> TSeries:
        """Tighten or relax the declared support bound (must stay sound)."""
        m = self.min_exponent()
        if m is not None and m < lower:
            raise SeriesError(f"stored exponent {m} below requested lower {lower}")
        if self.trunc is None or self.trunc <= lower:
            raise EmptyWindow(f"window [{lower}, {self.trunc}) is empty or half open")
        return self._raw(self.ring, self.coeffs, lower, self.trunc)

    def map_coeffs(self, fn) -> TSeries:
        """Apply a map of the coefficient ring into itself to every
        t-coefficient; the window is unchanged."""
        out = {}
        for e, c in self.coeffs.items():
            c = fn(c)
            if c:
                out[e] = c
        return self._raw(self.ring, out, self.lower, self.trunc)

    # -- comparisons / display ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TSeries)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.lower == other.lower
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.lower, self.trunc, self.key()))

    def __repr__(self):
        bits = []
        for e in sorted(self.coeffs):
            body = repr(self.coeffs[e])
            # a coefficient that prints as a sum is parenthesized
            if " " in body:
                body = f"({body})"
            bits.append(body if e == 0 else f"{body}*t^{e}")
        text = " + ".join(bits) or "0"
        return text if self.trunc is None else f"{text} (mod t^{self.trunc})"


# the zero of Q, the ring of the scalar series: chain coefficients share it,
# so that their ring checks hit on identity
Q_ZERO = Fraction(0)


def _check_ring(zero, c) -> None:
    """Raise a SeriesError unless ``c`` lies in the ring whose zero is
    ``zero``: the same type and, for a Poly (a DiffOp is one), the same
    generators."""
    if type(c) is not type(zero):
        raise SeriesError(
            f"a {type(c).__name__} coefficient in a series over {type(zero).__name__}"
        )
    if not isinstance(zero, Fraction):
        zero._check(c)
