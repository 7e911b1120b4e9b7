"""Chart-level connection forms valued in formal vector fields or in
(1/t) x (Weyl algebra), curvature, the flatness recursion, lifts with the
half-trace correction, and the fiberwise shift conjugation.

Geometry model: a chart with base coordinates z_1..z_d (or z's and xi's on
the cotangent chart), and a formal fiber with coordinates zh_1..zh_d and,
on the Lie side, momenta xih_1..xih_d plus the central deformation
variable t.  Base functions are polynomials and commute with fiber values,
so a form is stored as wedge-index -> base-monomial -> fiber value.

The flatness recursion solves

    delta(A^(k+1)) = dA^(k) + (1/2) sum_{i+j=k, i,j>=0} [A^(i), A^(j)]

degree by degree, where delta contracts against sum_i dz_i d/dzh_i.  The
normalization takes delta_inv = delta^* / (m + q) on pieces of fiber
degree m and form degree q, and the solution is verified by applying
delta again; a nonzero residue means the input connection had torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .hkr import _merge_sign
from .series import Poly, SeriesError, accumulate, as_fraction
from .weyl import LieElement, WeylElement, weyl_gens, weyl_ordered


class TorsionError(SeriesError):
    """The flatness recursion hit a non-solvable obstruction."""


def fiber_z_names(dim: int) -> tuple[str, ...]:
    return tuple(f"zh{i}" for i in range(1, dim + 1))


def fiber_weyl_names(dim: int) -> tuple[str, ...]:
    return weyl_gens(dim, "zh", "xih")


class FormalVectorField:
    """Derivation sum_j P_j(zh) d/dzh_j with polynomial components.

    Components are truncated below fiber_trunc; the graded piece of
    w-degree k has components homogeneous of degree k + 1.
    """

    __slots__ = ("dim", "fiber_trunc", "comps")

    def __init__(self, dim: int, comps, fiber_trunc: int):
        names = fiber_z_names(dim)
        comps = tuple(comps)
        if len(comps) != dim:
            raise SeriesError(f"expected {dim} components")
        cleaned = []
        for p in comps:
            if p.gens != names:
                raise SeriesError("component generators must be the fiber variables")
            cleaned.append(p.truncate_degree(fiber_trunc - 1))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "fiber_trunc", int(fiber_trunc))
        object.__setattr__(self, "comps", tuple(cleaned))

    @classmethod
    def _raw(cls, dim: int, comps: tuple, fiber_trunc: int) -> FormalVectorField:
        """Trusted constructor for results of the field's own operations:
        ``comps`` is a tuple of ``dim`` Polys over the fiber variables, each
        of degree below ``fiber_trunc``.  Nothing is copied or checked."""
        v = object.__new__(cls)
        object.__setattr__(v, "dim", dim)
        object.__setattr__(v, "fiber_trunc", fiber_trunc)
        object.__setattr__(v, "comps", comps)
        return v

    def __setattr__(self, *_):
        raise AttributeError("FormalVectorField is immutable")

    @classmethod
    def d_zh(cls, dim: int, i: int, fiber_trunc: int) -> FormalVectorField:
        """The constant field d/dzh_i (1-based)."""
        names = fiber_z_names(dim)
        comps = [Poly.zero(names)] * dim
        comps[i - 1] = Poly.const(names, 1)
        return cls(dim, comps, fiber_trunc)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps)

    def __bool__(self) -> bool:
        return any(self.comps)

    def _check(self, other: FormalVectorField):
        if self.dim != other.dim:
            raise SeriesError("dimension mismatch")

    def __add__(self, other: FormalVectorField) -> FormalVectorField:
        self._check(other)
        comps = tuple(a + b for a, b in zip(self.comps, other.comps))
        if self.fiber_trunc == other.fiber_trunc:
            return FormalVectorField._raw(self.dim, comps, self.fiber_trunc)
        # the wider operand may hold degrees that the narrower cut drops
        return FormalVectorField(
            self.dim, comps, min(self.fiber_trunc, other.fiber_trunc)
        )

    def __neg__(self) -> FormalVectorField:
        return self.scale(-1)

    def __sub__(self, other: FormalVectorField) -> FormalVectorField:
        return self + (-other)

    def scale(self, q) -> FormalVectorField:
        return FormalVectorField._raw(
            self.dim, tuple(p * q for p in self.comps), self.fiber_trunc
        )

    def map_components(self, fn) -> FormalVectorField:
        """``fn`` on each component, cut again: ``fn`` may raise degrees."""
        return FormalVectorField(self.dim, [fn(p) for p in self.comps], self.fiber_trunc)

    def apply_to(self, p: Poly, max_deg: int) -> Poly:
        """Act as a derivation on a fiber polynomial; terms of total degree
        above ``max_deg`` are never built."""
        names = fiber_z_names(self.dim)
        out: dict = {}
        for c, name in zip(self.comps, names):
            for exp, q in c.mul_truncated(p.partial(name), max_deg).terms.items():
                accumulate(out, exp, q)
        return Poly._raw(names, out)

    def bracket(self, other: FormalVectorField) -> FormalVectorField:
        """Commutator of derivations; w-degrees add.  Both sides are capped
        at the degree the constructor keeps, so the result is exact and
        needs no second cut.  Swapping the operands negates the result
        exactly."""
        self._check(other)
        trunc = min(self.fiber_trunc, other.fiber_trunc)
        comps = tuple(
            self.apply_to(other.comps[j], trunc - 1) - other.apply_to(self.comps[j], trunc - 1)
            for j in range(self.dim)
        )
        return FormalVectorField._raw(self.dim, comps, trunc)

    def __eq__(self, other):
        return (
            isinstance(other, FormalVectorField)
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def __repr__(self):
        names = fiber_z_names(self.dim)
        bits = [
            f"({p!r}) d/d{name}" for p, name in zip(self.comps, names) if not p.is_zero()
        ]
        return " + ".join(bits) if bits else "0"


def gl_to_vf(matrix, dim: int, fiber_trunc: int) -> FormalVectorField:
    """(a_ij) -> sum_ij a_ij zh_i d/dzh_j, the linear-fields copy of gl(d)."""
    names = fiber_z_names(dim)
    rows = [[as_fraction(e) for e in row] for row in matrix]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise SeriesError(f"expected a {dim}x{dim} matrix")
    comps = []
    for j in range(dim):
        p = Poly.zero(names)
        for i in range(dim):
            if rows[i][j]:
                p = p + Poly.gen(names, names[i]) * rows[i][j]
        comps.append(p)
    return FormalVectorField(dim, comps, fiber_trunc)


def i_map(v: FormalVectorField, t_trunc: int = 8) -> WeylElement:
    """Weyl-ordered realization sum_j P_j(zh) * (xih_j / t).

    On linear fields this is the gl embedding with its central -tr/2
    correction; in general it is a morphism of Lie algebras into (1/t)W.
    """
    d = v.dim
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    terms = [(exp, unit[j], -1, q) for j in range(d) for exp, q in v.comps[j].terms.items()]
    return LieElement(weyl_ordered(terms, d, -1, t_trunc, fiber_weyl_names(d)))


def _lie_filter(a: WeylElement, keep) -> WeylElement:
    """The monomials q t^e w^exp of a Lie value with ``keep(e, exp)``; the
    window is unchanged."""
    kept = {
        e: Poly._raw(a.gens, {exp: q for exp, q in p.terms.items() if keep(e, exp)})
        for e, p in a.coeffs.items()
    }
    return WeylElement(a.ring, kept, a.lower, a.trunc)


class LieValuedForm:
    """Differential form on a chart with Lie-algebra values.

    ``terms`` maps (wedge-index tuple, base-monomial exponent) to a value:
    a FormalVectorField (kind 'vf') or a WeylElement in (1/t)W (kind
    'lie').  Base coefficients are central for the value bracket.
    """

    __slots__ = ("base", "kind", "terms")

    def __init__(self, base, kind: str, terms=None):
        base = tuple(base)
        if kind not in ("vf", "lie"):
            raise SeriesError(f"unknown value kind {kind!r}")
        clean = {}
        for (widx, bexp), val in (terms or {}).items():
            widx = tuple(int(i) for i in widx)
            bexp = tuple(int(e) for e in bexp)
            if list(widx) != sorted(set(widx)):
                raise SeriesError(f"wedge indices must be strictly increasing: {widx}")
            if widx and (widx[0] < 0 or widx[-1] >= len(base)):
                raise SeriesError(f"wedge index out of range: {widx}")
            if len(bexp) != len(base):
                raise SeriesError("base exponent length mismatch")
            accumulate(clean, (widx, bexp), val)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("LieValuedForm is immutable")

    @classmethod
    def zero(cls, base, kind: str) -> LieValuedForm:
        return cls(base, kind, {})

    @classmethod
    def from_entries(cls, base, kind: str, entries) -> LieValuedForm:
        """entries: iterable of (widx, base Poly, value); the polynomial is
        expanded into monomials with rational factors folded into values."""
        base = tuple(base)
        terms: dict = {}
        for widx, bpoly, val in entries:
            if bpoly.gens != base:
                raise SeriesError("base polynomial over the wrong chart")
            for bexp, q in bpoly.terms.items():
                accumulate(terms, (tuple(widx), bexp), val.scale(q))
        return cls(base, kind, terms)

    def _check(self, other: LieValuedForm):
        if self.base != other.base or self.kind != other.kind:
            raise SeriesError("form type mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def form_degrees(self) -> list[int]:
        return sorted({len(w) for w, _ in self.terms})

    def __add__(self, other: LieValuedForm) -> LieValuedForm:
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            accumulate(out, key, val)
        return LieValuedForm(self.base, self.kind, out)

    def __neg__(self) -> LieValuedForm:
        return self.scale(-1)

    def __sub__(self, other: LieValuedForm) -> LieValuedForm:
        return self + (-other)

    def scale(self, q) -> LieValuedForm:
        return LieValuedForm(
            self.base, self.kind, {k: v.scale(q) for k, v in self.terms.items()}
        )

    def map_values(self, fn, kind: str | None = None) -> LieValuedForm:
        out = {}
        for key, val in self.terms.items():
            new = fn(val)
            if not new.is_zero():
                out[key] = new
        return LieValuedForm(self.base, kind or self.kind, out)

    def exterior_d(self) -> LieValuedForm:
        """Base exterior derivative; fiber values ride along."""
        out: dict = {}
        for (widx, bexp), val in self.terms.items():
            for i in range(len(self.base)):
                if not bexp[i]:
                    continue
                merged = _merge_sign((i,), widx)
                if merged is None:
                    continue
                sign, new_widx = merged
                new_bexp = list(bexp)
                new_bexp[i] -= 1
                accumulate(
                    out, (new_widx, tuple(new_bexp)), val.scale(Fraction(sign) * bexp[i])
                )
        return LieValuedForm(self.base, self.kind, out)

    def _bracket_pairs(self, pairs) -> LieValuedForm:
        """The sum over ``pairs`` of terms (((w1, b1), v1), ((w2, b2), v2))
        of the wedge of w1 and w2 on the base times [v1, v2] on values."""
        out: dict = {}
        for ((w1, b1), v1), ((w2, b2), v2) in pairs:
            merged = _merge_sign(w1, w2)
            if merged is None:
                continue
            sign, widx = merged
            val = v1.bracket(v2)
            if val.is_zero():
                continue
            bexp = tuple(a + b for a, b in zip(b1, b2))
            accumulate(out, (widx, bexp), val.scale(sign))
        return LieValuedForm(self.base, self.kind, out)

    def bracket(self, other: LieValuedForm) -> LieValuedForm:
        """Graded bracket: wedge on the base, Lie bracket on values."""
        self._check(other)
        return self._bracket_pairs(product(self.terms.items(), other.terms.items()))

    def half_square(self) -> LieValuedForm:
        """(1/2)[A, A] of a 1-form, summed once per unordered pair of terms:
        the ordered pairs (s, t) and (t, s) of [A, A] contribute the same,
        since the wedge sign and the value bracket both flip, and a term's
        wedge with itself vanishes."""
        if self.form_degrees() not in ([], [1]):
            raise SeriesError("the half square is summed only on a pure 1-form")
        return self._bracket_pairs(combinations(self.terms.items(), 2))

    def fiber_truncate(self, k: int) -> LieValuedForm:
        """Drop all graded pieces of fiber degree above k."""
        if self.kind == "vf":
            return self.map_values(
                lambda v: v.map_components(lambda p: p.truncate_degree(k + 1))
            )
        return self.map_values(lambda v: _lie_filter(v, lambda e, exp: sum(exp) + 2 * e <= k))

    def __eq__(self, other):
        if not isinstance(other, LieValuedForm):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return f"0 ({self.kind} form)"
        bits = []
        for (widx, bexp) in sorted(self.terms, key=lambda k: (len(k[0]), k)):
            wedge = "^".join(f"d{self.base[i]}" for i in widx) or "1"
            mono = "".join(
                f"{g}^{e}" if e > 1 else g for g, e in zip(self.base, bexp) if e
            ) or ""
            bits.append(f"{mono}{wedge}(x){self.terms[(widx, bexp)]!r}")
        return " + ".join(bits)


def curvature(a: LieValuedForm) -> LieValuedForm:
    """dA + (1/2)[A, A] of a connection 1-form; (1/2)[A, A] is
    ``a.half_square()``, one value bracket per unordered pair of terms."""
    return a.exterior_d() + a.half_square()


# -- the flatness recursion ----------------------------------------------------


def _delta(form: LieValuedForm) -> LieValuedForm:
    """sum_i dz_i wedge d/dzh_i, acting on vf-valued forms."""
    names = fiber_z_names(len(form.base))
    out: dict = {}
    for (widx, bexp), val in form.terms.items():
        for i, name in enumerate(names):
            dval = val.map_components(lambda p, n=name: p.partial(n))
            if dval.is_zero():
                continue
            merged = _merge_sign((i,), widx)
            if merged is None:
                continue
            sign, new_widx = merged
            accumulate(out, (new_widx, bexp), dval.scale(sign))
    return LieValuedForm(form.base, "vf", out)


def _delta_star(form: LieValuedForm) -> LieValuedForm:
    """sum_i zh_i iota(d/dz_i), the homotopy partner of delta."""
    names = fiber_z_names(len(form.base))
    out: dict = {}
    for (widx, bexp), val in form.terms.items():
        for pos, i in enumerate(widx):
            sign = (-1) ** pos
            zi = Poly.gen(names, names[i])
            new_val = val.map_components(lambda p, z=zi: p * z).scale(sign)
            if new_val.is_zero():
                continue
            new_widx = widx[:pos] + widx[pos + 1 :]
            accumulate(out, (new_widx, bexp), new_val)
    return LieValuedForm(form.base, "vf", out)


def _delta_inv(form: LieValuedForm) -> LieValuedForm:
    """delta^* scaled by 1/(m+q) on each (fiber degree m, form degree q)
    piece; the unique delta-exact preimage when the input is delta-closed."""
    out = LieValuedForm.zero(form.base, "vf")
    for (widx, bexp), val in form.terms.items():
        q_deg = len(widx)
        for m in {sum(e) for p in val.comps for e in p.terms}:
            piece = val.map_components(lambda p, m=m: p.homogeneous_part(m))
            if piece.is_zero() or m + q_deg == 0:
                continue
            single = LieValuedForm(form.base, "vf", {(widx, bexp): piece})
            out = out + _delta_star(single).scale(Fraction(1, m + q_deg))
    return out


@dataclass(frozen=True)
class AssembledConnection:
    """Result of the flatness recursion: graded pieces A^(-1), A^(0), ..."""

    base: tuple
    dim: int
    fiber_trunc: int
    components: dict

    def total(self) -> LieValuedForm:
        out = LieValuedForm.zero(self.base, "vf")
        for form in self.components.values():
            out = out + form
        return out


def tautological_shift_form(base, dim: int, fiber_trunc: int) -> LieValuedForm:
    """A^(-1) = - sum_i dz_i (x) d/dzh_i."""
    base = tuple(base)
    terms = {}
    for i in range(dim):
        terms[((i,), (0,) * len(base))] = FormalVectorField.d_zh(
            dim, i + 1, fiber_trunc
        ).scale(-1)
    return LieValuedForm(base, "vf", terms)


def kazhdan_assemble(a0: LieValuedForm, fiber_deg: int) -> AssembledConnection:
    """Extend a torsion-free linear connection form to a flat one.

    ``a0`` is the gl-valued 1-form (values linear vector fields) on a
    d-dimensional chart whose coordinates pair with the fiber variables.
    Components A^(k) are produced for k <= fiber_deg + 1, which makes the
    curvature vanish through fiber degree fiber_deg.  Raises TorsionError
    when an obstruction is not delta-closed, which happens exactly when
    a0 has torsion.  Fiber polynomials are kept below degree fiber_deg + 4.

    The obstruction sums [A^(i), A^(j)] once for each i < j, and the half
    square (1/2)[A^(i), A^(i)] for i == j; components are 1-forms.
    """
    if a0.kind != "vf":
        raise SeriesError("expected a vector-field-valued form")
    dim = len(a0.base)
    fiber_trunc = fiber_deg + 4
    a0 = a0.map_values(
        lambda v: FormalVectorField(dim, v.comps, fiber_trunc)
    )
    comps = {-1: tautological_shift_form(a0.base, dim, fiber_trunc), 0: a0}
    torsion = comps[-1].exterior_d() + comps[-1].bracket(comps[0])
    if not torsion.is_zero():
        raise TorsionError("degree -1 obstruction nonzero: the connection has torsion")
    zero_form = LieValuedForm.zero(a0.base, "vf")
    for k in range(0, fiber_deg + 1):
        obstruction = comps.get(k, zero_form).exterior_d()
        for i in range(0, k + 1):
            j = k - i
            if j < i or j not in comps or i not in comps:
                continue
            if i == j:
                obstruction = obstruction + comps[i].half_square()
            else:
                obstruction = obstruction + comps[i].bracket(comps[j])
        nxt = _delta_inv(obstruction)
        if not (_delta(nxt) - obstruction).is_zero():
            raise TorsionError(
                f"obstruction at fiber degree {k} is not delta-closed"
            )
        if not nxt.is_zero():
            comps[k + 1] = nxt
    return AssembledConnection(a0.base, dim, fiber_trunc, comps)


# -- lifting and conjugation ----------------------------------------------------


def central_scalar_form(base, dim: int, entries, t_trunc: int = 8) -> LieValuedForm:
    """Scalar-valued form embedded as central Lie values: each entry
    (widx, base Poly) times the fiber unit."""
    unit = WeylElement.const(fiber_weyl_names(dim), 1, t_trunc)
    return LieValuedForm.from_entries(base, "lie", [(widx, p, unit) for widx, p in entries])


def lift_connection(a: LieValuedForm, half_trace: LieValuedForm, t_trunc: int = 8) -> LieValuedForm:
    """Apply the Weyl-ordered realization valuewise and add the central
    half-trace 1-form.  When ``a`` is flat through fiber degree K, the
    curvature of the lift is central through degree K."""
    if a.kind != "vf":
        raise SeriesError("expected a vector-field-valued form")
    return a.map_values(lambda v: i_map(v, t_trunc=t_trunc), kind="lie") + half_trace


def half_trace_form(a0_matrix_form: dict, base, dim: int, t_trunc: int = 8) -> LieValuedForm:
    """(1/2) tr of a gl-valued matrix 1-form {widx: matrix of Polys}."""
    entries = []
    base = tuple(base)
    for widx, matrix in a0_matrix_form.items():
        tr = Poly.zero(base)
        for i in range(dim):
            tr = tr + matrix[i][i]
        entries.append((widx, tr * Fraction(1, 2)))
    return central_scalar_form(base, dim, entries, t_trunc=t_trunc)


def shift_conjugator(base, dim: int, t_trunc: int = 10) -> LieValuedForm:
    """H = - sum_i xi_i zh_i / t on the cotangent chart (z_1..z_d, xi_1..xi_d)."""
    base = tuple(base)
    if len(base) != 2 * dim:
        raise SeriesError("the shift conjugation lives on a 2d-dimensional chart")
    gens = fiber_weyl_names(dim)
    entries = []
    for i in range(dim):
        bexp = [0] * len(base)
        bexp[dim + i] = 1
        val = WeylElement.from_poly(Poly.gen(gens, gens[i]), t_trunc, t_exp=-1).scale(-1)
        entries.append(
            ((), Poly.monomial(base, bexp, 1), val)
        )
    return LieValuedForm.from_entries(base, "lie", entries)


def _ad_series(h: LieValuedForm, form: LieValuedForm, weights) -> LieValuedForm:
    """sum_n weight(n) ad_h^n(form); terminates because ad_h lowers the
    fiber momentum degree strictly."""
    out = form.scale(weights(0))
    current = form
    n = 0
    while not current.is_zero():
        n += 1
        if n > 60:
            raise SeriesError("conjugation series did not terminate")
        current = h.bracket(current)
        if current.is_zero():
            break
        out = out + current.scale(weights(n))
    return out


def psi_conjugate(a: LieValuedForm, fiber_deg: int, dim: int, t_trunc: int = 10) -> LieValuedForm:
    """Gauge transform by Psi = exp(ad H), H = -sum_i xi_i zh_i / t:

        A  ->  Psi(A) + Psi d(Psi^-1),

    with Psi d(Psi^-1) = - sum_n ad_H^n(dH) / (n+1)!.  Both series are
    finite on polynomial values; the result is truncated at fiber degree
    fiber_deg (polynomial degree in the fiber variables).
    """
    if a.kind != "lie":
        raise SeriesError("expected a Lie-algebra-valued form")
    if fiber_deg < 2:
        # the cut would drop i(A^0), the quadratic gl(d) part of every lift
        raise SeriesError("psi conjugation needs fiber degree >= 2")
    h = shift_conjugator(a.base, dim, t_trunc=t_trunc)
    transformed = _ad_series(h, a, lambda n: Fraction(1, math.factorial(n)))
    dh = h.exterior_d()
    gauge = _ad_series(h, dh, lambda n: Fraction(-1, math.factorial(n + 1)))
    out = transformed + gauge
    return out.map_values(lambda v: _lie_filter(v, lambda e, exp: sum(exp) <= fiber_deg))


# -- matrix forms ---------------------------------------------------------------


def _per_monomial(matrix, dim: int) -> dict[tuple, list]:
    """A matrix of base Polys as {base exponent: constant matrix}."""
    out: dict[tuple, list] = {}
    for i in range(dim):
        for j in range(dim):
            for bexp, q in matrix[i][j].terms.items():
                out.setdefault(bexp, [[Fraction(0)] * dim for _ in range(dim)])[i][j] += q
    return out


def matrix_form_to_vf(mform: dict, base, dim: int, fiber_trunc: int) -> LieValuedForm:
    """{widx: matrix of base Polys} -> gl-valued (linear fields) form."""
    base = tuple(base)
    entries = []
    for widx, matrix in mform.items():
        for bexp, const_matrix in _per_monomial(matrix, dim).items():
            entries.append(
                (tuple(widx), Poly.monomial(base, bexp, 1), gl_to_vf(const_matrix, dim, fiber_trunc))
            )
    return LieValuedForm.from_entries(base, "vf", entries)


def extend_base(form: LieValuedForm, new_base) -> LieValuedForm:
    """Pull back along the projection that forgets the appended coordinates;
    the old chart must be a prefix of the new one."""
    new_base = tuple(new_base)
    if new_base[: len(form.base)] != form.base:
        raise SeriesError("old chart is not a prefix of the new one")
    pad = len(new_base) - len(form.base)
    terms = {
        (widx, bexp + (0,) * pad): val for (widx, bexp), val in form.terms.items()
    }
    return LieValuedForm(new_base, form.kind, terms)
