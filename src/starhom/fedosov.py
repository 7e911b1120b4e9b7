"""Chart-level connection forms valued in formal vector fields or in
(1/t) x (Weyl algebra), curvature, the flatness recursion, lifts with the
half-trace correction, and the fiberwise shift conjugation.

Geometry model: a chart with base coordinates z_1..z_d (or z's and xi's on
the cotangent chart), and a formal fiber.  A formal vector field
sum_j P_j d/dx_j on the fiber is a first-order ``rees.DiffOp`` over
x_1..x_d, D_1..D_d, each term carrying exactly one D; its bracket is the
operator commutator, exact in every degree.  On the Lie side the fiber has
coordinates zh_1..zh_d, momenta xih_1..xih_d and the central deformation
variable t.  Base functions are polynomials and commute with fiber values,
so a connection form is an ``hkr.DForm`` over the ring of its values
(``rees.op_ring(d)`` for vector fields), keyed by (wedge index, base
exponent): sums, scalars, the exterior derivative and the graded bracket
are the form's own.  ``LieValuedForm`` adds the half square (1/2)[A, A]
of a 1-form and the cut at a fiber degree.  A scalar form times the fiber
unit is a central Lie-valued form (``central_scalar_form``).

The flatness recursion solves

    delta(A^(k+1)) = dA^(k) + (1/2) sum_{i+j=k, i,j>=0} [A^(i), A^(j)]

degree by degree, where delta contracts against sum_i dz_i d/dx_i.  The
normalization takes delta_inv = delta^* / (m + q) on pieces of fiber
degree m and form degree q, and the solution is verified by applying
delta again; a nonzero residue means the input connection had torsion.
Each A^(k) is homogeneous of fiber degree k + 1, so the recursion needs
no cut; a check cuts with ``fiber_truncate`` where it reads.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import combinations

from .hkr import DForm
from .rees import DiffOp, op_ring
from .series import Poly, SeriesError, _merge_sign, accumulate, as_fraction
from .weyl import LieElement, WeylElement, weyl_gens, weyl_ordered


class TorsionError(SeriesError):
    """The flatness recursion hit a non-solvable obstruction."""


def fiber_weyl_names(dim: int) -> tuple[str, ...]:
    return weyl_gens(dim, "zh", "xih")


def gl_to_vf(matrix, dim: int) -> DiffOp:
    """(a_ij) -> sum_ij a_ij x_i D_j, the linear-fields copy of gl(d)."""
    rows = [[as_fraction(e) for e in row] for row in matrix]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise SeriesError(f"expected a {dim}x{dim} matrix")
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    return DiffOp(dim, {unit[i] + unit[j]: rows[i][j] for i in range(dim) for j in range(dim)})


def i_map(v: DiffOp, t_trunc: int) -> WeylElement:
    """Weyl-ordered realization x^a D_j -> zh^a * (xih_j / t), a morphism of
    Lie algebras into (1/t)W.  On the linear fields of ``gl_to_vf`` it embeds
    gl(d) with a central -tr/2 correction from Weyl ordering: (a_ij) maps to
    the quadratic sum_ij a_ij zh_i xih_j / t minus the scalar tr(a)/2."""
    d = v.dim
    _check_field(v)
    terms = [(e[:d], e[d:], -1, q) for e, q in v.terms.items()]
    return LieElement(weyl_ordered(terms, d, -1, t_trunc, fiber_weyl_names(d)))


def _check_field(v: DiffOp) -> None:
    """SeriesError unless each term of ``v`` carries exactly one D."""
    if any(sum(e[v.dim :]) != 1 for e in v.terms):
        raise SeriesError(f"{v!r} is not a vector field: a term has D-order other than 1")


def _x_filter(v: DiffOp, keep) -> DiffOp:
    """The terms x^a D_j of a vector field with ``keep(|a|)``."""
    d = v.dim
    return v._raw(v.gens, {e: q for e, q in v.terms.items() if keep(sum(e[:d]))})


def _lie_filter(a: WeylElement, keep) -> WeylElement:
    """The monomials q t^e w^exp of a Lie value with ``keep(e, exp)``; the
    window is unchanged."""
    kept = {
        e: Poly._raw(a.gens, {exp: q for exp, q in p.terms.items() if keep(e, exp)})
        for e, p in a.coeffs.items()
    }
    return WeylElement(a.ring, kept, a.lower, a.trunc)


class LieValuedForm(DForm):
    """A connection form on a chart: an ``hkr.DForm`` whose values are
    formal vector fields (its ring ``rees.op_ring(d)``) or WeylElements in
    (1/t)W (its ring a ``WeylElement`` zero).  Sums, scalars,
    ``exterior_d``, ``bracket`` and ``map_values`` are the form's own, and
    their results are again connection forms."""

    __slots__ = ()

    def half_square(self) -> LieValuedForm:
        """(1/2)[A, A] of a 1-form, summed once per unordered pair of terms:
        the ordered pairs (s, t) and (t, s) of [A, A] contribute the same,
        since the wedge sign and the value bracket both flip, and a term's
        wedge with itself vanishes."""
        if any(len(widx) != 1 for widx, _ in self.terms):
            raise SeriesError("the half square is summed only on a pure 1-form")
        return self._graded(combinations(self.terms.items(), 2), lambda u, v: u.bracket(v))

    def fiber_truncate(self, k: int) -> LieValuedForm:
        """Drop all graded pieces of fiber degree above k: a field term
        x^a D_j has fiber degree |a| - 1."""
        if isinstance(self.ring, DiffOp):
            return self.map_values(lambda v: _x_filter(v, lambda m: m <= k + 1))
        return self.map_values(lambda v: _lie_filter(v, lambda e, exp: sum(exp) + 2 * e <= k))


def curvature(a: LieValuedForm) -> LieValuedForm:
    """dA + (1/2)[A, A] of a connection 1-form; (1/2)[A, A] is
    ``a.half_square()``, one value bracket per unordered pair of terms."""
    return a.exterior_d() + a.half_square()


# -- the flatness recursion ----------------------------------------------------


def _delta(form: LieValuedForm) -> LieValuedForm:
    """sum_i dz_i wedge d/dx_i, acting on vf-valued forms."""
    out: dict = {}
    for (widx, bexp), val in form.terms.items():
        for i in range(len(form.base)):
            dval = val.partial(val.gens[i])
            if dval.is_zero():
                continue
            merged = _merge_sign((i,), widx)
            if merged is None:
                continue
            sign, new_widx = merged
            accumulate(out, (new_widx, bexp), dval * sign)
    return form._raw(form.base, form.ring, out)


def _delta_inv(form: LieValuedForm) -> LieValuedForm:
    """delta^* = sum_i x_i iota(d/dz_i), the homotopy partner of delta, scaled
    by 1/(m+q) on each (fiber degree m, form degree q) piece; the unique
    delta-exact preimage when the input is delta-closed."""
    dim = len(form.base)
    xs = [DiffOp.x(dim, i + 1) for i in range(dim)]
    out: dict = {}
    for (widx, bexp), val in form.terms.items():
        q_deg = len(widx)
        for m in {sum(e[:dim]) for e in val.terms}:
            piece = _x_filter(val, lambda n, m=m: n == m)
            # m + q_deg > 0 here: a 0-form has no wedge index to remove
            for pos, i in enumerate(widx):
                scaled = xs[i] * piece * Fraction((-1) ** pos, m + q_deg)
                accumulate(out, (widx[:pos] + widx[pos + 1 :], bexp), scaled)
    return form._raw(form.base, form.ring, out)


class AssembledConnection:
    """Result of the flatness recursion: graded pieces A^(-1), A^(0), ..."""

    __slots__ = ("components",)

    def __init__(self, components: dict):
        self.components = components

    def total(self) -> LieValuedForm:
        return functools.reduce(operator.add, self.components.values())


def tautological_shift_form(base, dim: int) -> LieValuedForm:
    """A^(-1) = - sum_i dz_i (x) D_i."""
    base = tuple(base)
    terms = {((i,), (0,) * len(base)): -DiffOp.d(dim, i + 1) for i in range(dim)}
    return LieValuedForm(base, op_ring(dim), terms)


def kazhdan_assemble(a0: LieValuedForm, fiber_deg: int) -> AssembledConnection:
    """Extend a torsion-free linear connection form to a flat one.

    ``a0`` is the gl-valued 1-form (values linear vector fields) on a
    d-dimensional chart whose coordinates pair with the fiber variables.
    Components A^(k) are produced for k <= fiber_deg + 1, which makes the
    curvature vanish through fiber degree fiber_deg.  Raises TorsionError
    when an obstruction is not delta-closed, which happens exactly when
    a0 has torsion.  Each A^(k) is homogeneous of fiber degree k + 1, so
    every bracket is exact and nothing is cut.

    The obstruction sums [A^(i), A^(j)] once for each i < j, and the half
    square (1/2)[A^(i), A^(i)] for i == j; components are 1-forms.
    """
    if not isinstance(a0.ring, DiffOp):
        raise SeriesError("expected a vector-field-valued form")
    dim = len(a0.base)
    if a0.ring.dim != dim:
        raise SeriesError(f"fields in {a0.ring.dim} variables on a {dim}-dimensional chart")
    for val in a0.terms.values():
        _check_field(val)
    comps = {-1: tautological_shift_form(a0.base, dim), 0: a0}
    torsion = comps[-1].exterior_d() + comps[-1].bracket(comps[0])
    if not torsion.is_zero():
        raise TorsionError("degree -1 obstruction nonzero: the connection has torsion")
    zero_form = LieValuedForm(a0.base, a0.ring, {})
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
    return AssembledConnection(comps)


# -- lifting and conjugation ----------------------------------------------------


def central_scalar_form(form: DForm, dim: int, t_trunc: int) -> LieValuedForm:
    """A scalar form times the fiber unit: a form with central Lie values."""
    gens = fiber_weyl_names(dim)
    unit = WeylElement.const(gens, 1, t_trunc)
    terms = {key: unit * q for key, q in form.terms.items()}
    return LieValuedForm(form.base, WeylElement.zero(gens, t_trunc), terms)


def lift_connection(a: LieValuedForm, half_trace: LieValuedForm, t_trunc: int) -> LieValuedForm:
    """Apply the Weyl-ordered realization valuewise and add the central
    half-trace 1-form.  When ``a`` is flat through fiber degree K, the
    curvature of the lift is central through degree K."""
    if not isinstance(a.ring, DiffOp):
        raise SeriesError("expected a vector-field-valued form")
    return a.map_values(lambda v: i_map(v, t_trunc=t_trunc)) + half_trace


def trace_form(mform: dict, base, dim: int) -> DForm:
    """The scalar form tr(a) of a matrix form {widx: matrix of base Polys}."""
    zero = Poly.zero(base)
    return DForm.scalar(
        base, {widx: sum((m[i][i] for i in range(dim)), zero) for widx, m in mform.items()}
    )


def half_trace_form(a0_matrix_form: dict, base, dim: int, t_trunc: int) -> LieValuedForm:
    """(1/2) tr of a gl-valued matrix 1-form {widx: matrix of Polys}, central."""
    half_trace = trace_form(a0_matrix_form, base, dim) * Fraction(1, 2)
    return central_scalar_form(half_trace, dim, t_trunc=t_trunc)


def shift_conjugator(base, dim: int, t_trunc: int) -> LieValuedForm:
    """H = - sum_i xi_i zh_i / t on the cotangent chart (z_1..z_d, xi_1..xi_d)."""
    base = tuple(base)
    if len(base) != 2 * dim:
        raise SeriesError("the shift conjugation lives on a 2d-dimensional chart")
    gens = fiber_weyl_names(dim)
    terms = {}
    for i in range(dim):
        bexp = [0] * len(base)
        bexp[dim + i] = 1
        val = WeylElement.from_poly(Poly.gen(gens, gens[i]), t_trunc, t_exp=-1).scale(-1)
        terms[((), tuple(bexp))] = val
    return LieValuedForm(base, WeylElement.zero(gens, t_trunc), terms)


def _ad_series(h: LieValuedForm, form: LieValuedForm, weights) -> LieValuedForm:
    """sum_n weight(n) ad_h^n(form); terminates because ad_h lowers the
    fiber momentum degree strictly."""
    out = form * weights(0)
    current = form
    n = 0
    while not current.is_zero():
        n += 1
        if n > 60:
            raise SeriesError("conjugation series did not terminate")
        current = h.bracket(current)
        if current.is_zero():
            break
        out = out + current * weights(n)
    return out


def psi_conjugate(a: LieValuedForm, fiber_deg: int, dim: int, t_trunc: int) -> LieValuedForm:
    """Gauge transform by Psi = exp(ad H), H = -sum_i xi_i zh_i / t:

        A  ->  Psi(A) + Psi d(Psi^-1),

    with Psi d(Psi^-1) = - sum_n ad_H^n(dH) / (n+1)!.  Both series are
    finite on polynomial values; the result is truncated at fiber degree
    fiber_deg (polynomial degree in the fiber variables).
    """
    if not isinstance(a.ring, WeylElement):
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


def matrix_form_to_vf(mform: dict, base, dim: int, fiber_trunc=None) -> LieValuedForm:
    """{widx: matrix of base Polys} -> gl-valued (linear fields) form.
    ``fiber_trunc`` is not read: the fields are exact."""
    terms = {
        (widx, bexp): gl_to_vf(const_matrix, dim)
        for widx, matrix in mform.items()
        for bexp, const_matrix in _per_monomial(matrix, dim).items()
    }
    return LieValuedForm(base, op_ring(dim), terms)


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
    return form._raw(new_base, form.ring, terms)
