"""JSON encoding and decoding for every value the CLI reads or writes.

Rationals travel as "p/q" strings so nothing is ever rounded.  Chain
documents carry an "algebra" discriminator ("poly" | "weyl" | "rees" |
"weyl-loc") that selects the coefficient algebra.  A word coefficient is a
"p/q" string, or a scalar series in that algebra's own format: a t-series
document over weyl and weyl-loc, an operator series over rees.  A series
that is not constant in x, xi and d is rejected, and so is a t-series
over poly: it is windowed, and the chain takes exact scalars only.  An
operator series is exact too, so a "lower" or "trunc" key in its
document is malformed input.

Every integer field must be a JSON integer: a float, a boolean or a
numeric string is malformed input, never truncated into some other value.
An integer used as an object key is written in decimal digits.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .charclass import ClassSeries
from .hkr import DForm
from .hochschild import (
    AlgebraHandle,
    HochschildChain,
    poly_handle,
    rees_handle,
    weyl_handle,
)
from .rees import DiffOp, OpSeries
from .series import Q_ZERO, Poly, SeriesError, TSeries, as_fraction, format_fraction
from .weyl import WeylElement, weyl_gens


class DecodeError(ValueError):
    """Malformed input document."""


def _need(doc: dict, field: str):
    if not isinstance(doc, dict) or field not in doc:
        raise DecodeError(f"missing field {field!r}")
    return doc[field]


def _need_objects(doc: dict, field: str) -> list:
    items = _need(doc, field)
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise DecodeError(f"field {field!r} must be a list of objects")
    return items


def _need_mapping(doc: dict, field: str) -> dict:
    items = _need(doc, field)
    if not isinstance(items, dict):
        raise DecodeError(f"field {field!r} must be an object")
    return items


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DecodeError(f"{what} must be an object, got {doc!r}")
    return doc


def _int_from(value, what: str) -> int:
    # bool is a subclass of int, and JSON true is not the number 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise DecodeError(f"bad {what} {value!r}")
    return value


def _int_key(text: str, what: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise DecodeError(f"bad {what} {text!r}")
    return int(text)


def _ints_from(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise DecodeError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int_from(e, what) for e in value)


def _names_from(value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
        raise DecodeError(f"generators must be a list of names, got {value!r}")
    return tuple(value)


def _dim_from(doc: dict, dim: int | None) -> int | None:
    """The document's own "dim", at least 1, else the one passed in."""
    value = doc.get("dim")
    if value is None:
        return dim
    value = _int_from(value, "dimension")
    if value < 1:
        raise DecodeError(f"bad dimension {value}")
    return value


def _fraction_from(text) -> Fraction:
    if isinstance(text, bool):
        raise DecodeError(f"bad rational {text!r}")
    try:
        return as_fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DecodeError(f"bad rational {text!r}: {exc}") from None


def _built(make, *args):
    """``make(*args)``, with a constructor's SeriesError read as malformed input."""
    try:
        return make(*args)
    except SeriesError as exc:
        raise DecodeError(str(exc)) from None


def _terms_from(doc: dict, key_of) -> dict:
    """{key_of(item): summed "coef"} over the "terms" list; a zero sum stays
    for the constructor to check its key."""
    terms = {}
    for item in _need_objects(doc, "terms"):
        key = key_of(item)
        terms[key] = terms.get(key, 0) + _fraction_from(_need(item, "coef"))
    return terms


def _coeffs_from(doc: dict, what: str, read) -> dict:
    """The "coeffs" map of ``doc`` as {integer key: read(value)}."""
    items = [(key, read(value)) for key, value in _need_mapping(doc, "coeffs").items()]
    return {_int_key(key, what): value for key, value in items}


def _at_dim(value, dim: int, what: str, where: str):
    if value.dim != dim:
        raise DecodeError(f"{what} of dimension {value.dim} in {where} of dimension {dim}")
    return value


# -- Poly ----------------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {
        "gens": list(p.gens),
        "terms": [
            {"exp": list(exp), "coef": format_fraction(q)}
            for exp, q in sorted(p.terms.items())
        ],
    }


def poly_from_json(doc: dict, gens) -> Poly:
    doc = _object(doc, "a polynomial")
    gens = tuple(gens)
    got = _names_from(doc["gens"]) if "gens" in doc else gens
    if got != gens:
        raise DecodeError(f"generator mismatch: {got} vs {gens}")
    terms = _terms_from(doc, lambda item: _ints_from(_need(item, "exp"), "exponent"))
    return _built(Poly, gens, terms)


# -- WeylElement ---------------------------------------------------------------


def tseries_to_json(s: WeylElement) -> dict:
    return {
        "lower": s.lower,
        "trunc": s.trunc,
        "coeffs": {str(e): poly_to_json(p) for e, p in sorted(s.coeffs.items())},
    }


def tseries_from_json(doc: dict, gens) -> WeylElement:
    coeffs = _coeffs_from(doc, "t-exponent key", lambda p: poly_from_json(p, gens))
    lower = _int_from(_need(doc, "lower"), "lower bound")
    trunc = _int_from(_need(doc, "trunc"), "truncation")
    return _built(WeylElement, Poly.zero(gens), coeffs, lower, trunc)


def weyl_to_json(w: WeylElement) -> dict:
    return {"dim": w.dim, "trunc": w.trunc, "value": tseries_to_json(w)}


def weyl_from_json(doc: dict, dim: int, trunc: int) -> WeylElement:
    """A Weyl value: a windowed series, or a polynomial placed in the window
    [0, trunc).  The document's own "trunc" is that window, in place of the
    one passed in, and must be a windowed value's own."""
    dim = _dim_from(_object(doc, "a Weyl element"), dim)
    gens = weyl_gens(dim)
    declared = "trunc" in doc
    if declared:
        trunc = _int_from(doc["trunc"], "truncation")
    body = _object(doc.get("value", doc), "a Weyl element value")
    if "coeffs" not in body:
        return WeylElement.from_poly(poly_from_json(body, gens), trunc)
    w = tseries_from_json(body, gens)
    if declared and w.trunc != trunc:
        raise DecodeError(f"declared truncation {trunc} is not the value's {w.trunc}")
    return w


# -- differential operators ------------------------------------------------------


def diffop_to_json(op: DiffOp) -> dict:
    d = op.dim
    return {
        "dim": d,
        "terms": [
            {"x": list(e[:d]), "d": list(e[d:]), "coef": format_fraction(q)}
            for e, q in sorted(op.terms.items())
        ],
    }


def diffop_from_json(doc: dict, dim: int) -> DiffOp:
    dim = _dim_from(_object(doc, "an operator"), dim)

    def key_of(item):
        xe = _ints_from(_need(item, "x"), "x multi-index")
        de = _ints_from(_need(item, "d"), "d multi-index")
        if len(xe) != dim or len(de) != dim:
            raise DecodeError(f"multi-index length mismatch for dim {dim}")
        return xe + de

    return _built(DiffOp, dim, _terms_from(doc, key_of))


def opseries_to_json(s: OpSeries) -> dict:
    return {
        "dim": s.dim,
        "coeffs": {str(p): diffop_to_json(op) for p, op in sorted(s.coeffs.items())},
    }


def opseries_from_json(doc: dict, dim: int) -> OpSeries:
    dim = _dim_from(_object(doc, "an operator series"), dim)
    if "lower" in doc or "trunc" in doc:
        raise DecodeError("an operator series is exact and takes no window")
    read = lambda op: _at_dim(diffop_from_json(op, dim), dim, "an operator", "a series")
    return _built(OpSeries, dim, _coeffs_from(doc, "grade key", read))


# -- chains ----------------------------------------------------------------------


def _coeff_from_json(doc, handle: AlgebraHandle, series_from) -> TSeries:
    """A "p/q" string, or a series of constants that ``series_from`` reads."""
    if isinstance(doc, str):
        return handle.coerce_coeff(_fraction_from(doc))
    series = series_from(doc)
    if not all(v.is_constant() for v in series.coeffs.values()):
        raise DecodeError("a chain coefficient must be constant in x, xi and d")
    consts = {e: v.constant_term() for e, v in series.coeffs.items()}
    return TSeries(Q_ZERO, consts, series.lower, series.trunc)


def chain_to_json(c: HochschildChain) -> dict:
    """A chain document.  Outside poly, a coefficient sum_e q_e t^e is
    written as the series sum_e (q_e * 1) t^e over the slots' ring."""
    kind, unit = c.handle.kind, c.handle.unit
    if kind == "poly":
        slot_to_json, coef_to_json = poly_to_json, lambda s: format_fraction(s.coefficient(0))
    else:
        slot_to_json = opseries_to_json if kind == "rees" else weyl_to_json
        series_to_json = opseries_to_json if kind == "rees" else tseries_to_json
        coef_to_json = lambda s: series_to_json(type(unit)._raw(
            unit.ring, {e: unit.coeffs[0] * q for e, q in s.coeffs.items()}, s.lower, s.trunc
        ))
    terms = [{"coef": coef_to_json(k), "word": list(map(slot_to_json, w))} for k, w in c.items()]
    return {"algebra": kind, "degree": c.degree, "terms": terms}


def chain_from_json(doc: dict, dim: int = 1, trunc: int = 8) -> HochschildChain:
    """The chain of a document.  Its dimension is the document's "dim", else
    the one its weyl or rees slots state, which must agree, else ``dim``; a
    slot or rees coefficient of another dimension is malformed input, and
    so is a weyl slot whose window is narrower than ``trunc``: it would cut
    terms that the chain's window keeps, and the zero test reads only the
    coefficient windows."""
    algebra = _need(doc, "algebra")
    items = _need_objects(doc, "terms")
    words = [_need_objects(item, "word") for item in items]
    if "dim" in doc:
        dim = _int_from(doc["dim"], "dimension")
    elif algebra != "poly":
        stated = {_dim_from(_object(e, "a chain slot"), None) for w in words for e in w} - {None}
        if len(stated) > 1:
            raise DecodeError(f"chain slots of dimensions {sorted(stated)}")
        dim = next(iter(stated), dim)
    if dim < 1:
        raise DecodeError(f"bad dimension {dim}")

    def weyl_slot(e):
        a = _at_dim(weyl_from_json(e, dim, trunc), dim, "a slot", "a chain")
        width = a.trunc - a.lower
        if width < trunc:
            raise DecodeError(f"a slot window of width {width} in a chain of trunc {trunc}")
        return a

    coef_from = lambda e: tseries_from_json(e, handle.unit.gens)
    if algebra == "poly":
        # polynomial chains carry their own generator tuple
        gens = next((_names_from(e["gens"]) for w in words for e in w if "gens" in e), None)
        handle = poly_handle(weyl_gens(dim) if gens is None else gens)
        slot_from = lambda e: poly_from_json(e, handle.unit.gens)
    elif algebra in ("weyl", "weyl-loc"):
        handle, slot_from = weyl_handle(dim, trunc, algebra == "weyl-loc"), weyl_slot
    elif algebra == "rees":
        handle = rees_handle(dim)
        coef_from = lambda e: _at_dim(opseries_from_json(e, dim), dim, "a coefficient", "a chain")
        slot_from = lambda e: _at_dim(opseries_from_json(e, dim), dim, "a slot", "a chain")
    else:
        raise DecodeError(f"unknown algebra {algebra!r}")
    degree = _int_from(_need(doc, "degree"), "degree")
    terms = []
    for item, slots in zip(items, words):
        coeff = _coeff_from_json(_need(item, "coef"), handle, coef_from)
        word = tuple(map(slot_from, slots))
        if len(word) != degree + 1:
            raise DecodeError(f"word length {len(word)} does not match degree {degree}")
        terms.append((coeff, word))
    return _built(HochschildChain, handle, degree, terms)


# -- chart data of the fedosov checks ----------------------------------------------


def _matrix_from_json(rows, base: tuple) -> list:
    """A d x d matrix of polynomial documents over the chart, d = len(base)."""
    d = len(base)
    if not isinstance(rows, list) or len(rows) != d or not all(
        isinstance(row, list) and len(row) == d for row in rows
    ):
        raise DecodeError(f"expected a {d}x{d} matrix of polynomials, got {rows!r}")
    return [[poly_from_json(e, base) for e in row] for row in rows]


def _wedge_from_key(key: str, d: int) -> tuple:
    widx = tuple(_int_key(part, "wedge index") for part in key.split(",")) if key else ()
    if any(i < 0 or i >= d for i in widx) or list(widx) != sorted(set(widx)):
        raise DecodeError(f"wedge key {key!r} must list increasing indices below {d}")
    return widx


def chart_from_json(doc, base) -> dict | None:
    """The connection form "a0" of a fedosov document, {"i,j,...": matrix}
    with wedge indices into ``base``, or None when it is absent.  Any other
    field is malformed input."""
    doc = _object(doc, "a fedosov document")
    base = tuple(base)
    extra = sorted(set(doc) - {"a0"})
    if extra:
        raise DecodeError(f"unknown field(s) in a fedosov document: {', '.join(extra)}")
    if "a0" not in doc:
        return None
    return {
        _wedge_from_key(key, len(base)): _matrix_from_json(rows, base)
        for key, rows in _need_mapping(doc, "a0").items()
    }


# -- forms and class series -------------------------------------------------------


def dform_to_json(f: DForm) -> dict:
    """A scalar form as one polynomial coefficient per wedge index."""
    coefs: dict[tuple, dict] = {}
    for (idx, exp), q in f.terms.items():
        coefs.setdefault(idx, {})[exp] = q
    return {
        "vars": list(f.base),
        "terms": [
            {"wedge": list(idx), "coef": poly_to_json(Poly._raw(f.base, coefs[idx]))}
            for idx in sorted(coefs, key=lambda i: (len(i), i))
        ],
    }


def class_series_to_json(s: ClassSeries, basis: str) -> dict:
    """One polynomial per nonzero cohomological degree 2k.  The basis label
    is passed in: at d = 1 both bases have the weights (1,)."""
    parts = {}
    for k in range(s.trunc + 1):
        piece = s.degree_part(k)
        if not piece.is_zero():
            parts[str(2 * k)] = poly_to_json(piece)
    return {
        "basis": basis,
        "dim": s.dim,
        "max_cohomological_degree": 2 * s.trunc,
        "components": parts,
    }
