"""JSON round trips and malformed-document handling."""

import random
from fractions import Fraction

import pytest

from starhom import serialize
from starhom.corpus import random_chain, random_diffop, random_poly, random_rees, random_weyl
from starhom.hochschild import HochschildChain, phi_A, phi_E, poly_handle, rees_handle, weyl_handle
from starhom.serialize import DecodeError
from starhom.series import Poly
from starhom.weyl import WeylElement, weyl_gens


class TestValueRoundTrips:
    def test_poly(self):
        rng = random.Random("ser-poly")
        for _ in range(20):
            p = random_poly(rng, ("x", "y"), max_degree=4, terms=3)
            assert serialize.poly_from_json(serialize.poly_to_json(p), ("x", "y")) == p

    def test_rationals_survive_exactly(self):
        p = Poly(("x",), {(3,): Fraction(-22, 7)})
        doc = serialize.poly_to_json(p)
        assert doc["terms"][0]["coef"] == "-22/7"
        assert serialize.poly_from_json(doc, ("x",)) == p

    def test_tseries(self):
        rng = random.Random("ser-ts")
        for _ in range(20):
            w = random_weyl(rng, 1, 6, max_t=2)
            doc = serialize.tseries_to_json(w)
            assert serialize.tseries_from_json(doc, weyl_gens(1)) == w

    def test_weyl_element(self):
        w = WeylElement.from_poly(Poly.gen(weyl_gens(2), "xi2"), 5, t_exp=-1)
        doc = serialize.weyl_to_json(w)
        assert doc["trunc"] == 5
        assert serialize.weyl_from_json(doc, 2, 8) == w

    def test_diffop_and_opseries(self):
        rng = random.Random("ser-op")
        for _ in range(20):
            op = random_diffop(rng, 2)
            assert serialize.diffop_from_json(serialize.diffop_to_json(op), 2) == op
            series = random_rees(rng, 2).shift(-1)
            doc = serialize.opseries_to_json(series)
            assert serialize.opseries_from_json(doc, 2) == series


class TestChainRoundTrips:
    def test_poly_chain(self):
        gens = ("x", "y")
        ph = poly_handle(gens)
        c = HochschildChain.single(ph, (Poly.gen(gens, "x"), Poly.gen(gens, "y"))).scale(
            Fraction(3, 2)
        )
        doc = serialize.chain_to_json(c)
        assert doc["algebra"] == "poly"
        back = serialize.chain_from_json(doc)
        assert back == c

    @pytest.mark.parametrize("maker,dim", [(phi_E, 1), (phi_A, 1), (phi_E, 2)])
    def test_builtin_cycles(self, maker, dim):
        c = maker(dim)
        doc = serialize.chain_to_json(c)
        back = serialize.chain_from_json(doc, dim=dim, trunc=3)
        assert back == c

    @pytest.mark.parametrize("maker", [phi_E, phi_A])
    def test_dimension_read_from_the_slots(self, maker):
        c = maker(2)
        doc = serialize.chain_to_json(c)
        assert "dim" not in doc
        # the slots keep the window of t-width 3 that the cycles are built in
        back = serialize.chain_from_json(doc, trunc=3)
        assert back == c
        assert back.handle.unit.dim == 2
        assert all(a.dim == 2 for _, word in back.items() for a in word)

    def test_slots_narrower_than_the_chain_rejected(self):
        doc = serialize.chain_to_json(phi_A(2))
        with pytest.raises(DecodeError, match="slot window"):
            serialize.chain_from_json(doc, trunc=4)

    def test_slots_of_two_dimensions_rejected(self):
        doc = serialize.chain_to_json(phi_E(1))
        wide = serialize.chain_to_json(phi_E(2))["terms"][0]["word"][0]
        doc["terms"][0]["word"][0] = wide
        with pytest.raises(DecodeError, match="dimensions"):
            serialize.chain_from_json(doc)
        with pytest.raises(DecodeError, match="dimension"):
            serialize.chain_from_json({**doc, "dim": 1})

    def test_weyl_chain_with_series_coefficient(self):
        wh = weyl_handle(1, trunc=6)
        gens = weyl_gens(1)
        x = WeylElement.from_poly(Poly.gen(gens, "x1"), 6)
        c = HochschildChain(wh, 1, [(1, (x, x))]).scale(1, tpow=2)
        doc = serialize.chain_to_json(c)
        assert serialize.chain_from_json(doc, dim=1, trunc=6) == c

    @pytest.mark.parametrize(
        "algebra,tpow", [("poly", 0), ("weyl", 2), ("weyl-loc", -1), ("rees", -1), ("rees", 2)]
    )
    def test_scaled_corpus_chain_round_trips(self, algebra, tpow):
        """A corpus chain times q t^m is read back as itself: the writer
        lifts each coefficient into the slots' ring, and the reader takes
        it back out."""
        rng = random.Random(f"ser-chain-{algebra}-{tpow}")
        if algebra == "poly":
            handle = poly_handle(("x", "y"))
            make = lambda r: random_poly(r, ("x", "y"), max_degree=3, terms=2)
        elif algebra == "rees":
            handle, make = rees_handle(2), lambda r: random_rees(r, 2)
        else:
            handle = weyl_handle(2, trunc=6, localized=algebra == "weyl-loc")
            min_t = -1 if algebra == "weyl-loc" else 0
            make = lambda r: random_weyl(r, 2, 6, max_t=2, min_t=min_t)
        c = random_chain(rng, handle, 2, make, words=3).scale(Fraction(-5, 3), tpow=tpow)
        assert not c.is_zero()
        assert serialize.chain_from_json(serialize.chain_to_json(c), dim=2, trunc=6) == c

    def test_degree_mismatch_rejected(self):
        doc = {
            "algebra": "poly",
            "degree": 2,
            "terms": [
                {
                    "coef": "1/1",
                    "word": [
                        {"gens": ["x"], "terms": [{"exp": [1], "coef": "1/1"}]},
                    ],
                }
            ],
        }
        with pytest.raises(DecodeError):
            serialize.chain_from_json(doc)


class TestMalformed:
    def test_bad_fraction(self):
        with pytest.raises(DecodeError):
            serialize.poly_from_json(
                {"gens": ["x"], "terms": [{"exp": [1], "coef": "1/0"}]}, ("x",)
            )

    def test_missing_field(self):
        with pytest.raises(DecodeError):
            serialize.poly_from_json({"gens": ["x"]}, ("x",))

    def test_unknown_algebra(self):
        with pytest.raises(DecodeError):
            serialize.chain_from_json({"algebra": "quantum", "degree": 0, "terms": []})

    def test_window_errors_surface_as_decode_errors(self):
        doc = {"lower": 3, "trunc": 3, "coeffs": {}}
        with pytest.raises(DecodeError):
            serialize.tseries_from_json(doc, ("x",))


class TestDimensions:
    """A document's "dim" is at least 1, and an operator series reads every
    operator at its own dimension."""

    OP_2 = {"dim": 2, "terms": [{"x": [1, 0], "d": [0, 0], "coef": "1/1"}]}
    OP_1 = {"dim": 1, "terms": [{"x": [1], "d": [0], "coef": "1/1"}]}

    def test_operator_of_another_dimension_rejected(self):
        with pytest.raises(DecodeError, match="dimension 2 in a series of dimension 1"):
            serialize.opseries_from_json({"dim": 1, "coeffs": {"0": self.OP_2}}, 1)

    def test_operators_of_two_dimensions_rejected(self):
        doc = {"dim": 2, "coeffs": {"0": self.OP_2, "1": self.OP_1}}
        with pytest.raises(DecodeError, match="dimension 1 in a series of dimension 2"):
            serialize.opseries_from_json(doc, 2)

    def test_rees_coefficient_of_another_dimension_rejected(self):
        """A constant operator series of dimension 2 as the coefficient of a
        dimension-1 chain; its constant terms alone would read as t^1."""
        slot = {"dim": 1, "coeffs": {"0": self.OP_1}}
        one = {"dim": 2, "terms": [{"x": [0, 0], "d": [0, 0], "coef": "1/1"}]}
        doc = {"algebra": "rees", "degree": 1, "dim": 1, "terms": [
            {"coef": {"dim": 2, "coeffs": {"1": one}}, "word": [slot, slot]},
        ]}
        with pytest.raises(DecodeError, match="coefficient of dimension 2 in a chain of dim"):
            serialize.chain_from_json(doc)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(DecodeError, match=f"bad dimension {dim}"):
            serialize.weyl_from_json({"dim": dim, "value": {"gens": [], "terms": []}}, 1, 4)
        with pytest.raises(DecodeError, match=f"bad dimension {dim}"):
            serialize.diffop_from_json({"dim": dim, "terms": []}, 1)

    def test_zero_coefficient_term_still_checked(self):
        """A term whose coefficient is 0 still has its exponent checked."""
        with pytest.raises(DecodeError, match="negative exponent"):
            serialize.poly_from_json({"terms": [{"exp": [-1], "coef": "0/1"}]}, ("x",))
        with pytest.raises(DecodeError, match="negative exponent"):
            serialize.diffop_from_json({"terms": [{"x": [-1], "d": [0], "coef": "0/1"}]}, 1)
