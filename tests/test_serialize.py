"""JSON round trips and malformed-document handling."""

import random
from fractions import Fraction

import pytest

from starhom import serialize
from starhom.corpus import random_diffop, random_poly, random_rees, random_weyl
from starhom.hochschild import HochschildChain, phi_A, phi_E, poly_handle, weyl_handle
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
