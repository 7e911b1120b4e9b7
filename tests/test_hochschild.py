"""Chains, differentials, trace cycles, and induced chain maps."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starhom.hochschild as hochschild
import starhom.weyl
from starhom.corpus import random_chain, random_poly, random_rees, random_weyl
from starhom.hochschild import (
    AlgebraMorphism,
    ChainError,
    HochschildChain,
    alt_chain,
    diff_B,
    diff_b,
    induced_chain_map,
    phi_A,
    phi_E,
    poly_handle,
    rees_handle,
    weyl_handle,
)
from starhom.rees import DiffOp, OpSeries, ReesElement, rees_sigma
from starhom.serialize import chain_to_json
from starhom.series import Q_ZERO, Poly, SeriesError, TSeries, accumulate
from starhom.suite import localization_morphism
from starhom.weyl import WeylElement, weyl_gens

PG = ("x", "y", "z")
PH = poly_handle(PG)
G1 = weyl_gens(1)
WH = weyl_handle(1, trunc=9)
WLOC = weyl_handle(1, trunc=4, localized=True)

px = Poly.gen(PG, "x")
py = Poly.gen(PG, "y")
pz = Poly.gen(PG, "z")
pone = Poly.const(PG, 1)

wx = WeylElement.from_poly(Poly.gen(G1, "x1"), 9)
wxi = WeylElement.from_poly(Poly.gen(G1, "xi1"), 9)


def laurent(terms, lower=None, trunc=None):
    """A word coefficient: the series over Q with the given t-powers."""
    return TSeries(Q_ZERO, {e: Fraction(q) for e, q in terms.items()}, lower, trunc)


def poly_slot(rng):
    return random_poly(rng, PG, max_degree=2, terms=2, nonzero=True)


def weyl_slot(rng):
    return random_weyl(rng, 1, 9, max_degree=2, terms=2)


class TestDiffB:
    def test_degree_one(self):
        c = HochschildChain.single(WH, (wx, wxi))
        want = HochschildChain.single(
            WH, (WeylElement.from_poly(Poly.const(G1, -1), 9, t_exp=1),)
        )
        assert diff_b(c) == want

    def test_degree_two_weyl_example(self):
        c = HochschildChain.single(WH, (WH.unit, wx, wxi))
        xxi = WeylElement.from_poly(Poly.gen(G1, "x1") * Poly.gen(G1, "xi1"), 9)
        want = (
            HochschildChain.single(WH, (wxi, wx))
            + HochschildChain.single(WH, (wx, wxi))
            - HochschildChain.single(WH, (WH.unit, xxi))
        )
        assert diff_b(c) == want

    def test_degree_zero_is_zero(self):
        c = HochschildChain.single(PH, (px,))
        assert diff_b(c).is_zero()

    def test_b_squared_on_specific_three_chain(self):
        c = HochschildChain.single(PH, (px, py, pz, px * py))
        assert diff_b(diff_b(c)).is_zero()


class TestDiffBCyclic:
    def test_degree_zero(self):
        c = HochschildChain.single(PH, (px,))
        assert diff_B(c) == HochschildChain.single(PH, (pone, px))

    def test_degree_one_signs(self):
        c = HochschildChain.single(PH, (px, py))
        want = HochschildChain.single(PH, (pone, px, py)) - HochschildChain.single(
            PH, (pone, py, px)
        )
        assert diff_B(c) == want

    def test_unit_slot_zero_normalizes_away(self):
        c = HochschildChain.single(PH, (pone, px))
        assert diff_B(c).is_zero()


class TestIdentities:
    @pytest.mark.parametrize("handle,slot", [(PH, poly_slot), (WH, weyl_slot)])
    def test_differential_identities(self, handle, slot):
        rng = random.Random(f"ids:{handle.kind}")
        for _ in range(30):
            degree = rng.randint(1, 4)
            c = random_chain(rng, handle, degree, slot)
            assert diff_b(diff_b(c)).is_zero()
            assert diff_B(diff_B(c)).is_zero()
            assert (diff_b(diff_B(c)) + diff_B(diff_b(c))).is_zero()

    def test_sum_with_a_zero_chain_takes_the_other_degree(self):
        # zero by expansion, yet three stored words of degree 1
        zero = HochschildChain(
            PH, 1, [(1, (pone, px + py)), (-1, (pone, px)), (-1, (pone, py))]
        )
        assert zero.term_count() == 3 and zero.is_zero()
        other = HochschildChain.single(PH, (px, py, pz))
        for total in (zero + other, other + zero):
            assert total.degree == 2
            assert all(len(word) == 3 for _, word in total.items())
            assert total == other
            assert diff_b(total) == diff_b(other)
        with pytest.raises(ChainError):
            other + HochschildChain.single(PH, (px, py))

    def test_chains_over_different_generators_neither_add_nor_compare_equal(self):
        # Poly keys ignore generator names, so only the handle tells these apart
        abc = ("a", "b", "c")
        over_xyz = HochschildChain.single(PH, (pone, px))
        over_abc = HochschildChain.single(
            poly_handle(abc), (Poly.const(abc, 1), Poly.gen(abc, "a"))
        )
        assert over_xyz != over_abc
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ChainError):
                combine(over_xyz, over_abc)

    def test_chains_over_different_dimensions_neither_add_nor_compare_equal(self):
        x2 = WeylElement.from_poly(Poly.gen(weyl_gens(2), "x1"), 9)
        pairs = [
            (HochschildChain.single(WH, (wx, wx)),
             HochschildChain.single(weyl_handle(2, trunc=9), (x2, x2))),
            (HochschildChain.single(rees_handle(1), (OpSeries.from_op(DiffOp.x(1, 1)),) * 2),
             HochschildChain.single(rees_handle(2), (OpSeries.from_op(DiffOp.x(2, 1)),) * 2)),
        ]
        for low, high in pairs:
            assert low != high
            for combine in (lambda a, b: a + b, lambda a, b: a - b):
                with pytest.raises(ChainError):
                    combine(low, high)
        # windows may still differ
        wide = HochschildChain.single(weyl_handle(1, trunc=12), (wx, wx))
        assert (wide + pairs[0][0]).term_count() == 1

    def test_normalization_consistency(self):
        # a representative with monomial scalar junk in an interior slot
        perturbed = wx + WeylElement.from_poly(Poly.const(G1, 3), 9, t_exp=2)
        raw = HochschildChain.zero(WH, 2)
        object.__setattr__(raw, "slots", (wxi, perturbed))
        object.__setattr__(raw, "terms", {"raw": (WH.coerce_coeff(1), (0, 1, 0))})
        assert raw.items() == [(WH.coerce_coeff(1), (wxi, perturbed, wxi))]
        norm = HochschildChain(WH, 2, [(1, (wxi, perturbed, wxi))])
        assert norm.items()[0][1][1] != perturbed
        assert diff_b(raw) == diff_b(norm)
        assert diff_B(raw) == diff_B(norm)


class TestOneCallTables:
    """Each (slot object, slot-0 flag) is normalized once per constructor
    call and each ordered pair of slot indices multiplied once per
    ``diff_b`` call; stored slots are deduped by full value, so the stored
    chain does not depend on which slot objects were shared."""

    def test_diff_b_multiplies_each_slot_pair_once(self, monkeypatch):
        calls = Counter()
        star = starhom.weyl.moyal_star

        def counting(*args, **kwargs):
            calls["star"] += 1
            return star(*args, **kwargs)

        chain = phi_A(2)
        monkeypatch.setattr(starhom.weyl, "moyal_star", counting)
        assert diff_b(chain).is_zero()
        assert 0 < calls["star"] <= (2 * 2 + 1) ** 2

    def test_diff_b_multiplies_each_ordered_pair_of_slot_indices_once(self, monkeypatch):
        chain = phi_A(2)
        p = chain.degree
        want = Counter()
        for _, word in chain.terms.values():
            want.update({(word[p], word[0])} | set(zip(word, word[1:])))
        want = Counter(set(want))
        pairs = Counter()
        star = starhom.weyl.moyal_star

        def counting(f, g, **kwargs):
            pairs[chain.slots.index(f), chain.slots.index(g)] += 1
            return star(f, g, **kwargs)

        monkeypatch.setattr(starhom.weyl, "moyal_star", counting)
        assert diff_b(chain).is_zero()
        assert pairs == want

    def test_each_slot_object_and_flag_is_normalized_once(self, monkeypatch):
        calls = Counter()
        normal = hochschild._normal_slot

        def counting(handle, a, first):
            calls[id(a), first] += 1
            return normal(handle, a, first)

        monkeypatch.setattr(hochschild, "_normal_slot", counting)
        a = 1 + px  # in slot 0 and in inner slots
        b, b_twin = py + pz, py + pz  # one value, two objects
        words = [(a, a, b), (a, b_twin, a), (b, a, b)]
        chain = HochschildChain(PH, 2, [(1, w) for w in words])
        assert calls == Counter({(id(x), i == 0) for w in words for i, x in enumerate(w)})
        assert len(chain.slots) == 3  # 1 + x, x and y + z

        # the unit object is stored in B(c) and appended again by B: once per role
        once = diff_B(chain)
        calls.clear()
        assert diff_B(once).is_zero()
        assert set(calls.values()) == {1}
        assert {(id(PH.unit), True), (id(PH.unit), False)} <= set(calls)

        # one image object at two slot indices: y -> x, z -> 0 sends x and
        # y + z to the value x, and the map returns one object per value
        calls.clear()
        images = {}

        def squash_value(s):
            value = s.substitute({"y": px, "z": Poly.zero(PG)})
            return images.setdefault(value, value)

        squash = AlgebraMorphism(PH, PH, element_map=squash_value)
        induced_chain_map(squash, chain)
        x_image, one_x_image = images[px], images[1 + px]
        assert [squash_value(s) for s in chain.slots].count(x_image) == 2
        assert calls == Counter(
            {(id(one_x_image), True): 1, (id(x_image), True): 1, (id(x_image), False): 1}
        )

    def test_fresh_equal_slots_store_like_shared_ones(self):
        h = weyl_handle(1, trunc=5, localized=True)

        def slots():
            x = WeylElement.from_poly(Poly.gen(G1, "x1"), 5)
            return {
                "x": x,
                "x_short": WeylElement.from_poly(Poly.gen(G1, "x1"), 3),
                "xi": WeylElement.from_poly(Poly.gen(G1, "xi1"), 5, t_exp=-1).scale(3),
                "one_x": x + h.unit,
            }

        words = [
            ("x", "xi", "x_short"),
            ("x_short", "x", "xi"),
            ("one_x", "one_x", "xi"),
            ("xi", "x_short", "one_x"),
        ]
        shared = slots()
        chains = [
            HochschildChain(h, 2, [(k + 1, tuple(pool()[n] for n in w)) for k, w in enumerate(words)])
            for pool in (slots, lambda: shared)
        ]
        assert list(chains[0].terms) == list(chains[1].terms)
        assert chains[0].slots == chains[1].slots
        fresh, kept = (c.items() for c in chains)
        assert len(kept) == len(words)
        for (c1, w1), (c2, w2) in zip(fresh, kept):
            assert c1 == c2 and (c1.lower, c1.trunc) == (c2.lower, c2.trunc)
            assert w1 == w2
        windows = [[a.trunc for a in w] for _, w in kept]
        assert windows[0][2] == 3 and windows[1][:2] == [3, 5]
        assert windows[3][1] == 3

    def test_slot_zero_keeps_its_scalar_part(self):
        x = Poly.gen(("x",), "x")
        a = 1 + x  # one object in both slots
        chain = HochschildChain.single(poly_handle(("x",)), (a, a))
        assert [w for _, w in chain.items()] == [(1 + x, x)]


def _roundtrip_slot(kind):
    if kind == "poly":
        return lambda r: random_poly(r, PG, max_degree=2, terms=2, nonzero=True)
    if kind == "rees":
        return lambda r: random_rees(r, 1)
    # mixed windows, and momentum over t over weyl-loc
    return lambda r: random_weyl(
        r, 1, r.choice((5, 7, 9)), max_degree=2, terms=2, min_t=-(kind == "weyl-loc")
    )


ROUNDTRIP_HANDLES = {
    "poly": PH,
    "weyl": WH,
    "weyl-loc": weyl_handle(1, trunc=9, localized=True),
    "rees": rees_handle(1),
}


class TestItemsRoundTrip:
    @pytest.mark.parametrize("kind", sorted(ROUNDTRIP_HANDLES))
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 3), words=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_items_rebuild_the_same_chain(self, kind, seed, degree, words):
        h = ROUNDTRIP_HANDLES[kind]
        c = random_chain(random.Random(seed), h, degree, _roundtrip_slot(kind), words)
        # a second layer through b keeps t-power windows on the coefficients
        for chain in (c, diff_b(c) if degree else c):
            items = chain.items()
            again = HochschildChain(h, chain.degree, items).items()
            assert len(again) == len(items)
            for (c1, w1), (c2, w2) in zip(items, again):
                assert c1 == c2 and (c1.lower, c1.trunc) == (c2.lower, c2.trunc)
                assert w1 == w2


class TestSumAndScale:
    """``+``, ``-`` and ``scale`` reach stored form through the one merge."""

    @pytest.mark.parametrize("kind", ["weyl", "rees"])
    def test_difference_is_the_sum_with_the_negative(self, kind):
        h, slot = ROUNDTRIP_HANDLES[kind], _roundtrip_slot(kind)
        rng = random.Random(f"difference:{kind}")
        for _ in range(20):
            degree = rng.randint(0, 3)
            a = random_chain(rng, h, degree, slot, 3)
            # b repeats a word of a, so a word of a - b merges
            more = random_chain(rng, h, degree, slot, 3).items()
            b = HochschildChain(h, degree, [*a.items()[:1], *more])
            assert a - b == a + (-b)
            assert (a - b).items() == (a + (-b)).items()

    @pytest.mark.parametrize("kind", ["weyl", "rees"])
    def test_scale_by_zero_keeps_the_degree(self, kind):
        h, slot = ROUNDTRIP_HANDLES[kind], _roundtrip_slot(kind)
        rng = random.Random(f"scale-0:{kind}")
        for degree in range(4):
            c = random_chain(rng, h, degree, slot, 3)
            zero = c.scale(0)
            assert zero.items() == [] and zero.degree == c.degree


class TestAltChain:
    def test_two_permutations(self):
        c = alt_chain(PH, pone, (px, py))
        want = HochschildChain.single(PH, (pone, px, py)) - HochschildChain.single(
            PH, (pone, py, px)
        )
        assert c == want

    def test_repeated_slot_vanishes(self):
        assert alt_chain(PH, pone, (px, px)).is_zero()

    def test_word_count_d2(self):
        c = alt_chain(PH, pone, (px, py, pz, px * py))
        assert c.term_count() == 24


class TestTraceCycles:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_phi_E_is_a_cycle(self, d):
        assert diff_b(phi_E(d)).is_zero()
        assert diff_B(phi_E(d)).is_zero()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_phi_A_is_a_cycle(self, d):
        assert diff_b(phi_A(d)).is_zero()
        assert diff_B(phi_A(d)).is_zero()

    def test_phi_E_term_count_and_signs(self):
        c1 = phi_E(1)
        assert c1.term_count() == 2
        assert sorted(
            coeff.coefficient(0) for coeff, _ in c1.items()
        ) == [Fraction(-1), Fraction(1)]
        assert phi_E(2).term_count() == 24

    def test_phi_A_equals_shifted_alt(self):
        # pulling t^-1 out of every momentum slot leaves t^-d times the
        # plain alternating chain
        d = 2
        h = weyl_handle(d, trunc=3, localized=True)
        gens = weyl_gens(d)
        xs = [WeylElement.from_poly(Poly.gen(gens, gens[i]), 3) for i in range(d)]
        xis = [
            WeylElement.from_poly(Poly.gen(gens, gens[d + i]), 3) for i in range(d)
        ]
        plain = alt_chain(h, h.unit, xs + xis)
        assert phi_A(d) == plain.scale(1, tpow=-d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cycles_match_a_build_through_the_public_constructor(self, d):
        # the same signed words, as values, through the validating
        # constructor; the sign of a permutation is -1 to its inversions
        def reference(h, slots):
            words = []
            for perm in itertools.permutations(range(len(slots))):
                inversions = sum(i > j for i, j in itertools.combinations(perm, 2))
                words.append(((-1) ** inversions, (h.unit, *(slots[i] for i in perm))))
            return HochschildChain(h, len(slots), words)

        gens = weyl_gens(d)
        e_slots = [OpSeries.from_op(DiffOp.x(d, i)) for i in range(1, d + 1)]
        e_slots += [OpSeries.from_op(DiffOp.d(d, i)) for i in range(1, d + 1)]
        a_slots = [WeylElement.from_poly(Poly.gen(gens, g), 3) for g in gens[:d]]
        a_slots += [WeylElement.from_poly(Poly.gen(gens, g), 3, t_exp=-1) for g in gens[d:]]
        pairs = [
            (phi_E(d), reference(rees_handle(d), e_slots)),
            (phi_A(d), reference(weyl_handle(d, trunc=3, localized=True), a_slots)),
        ]
        for cycle, want in pairs:
            assert cycle.items() == want.items()
            assert json.dumps(chain_to_json(cycle)) == json.dumps(chain_to_json(want))

    def test_phi_A_darboux_invariance_linear_symplectic(self):
        # (x, xi) -> (xi, -x) is symplectic; the image stays a cycle
        d = 1
        gens = weyl_gens(d)
        sub = {"x1": Poly.gen(gens, "xi1"), "xi1": -Poly.gen(gens, "x1")}

        def rotate(w):
            return w.map_coeffs(lambda p: p.substitute(sub))

        morphism = AlgebraMorphism(WLOC, WLOC, element_map=rotate)
        image = induced_chain_map(morphism, phi_A(1))
        assert diff_b(image).is_zero()
        assert not image.is_zero()


class TestInducedChainMap:
    def test_identity_morphism(self):
        c = HochschildChain.single(PH, (px, py))
        ident = AlgebraMorphism(PH, PH, element_map=lambda a: a)
        assert induced_chain_map(ident, c) == c

    def test_localized_phi_E_maps_to_phi_A(self):
        for d in (1, 2, 3):
            assert induced_chain_map(localization_morphism(d), phi_E(d)) == phi_A(d)

    def test_multiplicativity_check_rejects_bad_map(self):
        c = HochschildChain.single(PH, (px, py))
        shift = AlgebraMorphism(PH, PH, element_map=lambda a: a + Poly.const(PG, 1))
        with pytest.raises(ChainError):
            induced_chain_map(shift, c)

    def test_element_map_runs_once_per_distinct_value(self):
        chain = phi_E(2)
        base = localization_morphism(2)
        seen = Counter()

        def counting(s):
            seen[s] += 1
            return base.element_map(s)

        morphism = AlgebraMorphism(base.source, base.target, counting)
        slots = {a for _, word in chain.items() for a in word}
        assert induced_chain_map(morphism, chain) == phi_A(2)
        assert set(seen.values()) == {1}
        assert slots <= set(seen)

    def test_slots_differing_only_in_window_are_not_conflated(self):
        h = weyl_handle(1, trunc=5)
        x_short = WeylElement.from_poly(Poly.gen(G1, "x1"), 3)
        x_long = WeylElement.from_poly(Poly.gen(G1, "x1"), 5)
        xi = WeylElement.from_poly(Poly.gen(G1, "xi1"), 5)
        assert x_short.key() == x_long.key() and x_short != x_long
        chain = HochschildChain(h, 2, [(1, (h.unit, x_short, xi)), (1, (h.unit, xi, x_long))])
        ident = AlgebraMorphism(h, h, element_map=lambda a: a)
        image = induced_chain_map(ident, chain)
        assert [w for _, w in image.items()] == [w for _, w in chain.items()]

    def test_multiplicativity_failure_on_one_pair_is_caught(self):
        chain = phi_A(2)
        h = chain.handle
        slots = {a for _, word in chain.items() for a in word}
        pairs = {p for _, word in chain.items() for p in itertools.permutations(word, 2)}
        products = Counter(a * b for a, b in pairs)
        bad = next(p for p, n in products.items() if n == 1 and p not in slots)

        def broken(w):
            return w.scale(2) if w == bad else w

        failing = [
            (a, b) for a, b in pairs
            if not (broken(a * b) - broken(a) * broken(b)).is_zero()
        ]
        assert len(failing) == 1
        morphism = AlgebraMorphism(h, h, element_map=broken)
        with pytest.raises(ChainError):
            induced_chain_map(morphism, chain)

    def test_symbol_map_commutes_with_b(self):
        # sigma is applied to raw words of Rees elements, before a chain's
        # stored form could move a t-power out of a slot
        rng = random.Random("sigma-chain")
        d = 1
        tgt = poly_handle(weyl_gens(d))

        def sigma(s):
            return rees_sigma(ReesElement(s.dim, s.coeffs))

        for _ in range(10):
            words, b_words = [], []
            for _ in range(2):
                a0, a1, a2 = word = tuple(random_rees(rng, d) for _ in range(3))
                if any(s.is_zero() for s in word):
                    continue
                q = Fraction(rng.randint(-2, 2) or 1)
                words.append((q, tuple(map(sigma, word))))
                for sign, raw in ((1, (a0 * a1, a2)), (-1, (a0, a1 * a2)), (1, (a2 * a0, a1))):
                    b_words.append((sign * q, tuple(map(sigma, raw))))
            assert HochschildChain(tgt, 1, b_words) == diff_b(HochschildChain(tgt, 2, words))


class TestCoefficientWindows:
    def test_sum_keeps_the_smaller_window_and_drops_above_it(self):
        low = laurent({0: 1}, 0, 3)
        high = low.mul_monomial(1, 3)
        assert (high.lower, high.trunc) == (3, 6)
        assert low + high == laurent({0: 1}, 0, 3)
        assert high + low == laurent({0: 1}, 0, 3)

    def test_into_weyl_loc_drops_exponents_at_or_above_trunc(self):
        target = weyl_handle(1, trunc=3, localized=True)
        c = laurent({-1: 2, 2: 1, 3: 5, 4: 1})
        assert target.coeff_into(c) == laurent({-1: 2, 2: 1}, -1, 3)

    def test_localization_of_a_word_with_coefficient_t3_vanishes(self):
        x = OpSeries.from_op(DiffOp.x(1, 1))
        d = OpSeries.from_op(DiffOp.d(1, 1))
        rh = rees_handle(1)
        kept = HochschildChain(rh, 2, [(laurent({2: 1}), (rh.unit, x, d))])
        dropped = HochschildChain(rh, 2, [(laurent({3: 1}), (rh.unit, x, d))])
        assert not induced_chain_map(localization_morphism(1), kept).is_zero()
        assert induced_chain_map(localization_morphism(1), dropped).is_zero()

    def test_into_weyl_rejects_negative_powers(self):
        with pytest.raises(ChainError):
            WH.coeff_into(laurent({-1: 2, 0: 1}, -1, 4))
        assert WH.coeff_into(laurent({0: 1, 2: 3}, 0, 4)) == laurent({0: 1, 2: 3}, 0, 4)

    def test_into_poly_keeps_t0_only(self):
        assert PH.coeff_into(laurent({-1: 2, 0: 3, 1: 4})) == laurent({0: 3})
        assert PH.coeff_into(laurent({1: 4}, 0, 5)).is_zero()

    def test_t_power_rules(self):
        c = HochschildChain.single(PH, (px, py))
        with pytest.raises(ChainError):
            c.scale(1, tpow=1)
        w = HochschildChain.single(WH, (wx, wxi))
        with pytest.raises(ChainError):
            w.scale(1, tpow=-1)
        assert not w.scale(1, tpow=2).is_zero()

    def test_window_kind_is_checked_when_a_coefficient_enters(self):
        # exact scalars over poly and rees, windowed ones over the weyl kinds
        rh = rees_handle(1)
        rx, rd = OpSeries.from_op(DiffOp.x(1, 1)), OpSeries.from_op(DiffOp.d(1, 1))
        wrong = [
            (PH, laurent({0: 1}, 0, 5), (PH.unit, px)),
            (rh, laurent({0: 1}, 0, 5), (rh.unit, rx)),
            (WH, laurent({0: 1}), (wx, wxi)),
            (WLOC, laurent({-1: 1}), (wx, wxi)),
        ]
        for h, c, word in wrong:
            with pytest.raises(ChainError):
                HochschildChain(h, 1, [(c, word)])
        assert HochschildChain(rh, 1, [(laurent({-1: 1}), (rx, rd))]).term_count() == 1

    def test_t_power_rules_hold_when_a_coefficient_enters(self):
        x = Poly.gen(("x",), "x")
        with pytest.raises(ChainError):
            HochschildChain(poly_handle(("x",)), 0, [(laurent({1: 1}), (x,))])
        with pytest.raises(ChainError):
            HochschildChain(WH, 1, [(laurent({-1: 1}, -1, 9), (wx, wxi))])
        for h, c in ((PH, laurent({0: 2})), (WH, laurent({2: 1}, 0, 9)), (WLOC, laurent({-1: 1}, -1, 4))):
            word = (pone, px) if h is PH else (wx, wxi)
            assert HochschildChain(h, 1, [(c, word)]).term_count() == 1



def fraction_expansion_is_zero(c: HochschildChain) -> bool:
    """The zero test as one ``TSeries`` sum per basis key: every monomial
    combination of every word is added as coeff * q * t^m through
    ``accumulate``, in the order of ``itertools.product``; an independent
    reference for the integer kernel of ``HochschildChain.is_zero``."""
    table = {}
    monomials = [a.monomials() for a in c.slots]
    for coeff, word in c.terms.values():
        for combo in itertools.product(*map(monomials.__getitem__, word)):
            q = Fraction(1)
            m = 0
            for mono_q, mono_m, _ in combo:
                q *= mono_q
                m += mono_m
            accumulate(table, tuple(key for _, _, key in combo), coeff.mul_monomial(q, m))
    return not table


def split_words(rng, c: HochschildChain, maker) -> HochschildChain:
    """c again, with one slot of every word split as (a - u) + u for a
    random u: equal to c in the normalized complex, word for word different."""
    raw = []
    for coeff, word in c.items():
        i = rng.randrange(len(word))
        u = maker(rng)
        raw.append((coeff, word[:i] + (word[i] - u,) + word[i + 1 :]))
        raw.append((coeff, word[:i] + (u,) + word[i + 1 :]))
    return HochschildChain(c.handle, c.degree, raw)


def narrowed(c: HochschildChain) -> HochschildChain:
    """c with every coefficient window one t-power shorter."""
    raw = [
        (TSeries(Q_ZERO, coeff.coeffs, coeff.lower, coeff.trunc - 1), word)
        for coeff, word in c.items()
    ]
    return HochschildChain(c.handle, c.degree, raw)


def windowed_chain(rng, handle, degree: int, maker, words: int = 3) -> HochschildChain:
    """Random words whose coefficients carry windows of their own: two
    t-powers from [lowest, 3), lowest -1 over weyl-loc and 0 over weyl,
    and a trunc drawn from 3 .. handle.trunc."""
    lowest = -1 if handle.kind == "weyl-loc" else 0
    raw = []
    for _ in range(words):
        coeffs = {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            for e in rng.sample(range(lowest, 3), 2)
        }
        trunc = rng.randint(3, handle.trunc)
        word = tuple(maker(rng) for _ in range(degree + 1))
        raw.append((TSeries(Q_ZERO, coeffs, lowest, trunc), word))
    return HochschildChain(handle, degree, raw)


class TestIntegerZeroTestMatchesFractionExpansion:
    """``is_zero`` against ``fraction_expansion_is_zero`` on random chains,
    their b and B images, b^2, B^2, bB + Bb, split words and narrowed
    windows; about half of the verdicts are zero."""

    @staticmethod
    def verdicts(rng, c, maker, windows: bool):
        b, B = diff_b(c), diff_B(c)
        chains = [c, b, B, diff_b(b), diff_B(B), diff_b(B) + diff_B(b), c - split_words(rng, c, maker)]
        if windows:
            chains.append(c - narrowed(c))
        return [(chain.is_zero(), fraction_expansion_is_zero(chain)) for chain in chains]

    @pytest.mark.parametrize("variables", [PG, ("w", "x", "y", "z")], ids=["3vars", "4vars"])
    def test_poly_chains_of_degree_0_to_5(self, variables):
        rng = random.Random(f"zero-test-poly-{len(variables)}")
        handle = poly_handle(variables)

        def maker(r):
            return random_poly(r, variables, max_degree=2, terms=2, nonzero=True)

        pairs = []
        for n in range(72):
            c = random_chain(rng, handle, n % 6, maker, words=3)
            pairs += self.verdicts(rng, c, maker, windows=False)
        assert all(got == want for got, want in pairs)
        zeros = sum(got for got, _ in pairs)
        assert 0.3 < zeros / len(pairs) < 0.9

    @pytest.mark.parametrize("localized", [False, True], ids=["weyl", "weyl-loc"])
    def test_weyl_chains_with_mixed_windows(self, localized):
        rng = random.Random(f"zero-test-weyl-{localized}")
        handle = weyl_handle(1, trunc=6, localized=localized)

        def maker(r):
            return random_weyl(r, 1, 6, max_degree=2, terms=2, min_t=-1 if localized else 0)

        pairs = []
        for n in range(60):
            c = windowed_chain(rng, handle, 1 + n % 3, maker)
            pairs += self.verdicts(rng, c, maker, windows=True)
        assert all(got == want for got, want in pairs)
        zeros = sum(got for got, _ in pairs)
        assert 0.3 < zeros / len(pairs) < 0.9

    @pytest.mark.parametrize("order", ["narrow-first", "wide-first"])
    def test_a_sum_drops_the_wider_sides_powers_at_or_above_trunc(self, order):
        # 1 (x) (x + xi) with t^0 in [0, 3), then 1 (x) x and 1 (x) xi with
        # -t^0 + t^4 in [0, 5): on each basis key the sum has trunc 3, so
        # t^4 is dropped although trunc does not fall when it arrives
        narrow = (laurent({0: 1}, 0, 3), (WH.unit, wx + wxi))
        wide = [(laurent({0: -1, 4: 1}, 0, 5), (WH.unit, a)) for a in (wx, wxi)]
        raw = [narrow, *wide] if order == "narrow-first" else [*wide, narrow]
        c = HochschildChain(WH, 1, raw)
        assert c.is_zero() and fraction_expansion_is_zero(c)

    def test_exact_meeting_windowed_raises_in_both(self):
        # two words on one basis key, one exact and one windowed coefficient
        # (unnormalized: the constructor would bring two_x into wx's class)
        two_x = wx * Fraction(2)
        c = object.__new__(HochschildChain)
        terms = {(0, 2): (laurent({0: 1}), (0, 2)), (1, 2): (laurent({0: 1}, 0, 9), (1, 2))}
        for name, value in [("handle", WH), ("degree", 1), ("slots", (wx, two_x, wxi)),
                            ("terms", terms)]:
            object.__setattr__(c, name, value)
        for zero_test in (HochschildChain.is_zero, fraction_expansion_is_zero):
            with pytest.raises(SeriesError):
                zero_test(c)
