import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regkit.hopf import (
    Character,
    GammaMap,
    TensorSum,
    a_star,
    antipode,
    character_inverse,
    convolve,
    counit,
    d_map,
    delta,
    delta_plus,
    delta_r_minus,
    delta_r_minus_reduced,
    delta_tilde,
    delta_tilde_coloured,
    delta_tilde_explicit,
    gamma_action,
    m_star,
)
from regkit.renorm import hist
from regkit.trees import (
    FormalSum,
    contract,
    mi_below,
    mi_factorial,
    monomial,
    noise,
    paint,
    plant,
    tree_product,
    unit,
)


def xi(ts):
    return noise(ts, "Xi")


def I(t, edeco=None):  # noqa: E743
    return plant(t, "I", edeco=edeco)


class TestCoaction:
    def test_negative_planted_is_grouplike(self, ts):
        psi = I(xi(ts))
        assert delta(psi) == TensorSum.of(psi, unit(ts))

    def test_polynomial(self, ts):
        x2 = monomial(ts, (0, 2))
        expected = TensorSum(
            {(monomial(ts, (0, n)), monomial(ts, (0, 2 - n))):
             Fraction([1, 2, 1][n]) for n in range(3)})
        assert delta(x2) == expected

    def test_positive_planted_by_hand(self, ts):
        # one kernel edge above another: degree 3/2 - kappa, so exactly one
        # derivative can be transferred onto the trunk
        t = I(I(xi(ts)))
        expected = TensorSum.of(t, unit(ts)) \
            + TensorSum.of(unit(ts), t) \
            + TensorSum.of(monomial(ts, (0, 1)), I(I(xi(ts)), edeco=(0, 1)))
        assert delta(t) == expected

    def test_planting_recursion(self, ts, uni):
        # delta(I tau) = (I x id) delta(tau) + sum_k X^k/k! x I^k(tau)
        for t in uni:
            it = I(t)
            lhs = delta(it)
            rhs = delta(t).apply(0, lambda s: FormalSum.single(I(s)))
            bound = it.degree_value()
            for k in mi_below(ts.scaling, bound):
                rhs = rhs + TensorSum.of(
                    monomial(ts, k), I(t, edeco=k),
                    coeff=Fraction(1, mi_factorial(k)))
            assert lhs == rhs

    def test_multiplicative(self, ts, uni):
        sample = uni.trees[::7]
        for a in sample[:6]:
            for b in sample[6:12]:
                assert delta(tree_product(a, b)) == delta(a).mul(delta(b))

    def test_comodule(self, uni):
        for t in uni.trees[::5]:
            d = delta(t)
            assert d.apply(0, delta) == d.apply(1, delta_plus)

    def test_coassociativity(self, ts, uni):
        for t in uni.trees[::5]:
            p = I(t)
            if p.degree_value() <= 0:
                continue
            d = delta_plus(p)
            assert d.apply(0, delta_plus) == d.apply(1, delta_plus)


class TestRootExtraction:
    def test_square_by_hand(self, ts):
        psi = I(xi(ts))
        psi2 = tree_product(psi, psi)
        expected = TensorSum.of(unit(ts), psi2) \
            + TensorSum.of(psi2, unit(ts)) \
            + TensorSum.of(psi, psi, coeff=Fraction(2))
        assert delta_r_minus(psi2) == expected
        assert delta_r_minus_reduced(psi2) == TensorSum.of(psi, psi,
                                                           coeff=Fraction(2))

    def test_left_slot_negative_or_unit(self, uni):
        for t in uni.trees[::3]:
            for (l, r), _c in delta_r_minus(t).items():
                assert l.is_unit or l.degree_value() < 0

    def test_cointeraction(self, uni):
        for t in uni.trees[::5]:
            lhs = delta(t).apply(0, delta_r_minus)
            rhs = delta_r_minus(t).apply(1, delta)
            assert lhs == rhs

    def test_reduced_never_primitive(self, uni):
        for t in uni.trees[::9]:
            for (l, r), _c in delta_r_minus_reduced(t).items():
                assert not l.is_unit and not r.is_unit


class TestAntipode:
    def test_polynomial_sign(self, ts):
        x = monomial(ts, (1, 2))
        assert antipode(x) == FormalSum.single(x, Fraction(-1))

    def test_antipode_laws(self, ts, uni):
        one = unit(ts)
        for t in uni.trees[::6]:
            p = I(t)
            if p.degree_value() <= 0:
                continue
            # m(A x id)delta+ = m(id x A)delta+ = counit * unit
            left = FormalSum.zero()
            right = FormalSum.zero()
            for (l, r), c in delta_plus(p).items():
                for s, c2 in antipode(l).items():
                    left = left + FormalSum.single(tree_product(s, r), c * c2)
                for s, c2 in antipode(r).items():
                    right = right + FormalSum.single(tree_product(l, s), c * c2)
            expected = FormalSum.single(one, counit(p))
            assert left == expected
            assert right == expected

    def test_multiplicative(self, ts):
        t = I(I(xi(ts)))
        x = monomial(ts, (0, 1))
        prod = tree_product(t, x)
        assert antipode(prod) == FormalSum(
            ((tree_product(k, x), -c) for k, c in antipode(t).items()))


class TestCharacters:
    def test_convolution_inverse(self, ts, uni):
        values = {}
        for t in uni:
            if t.is_planted:
                values[t] = Fraction(hash(t) % 7 - 3, 2)
        g = Character(lambda t: values.get(t, Fraction(0)),
                      (Fraction(1), Fraction(-2)))
        ginv = character_inverse(g)
        # the counit: 1 on the unit, 0 on every non-trivial generator
        e = Character(lambda t: Fraction(0), (Fraction(0),) * ts.d)
        both = convolve(g, ginv)
        for t in uni.trees[::6]:
            p = I(t)
            if p.degree_value() <= 0:
                continue
            assert both(p) == e(p)

    def test_group_action(self, ts, uni):
        vals_g, vals_h = {}, {}
        for t in uni:
            if t.is_planted:
                vals_g[t] = Fraction(hash(t) % 5 - 2)
                vals_h[t] = Fraction(hash((t, 1)) % 5 - 2, 3)
        g = Character(lambda t: vals_g.get(t, Fraction(0)),
                      (Fraction(1), Fraction(2)))
        h = Character(lambda t: vals_h.get(t, Fraction(0)),
                      (Fraction(0), Fraction(-1)))
        gh = convolve(g, h)
        act_g, act_h, act_gh = gamma_action(g), gamma_action(h), gamma_action(gh)
        for t in uni.trees[::11]:
            composed = FormalSum.zero()
            for s, c in act_h(t).items():
                composed = composed + c * act_g(s)
            assert composed == act_gh(t)

    def test_planted_values_computed_once(self, ts, uni):
        # values on products reuse the memoised planted factors, and a
        # second evaluation calls nothing
        calls = []

        def on_planted(t):
            calls.append(t)
            return Fraction(t.n_edges, 3) - 1

        g = Character(on_planted, (Fraction(1, 2), Fraction(-1)))
        combo = FormalSum(((t, Fraction(i % 4 - 1, 2))
                           for i, t in enumerate(uni.trees[::3])))
        first = g(combo)
        assert g(combo) == first
        factors = {plant(br, et, ed, od) for t, _c in combo.items()
                   for et, ed, od, br in t.factor()[1]}
        assert len(calls) == len(set(calls)) and set(calls) == factors

        def plain(t):
            nd, fs = t.factor()
            out = Fraction(1, 2) ** nd[0] * Fraction(-1) ** nd[1]
            for et, ed, od, br in fs:
                out *= on_planted(plant(br, et, ed, od))
            return out

        assert first == sum((c * plain(t) for t, c in combo.items()),
                            Fraction(0))


@pytest.fixture(scope="module")
def jet_setup(ts):
    psi = I(xi(ts))
    base = {
        unit(ts), xi(ts), monomial(ts, (0, 1)), psi,
        tree_product(psi, psi), I(tree_product(psi, psi)),
        tree_product(psi, monomial(ts, (0, 1))), I(psi, edeco=(0, 1)),
        I(I(xi(ts))), tree_product(I(I(xi(ts))), psi),
    }
    gm = GammaMap(Fraction(27, 10), a_star(base))
    return base, gm, m_star(gm, base)


JET_GAMMAS = (Fraction(67, 10), Fraction(73, 10), Fraction(89, 10))


@pytest.fixture(scope="module")
def jet_sector(ts):
    """The jet sector of ``test_acceptance::test_03`` (15 trees, at most 4
    edges)."""
    psi = I(xi(ts))
    xpsi = tree_product(monomial(ts, (0, 1)), psi)
    return hist([tree_product(psi, psi), xpsi, tree_product(psi, xpsi),
                 I(xpsi), tree_product(monomial(ts, (0, 2)), psi),
                 tree_product(I(xi(ts), edeco=(0, 1)), psi)]).trees


class TestJetCoproduct:
    def test_primitives(self, ts, jet_setup):
        _base, gm, m = jet_setup
        assert delta_tilde(xi(ts), gm, m) == TensorSum.of(xi(ts), unit(ts))
        x = monomial(ts, (0, 1))
        assert delta_tilde(x, gm, m) == (
            TensorSum.of(x, unit(ts)) + TensorSum.of(unit(ts), x))

    def test_inadmissible_exponent_refused(self, ts):
        gm = GammaMap(Fraction(5, 2), Fraction(-251, 100))
        t = tree_product(I(xi(ts)), monomial(ts, (0, 1)))
        with pytest.raises(ValueError, match="inadmissible"):
            gm.of(t)

    def test_recursive_equals_explicit(self, jet_setup):
        base, gm, m = jet_setup
        for t in sorted(base)[::4]:
            assert delta_tilde(t, gm, m) == delta_tilde_explicit(t, gm, m)

    def test_contraction_identity(self, ts, jet_setup):
        base, gm, m = jet_setup
        checked = 0
        for t in sorted(base)[::3]:
            for r in range(0, t.n_edges + 1):
                for sub in combinations(t.edges(), r):
                    s = set(sub)
                    if not all(t.parent[e] == 0 or t.parent[e] in s
                               for e in s):
                        continue
                    ct = paint(t, s)
                    lhs = delta_tilde_explicit(contract(ct), gm, m)
                    rhs = delta_tilde_coloured(ct, gm, m).apply(
                        0, lambda x: FormalSum.single(contract(x)))
                    assert lhs == rhs
                    checked += 1
        assert checked > 10

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), gamma0=st.sampled_from(JET_GAMMAS))
    def test_pruning_sound_and_complete(self, jet_sector, data, gamma0):
        """The degree bound of the cut engine keeps exactly the terms of
        the jet coproduct: every left slot is below the jet exponent (after
        ``contract`` for coloured input), and the explicit coproduct equals
        the recursive one, which builds its terms without the engine."""
        base = set(jet_sector)
        gm = GammaMap(gamma0, a_star(base))
        m = m_star(gm, base)
        t = data.draw(st.sampled_from(jet_sector))
        explicit = delta_tilde_explicit(t, gm, m)
        assert all(left.degree_value() < gm.of(t)
                   for (left, _r), _c in explicit)
        assert explicit == delta_tilde(t, gm, m)
        colour: set[int] = set()
        for e in t.edges():
            if (t.parent[e] == 0 or t.parent[e] in colour) \
                    and data.draw(st.booleans()):
                colour.add(e)
        painted = paint(t, colour)
        g = gm.of(contract(painted).strip_odeco())
        coloured = delta_tilde_coloured(painted, gm, m)
        assert all(contract(left).degree_value() < g
                   for (left, _r), _c in coloured)
        assert coloured.apply(0, lambda x: FormalSum.single(contract(x))) == \
            delta_tilde_explicit(contract(painted), gm, m)


class TestDerivativeRedistribution:
    def test_positive_tree_maps_to_zero(self, ts):
        assert d_map(I(I(xi(ts))), Fraction(4)) == FormalSum.zero()

    def test_by_hand(self, ts):
        # a single derivative on the kernel edge of a negative tree can be
        # kept, moved to the over-decoration, or duplicated onto the root
        # node, as far as negativity allows
        t = I(xi(ts), edeco=(0, 1))  # degree -3/2 - kappa
        branch = xi(ts)
        lowered = plant(branch, "I", odeco=(0, 1))
        duplicated = tree_product(
            monomial(ts, (0, 1)), plant(branch, "I", edeco=(0, 1),
                                        odeco=(0, 1)))
        expected = FormalSum({t: Fraction(1), lowered: Fraction(1),
                              duplicated: Fraction(1)})
        assert d_map(t, Fraction(4)) == expected

    def test_identity_term_present(self, ts, uni):
        for t in uni.negative():
            out = d_map(t, Fraction(4))
            assert out.coeff(t) == Fraction(1)


ORDER_PINS = json.loads(
    (Path(__file__).parent / "coproduct_order_pins.json").read_text())


def order_digest(coproduct, trees) -> str:
    """SHA-256 of the ordered ``items()`` of ``coproduct`` on each tree.

    Term order, not just the term set, is pinned: ``PreparationMap`` walks
    ``delta_r_minus(...).items()`` in order, and that order fixes the float
    summation order of the renormalised model."""
    h = hashlib.sha256()
    for t in trees:
        h.update(repr(list(coproduct(t).items())).encode() + b"\n")
    return h.hexdigest()


def order_pin_cases(uni, jet_setup):
    """The pinned coproducts, each with the trees it is pinned on.  The jet
    coproducts are pinned on the trees of at most 4 edges and, under their
    own keys, on the two 5-edge trees, uncoloured; ``delta_tilde_coloured``
    also sees every painting with a non-empty colour."""
    base, gm, m = jet_setup
    jet = [t for t in sorted(base) if t.n_edges <= 4]
    five = [t for t in sorted(base) if t.n_edges == 5]
    painted = [paint(t, set(sub)) for t in sorted(base)
               for r in range(1, t.n_edges + 1)
               for sub in combinations(t.edges(), r)
               if all(t.parent[e] == 0 or t.parent[e] in sub for e in sub)]
    return {
        "delta": (delta, uni.trees),
        "delta_r_minus": (delta_r_minus, uni.trees),
        "d_map": (lambda t: d_map(t, Fraction(4)), uni.trees),
        "delta_tilde_explicit": (
            lambda t: delta_tilde_explicit(t, gm, m), jet),
        "delta_tilde_coloured": (
            lambda t: delta_tilde_coloured(t, gm, m), jet + painted),
        "delta_tilde_explicit_5_edges": (
            lambda t: delta_tilde_explicit(t, gm, m), five),
        "delta_tilde_coloured_5_edges": (
            lambda t: delta_tilde_coloured(t, gm, m), five),
    }


class TestTermOrder:
    """Ordered ``items()`` of the coproducts match the digests in
    ``coproduct_order_pins.json``."""

    @pytest.mark.parametrize("name", sorted(ORDER_PINS["pins"]))
    def test_order_matches_pin(self, name, uni, jet_setup):
        coproduct, trees = order_pin_cases(uni, jet_setup)[name]
        assert order_digest(coproduct, trees) == ORDER_PINS["pins"][name]
