from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regkit.hopf import delta_r_minus, delta_r_minus_reduced
from regkit.renorm import (
    PreparationMap,
    age,
    bphz_functional,
    hist,
    precedes,
)
from regkit.renorm import _lookup, _phase1, _phase2, _phase3
from regkit.rules import generate
from regkit.trees import FormalSum, noise, plant, tree_product, unit


@pytest.fixture(scope="module")
def uni(quartic_rule):
    return generate(quartic_rule, degree_cap=Fraction(2), edge_cap=4)


@pytest.fixture(scope="module")
def family(ts):
    xi = noise(ts, "Xi")
    psi = plant(xi, "I")
    psi2 = tree_product(psi, psi)
    return {
        "xi": xi,
        "psi": psi,
        "psi2": psi2,
        "ipsi2": plant(psi2, "I"),
        "big": tree_product(plant(psi2, "I"), psi),
    }


# ---------------------------------------------------------------------------
# an exact stand-in for the model expectation: every noise contributes one
# standard Gaussian, every kernel edge a rational weight, and the point
# evaluation kills any polynomial factor at the root.  It is consistent with
# the recursion the counterterm construction relies on, which is all the
# algebraic tests below need.


def _polymul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            out[a + b] = out.get(a + b, Fraction(0)) + ca * cb
    return out


def _gauss_moment(n):
    if n % 2:
        return Fraction(0)
    m = Fraction(1)
    while n > 1:
        m *= n - 1
        n -= 2
    return m


def toy_field(tree, ell):
    root_nd, factors = tree.factor()
    if any(root_nd):
        return {}
    poly = {0: Fraction(1)}
    for et, ed, _od, br in factors:
        if et in tree.typeset.noise_types:
            part = {1: Fraction(1)}
        else:
            part = {}
            for (l, r), c in delta_r_minus(br).items():
                lv = _lookup(ell, l)
                if lv:
                    for n, cf in toy_field(r, ell).items():
                        part[n] = part.get(n, Fraction(0)) + c * lv * cf
            weight = Fraction(1, 1 + sum(ed))
            part = {n: cf * weight for n, cf in part.items()}
        poly = _polymul(poly, part)
    return poly


def toy_expect(tree, ell):
    total = Fraction(0)
    for n, c in toy_field(tree, ell).items():
        total += c * _gauss_moment(n)
    return total


def _round_robin_hist(seed):
    """The historic closure with every phase run on every member in each
    round: (sorted trees, provenance, stabilisation index)."""
    members = {t: (0, None) for t in frozenset(seed)}
    phases = (_phase1, _phase2, _phase3)
    index = idle = 0
    while idle < 3:
        index += 1
        new = {}
        for t in list(members):
            for s in phases[(index - 1) % 3](t):
                if s not in members and s not in new:
                    new[s] = (index, t)
        members.update(new)
        idle = 0 if new else idle + 1
    return tuple(sorted(members)), members, index - 3


class TestHist:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_round_robin(self, uni, data):
        # running each phase once per tree changes no tree, no provenance
        # (in order) and no stabilisation index
        seed = data.draw(st.lists(st.sampled_from(sorted(uni.trees)),
                                  min_size=1, max_size=8))
        closure = hist(seed)
        trees, provenance, index = _round_robin_hist(seed)
        assert closure.trees == trees
        assert list(closure.provenance.items()) == list(provenance.items())
        assert closure.stabilisation_index == index

    def test_contains_seed_and_is_closed(self, family):
        closure = hist([family["big"]])
        assert family["big"] in closure
        assert family["psi2"] in closure
        assert closure.is_closed()
        assert closure.stabilisation_index >= 1

    def test_idempotent(self, family):
        closure = hist([family["big"]])
        again = hist(closure.trees)
        assert set(again.trees) == set(closure.trees)
        assert again.stabilisation_index == 0

    def test_finite_on_universe_samples(self, uni):
        for seed in list(uni.trees)[::9]:
            closure = hist([seed])
            assert 0 < len(closure) < 5000
            assert closure.is_closed()

    def test_provenance_certificates(self, family):
        closure = hist([family["psi2"]])
        phase, parent = closure.provenance[family["psi2"]]
        assert phase == 0 and parent is None
        phase, parent = closure.provenance[family["psi"]]
        assert phase > 0 and parent in closure


class TestAge:
    def test_precedes_is_lexicographic(self, family, ts):
        assert precedes(family["psi"], family["psi2"])  # fewer noises
        assert precedes(unit(ts), family["xi"])
        assert not precedes(family["psi2"], family["psi2"])

    def test_chain_of_ages(self, family):
        ages = [age(family[k]) for k in ("xi", "psi", "psi2", "ipsi2", "big")]
        assert ages == sorted(ages)
        assert len(set(ages)) == len(ages)
        assert age(family["xi"]) == 2  # the unit and the noise itself

    def test_strictly_decreasing_moves(self, uni):
        checked = 0
        for t in list(uni.trees)[::5]:
            a = age(t)
            _nd, factors = t.factor()
            if len(factors) > 1:
                for et, ed, od, br in factors:
                    assert age(plant(br, et, ed, od)) < a
            if t.is_planted:
                assert age(t.branch(t.children(0)[0])) < a
            for (l, r), _c in delta_r_minus_reduced(t).items():
                assert age(l) < a and age(r) < a
            checked += 1
        assert checked > 15


@pytest.fixture(scope="module")
def closure(family):
    return hist([family["big"], family["psi2"]])


@pytest.fixture(scope="module")
def counterterms(closure):
    return bphz_functional(closure, toy_expect)


class TestBphz:
    def test_values_are_exact(self, counterterms):
        assert counterterms
        assert all(isinstance(v, Fraction) for v in counterterms.values())

    def test_hand_values(self, counterterms, family):
        assert counterterms[family["xi"]] == 0
        assert counterterms[family["psi2"]] == -1

    def test_centers_the_model(self, closure, counterterms):
        # the defining property: the prepared model has mean zero at the
        # origin on every tree in the functional's domain
        for v in counterterms:
            mean = toy_expect(v, counterterms) + counterterms[v]
            for (l, r), c in delta_r_minus_reduced(v).items():
                lv = _lookup(counterterms, l)
                if lv:
                    mean += c * lv * toy_expect(r, counterterms)
            assert mean == 0

    def test_refuses_mixed_precision(self, closure, family):
        def flaky(tree, ell):
            v = toy_expect(tree, ell)
            return float(v) if tree.noise_count() >= 2 else v

        with pytest.raises(TypeError, match="mixed"):
            bphz_functional(closure, flaky)


class TestPreparationMap:
    @pytest.fixture()
    def prep(self, closure, counterterms):
        pmap = PreparationMap(
            lambda t: counterterms.get(t, Fraction(0)))
        return pmap, closure

    def test_unit_and_identity_leading_term(self, prep, ts, family):
        pmap, _ = prep
        assert pmap(unit(ts)) == FormalSum.single(unit(ts))
        assert pmap(family["psi2"]).coeff(family["psi2"]) == 1

    def test_vanishes_off_domain(self, prep, family):
        pmap, _ = prep
        assert pmap.functional(family["psi"]) == 0
        assert pmap.functional(unit(family["psi"].typeset)) == 1

    def test_triangular(self, prep):
        pmap, closure = prep
        assert pmap.check_triangular(closure.negative())

