from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from regkit.cli import RunConfig, load_rule
from regkit.rules import Rule, _skeletons, generate, node_profile
from regkit.trees import (
    DecoratedTree,
    Degree,
    TypeSet,
    leaf,
    monomial,
    noise,
    plant,
    tree_product,
)


def xi(ts):
    return noise(ts, "Xi")


def I(t, edeco=None):  # noqa: E743 - deliberately matches the usual symbol
    return plant(t, "I", edeco=edeco)


class TestRuleTable:
    def test_subset_closure(self, ts, quartic_rule):
        z = ts.zero()
        # the cubic profile admits all its sub-multisets
        assert quartic_rule.admits("I", (("I", z), ("I", z)))
        assert quartic_rule.admits("I", (("I", z),))
        assert quartic_rule.admits("I", ())
        assert not quartic_rule.admits("I", (("I", z),) * 4)
        assert not quartic_rule.admits("I", (("I", z), ("Xi", z)))

    def test_noise_is_leaf(self, ts, quartic_rule):
        assert quartic_rule.profiles("Xi") == ((),)
        z = ts.zero()
        with pytest.raises(ValueError):
            Rule.make(ts, {"Xi": [[("I", z)]]})

    def test_conformity(self, ts, quartic_rule):
        psi = I(xi(ts))
        assert quartic_rule.strongly_conforms(tree_product(psi, psi, psi))
        # four factors exceed the cubic profile
        assert not quartic_rule.strongly_conforms(
            tree_product(psi, psi, psi, psi))
        # Xi below Xi is never admissible
        bad = plant(xi(ts), "Xi")
        assert not quartic_rule.strongly_conforms(bad)

    def test_node_profile(self, ts):
        t = tree_product(I(xi(ts)), xi(ts))
        prof = node_profile(t, 0)
        assert sorted(a for a, _ in prof) == ["I", "Xi"]


class TestSubcriticality:
    def test_quartic_witness(self, quartic_rule):
        reg = quartic_rule.subcritical_witness()
        assert reg is not None
        ts = quartic_rule.typeset
        # noise: reg below the noise degree
        assert reg["Xi"] <= ts.degree_of("Xi").at(ts.kappa)
        # kernel: strictly better than the worst admissible profile allows
        worst = min(3 * reg["I"], reg["Xi"])
        assert reg["I"] < 2 + worst

    def test_supercritical_refused(self):
        # a very rough noise with a cubic nonlinearity has no witness
        ts = TypeSet.make((2, 1), {"Xi": Degree(Fraction(-4)), "I": Degree(2)})
        z = ts.zero()
        r = Rule.make(ts, {"I": [[("Xi", z)], [("I", z)] * 3]})
        assert r.subcritical_witness() is None
        with pytest.raises(ValueError, match="witness"):
            generate(r, Fraction(2), 4)

    @pytest.mark.parametrize("case", ["default", "quartic", "thirds",
                                      "derivatives", "none"])
    def test_witness_equals_fraction_search(self, case, ts, quartic_rule):
        z = ts.zero()
        if case == "default":
            rule = load_rule(RunConfig.load(None))[1]
        elif case == "quartic":
            rule = quartic_rule
        else:
            xi_deg = {"thirds": Fraction(-7, 3), "derivatives": Fraction(-1),
                      "none": Fraction(-4)}[case]
            ts = TypeSet.make((2, 1), {"Xi": Degree(xi_deg), "I": Degree(2)},
                              kappa=Fraction(1, 100))
            table = {"I": [[("Xi", z)], [("I", z)] * 3]}
            if case == "derivatives":
                table = {"I": [[("Xi", (0, 1))], [("I", (0, 1)), ("I", z)]]}
            rule = Rule.make(ts, table)
        want = _fraction_witness(rule)
        assert (want is None) == (case == "none")
        assert rule.subcritical_witness() == want


def _fraction_witness(rule):
    """The witness search in plain Fraction arithmetic, in the same order."""
    ts = rule.typeset
    names = ts.type_names
    for values in product([Fraction(n, 8) for n in range(-32, 33)],
                          repeat=len(names)):
        reg = dict(zip(names, values))
        ok = True
        for t in names:
            deg = ts.degree_of(t).at(ts.kappa)
            if t in ts.noise_types:
                ok = reg[t] <= deg
            else:
                ok = reg[t] < deg + min(
                    sum((reg[a] - ts.sdeg(k) for a, k in p), Fraction(0))
                    for p in rule.table[t])
            if not ok:
                break
        if ok:
            return reg
    return None


class TestGeneration:
    def test_universe_frozen_counts(self, quartic_rule):
        uni = generate(quartic_rule, Fraction(2), 5)
        assert len(uni) == 115
        assert len(uni.negative()) == 13

    def test_membership_and_caps(self, ts, quartic_rule):
        uni = generate(quartic_rule, Fraction(2), 5)
        psi = I(xi(ts))
        assert psi in uni
        assert tree_product(psi, psi) in uni
        # six edges: beyond the edge cap
        assert tree_product(psi, psi, psi) not in uni
        assert all(t.n_edges <= 5 for t in uni)
        assert all(t.degree_value() <= 2 for t in uni)
        assert all(quartic_rule.strongly_conforms(t) for t in uni)

    def test_cubic_power_needs_larger_cap(self, ts, quartic_rule):
        psi = I(xi(ts))
        uni6 = generate(quartic_rule, Fraction(2), 6)
        assert tree_product(psi, psi, psi) in uni6

    def test_deterministic(self, quartic_rule):
        a = generate(quartic_rule, Fraction(2), 5)
        b = generate(quartic_rule, Fraction(2), 5)
        assert a.trees == b.trees

    def test_polynomial_decorations_present(self, ts, quartic_rule):
        uni = generate(quartic_rule, Fraction(2), 5)
        assert monomial(ts, (0, 1)) in uni
        assert monomial(ts, (1, 0)) in uni
        psi = I(xi(ts))
        assert tree_product(psi, monomial(ts, (0, 1))) in uni
        assert leaf(ts) in uni

    def test_by_noise_count(self, quartic_rule):
        uni = generate(quartic_rule, Fraction(2), 5)
        strata = uni.by_noise_count()
        assert sum(len(v) for v in strata.values()) == len(uni)
        assert set(strata) <= {0, 1, 2, 3}


def _brute_force_universe(rule, degree_cap, edge_cap):
    """Every node decoration of every skeleton, each node's alone within the
    cap, filtered by the degree of the decorated tree."""
    ts = rule.typeset
    out = set()
    for sk in _skeletons(rule, edge_cap):
        room = degree_cap - sk.degree_value()
        if room < 0:
            continue
        box = list(product(*(range(int(room / s) + 1) for s in ts.scaling)))
        for ndecos in product(box, repeat=sk.n_nodes):
            if sum(ts.sdeg(nd) for nd in ndecos) <= room:
                data = sk.to_dict()
                data["nodes"] = [{"deco": list(nd)} for nd in ndecos]
                out.add(DecoratedTree.from_dict(ts, data))
    assert all(t.degree_value() <= degree_cap for t in out)
    return tuple(sorted(out, key=DecoratedTree.sort_key))


def _kpz_rule():
    """Derivative decorations: I over a noise or over two I^(0,1) edges,
    with the noise at -3/2 - kappa."""
    ts = TypeSet.make(scaling=(2, 1),
                      types={"Xi": Degree(Fraction(-3, 2), Fraction(-1)),
                             "I": Degree(Fraction(2))},
                      kappa=Fraction(1, 100))
    return Rule.make(ts, {"I": [[("Xi", (0, 0))],
                                [("I", (0, 1)), ("I", (0, 1))]]})


@settings(max_examples=60, deadline=None)
@given(derivatives=st.booleans(), edge_cap=st.integers(0, 3),
       degree_cap=st.fractions(-2, 3, max_denominator=100))
def test_generate_is_the_filtered_brute_force(quartic_rule, derivatives,
                                              edge_cap, degree_cap):
    """For small caps, ``generate`` gives exactly the decorated skeletons
    of degree at most the cap, in sort order."""
    rule = _kpz_rule() if derivatives else quartic_rule
    assert generate(rule, degree_cap, edge_cap).trees == \
        _brute_force_universe(rule, degree_cap, edge_cap)
