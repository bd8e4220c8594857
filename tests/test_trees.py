import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations, product

from hypothesis import given, settings, strategies as st

from regkit.trees import (
    DecoratedTree,
    Degree,
    FormalSum,
    contract,
    cuts,
    leaf,
    mi_below,
    mi_leq_iter,
    mi_sdeg,
    monomial,
    noise,
    paint,
    plant,
    root_part_nodes,
    tree_product,
    unit,
    _weighted_choices,
)


def xi(ts):
    return noise(ts, "Xi")


def i_of(ts, t):
    return plant(t, "I")


def _fraction_degree(tree) -> Fraction:
    """The degree at kappa as a plain ``Fraction`` sum over edges and nodes:
    the reference that ``degree_nums`` is checked against."""
    ts = tree.typeset
    return (sum((ts.degree_of(tree.etype[e]).at(ts.kappa)
                 - mi_sdeg(tree.edeco[e], ts.scaling) for e in tree.edges()),
                Fraction(0))
            + sum(mi_sdeg(nd, ts.scaling) for nd in tree.ndeco))


def test_degree_examples(ts):
    def at_kappa(const, kappa=0):
        return Degree(Fraction(const), Fraction(kappa)).at(ts.kappa)

    # a single noise edge
    assert xi(ts).degree_value() == at_kappa(Fraction(-5, 2), -1)
    # I(Xi) has degree 2 + (-5/2 - kappa) = -1/2 - kappa
    u = i_of(ts, xi(ts))
    assert u.degree_value() == at_kappa(Fraction(-1, 2), -1)
    # cube: three copies multiplied at the root
    cube = tree_product(u, u, u)
    assert cube.degree_value() == at_kappa(Fraction(-3, 2), -3)
    # node decorations raise the degree, edge decorations lower it
    assert monomial(ts, (1, 1)).degree_value() == at_kappa(3)
    dec = plant(xi(ts), "I", edeco=(0, 1))
    assert dec.degree_value() == at_kappa(Fraction(-3, 2), -1)


def test_degree_ignores_over_decoration(ts):
    a = plant(xi(ts), "I")
    b = plant(xi(ts), "I", odeco=(1, 0))
    assert a.degree_nums == b.degree_nums
    assert a != b


def test_product_unit_commutative_associative(ts):
    u = i_of(ts, xi(ts))
    v = xi(ts)
    w = monomial(ts, (0, 2))
    one = unit(ts)
    assert tree_product(u, one) == u
    assert tree_product(u, v) == tree_product(v, u)
    assert tree_product(tree_product(u, v), w) == tree_product(u, tree_product(v, w))
    # root decorations add up
    assert tree_product(monomial(ts, (1, 0)), monomial(ts, (0, 2))) == monomial(ts, (1, 2))


def test_cut_count_chain(ts):
    # chain of three kernel edges: the empty cut plus one cut per edge
    t = i_of(ts, i_of(ts, i_of(ts, leaf(ts))))
    assert len(cuts(t)) == 4


def test_cut_count_cherry(ts):
    # two branches of two edges each: 3 options per branch
    branch = i_of(ts, i_of(ts, leaf(ts)))
    t = tree_product(branch, branch)
    assert len(cuts(t)) == 9


def test_cuts_are_antichains(ts):
    branch = i_of(ts, i_of(ts, xi(ts)))
    t = tree_product(branch, i_of(ts, xi(ts)))
    for c in cuts(t):
        for e in c:
            # no other cut edge on the root path of e
            v = t.parent[e]
            while v > 0:
                assert v not in c
                v = t.parent[v]


def test_kernel_only_cuts(ts):
    t = i_of(ts, xi(ts))  # kernel edge with noise edge on top
    all_cuts = cuts(t)
    plus_cuts = cuts(t, kernel_only=True)
    assert len(all_cuts) == 3
    assert len(plus_cuts) == 2
    for c in plus_cuts:
        for e in c:
            assert t.typeset.is_kernel(t.etype[e])


def test_canonical_form_is_order_independent(ts):
    a = i_of(ts, xi(ts))
    b = plant(xi(ts), "I", edeco=(0, 1))
    c = xi(ts)
    t1 = tree_product(a, b, c)
    t2 = tree_product(c, a, b)
    t3 = tree_product(b, tree_product(c, a))
    assert t1 == t2 == t3
    assert hash(t1) == hash(t3)


def test_contract_collapses_coloured_part(ts):
    # colour the lower kernel edge of I(I(Xi)) and contract: node decorations
    # of the collapsed pair of nodes are summed at the root.
    inner = plant(xi(ts), "I")
    t = plant(tree_product(monomial(ts, (1, 0)), inner), "I")
    t = tree_product(monomial(ts, (0, 2)), t)
    coloured = paint(t, {0, 1})  # root part = root plus first child
    got = contract(coloured)
    expect = tree_product(monomial(ts, (1, 2)), plant(xi(ts), "I"))
    assert got == expect


def test_contract_trivial_colour_is_identity(ts):
    t = tree_product(i_of(ts, xi(ts)), xi(ts))
    assert contract(t) == t


def test_json_roundtrip(ts):
    t = tree_product(monomial(ts, (2, 1)),
                     plant(xi(ts), "I", edeco=(0, 1), odeco=(1, 0)),
                     i_of(ts, xi(ts)))
    d = t.to_dict()
    assert DecoratedTree.from_dict(ts, d) == t


def test_zero_over_decoration_is_none(ts):
    # the zero over-decoration must not decide the order of the siblings
    z = ts.zero()
    children = [("I", z, None, False, i_of(ts, xi(ts))),
                ("I", z, None, False, leaf(ts))]
    plain = DecoratedTree.build(ts, None, children)
    children[1] = ("I", z, (0, 0), False, leaf(ts))
    assert DecoratedTree.build(ts, None, children) == plain
    assert plain.parent == (-1, 0, 0, 2, 3)


def test_mi_below(ts):
    got = mi_below(ts.scaling, Fraction(2))
    # |k|_s < 2 with s = (2,1): (0,0), (0,1)
    assert got == [(0, 0), (0, 1)]


INT_SCALINGS = st.lists(st.integers(1, 3), min_size=1, max_size=3)
FRACTION_SCALINGS = st.lists(
    st.fractions(Fraction(1, 3), 3, max_denominator=3), min_size=1,
    max_size=3)


@settings(max_examples=80, deadline=None)
@given(scaling=INT_SCALINGS | FRACTION_SCALINGS,
       bound=st.integers(-1, 6) | st.fractions(-1, 6, max_denominator=4))
def test_multi_index_vocabulary_property(scaling, bound):
    """mi_below is the sorted set {|k|_s < bound} of a brute-force box,
    mi_sdeg keeps the number type of the scaling, and mi_leq_iter lists
    the box below k in lexicographic order."""
    box = product(*(range(max(0, math.floor(bound / s)) + 1)
                    for s in scaling))
    brute = sorted(k for k in box
                   if sum(s * x for s, x in zip(scaling, k)) < bound)
    got = mi_below(scaling, bound)
    assert got == brute
    kind = int if all(type(s) is int for s in scaling) else Fraction
    for k in got:
        assert type(mi_sdeg(k, scaling)) is kind
        below = list(mi_leq_iter(k))
        assert below == sorted(below)
        assert len(below) == math.prod(x + 1 for x in k)
        assert all(all(a <= b for a, b in zip(j, k)) for j in below)


def test_formal_sum_arithmetic():
    s = FormalSum.single("a", Fraction(1, 2)) + FormalSum.single("b", Fraction(2))
    t = s + FormalSum.single("a", Fraction(-1, 2))
    assert t == FormalSum.single("b", Fraction(2))
    assert not (t - t)
    assert (3 * s).coeff("a") == Fraction(3, 2)
    assert s.bind(lambda k: FormalSum.single(k.upper())) == \
        FormalSum({"A": Fraction(1, 2), "B": Fraction(2)})


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# small sums over four keys; zero weights are drawn on purpose
SUMS = st.dictionaries(st.sampled_from("abcd"), FRACTIONS,
                       max_size=4).map(FormalSum)


@settings(max_examples=100, deadline=None)
@given(s=SUMS, t=SUMS, u=SUMS, c=FRACTIONS,
       images=st.fixed_dictionaries({k: SUMS for k in "abcd"}))
def test_formal_sum_algebra(s, t, u, c, images):
    assert (s + t) + u == s + (t + u)
    assert s + t == t + s
    assert not (s - s)
    assert c * (s + t) == c * s + c * t
    image = images.__getitem__
    assert (s + c * t).bind(image) == s.bind(image) + c * t.bind(image)
    for x in (s, t + u, s - t, c * s, s.bind(image)):
        assert all(coeff != 0 for _key, coeff in x.items())


@st.composite
def random_tree(draw, ts, max_nodes=7):
    """Random decorated tree built bottom-up."""
    n = draw(st.integers(1, max_nodes))
    pool = [leaf(ts, (draw(st.integers(0, 1)), draw(st.integers(0, 2))))]
    for _ in range(n - 1):
        pick = draw(st.integers(0, len(pool) - 1))
        et = draw(st.sampled_from(["I", "I", "Xi"]))
        sub = pool[pick] if et == "I" else leaf(ts)
        ed = (0, draw(st.integers(0, 1))) if et == "I" else (0, 0)
        pool.append(plant(sub, et, edeco=ed))
    extra = draw(st.integers(0, 2))
    parts = [pool[-1]] + [pool[draw(st.integers(0, len(pool) - 1))]
                          for _ in range(extra)]
    return tuple(parts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_order_invariance_property(ts, data):
    parts = list(data.draw(random_tree(ts)))
    t1 = tree_product(*parts)
    random.Random(0).shuffle(parts)
    t2 = tree_product(*parts)
    assert t1 == t2
    assert t1.degree_nums == t2.degree_nums


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_json_roundtrip_property(ts, data):
    t = tree_product(*data.draw(random_tree(ts)))
    assert DecoratedTree.from_dict(ts, t.to_dict()) == t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_universe_roundtrip_property(ts, uni, data):
    """``from_dict(to_dict(t)) == t`` on the universe, also after a zero
    over-decoration is put on any of the kernel edges."""
    t = data.draw(st.sampled_from(uni.trees))
    d = t.to_dict()
    assert DecoratedTree.from_dict(ts, d) == t
    for e in d["edges"]:
        if ts.is_kernel(e["type"]) and data.draw(st.booleans()):
            e["over_deco"] = [0, 0]
    assert DecoratedTree.from_dict(ts, d) == t


@st.composite
def decorated_universe_tree(draw, uni):
    """A universe tree with random node, edge and over-decorations and a
    random root-connected painting."""
    ts = uni.trees[0].typeset
    small = st.tuples(st.integers(0, 1), st.integers(0, 2))
    d = draw(st.sampled_from(uni.trees)).to_dict()
    for node in d["nodes"]:
        node["deco"] = list(draw(small))
    colour: set[int] = set()
    for e in d["edges"]:
        e["deco"] = list(draw(small))
        if ts.is_kernel(e["type"]) and draw(st.booleans()):
            e["over_deco"] = list(draw(small))
        # an edge may be coloured when the edge below it is (or it is at
        # the root); edges come parents first
        if (e["from"] == 0 or e["from"] in colour) and draw(st.booleans()):
            colour.add(e["to"])
    d["colour"] = sorted(colour)
    return DecoratedTree.from_dict(ts, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_degrees_and_cached_hash_property(ts, uni, data):
    """The degree value is the tree's integer degree numerator over
    ``den``, and the cached hash is the hash of the field tuple without the
    over-decorations and the root's edge entries, which hold None, whose
    hash is an address on Python 3.11."""
    t = data.draw(decorated_universe_tree(uni))
    assert Fraction(t.degree_nums[0], ts.den) == t.degree_value()
    fields = (t.typeset, t.parent, t.etype[1:], t.edeco[1:], t.ndeco,
              t.coloured)
    assert None not in fields[2:]
    assert hash(t) == hash(fields)
    assert hash(ts) == hash((ts.scaling, ts._types, ts.kappa))
    again = DecoratedTree.from_dict(ts, t.to_dict())
    assert again == t and again is not t and hash(again) == hash(t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_degree_nums_match_fraction_sum_property(ts, uni, data):
    """``degree_nums`` holds, over ``den``, the plain ``Fraction`` sum of the
    tree and of the planted factor above each edge, and over-decorations
    add nothing to either."""
    t = data.draw(decorated_universe_tree(uni))
    assert Fraction(t.degree_nums[0], ts.den) == _fraction_degree(t)
    for e in t.edges():
        planted = plant(t.branch(e), t.etype[e], t.edeco[e], t.odeco[e])
        assert Fraction(t.degree_nums[e], ts.den) == _fraction_degree(planted)
    bare = t.strip_odeco()
    assert bare.degree_nums[0] == t.degree_nums[0]
    assert sorted(bare.degree_nums) == sorted(t.degree_nums)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cached_factorisation_property(ts, uni, data):
    """``factor()`` is computed once per tree, and ``planted_factors`` plants
    its branches in the same order; their product with the root monomial is
    the tree with its colour dropped."""
    t = data.draw(decorated_universe_tree(uni))
    root_nd, factors = t.factor()
    assert t.factor() is t.factor() and root_nd == t.ndeco[0]
    assert [br for _et, _ed, _od, br in factors] == [
        t.branch(c) for c in t.children(0)]
    assert t.planted_factors == tuple(
        plant(br, et, ed, od) for et, ed, od, br in factors)
    assert t.planted_factors is t.planted_factors
    plain = DecoratedTree.from_dict(ts, {**t.to_dict(), "colour": []})
    assert tree_product(monomial(ts, root_nd), *t.planted_factors) == plain


def _root_path(t, v) -> list[int]:
    """Edges from node v down to the root (edge i enters node i)."""
    out = []
    while v != 0:
        out.append(v)
        v = t.parent[v]
    return out


def _shuffled(node, rng):
    nd, edges = node
    edges = [(et, ed, od, col, _shuffled(ch, rng))
             for (et, ed, od, col, ch) in edges]
    rng.shuffle(edges)
    return (nd, edges)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_recursive_helpers_against_brute_force(ts, uni, data):
    """Cuts, root parts, the dict round trip and the canonical form of the
    nested form agree with direct definitions, on universe trees with
    random decorations and colour."""
    t = data.draw(decorated_universe_tree(uni))
    paths = [set(_root_path(t, v)) for v in range(t.n_nodes)]
    for kernel_only in (False, True):
        allowed = [e for e in t.edges() if not t.coloured[e] and (
            not kernel_only or ts.is_kernel(t.etype[e]))]
        subsets = map(frozenset, chain.from_iterable(
            combinations(allowed, n) for n in range(len(allowed) + 1)))
        want = {s for s in subsets if all(len(s & p) <= 1 for p in paths)}
        got = cuts(t, kernel_only)
        assert len(got) == len(set(got)) and set(got) == want
    for cut in cuts(t):
        assert root_part_nodes(t, cut) == {
            v for v in range(t.n_nodes) if not cut & paths[v]}
    assert DecoratedTree.from_dict(ts, t.to_dict()) == t
    rng = data.draw(st.randoms(use_true_random=False))
    assert DecoratedTree._from_nested(ts, _shuffled(t._nested(), rng)) == t


def test_hashes_repeat_across_processes():
    """Under a fixed PYTHONHASHSEED, two fresh interpreters give every tree
    of the default universe the same hash: no None, whose hash is an address
    on Python 3.11, enters a tree's hash."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("from regkit.cli import RunConfig, _universe\n"
              "print([hash(t) for t in _universe(RunConfig.load(None))[1]])")
    runs = [subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, text=True, timeout=300,
                           env=env).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(json.loads(runs[0])) > 50


OPTIONS = st.lists(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4),
                                      st.integers(0, 6)), max_size=4),
                   max_size=4)


@settings(max_examples=300, deadline=None)
@given(options=OPTIONS, budget=st.none() | st.integers(-2, 16))
def test_weighted_choices_is_the_filtered_product(options, budget):
    """The enumerator gives the ``itertools.product`` choices whose costs
    sum below the budget, every choice for ``None``, in product order, each
    with the product of its coefficients."""
    expected = [(tuple(v for v, _c, _w in choice),
                 math.prod((c for _v, c, _w in choice), start=Fraction(1)))
                for choice in product(*options)
                if budget is None or sum(w for _v, _c, w in choice) < budget]
    assert _weighted_choices(options, budget) == expected
