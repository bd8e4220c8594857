"""Coproducts, characters and the antipode for decorated trees.

One cut engine, ``_cut_terms``, sums over kernel cuts, decoration transfers
onto the cut edges, lowerings of the root part's uncoloured kernel edges and
node splits; its callers supply the bounds, among them a bound on the degree
of the left slot.  Degrees are the integer numerators of
``DecoratedTree.degree_nums``, so the engine sums the left slot's degree from
the parts of a term and builds only the terms under that bound:

* ``delta`` -- the recentering coaction: root part tensor the planted
  branches above the cut, each transfer bounded by the positivity of its
  planted factor, no lowerings.  ``delta_plus`` also projects the left slot
  onto positive products; it is the coproduct of the structure-group Hopf
  algebra, used by the antipode and character convolution.
* ``delta_tilde_explicit`` / ``delta_tilde_coloured`` -- the non-recursive
  jet coproduct on plain and coloured trees: transfers and lowerings below
  the derivative budget, the left slot below the jet exponent.

``delta_r_minus`` (root extraction: negative root part or the unit, tensor
the quotient with the root part collapsed to the new root) keeps its own
loop over all cuts, with node splits before transfers.  ``d_map`` makes no
cut and lowers every kernel edge, under the same kind of degree bound.  All
of them choose their terms with ``trees._weighted_choices`` and build the
root part with ``_left``.  On top sit the character group (``Character``,
``convolve``, ``character_inverse``, ``gamma_action``) and the recursive
jet coproduct ``delta_tilde``.

All coefficients are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .trees import (
    DecoratedTree,
    FormalSum,
    MultiIndex,
    _weighted_choices,
    contract,
    cuts,
    mi_add,
    mi_below,
    mi_binom,
    mi_factorial,
    mi_leq_iter,
    mi_sub,
    monomial,
    plant,
    root_part_nodes,
    tree_product,
)

__all__ = [
    "TensorSum",
    "delta",
    "delta_plus",
    "delta_r_minus",
    "delta_r_minus_reduced",
    "counit",
    "antipode",
    "Character",
    "convolve",
    "character_inverse",
    "gamma_action",
    "GammaMap",
    "a_star",
    "gamma_star",
    "m_star",
    "delta_tilde",
    "delta_tilde_explicit",
    "delta_tilde_coloured",
    "d_map",
]


class TensorSum(FormalSum):
    """Formal sum of tensors (tuples of trees) with exact coefficients."""

    @classmethod
    def of(cls, *slots: DecoratedTree, coeff=Fraction(1)) -> "TensorSum":
        return cls({tuple(slots): coeff})

    def apply(self, pos: int, fn: Callable) -> "TensorSum":
        """Apply a linear map to slot ``pos``.

        ``fn`` maps a tree to a FormalSum of trees or to a TensorSum, in which
        case the resulting slots are spliced in place of slot ``pos``.
        """
        acc: list = []
        for key, c in self.items():
            for sub, c2 in fn(key[pos]).items():
                if isinstance(sub, tuple):
                    acc.append((key[:pos] + sub + key[pos + 1:], c * c2))
                else:
                    acc.append((key[:pos] + (sub,) + key[pos + 1:], c * c2))
        return TensorSum(acc)

    def mul(self, other: "TensorSum") -> "TensorSum":
        """Slotwise tree product."""
        acc = []
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                acc.append((tuple(tree_product(a, b) for a, b in
                            zip(k1, k2, strict=True)), c1 * c2))
        return TensorSum(acc)


# ---------------------------------------------------------------------------
# cut engine


def _quotient(tree: DecoratedTree, cut: Iterable[int], eps: Mapping[int, MultiIndex],
              leftover: MultiIndex) -> DecoratedTree:
    """Product of the planted branches above the cut with X^leftover."""
    return DecoratedTree._from_nested(tree.typeset, (leftover, [
        (tree.etype[e], mi_add(tree.edeco[e], eps[e]), tree.odeco[e], False,
         tree._branch_nested(e)) for e in cut]))


def _transfers(tree: DecoratedTree, bound: int) -> list[tuple]:
    """Decorations k with |k|_s below the numerator ``bound`` that a cut edge
    can take on, each ``(k, 1/k!, |k|_s numerator)``."""
    ts = tree.typeset
    return [(k, Fraction(1, mi_factorial(k)), ts.sdeg_num(k))
            for k in mi_below(ts.scaling_num, bound)]


def _split_options(tree: DecoratedTree, v: int) -> list[tuple]:
    """Ways of keeping n of node v's decoration in the left slot, each
    ``(n, binom(ndeco, n), |n|_s numerator)``."""
    nd, ts = tree.ndeco[v], tree.typeset
    return [(n, mi_binom(nd, n), ts.sdeg_num(n)) for n in mi_leq_iter(nd)]


def _leftover(tree: DecoratedTree, n_map: Mapping[int, MultiIndex]) -> MultiIndex:
    """Sum of the node decorations that a split leaves for the right slot."""
    leftover = tree.typeset.zero()
    for v, n in n_map.items():
        leftover = mi_add(leftover, mi_sub(tree.ndeco[v], n))
    return leftover


def _lowerings(tree: DecoratedTree, e: int, bound: int) -> list[tuple]:
    """Ways of lowering the decoration of kernel edge e by ``low`` while
    pushing k onto its lower node, with |k|_s + |low|_s below the numerator
    ``bound``; each option is ``((low, k), binom(edeco, low) / k!, cost)``,
    the cost |low|_s + |k|_s (numerator) being what it adds to the degree."""
    ts = tree.typeset
    out = []
    for low in mi_leq_iter(tree.edeco[e]):
        c_low = ts.sdeg_num(low)
        out.extend(((low, k), Fraction(mi_binom(tree.edeco[e], low),
                                       mi_factorial(k)), c_low + ts.sdeg_num(k))
                   for k in mi_below(ts.scaling_num, bound - c_low))
    return out


def _left(tree: DecoratedTree, keep: set[int], n_map: Mapping[int, MultiIndex],
          pushed: Mapping[int, MultiIndex],
          lowered: Mapping[int, tuple[MultiIndex, MultiIndex]]) -> DecoratedTree:
    """Root part of the tree on the nodes ``keep``, with node decorations
    ``n_map``.  Each ``pushed`` decoration on a cut edge goes onto the edge's
    lower node; each ``lowered`` edge e with ``(low, k)`` loses ``low`` from
    its decoration, pushes k onto its lower node and gets the
    over-decoration k + low."""
    ndeco = dict(n_map)
    for e, k in list(pushed.items()) + [(e, k) for e, (_l, k) in lowered.items()]:
        ndeco[tree.parent[e]] = mi_add(ndeco[tree.parent[e]], k)
    return DecoratedTree._from_nested(
        tree.typeset, _left_nested(tree, 0, keep, ndeco, lowered))


def _left_nested(tree: DecoratedTree, v: int, keep: set[int],
                 ndeco: Mapping[int, MultiIndex],
                 lowered: Mapping[int, tuple[MultiIndex, MultiIndex]]):
    """Nested form of ``_left``'s root part above node v."""
    out = []
    for c in tree.children(v):
        if c not in keep:
            continue
        ed, od = tree.edeco[c], tree.odeco[c]
        if c in lowered:
            low, k = lowered[c]
            ed, od = mi_sub(ed, low), mi_add(k, low)
        out.append((tree.etype[c], ed, od, tree.coloured[c],
                    _left_nested(tree, c, keep, ndeco, lowered)))
    return (ndeco[v], out)


def _edges_num(tree: DecoratedTree, edges: Iterable[int]) -> int:
    """Degree numerator of the given edges of the tree."""
    ts = tree.typeset
    return sum(ts.edge_num(tree.etype[e], tree.edeco[e]) for e in edges)


def _cut_terms(tree: DecoratedTree, transfer_bound: Callable[[int], int],
               lower_bound: int | None, left_bound: int | None):
    """The cut engine: yields ``((left, right), coeff)`` over kernel cuts.

    Bounds are degree numerators over ``typeset.den``.  For each cut, each
    cut edge e takes on a decoration k with |k|_s < ``transfer_bound(e)``
    that the right slot plants with it and the left slot pushes onto e's
    lower node.  With a ``lower_bound``, every uncoloured kernel edge of the
    root part is also lowered (see ``_lowerings``); without one (``None``)
    no edge is lowered.  Node decorations of the root part are split between
    the left slot and a monomial in the right slot.

    ``left_bound`` bounds the degree of the left slot; ``None`` keeps every
    term.  The engine sums that degree from its parts (the root part's
    edges, plus |k|_s per transfer, |low|_s + |k|_s per lowering and |n|_s
    per kept node decoration), ``_weighted_choices`` drops a partial choice
    once it reaches the bound, and the two slots are built only for the
    terms that survive, in the order cut, transfers, lowerings, splits.
    """
    ts = tree.typeset
    for cut in cuts(tree, kernel_only=True):
        keep = root_part_nodes(tree, cut)
        nodes = sorted(keep)
        cut_edges = sorted(cut)
        inner = [] if lower_bound is None else [
            e for e in nodes[1:]
            if ts.is_kernel(tree.etype[e]) and not tree.coloured[e]]
        options = ([_transfers(tree, transfer_bound(e)) for e in cut_edges]
                   + [_lowerings(tree, e, lower_bound) for e in inner]
                   + [_split_options(tree, v) for v in nodes])
        budget = None if left_bound is None \
            else left_bound - _edges_num(tree, nodes[1:])
        n_cut, n_low = len(cut_edges), len(cut_edges) + len(inner)
        for choice, coeff in _weighted_choices(options, budget):
            eps = dict(zip(cut_edges, choice))
            n_map = dict(zip(nodes, choice[n_low:]))
            left = _left(tree, keep, n_map, eps,
                         dict(zip(inner, choice[n_cut:n_low])))
            yield (left, _quotient(tree, cut_edges, eps,
                                   _leftover(tree, n_map))), coeff


def is_positive_product(tree: DecoratedTree) -> bool:
    """Membership in the image of the positive projection: every planted
    factor has positive degree (polynomial factors are unrestricted)."""
    return all(tree.degree_nums[c] > 0 for c in tree.children(0))


@lru_cache(maxsize=None)
def delta(tree: DecoratedTree) -> TensorSum:
    """Recentering coaction: root part tensor positive planted quotient.

    Cuts run over kernel edges only (a planted noise branch can never have
    positive degree, so other cuts are killed by the projection anyway);
    the decoration transfer onto the cut edges is truncated exactly by the
    positivity requirement on each planted factor.
    """
    return TensorSum(_cut_terms(tree, tree.degree_nums.__getitem__, None, None))


@lru_cache(maxsize=None)
def delta_plus(tree: DecoratedTree) -> TensorSum:
    """Structure-group coproduct: ``delta`` with the left slot also projected
    onto positive products."""
    return TensorSum(delta(tree).filter(lambda k: is_positive_product(k[0])))


def _rminus_terms(tree: DecoratedTree):
    """Root extraction over all cuts, with one budget per cut: the root part,
    with its kept node decorations and the transfers onto the cut edges,
    must have negative degree.  Not ``_cut_terms``, which runs over kernel
    cuts only and chooses transfers before splits: this pinned order, splits
    first, fixes the float summation order of ``PreparationMap``."""
    for cut in cuts(tree):
        keep = root_part_nodes(tree, cut)
        nodes = sorted(keep)
        cut_edges = sorted(cut)
        # a non-zero split or transfer costs at least 1: the bare root
        # keeps just the term (1 tensor tree)
        budget = 1 if nodes == [0] else -_edges_num(tree, nodes[1:])
        options = ([_split_options(tree, v) for v in nodes]
                   + [_transfers(tree, budget)] * len(cut_edges))
        for choice, coeff in _weighted_choices(options, budget):
            n_map = dict(zip(nodes, choice))
            eps = dict(zip(cut_edges, choice[len(nodes):]))
            left = _left(tree, keep, n_map, eps, {})
            right = _quotient(tree, cut_edges, eps, _leftover(tree, n_map))
            yield (left, right), coeff


@lru_cache(maxsize=None)
def delta_r_minus(tree: DecoratedTree) -> TensorSum:
    """Root extraction: negative root part (or the unit) tensor the quotient
    in which the root part is collapsed onto the new root."""
    return TensorSum(_rminus_terms(tree))


@lru_cache(maxsize=None)
def delta_r_minus_reduced(tree: DecoratedTree) -> TensorSum:
    """Root extraction with the two primitive terms (unit in either slot)
    removed."""
    return TensorSum(delta_r_minus(tree).filter(
        lambda k: not k[0].is_unit and not k[1].is_unit))


# ---------------------------------------------------------------------------
# counit, antipode and characters


def counit(arg) -> Fraction:
    """Coefficient of the unit tree."""
    if isinstance(arg, DecoratedTree):
        return Fraction(1) if arg.is_unit else Fraction(0)
    return sum((c for k, c in arg.items()
                if (k.is_unit if isinstance(k, DecoratedTree)
                    else all(t.is_unit for t in k))), Fraction(0))


@lru_cache(maxsize=None)
def antipode(tree: DecoratedTree) -> FormalSum:
    """Antipode of the structure-group Hopf algebra, as a sum of trees.

    Multiplicative over planted factors; on a planted generator it is defined
    by the usual recursion ``A(s) = -s - m(A x id) reduced_coproduct(s)``,
    which terminates because the left slots of the reduced coproduct are
    strictly smaller (fewer edges, or smaller polynomial decoration).
    """
    ts = tree.typeset
    if tree.is_node:
        # (-X)^k = (-1)^{|k|} X^k
        sign = (-1) ** sum(tree.ndeco[0])
        return FormalSum.single(tree, Fraction(sign))
    root_nd, factors = tree.factor()
    if any(root_nd) or len(factors) > 1:
        result = antipode(monomial(ts, root_nd))
        for (et, ed, od, br) in factors:
            result = _sum_product(result, antipode(plant(br, et, ed, od)))
        return result
    reduced = delta_plus(tree).filter(
        lambda k: not k[0].is_unit and not k[1].is_unit)
    result = FormalSum.single(tree, Fraction(-1))
    for (l, r), c in reduced.items():
        for s, c2 in antipode(l).items():
            result = result + FormalSum.single(tree_product(s, r), -c * c2)
    return result


def _sum_product(a: FormalSum, b: FormalSum) -> FormalSum:
    return FormalSum(((tree_product(k1, k2), c1 * c2)
                      for k1, c1 in a.items() for k2, c2 in b.items()))


@dataclass(frozen=True)
class Character:
    """Multiplicative functional determined by its values on generators.

    ``on_planted`` maps a planted tree to a scalar; ``on_x`` gives the value
    on the coordinate polynomials.  Values extend multiplicatively over the
    factors of a tree.  ``on_planted`` must be pure: each character memoises
    its value per tree (planted factors included), so it calls
    ``on_planted`` at most once per planted tree.
    """

    on_planted: Callable[[DecoratedTree], Fraction]
    on_x: tuple = ()
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __call__(self, arg) -> Fraction:
        if isinstance(arg, DecoratedTree):
            return self._value(arg)
        return sum((c * self._value(k) for k, c in arg.items()), Fraction(0))

    def _value(self, tree: DecoratedTree) -> Fraction:
        out = self._memo.get(tree)
        if out is None:
            out = self._memo[tree] = self._product(tree)
        return out

    def _product(self, tree: DecoratedTree) -> Fraction:
        out = Fraction(1)
        for i, p in enumerate(tree.ndeco[0]):
            if p:
                if not self.on_x:
                    return Fraction(0)
                out *= self.on_x[i] ** p
        for planted in tree.planted_factors:
            value = self._memo.get(planted)
            if value is None:
                # what _product gives on a planted tree: its root is bare
                value = self._memo[planted] = Fraction(1) * self.on_planted(planted)
            out *= value
        return out


def convolve(g: Character, h: Character) -> Character:
    """Convolution product of characters through the structure-group
    coproduct: (g * h)(tree) = sum g(left) h(right)."""
    def on_planted(t: DecoratedTree) -> Fraction:
        total = Fraction(0)
        for (l, r), c in delta_plus(t).items():
            total += c * g(l) * h(r)
        return total

    x_values = tuple(gx + hx for gx, hx in
                     zip(g.on_x, h.on_x, strict=True)) if g.on_x and h.on_x else ()
    return Character(on_planted, x_values)


def character_inverse(g: Character) -> Character:
    """Group inverse: precomposition with the antipode."""
    return Character(lambda t: g(antipode(t)),
                     tuple(-x for x in g.on_x) if g.on_x else ())


def gamma_action(g: Character) -> Callable[[DecoratedTree], FormalSum]:
    """The linear endomorphism (id x g) delta associated to a character."""
    def act(tree: DecoratedTree) -> FormalSum:
        return FormalSum(((l, c * g(r)) for (l, r), c in delta(tree).items()))
    return act


# ---------------------------------------------------------------------------
# regularity bookkeeping for the jet coproduct


@dataclass(frozen=True)
class GammaMap:
    """Recursive regularity exponents used to truncate jets.

    Noises and polynomials get the base exponent; a product of n factors gets
    the minimum of the factor exponents shifted by (n-1) times the sector
    regularity; planting shifts by the edge degree minus the trunk derivative
    weight.  Evaluation refuses exponents outside the positive non-integers.
    """

    gamma0: Fraction
    sector_regularity: Fraction

    def of(self, tree: DecoratedTree) -> Fraction:
        value = self._of(tree)
        if value <= 0 or value.denominator == 1:
            raise ValueError(
                f"inadmissible jet exponent {value} for {tree!r}")
        return value

    def _of(self, tree: DecoratedTree) -> Fraction:
        return self._nodes(tree)[0]

    def _nodes(self, tree: DecoratedTree) -> list[Fraction]:
        """The exponent of the branch at every node of the tree, bottom-up,
        without building the branches (odeco and colour do not enter)."""
        ts = tree.typeset
        out = [self.gamma0] * tree.n_nodes
        for v in range(tree.n_nodes - 1, -1, -1):
            kids = tree.children(v)
            if not kids:
                continue
            atoms = [self.gamma0] if any(tree.ndeco[v]) else []
            for c in kids:
                et = tree.etype[c]
                atoms.append(self.gamma0 if et in ts.noise_types else out[c]
                             + Fraction(ts.edge_num(et, tree.edeco[c]), ts.den))
            out[v] = min(atoms) + (len(atoms) - 1) * self.sector_regularity
        return out


def a_star(trees: Iterable[DecoratedTree]) -> Fraction:
    """Sector regularity: the most negative degree among the given trees."""
    return min(t.degree_value() for t in trees)


def gamma_star(gamma: GammaMap, trees: Iterable[DecoratedTree]) -> Fraction:
    return max(gamma.of(t) for t in trees)


def m_star(gamma: GammaMap, trees: Iterable[DecoratedTree]) -> Fraction:
    """Derivative budget for jets: max of (gamma_star - regularity) and the
    degrees of the undecorated planted trees appearing in the family."""
    trees = list(trees)
    best = gamma_star(gamma, trees) - a_star(trees)
    ts = trees[0].typeset
    for t in trees:
        if t.is_planted:
            e = t.children(0)[0]
            if ts.is_kernel(t.etype[e]):
                best = max(best, t.degree_value() + ts.sdeg(t.edeco[e]))
    return best


# ---------------------------------------------------------------------------
# jet coproduct


def delta_tilde(tree: DecoratedTree, gamma: GammaMap,
                m: Fraction) -> TensorSum:
    """Jet coproduct, computed by structural recursion.

    The left slot collects over-decorated trees of degree below the jet
    exponent of the input; the right slot collects products of planted trees
    with positive jet exponent and trunk decoration below the derivative
    budget ``m``.
    """
    ts = tree.typeset
    g = ts.num_bound(gamma.of(tree))
    root_nd, factors = tree.factor()
    parts: list[TensorSum] = []
    if any(root_nd) or not factors:
        acc = []
        for n in mi_leq_iter(root_nd):
            acc.append(((monomial(ts, n), monomial(ts, mi_sub(root_nd, n))),
                        Fraction(mi_binom(root_nd, n))))
        parts.append(TensorSum(acc))
    for (et, ed, od, br) in factors:
        parts.append(_delta_tilde_atom(plant(br, et, ed, od), gamma, m))
    # the left slot of a product has the sum of the factors' left degrees:
    # a partial product is built only if the lowest left degrees of the
    # factors still to come can take it below the jet exponent
    lows = [min((l.degree_nums[0] for l, _r in p.keys()), default=0)
            for p in parts]
    out = parts[0].filter(lambda k: k[0].degree_nums[0] + sum(lows[1:]) < g)
    for i in range(1, len(parts)):
        rest = sum(lows[i + 1:])
        out = TensorSum(
            ((tree_product(l1, l2), tree_product(r1, r2)), c1 * c2)
            for (l1, r1), c1 in out.items() for (l2, r2), c2 in parts[i].items()
            if l1.degree_nums[0] + l2.degree_nums[0] + rest < g)
    return out


def _delta_tilde_atom(tree: DecoratedTree, gamma: GammaMap,
                      m: Fraction) -> TensorSum:
    ts = tree.typeset
    e = tree.children(0)[0]
    et, j, od = tree.etype[e], tree.edeco[e], tree.odeco[e]
    br = tree.branch(e)
    if et in ts.noise_types:
        # no cut is possible through a noise trunk; only the polynomial
        # decorations get redistributed
        nodes = range(tree.n_nodes)
        acc = []
        for ns, coeff in _weighted_choices(
                [_split_options(tree, v) for v in nodes], None):
            n_map = dict(zip(nodes, ns))
            acc.append(((_left(tree, set(nodes), n_map, {}, {}),
                         monomial(ts, _leftover(tree, n_map))), coeff))
        return TensorSum(acc)
    g = ts.num_bound(gamma.of(tree))
    br_gamma = gamma._of(br)
    acc = []
    inner = delta_tilde(br, gamma, m)
    # build only the left slots of degree below the jet exponent: the
    # degree of X^k times the planted il is |k|_s + |il| + |edge|
    for l in mi_leq_iter(j):
        jl = mi_sub(j, l)
        edge = ts.edge_num(et, jl)
        for k in mi_below(ts.scaling_num, ts.num_bound(m) - ts.sdeg_num(l)):
            kl = mi_add(k, l)
            coeff = Fraction(mi_binom(j, l), mi_factorial(k))
            room = g - ts.sdeg_num(k) - edge
            for (il, ir), c in inner.items():
                if il.degree_nums[0] < room:
                    left = DecoratedTree.build(ts, k, [(et, jl, kl, False, il)])
                    acc.append(((left, ir), coeff * c))
    # polynomial part: the branch is frozen into the right slot
    for k in mi_below(ts.scaling_num, ts.num_bound(m) - ts.sdeg_num(j)):
        kj = mi_add(k, j)
        if br_gamma + ts.degree_of(et).at(ts.kappa) - ts.sdeg(kj) <= 0 \
                or ts.sdeg_num(k) >= g:
            continue
        acc.append(((monomial(ts, k), plant(br, et, edeco=kj)),
                    Fraction(1, mi_factorial(k))))
    return TensorSum(acc)


def _explicit_terms(tree: DecoratedTree, gamma: GammaMap, m: Fraction,
                    left_bound: int):
    """The cut engine with the jet bounds (plain and coloured input): the
    decoration on a cut edge keeps the planted factor's jet exponent
    positive and stays below the derivative budget ``m``, lowerings stay
    below ``m``, and the left slot's degree below the numerator
    ``left_bound``."""
    ts = tree.typeset
    exponents = gamma._nodes(tree)

    def transfer_bound(e: int) -> int:
        base_g = exponents[e] + ts.degree_of(tree.etype[e]).at(ts.kappa)
        return ts.num_bound(min(base_g, m)) - ts.sdeg_num(tree.edeco[e])

    return _cut_terms(tree, transfer_bound, ts.num_bound(m), left_bound)


def delta_tilde_explicit(tree: DecoratedTree, gamma: GammaMap,
                         m: Fraction) -> TensorSum:
    """Non-recursive form of the jet coproduct, as a sum over kernel cuts."""
    return TensorSum(_explicit_terms(
        tree, gamma, m, tree.typeset.num_bound(gamma.of(tree))))


def delta_tilde_coloured(tree: DecoratedTree, gamma: GammaMap,
                         m: Fraction) -> TensorSum:
    """Jet coproduct on coloured trees.

    Cuts avoid the coloured subtree, which stays (coloured) in the left slot;
    the degree cutoff is measured after collapsing the colour, with the jet
    exponent of the collapsed input.
    """
    g = gamma.of(contract(tree).strip_odeco())
    # contract drops the coloured edges, which are never cut or lowered, so
    # they add the same degree to every left slot
    coloured = _edges_num(tree, [e for e in tree.edges() if tree.coloured[e]])
    return TensorSum(_explicit_terms(
        tree, gamma, m, tree.typeset.num_bound(g) + coloured))


# ---------------------------------------------------------------------------
# derivative redistribution


def d_map(tree: DecoratedTree, m: Fraction) -> FormalSum:
    """Redistribute derivative decorations between edges and over-decorations,
    projecting onto negative trees with over-decorations below ``m``.

    Each kernel edge decoration may be lowered (with the difference recorded
    in the over-decoration) and an extra derivative may be pushed onto the
    edge's lower node, weighted by inverse factorials.
    """
    if tree.degree_value() >= 0:
        # lowering edge decorations or pushing derivatives onto nodes can only
        # raise the degree, so nothing survives the negativity projection
        return FormalSum.zero()
    edges = tree.kernel_edges()
    headroom = -tree.degree_nums[0]
    bound = min(headroom, tree.typeset.num_bound(m))
    keep = set(range(tree.n_nodes))
    n_map = dict(enumerate(tree.ndeco))
    # a lowering adds its cost to the degree: keep the result negative
    return FormalSum(
        (_left(tree, keep, n_map, {}, dict(zip(edges, lowered))), coeff)
        for lowered, coeff in _weighted_choices(
            [_lowerings(tree, e, bound) for e in edges], headroom))
