"""Node-local admissibility rules and generation of tree universes.

A rule assigns to each edge type the admissible multisets of child edges
(child edge type together with its derivative decoration).  Trees conform if
every node locally matches the rule for its incoming edge type; generation
enumerates all strongly conforming decorated trees under mandatory degree and
edge caps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _iproduct
from math import floor, lcm
from typing import Iterable, Mapping

from .trees import (
    DecoratedTree,
    MultiIndex,
    TypeSet,
    _weighted_choices,
    leaf,
    mi_below,
    plant,
    tree_product,
)

# A child slot is (edge type, derivative decoration); a node profile is a
# sorted tuple of child slots.
Slot = tuple[str, MultiIndex]
Profile = tuple[Slot, ...]

__all__ = ["Rule", "TreeUniverse", "generate"]


def _profile(slots: Iterable[Slot]) -> Profile:
    return tuple(sorted(slots))


def node_profile(tree: DecoratedTree, v: int) -> Profile:
    return _profile((tree.etype[c], tree.edeco[c]) for c in tree.children(v))


def _subprofiles(p: Profile) -> set[Profile]:
    subs: list[tuple] = [()]
    for slot in p:
        subs += [acc + (slot,) for acc in subs]
    return {_profile(acc) for acc in subs}


@dataclass(frozen=True)
class Rule:
    """Admissible child profiles per edge type.

    The table is stored normalised: closed under taking sub-multisets, and
    noise types always admit exactly the empty profile.
    """

    typeset: TypeSet
    _table: tuple[tuple[str, tuple[Profile, ...]], ...]

    @staticmethod
    def make(ts: TypeSet, table: Mapping[str, Iterable[Iterable[Slot]]]) -> "Rule":
        norm: dict[str, set[Profile]] = {t: set() for t in ts.type_names}
        for t, profiles in table.items():
            if t not in ts.type_names:
                raise ValueError(f"rule references unknown type {t!r}")
            for p in profiles:
                prof = _profile((str(a), tuple(k)) for a, k in p)
                for (a, k) in prof:
                    if a not in ts.type_names:
                        raise ValueError(f"profile references unknown type {a!r}")
                norm[t] |= _subprofiles(prof)
        for nt in ts.noise_types:
            if any(norm[nt] - {()}):
                raise ValueError("noise types must be leaves")
            norm[nt] = {()}
        for kt in ts.kernel_types:
            norm[kt].add(())
        return Rule(ts, tuple(sorted((t, tuple(sorted(ps)))
                                     for t, ps in norm.items())))

    @cached_property
    def table(self) -> dict[str, frozenset[Profile]]:
        return {t: frozenset(ps) for t, ps in self._table}

    def admits(self, etype: str, profile: Profile) -> bool:
        return profile in self.table[etype]

    def profiles(self, etype: str) -> tuple[Profile, ...]:
        return dict(self._table)[etype]

    # -- conformity ----------------------------------------------------------

    def strongly_conforms(self, tree: DecoratedTree) -> bool:
        for v in tree.edges():
            if not self.admits(tree.etype[v], node_profile(tree, v)):
                return False
        root = node_profile(tree, 0)
        return any(self.admits(t, root) for t in self.typeset.kernel_types)

    # -- subcriticality -------------------------------------------------------

    def subcritical_witness(self) -> dict[str, Fraction] | None:
        """Search for a rational regularity assignment on the candidate grid
        of eighths in [-4, 4].

        An assignment ``reg`` witnesses subcriticality if ``reg(t) <= |t|`` for
        noise types and, for every kernel type t,
        ``reg(t) < |t| + min over admissible profiles of sum(reg(a) - |k|_s)``.
        Returns the witness or None.
        """
        ts = self.typeset
        # every value over one denominator D: reg(t) = n / D
        D = lcm(8, ts.den)
        scale = D // ts.den
        names = ts.type_names
        bound = [ts.edge_num(t, ts.zero()) * scale for t in names]
        # a kernel type's profiles as (count of each type, D * sum of |k|_s)
        profiles = [
            None if t in ts.noise_types else
            [(tuple(sum(a == b for b, _k in p) for a in names),
              sum(ts.sdeg_num(k) for _a, k in p) * scale)
             for p in self.table[t]]
            for t in names]
        grid = range(-32 * (D // 8), 32 * (D // 8) + 1, D // 8)
        for values in _iproduct(grid, repeat=len(names)):
            for n, b, profs in zip(values, bound, profiles):
                if profs is None:
                    if n > b:
                        break
                    continue
                worst = min((sum(c * v for c, v in zip(counts, values)) - s
                             for counts, s in profs), default=0)
                if not n < b + worst:
                    break
            else:
                return {a: Fraction(n, D) for a, n in zip(names, values)}
        return None


# ---------------------------------------------------------------------------
# universe generation


@dataclass(frozen=True)
class TreeUniverse:
    """Deterministically ordered collection of strongly conforming trees."""

    rule: Rule
    degree_cap: Fraction
    edge_cap: int
    trees: tuple[DecoratedTree, ...]

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __contains__(self, tree):
        return tree in self._index

    @cached_property
    def _index(self) -> frozenset:
        return frozenset(self.trees)

    def by_noise_count(self) -> dict[int, tuple[DecoratedTree, ...]]:
        out: dict[int, list[DecoratedTree]] = {}
        for t in self.trees:
            out.setdefault(t.noise_count(), []).append(t)
        return {k: tuple(v) for k, v in sorted(out.items())}

    def by_degree(self) -> list[tuple[Fraction, DecoratedTree]]:
        return sorted(((t.degree_value(), t) for t in self.trees),
                      key=lambda p: (p[0], p[1].sort_key()))

    def negative(self) -> tuple[DecoratedTree, ...]:
        return tuple(t for t in self.trees if t.degree_value() < 0)


def _skeletons(rule: Rule, edge_cap: int) -> set[DecoratedTree]:
    """All strongly conforming trees without node decorations, up to edge_cap."""
    memo: dict[tuple[str, int], set[DecoratedTree]] = {}
    out: set[DecoratedTree] = set()
    for t in rule.typeset.kernel_types:
        for prof in rule.profiles(t):
            if len(prof) <= edge_cap:
                out |= _assemble(rule, memo, prof, edge_cap)
    return out


def _branches(rule: Rule, memo: dict, etype: str,
              budget: int) -> set[DecoratedTree]:
    """Trees usable below an edge of type ``etype``, with at most ``budget``
    edges, memoised in ``memo``."""
    key = (etype, budget)
    if key in memo:
        return memo[key]
    out: set[DecoratedTree] = set()
    for prof in rule.profiles(etype):
        if len(prof) > budget:
            continue
        out |= _assemble(rule, memo, prof, budget)
    memo[key] = out
    return out


def _assemble(rule: Rule, memo: dict, prof: Profile,
              budget: int) -> set[DecoratedTree]:
    """All trees whose root children realise ``prof``, within the edge
    budget."""
    if not prof:
        return {leaf(rule.typeset)}
    out: set[DecoratedTree] = set()
    (a, k), rest = prof[0], prof[1:]
    for sub in _branches(rule, memo, a, budget - 1 - len(rest)):
        head = plant(sub, a, edeco=k)
        used = 1 + sub.n_edges
        for tail in _assemble(rule, memo, rest, budget - used):
            out.add(tree_product(head, tail))
    return out


def _filled(node, ndecos):
    """The nested ``node`` with its node decorations taken, in preorder, from
    the iterator ``ndecos``."""
    nd = next(ndecos)
    return (nd, [(et, ed, od, col, _filled(ch, ndecos))
                 for et, ed, od, col, ch in node[1]])


def generate(rule: Rule, degree_cap, edge_cap: int) -> TreeUniverse:
    """Enumerate the universe of strongly conforming trees with degree and
    edge caps: every skeleton (a tree without node decorations) with every
    choice of one node decoration per node that keeps its degree within the
    cap.  Refuses rules without a subcriticality witness."""
    if edge_cap is None or degree_cap is None:
        raise ValueError("degree_cap and edge_cap are mandatory")
    degree_cap = Fraction(degree_cap)
    witness = rule.subcritical_witness()
    if witness is None:
        raise ValueError("no subcriticality witness found on the candidate grid")
    ts = rule.typeset
    trees: set[DecoratedTree] = set()
    for sk in _skeletons(rule, edge_cap):
        # in integer numerators, the decorations keep the degree within the
        # cap exactly when their costs sum below room
        room = floor((degree_cap - sk.degree_value()) * ts.den) + 1
        options = [(nd, 1, ts.sdeg_num(nd))
                   for nd in mi_below(ts.scaling_num, room)]
        nested = sk._nested()
        for ndecos, _c in _weighted_choices([options] * sk.n_nodes, room):
            trees.add(DecoratedTree._from_nested(
                ts, _filled(nested, iter(ndecos))))
    return TreeUniverse(rule, degree_cap, edge_cap,
                        tuple(sorted(trees, key=DecoratedTree.sort_key)))
