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
from typing import Iterable, Mapping, Sequence

from .trees import (
    DecoratedTree,
    MultiIndex,
    TypeSet,
    leaf,
    mi_below,
    mi_leq_iter,
    mi_zero,
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
    out: set[Profile] = set()

    def rec(i: int, acc: tuple) -> None:
        if i == len(p):
            out.add(_profile(acc))
            return
        rec(i + 1, acc)
        rec(i + 1, acc + (p[i],))

    rec(0, ())
    return out


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

    # -- derived rules -------------------------------------------------------

    def derivative_completion(self) -> "Rule":
        """Close the rule under lowering derivative decorations componentwise."""
        new: dict[str, set[Profile]] = {}
        for t, ps in self.table.items():
            acc: set[Profile] = set()
            for p in ps:
                for lowered in _iproduct(*(
                        [(a, j) for j in mi_leq_iter(k)] for (a, k) in p)):
                    acc.add(_profile(lowered))
            new[t] = acc
        return Rule.make(self.typeset, {t: list(ps) for t, ps in new.items()})

    # -- conformity ----------------------------------------------------------

    def conforms(self, tree: DecoratedTree) -> bool:
        """Inner nodes match the rule; the root profile is admissible for at
        least one type only up to taking subsets (which is automatic for the
        normalised table)."""
        for v in tree.edges():
            if not self.admits(tree.etype[v], node_profile(tree, v)):
                return False
        root = node_profile(tree, 0)
        return any(root in ps for ps in self.table.values())

    def strongly_conforms(self, tree: DecoratedTree) -> bool:
        for v in tree.edges():
            if not self.admits(tree.etype[v], node_profile(tree, v)):
                return False
        root = node_profile(tree, 0)
        return any(self.admits(t, root) for t in self.typeset.kernel_types)

    # -- subcriticality -------------------------------------------------------

    def subcritical_witness(self, grid: Sequence[Fraction] | None = None
                            ) -> dict[str, Fraction] | None:
        """Search for a rational regularity assignment on a candidate grid.

        An assignment ``reg`` witnesses subcriticality if ``reg(t) <= |t|`` for
        noise types and, for every kernel type t,
        ``reg(t) < |t| + min over admissible profiles of sum(reg(a) - |k|_s)``.
        Returns the witness or None.
        """
        ts = self.typeset
        if grid is None:
            grid = [Fraction(n, 8) for n in range(-32, 33)]
        grid = sorted(Fraction(g) for g in grid)
        names = ts.type_names
        for values in _iproduct(grid, repeat=len(names)):
            reg = dict(zip(names, values))
            ok = True
            for t in names:
                if t in ts.noise_types:
                    if reg[t] > ts.degree_of(t).at(ts.kappa):
                        ok = False
                        break
                    continue
                worst = min(
                    (sum((reg[a] - ts.sdeg(k) for (a, k) in p), Fraction(0))
                     for p in self.table[t]),
                    default=Fraction(0))
                if not reg[t] < ts.degree_of(t).at(ts.kappa) + worst:
                    ok = False
                    break
            if ok:
                return reg
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
    ts = rule.typeset
    memo: dict[tuple[str, int], set[DecoratedTree]] = {}

    def branches(etype: str, budget: int) -> set[DecoratedTree]:
        # trees usable below an edge of type `etype`, with at most `budget` edges
        key = (etype, budget)
        if key in memo:
            return memo[key]
        out: set[DecoratedTree] = set()
        for prof in rule.profiles(etype):
            if len(prof) > budget:
                continue
            out |= _assemble(prof, budget)
        memo[key] = out
        return out

    def _assemble(prof: Profile, budget: int) -> set[DecoratedTree]:
        # all trees whose root children realise `prof`, within the edge budget
        if not prof:
            return {leaf(ts)}
        out: set[DecoratedTree] = set()
        (a, k), rest = prof[0], prof[1:]
        for sub in branches(a, budget - 1 - len(rest)):
            head = plant(sub, a, edeco=k)
            used = 1 + sub.n_edges
            for tail in _assemble(rest, budget - used):
                out.add(tree_product(head, tail))
        return out

    out: set[DecoratedTree] = set()
    for t in ts.kernel_types:
        for prof in rule.profiles(t):
            if len(prof) <= edge_cap:
                out |= _assemble(prof, edge_cap)
    return out


def _decorate(skeleton: DecoratedTree, degree_cap: Fraction) -> list[DecoratedTree]:
    ts = skeleton.typeset
    headroom = degree_cap - skeleton.degree_value()
    if headroom < 0:
        return []
    nested = skeleton._nested()

    def rec(node, budget: Fraction):
        nd0, edges = node
        for nd in mi_below(ts.scaling, budget - ts.sdeg(nd0) + 1):
            # mi_below is strict; shift by one to make the bound inclusive of
            # exact rational budgets (filtered again below)
            extra = ts.sdeg(nd)
            if extra > budget:
                continue
            if not edges:
                yield ((nd, []), extra)
                continue
            for (decorated_children, used) in rec_children(edges, budget - extra):
                yield ((nd, decorated_children), extra + used)

    def rec_children(edges, budget):
        if not edges:
            yield ([], Fraction(0))
            return
        (et, ed, od, col, ch) = edges[0]
        for (dch, used) in rec(ch, budget):
            for (dtail, used2) in rec_children(edges[1:], budget - used):
                yield ([(et, ed, od, col, dch)] + dtail, used + used2)

    out = set()
    for (dnested, _used) in rec(nested, headroom):
        out.add(DecoratedTree._from_nested(ts, dnested))
    return sorted(out, key=DecoratedTree.sort_key)


def generate(rule: Rule, degree_cap, edge_cap: int,
             reg_grid: Sequence[Fraction] | None = None) -> TreeUniverse:
    """Enumerate the universe of strongly conforming trees with degree and
    edge caps.  Refuses rules without a subcriticality witness."""
    if edge_cap is None or degree_cap is None:
        raise ValueError("degree_cap and edge_cap are mandatory")
    degree_cap = Fraction(degree_cap)
    witness = rule.subcritical_witness(reg_grid)
    if witness is None:
        raise ValueError("no subcriticality witness found on the candidate grid")
    trees: set[DecoratedTree] = set()
    for sk in _skeletons(rule, edge_cap):
        trees.update(_decorate(sk, degree_cap))
    ordered = tuple(sorted((t for t in trees
                            if t.degree_value() <= degree_cap), key=DecoratedTree.sort_key))
    return TreeUniverse(rule, degree_cap, edge_cap, ordered)
