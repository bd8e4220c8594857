"""Historic closures, the age grading and the BPHZ counterterm recursion.

A set of trees is *historic* when it is stable under the three operations
that feed the intertwined construction of models and preparation maps:
recentering (left slots of the coaction), root extraction (both slots), and
the removal of outer structure (product divisors and the branch below a
planted root).  ``hist`` computes the closure together with certificates that
record how each tree entered, ``age`` measures the longest strictly
increasing chain a tree dominates in its own history, and
``bphz_functional`` runs the counterterm recursion age-stratum by
age-stratum against a pluggable expectation oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .hopf import delta, delta_r_minus, delta_r_minus_reduced
from .trees import (
    DecoratedTree,
    FormalSum,
    mi_leq_iter,
    monomial,
    plant,
    tree_product,
)

__all__ = [
    "precedes",
    "HistoricSet",
    "hist",
    "age",
    "PreparationMap",
    "bphz_functional",
]


def _order_key(tree: DecoratedTree) -> tuple:
    return (tree.noise_count(), tree.degree_value())


def _outside_domain(tree: DecoratedTree) -> bool:
    """Trees on which counterterm functionals vanish identically: anything
    hanging below a single kernel edge, or carrying polynomial decoration at
    the root."""
    if any(tree.ndeco[0]):
        return True
    return (tree.is_planted
            and tree.typeset.is_kernel(tree.etype[tree.children(0)[0]]))


def precedes(a: DecoratedTree, b: DecoratedTree) -> bool:
    """Strict order: fewer noises, or equally many noises and lower degree."""
    return _order_key(a) < _order_key(b)


# ---------------------------------------------------------------------------
# historic closure


def _divisors(tree: DecoratedTree):
    """All sub-products of a tree (including the unit and the tree itself)."""
    ts = tree.typeset
    root_nd, factors = tree.factor()
    planted = [plant(br, et, ed, od) for (et, ed, od, br) in factors]
    for r in range(len(planted) + 1):
        for subset in combinations(range(len(planted)), r):
            chosen = [planted[i] for i in subset]
            for n in mi_leq_iter(root_nd):
                yield tree_product(monomial(ts, n), *chosen)


def _phase1(tree: DecoratedTree):
    # trees reachable through the structure group: left slots of the coaction
    for (l, _r), _c in delta(tree).items():
        yield l


def _phase2(tree: DecoratedTree):
    for (l, r), _c in delta_r_minus(tree).items():
        yield l
        yield r


def _phase3(tree: DecoratedTree):
    if tree.is_planted:
        yield tree.branch(tree.children(0)[0])
    yield from _divisors(tree)


@dataclass(frozen=True)
class HistoricSet:
    """A historic closure together with provenance certificates.

    ``provenance`` maps each tree to ``(phase, parent)`` where phase 0 marks
    seed membership; ``stabilisation_index`` is the number of closure phases
    applied before the set stopped growing.
    """

    seed: frozenset
    trees: tuple[DecoratedTree, ...]
    provenance: Mapping[DecoratedTree, tuple[int, DecoratedTree | None]]
    stabilisation_index: int

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __contains__(self, tree):
        return tree in self.provenance

    def negative(self) -> tuple[DecoratedTree, ...]:
        return tuple(t for t in self.trees if t.degree_value() < 0)

    def is_closed(self) -> bool:
        """Re-checks the closure certificates from scratch."""
        members = set(self.trees)
        for t in self.trees:
            for phase in (_phase1, _phase2, _phase3):
                if any(s not in members for s in phase(t)):
                    return False
        return True


def hist(seed: Iterable[DecoratedTree]) -> HistoricSet:
    """Smallest historic set containing the seed.

    Runs the three closure phases cyclically until a full cycle adds
    nothing; termination is guaranteed because every new tree is strictly
    smaller in (noise count, degree).  Each phase runs once per tree: a
    round applies it to the members added since it last ran.
    """
    seed = frozenset(seed)
    members: dict[DecoratedTree, tuple[int, DecoratedTree | None]] = {
        t: (0, None) for t in seed}
    phases = (_phase1, _phase2, _phase3)
    seen = [0, 0, 0]  # per phase, the members it has run on
    index = 0
    idle = 0
    while idle < 3:
        index += 1
        p = (index - 1) % 3
        todo = list(members)[seen[p]:]
        seen[p] = len(members)
        new = {}
        for t in todo:
            for s in phases[p](t):
                if s not in members and s not in new:
                    new[s] = (index, t)
        if new:
            members.update(new)
            idle = 0
        else:
            idle += 1
    return HistoricSet(seed, tuple(sorted(members)), members, index - 3)


@lru_cache(maxsize=None)
def age(tree: DecoratedTree) -> int:
    """Length of the longest strictly increasing chain in the history of the
    tree.

    The order compares (noise count, degree) lexicographically, so the
    longest chain is the number of distinct such keys realised in the
    closure.
    """
    closure = hist([tree])
    return len({_order_key(t) for t in closure})


# ---------------------------------------------------------------------------
# preparation maps


@dataclass(frozen=True)
class PreparationMap:
    """Root-extraction preparation map built from a counterterm functional.

    The functional must send the unit to one and vanish on planted trees and
    on trees with a non-trivial polynomial decoration at the root; both are
    enforced at call time.
    """

    ell: Callable[[DecoratedTree], Fraction]

    def functional(self, tree: DecoratedTree):
        if tree.is_unit:
            return 1
        if _outside_domain(tree):
            return 0
        return self.ell(tree)

    def __call__(self, tree: DecoratedTree) -> FormalSum:
        out = FormalSum.zero()
        for (l, r), c in delta_r_minus(tree).items():
            v = self.functional(l)
            if v:
                out = out + FormalSum.single(r, c * v)
        return out

    def check_triangular(self, trees: Iterable[DecoratedTree]) -> bool:
        """Every deviation from the identity strictly gains degree and loses
        noises."""
        for t in trees:
            defect = self(t) - FormalSum.single(t)
            for s, _c in defect.items():
                if not (s.degree_value() > t.degree_value()
                        and s.noise_count() < t.noise_count()):
                    return False
        return True


def bphz_functional(trees: Iterable[DecoratedTree],
                    expectation: Callable[[DecoratedTree, Mapping], object],
                    ) -> dict[DecoratedTree, object]:
    """Counterterm functional that centers the model at the origin.

    ``expectation(tree, ell)`` must return the expected value at the origin
    of the un-recentred model for the preparation map induced by the partial
    functional ``ell``; only values on trees of strictly smaller age are ever
    consulted.  Values must be uniformly exact (rationals) or uniformly
    floating point; mixing the two is refused.
    """
    todo = sorted((t for t in trees
                   if t.degree_value() < 0 and not _outside_domain(t)),
                  key=lambda t: (age(t), t.sort_key()))
    ell: dict[DecoratedTree, object] = {}
    kinds = set()
    for v in todo:
        value = -expectation(v, ell)
        for (l, r), c in delta_r_minus_reduced(v).items():
            lv = _lookup(ell, l)
            if lv:
                value = value - c * lv * expectation(r, ell)
        kinds.add(isinstance(value, float))
        if len(kinds) > 1:
            raise TypeError("expectation oracle mixed exact and floating "
                            "point values")
        ell[v] = value
    return ell


def _lookup(ell: Mapping, tree: DecoratedTree):
    if tree.is_unit:
        return 1
    if _outside_domain(tree) or tree.degree_value() >= 0:
        return 0
    if tree not in ell:
        raise KeyError(f"functional consulted outside its domain: {tree!r}")
    return ell[tree]
