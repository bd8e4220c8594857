"""Decorated rooted trees over a typed alphabet, with exact rational bookkeeping.

Trees are stored in a canonical flat form (parent pointers in DFS preorder,
children visited in sorted order), so structural equality and hashing are
plain tuple comparisons; a tree and its type set compute their hash once and
keep it.  Degrees are affine expressions ``c0 + c1*kappa`` in a small formal
parameter kappa whose value is fixed on the :class:`TypeSet`.  At that value
every degree is an integer numerator over the type set's common denominator
``den``, and the degree of a tree and of each of its planted factors are sums
of those integers (``DecoratedTree.degree_nums``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _iproduct
from math import ceil, comb, factorial, lcm
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

MultiIndex = tuple[int, ...]

__all__ = [
    "Degree",
    "TypeSet",
    "DecoratedTree",
    "FormalSum",
    "mi_zero",
    "mi_add",
    "mi_sub",
    "mi_factorial",
    "mi_binom",
    "mi_below",
    "mi_leq_iter",
    "mi_sdeg",
    "unit",
    "monomial",
    "noise",
    "leaf",
    "plant",
    "tree_product",
    "cuts",
    "contract",
]


# ---------------------------------------------------------------------------
# multi-index helpers


def mi_zero(d: int) -> MultiIndex:
    return (0,) * d


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise difference; raises if any component would go negative."""
    out = tuple(x - y for x, y in zip(a, b, strict=True))
    if any(x < 0 for x in out):
        raise ValueError(f"multi-index subtraction {a} - {b} is negative")
    return out


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for x in a:
        out *= factorial(x)
    return out


def mi_binom(a: MultiIndex, b: MultiIndex) -> int:
    """Product of componentwise binomial coefficients; 0 unless b <= a."""
    out = 1
    for x, y in zip(a, b, strict=True):
        out *= comb(x, y)
    return out


def mi_sdeg(a: MultiIndex, scaling: Sequence[int | Fraction]) -> int | Fraction:
    """Scaled size |a|_s = sum_i s_i a_i: an int for an integer scaling, a
    Fraction for a Fraction one."""
    return sum(s * x for s, x in zip(scaling, a, strict=True))


def mi_leq_iter(a: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices j with j <= a componentwise."""
    for j in _iproduct(*(range(x + 1) for x in a)):
        yield j


def mi_below(scaling: Sequence[Fraction], bound: Fraction) -> list[MultiIndex]:
    """All multi-indices k with |k|_s < bound, where every s_i > 0."""
    if bound <= 0:
        return []
    # each prefix with the part of the bound it leaves, one axis at a time
    out: list[tuple[MultiIndex, Fraction]] = [((), bound)]
    for s in scaling:
        longer = []
        for prefix, remaining in out:
            k = 0
            while k * s < remaining:
                longer.append((prefix + (k,), remaining - k * s))
                k += 1
        out = longer
    return sorted(prefix for prefix, _remaining in out)


def _weighted_choices(options: list[list[tuple]], budget: int | None) -> list:
    """Every choice of one ``(value, coeff, cost)`` option per slot whose
    costs sum below ``budget`` (every choice for ``None``), in
    ``itertools.product`` order, as ``(values, coeff)`` with the product of
    the coefficients.  A partial choice is dropped as soon as its cost
    reaches the budget, so with non-negative costs nothing is built for a
    choice that cannot survive."""
    partial = [((), Fraction(1), 0)] if budget is None or budget > 0 else []
    for opts in options:
        partial = [(values + (v,), coeff * c, cost + w)
                   for values, coeff, cost in partial
                   for v, c, w in opts
                   if budget is None or cost + w < budget]
    return [(values, coeff) for values, coeff, _cost in partial]


# ---------------------------------------------------------------------------
# degrees


@dataclass(frozen=True)
class Degree:
    """Affine degree c0 + c1*kappa with exact rational coefficients."""

    const: Fraction = Fraction(0)
    kappa: Fraction = Fraction(0)

    def at(self, kappa_value: Fraction) -> Fraction:
        return self.const + self.kappa * kappa_value

    def __repr__(self):
        if self.kappa == 0:
            return f"Degree({self.const})"
        return f"Degree({self.const} + {self.kappa}*kappa)"


# ---------------------------------------------------------------------------
# type sets


@dataclass(frozen=True)
class TypeSet:
    """Edge-type alphabet: kernel types (positive degree), noise types (negative),
    an anisotropic scaling vector and the evaluation point for kappa."""

    scaling: tuple[Fraction, ...]
    _types: tuple[tuple[str, Degree], ...]
    kappa: Fraction = Fraction(1, 100)

    @staticmethod
    def make(scaling: Sequence, types: Mapping[str, Degree | tuple | int | Fraction],
             kappa=Fraction(1, 100)) -> "TypeSet":
        sc = tuple(Fraction(s) for s in scaling)
        if any(s <= 0 for s in sc):
            raise ValueError("scaling entries must be positive")
        norm: list[tuple[str, Degree]] = []
        for name, deg in sorted(types.items()):
            if isinstance(deg, Degree):
                d = deg
            elif isinstance(deg, tuple):
                d = Degree(Fraction(deg[0]), Fraction(deg[1]))
            else:
                d = Degree(Fraction(deg))
            norm.append((name, d))
        ts = TypeSet(sc, tuple(norm), Fraction(kappa))
        for name in ts.type_names:
            if ts.degree_of(name).at(ts.kappa) == 0:
                raise ValueError(f"type {name!r} has degree zero at kappa")
        return ts

    @property
    def d(self) -> int:
        return len(self.scaling)

    @cached_property
    def _type_map(self) -> dict[str, Degree]:
        return dict(self._types)

    @cached_property
    def type_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._types)

    @cached_property
    def kernel_types(self) -> tuple[str, ...]:
        return tuple(n for n, g in self._types if g.at(self.kappa) > 0)

    @cached_property
    def noise_types(self) -> tuple[str, ...]:
        return tuple(n for n, g in self._types if g.at(self.kappa) < 0)

    def degree_of(self, name: str) -> Degree:
        return self._type_map[name]

    def is_kernel(self, name: str) -> bool:
        return name in self.kernel_types

    def sdeg(self, k: MultiIndex) -> Fraction:
        return mi_sdeg(k, self.scaling)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash of the fields, computed once
        return hash((self.scaling, self._types, self.kappa))

    # -- integer degrees: numerators over one common denominator -----------

    @cached_property
    def den(self) -> int:
        """Common denominator of the scaling and of every type degree at
        kappa."""
        return lcm(*(q.denominator for q in self.scaling),
                   *(g.at(self.kappa).denominator for _n, g in self._types))

    @cached_property
    def scaling_num(self) -> tuple[int, ...]:
        return tuple(int(s * self.den) for s in self.scaling)

    @cached_property
    def _type_num(self) -> dict[str, int]:
        return {n: int(g.at(self.kappa) * self.den) for n, g in self._types}

    def sdeg_num(self, k: MultiIndex) -> int:
        """|k|_s times ``den``."""
        return mi_sdeg(k, self.scaling_num)

    def edge_num(self, etype: str, edeco: MultiIndex) -> int:
        """Degree of an edge of type ``etype`` and decoration ``edeco``,
        times ``den``."""
        return self._type_num[etype] - self.sdeg_num(edeco)

    def num_bound(self, bound: Fraction) -> int:
        """The integer bound ceil(bound * den): an integer numerator n has
        n < num_bound(b) exactly when n / den < b."""
        return ceil(bound * self.den)

    def zero(self) -> MultiIndex:
        return mi_zero(self.d)


# ---------------------------------------------------------------------------
# trees

# Internally trees are built from a nested form:
#   node := (ndeco, [edge, ...])   edge := (etype, edeco, odeco|None, coloured, node)
# which is canonicalised (children sorted by a recursive key) and flattened.
# Recursion over either form goes through methods, module-level helpers or
# explicit stacks, never through a nested function that calls itself: such a
# function is a reference cycle (through its closure cell) that keeps what it
# captured alive until the cycle collector runs.

_NO_ODECO = (-1,)  # sort placeholder for "no over-decoration"


def _edge_key(etype, edeco, odeco, coloured, child_enc):
    # a zero over-decoration is the same as none, also for the sibling order
    return (etype, edeco, odeco if odeco is not None and any(odeco)
            else _NO_ODECO, coloured, child_enc)


def _encode(node) -> tuple:
    ndeco, edges = node
    keys = tuple(sorted(
        _edge_key(et, ed, od, col, _encode(ch)) for (et, ed, od, col, ch) in edges))
    return (ndeco, keys)


@dataclass(frozen=True)
class DecoratedTree:
    """A decorated rooted tree in canonical (DFS-preorder, sorted-children) form.

    ``parent[i]`` is the parent of node ``i`` (root is node 0 with parent -1);
    ``etype/edeco/odeco/coloured[i]`` describe the edge into node ``i`` and are
    ``None``/``False`` at the root.  ``ndeco[i]`` is the polynomial decoration
    of node ``i``.  Over-decorations (``odeco``) live on kernel edges only and
    do not contribute to the degree.
    """

    typeset: TypeSet
    parent: tuple[int, ...]
    etype: tuple
    edeco: tuple
    odeco: tuple
    ndeco: tuple
    coloured: tuple

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(ts: TypeSet, ndeco: MultiIndex | None = None,
              children: Iterable[tuple] = ()) -> "DecoratedTree":
        """Build a tree from a root decoration and an iterable of child branches
        given as ``(etype, edeco, odeco, coloured, subtree)`` tuples."""
        nd = ndeco if ndeco is not None else ts.zero()
        nested = (nd, [(et, ed if ed is not None else ts.zero(), od, bool(col),
                        ch._nested()) for (et, ed, od, col, ch) in children])
        return DecoratedTree._from_nested(ts, nested)

    @staticmethod
    def _from_nested(ts: TypeSet, nested) -> "DecoratedTree":
        parent, etype, edeco, odeco, ndeco, coloured = [], [], [], [], [], []
        # the encoding lists siblings in canonical order and has already
        # turned a zero over-decoration into _NO_ODECO; the stack pops
        # siblings in that order, so nodes are numbered in preorder
        stack = [(-1, None, None, _NO_ODECO, False, _encode(nested))]
        while stack:
            par, et, ed, od, col, enc = stack.pop()
            idx = len(parent)
            parent.append(par)
            etype.append(et)
            edeco.append(ed)
            odeco.append(None if od is _NO_ODECO else od)
            coloured.append(bool(col))
            ndeco.append(enc[0])
            stack.extend((idx, *edge) for edge in reversed(enc[1]))
        t = DecoratedTree(ts, tuple(parent), tuple(etype), tuple(edeco),
                          tuple(odeco), tuple(ndeco), tuple(coloured))
        t._validate()
        return t

    def _validate(self) -> None:
        d = self.typeset.d
        for i, nd in enumerate(self.ndeco):
            if len(nd) != d or any(x < 0 for x in nd):
                raise ValueError(f"bad node decoration {nd} at node {i}")
        for i in range(1, self.n_nodes):
            et = self.etype[i]
            if et not in self.typeset.type_names:
                raise ValueError(f"unknown edge type {et!r}")
            if len(self.edeco[i]) != d:
                raise ValueError("edge decoration has wrong length")
            if self.odeco[i] is not None and not self.typeset.is_kernel(et):
                raise ValueError("over-decoration on a non-kernel edge")
            if self.coloured[i] and not self.coloured[self.parent[i]] \
                    and self.parent[i] != 0:
                raise ValueError("colour must be a root-connected edge set")

    def _nested(self, v: int = 0):
        """Nested form of the subtree rooted at node v, colour kept."""
        return (self.ndeco[v],
                [(self.etype[c], self.edeco[c], self.odeco[c],
                  self.coloured[c], self._nested(c)) for c in self.children(v)])

    # -- basic structure -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_edges(self) -> int:
        return self.n_nodes - 1

    @cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i in range(1, self.n_nodes):
            out[self.parent[i]].append(i)
        return tuple(tuple(c) for c in out)

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def edges(self) -> range:
        """Edge ids; edge ``i`` is the edge into node ``i``."""
        return range(1, self.n_nodes)

    def kernel_edges(self) -> list[int]:
        return [i for i in self.edges() if self.typeset.is_kernel(self.etype[i])]

    def noise_count(self) -> int:
        return sum(1 for i in self.edges()
                   if self.etype[i] in self.typeset.noise_types)

    @property
    def is_unit(self) -> bool:
        return self.n_nodes == 1 and not any(self.ndeco[0])

    @property
    def is_node(self) -> bool:
        """Single node (possibly with polynomial decoration)."""
        return self.n_nodes == 1

    @property
    def is_planted(self) -> bool:
        return len(self.children(0)) == 1 and not any(self.ndeco[0])

    @property
    def has_colour(self) -> bool:
        return any(self.coloured)

    def _branch_nested(self, v: int, colour: Container[int] = ()):
        """Nested form of the subtree rooted at node v, with exactly the
        edges in ``colour`` coloured."""
        return (self.ndeco[v],
                [(self.etype[c], self.edeco[c], self.odeco[c], c in colour,
                  self._branch_nested(c, colour)) for c in self.children(v)])

    def branch(self, v: int) -> "DecoratedTree":
        """Subtree rooted at node v (the edge into v is not part of the result)."""
        return DecoratedTree._from_nested(self.typeset, self._branch_nested(v))

    def factor(self) -> tuple[MultiIndex, tuple[tuple, ...]]:
        """Decompose into root decoration and planted factors, computed once.

        Returns ``(root_ndeco, ((etype, edeco, odeco, branch), ...))``; the tree
        is the product of ``X^root_ndeco`` with ``plant(branch_i, ...)``, which
        ``planted_factors`` holds in the same order.
        """
        return self._factored

    @cached_property
    def _factored(self) -> tuple[MultiIndex, tuple[tuple, ...]]:
        return self.ndeco[0], tuple(
            (self.etype[c], self.edeco[c], self.odeco[c], self.branch(c))
            for c in self.children(0))

    @cached_property
    def planted_factors(self) -> tuple["DecoratedTree", ...]:
        return tuple(plant(br, et, ed, od) for et, ed, od, br in self.factor()[1])

    # -- rebuilding helpers --------------------------------------------------

    def strip_odeco(self) -> "DecoratedTree":
        if all(od is None for od in self.odeco):
            return self
        return DecoratedTree._from_nested(self.typeset,
                                          _without_odeco(self._nested()))

    # -- degree and ordering ---------------------------------------------------

    @cached_property
    def degree_nums(self) -> tuple[int, ...]:
        """Degree numerators over ``typeset.den``, summed once bottom-up:
        entry 0 is the tree's degree, entry e > 0 the degree of the planted
        factor above edge e (the branch above e planted by e)."""
        ts = self.typeset
        out = [ts.sdeg_num(nd) for nd in self.ndeco]
        for v in range(self.n_nodes - 1, 0, -1):
            out[v] += ts.edge_num(self.etype[v], self.edeco[v])
            out[self.parent[v]] += out[v]
        return tuple(out)

    @cached_property
    def _degree_value(self) -> Fraction:
        return Fraction(self.degree_nums[0], self.typeset.den)

    def degree_value(self) -> Fraction:
        """The degree at the type set's kappa."""
        return self._degree_value

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the hash of the fields, computed once, without None: its hash is an
        # address on Python 3.11 and would differ between processes.  So the
        # root's edge entries are left out, and so are the over-decorations,
        # None on most edges (equality still compares them)
        return hash((self.typeset, self.parent, self.etype[1:], self.edeco[1:],
                     self.ndeco, self.coloured))

    def sort_key(self):
        return (self.n_nodes, self.parent, self.etype, self.edeco,
                tuple(od if od is not None else _NO_ODECO for od in self.odeco),
                self.ndeco, self.coloured)

    def __lt__(self, other: "DecoratedTree") -> bool:
        return self.sort_key() < other.sort_key()

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        edges = []
        for i in self.edges():
            e = {"from": self.parent[i], "to": i, "type": self.etype[i],
                 "deco": list(self.edeco[i])}
            if self.odeco[i] is not None:
                e["over_deco"] = list(self.odeco[i])
            edges.append(e)
        out = {"root": 0,
               "nodes": [{"deco": list(nd)} for nd in self.ndeco],
               "edges": edges}
        if self.has_colour:
            out["colour"] = [i for i in self.edges() if self.coloured[i]]
        return out

    @staticmethod
    def from_dict(ts: TypeSet, data: Mapping) -> "DecoratedTree":
        nodes = data["nodes"]
        n = len(nodes)
        root = data.get("root", 0)
        kids: dict[int, list] = {i: [] for i in range(n)}
        coloured = set(data.get("colour", ()))
        for e in data["edges"]:
            od = tuple(e["over_deco"]) if "over_deco" in e else None
            kids[e["from"]].append((e["to"], e["type"], tuple(e["deco"]), od,
                                    e["to"] in coloured))
        return DecoratedTree._from_nested(ts, _dict_nested(nodes, kids, root))

    def __repr__(self):
        return f"DecoratedTree({_pretty(self, 0)})"


def _without_odeco(node):
    nd, edges = node
    return (nd, [(et, ed, None, col, _without_odeco(ch))
                 for (et, ed, _od, col, ch) in edges])


def _dict_nested(nodes, kids, v):
    """Nested form of the subtree of ``from_dict``'s node v."""
    return (tuple(nodes[v]["deco"]),
            [(et, ed, od, col, _dict_nested(nodes, kids, w))
             for (w, et, ed, od, col) in kids[v]])


def _pretty(t: DecoratedTree, v: int) -> str:
    nd = "" if not any(t.ndeco[v]) else f"X{list(t.ndeco[v])}"
    parts = []
    for c in t.children(v):
        label = t.etype[c]
        if any(t.edeco[c]):
            label += f"^{list(t.edeco[c])}"
        if t.odeco[c] is not None:
            label += f"~{list(t.odeco[c])}"
        if t.coloured[c]:
            label += "*"
        parts.append(f"{label}({_pretty(t, c)})")
    return nd + ("." if not parts and not nd else "") + "".join(parts)


# ---------------------------------------------------------------------------
# elementary constructors


def leaf(ts: TypeSet, ndeco: MultiIndex | None = None) -> DecoratedTree:
    return DecoratedTree.build(ts, ndeco, ())


def unit(ts: TypeSet) -> DecoratedTree:
    return leaf(ts)


def monomial(ts: TypeSet, k: MultiIndex) -> DecoratedTree:
    return leaf(ts, tuple(k))


def plant(tree: DecoratedTree, etype: str, edeco: MultiIndex | None = None,
          odeco: MultiIndex | None = None) -> DecoratedTree:
    """Graft ``tree`` below a fresh root via an edge of the given type."""
    ts = tree.typeset
    return DecoratedTree.build(ts, None, [(etype, edeco, odeco, False, tree)])


def noise(ts: TypeSet, ntype: str, edeco: MultiIndex | None = None) -> DecoratedTree:
    """A single noise edge (a planted bare leaf of noise type)."""
    return plant(leaf(ts), ntype, edeco)


def tree_product(*trees: DecoratedTree) -> DecoratedTree:
    """Product of trees: roots are identified, root decorations add up.

    Colour is preserved (a union of root-connected edge sets is root-connected).
    """
    if not trees:
        raise ValueError("empty product")
    ts = trees[0].typeset
    nd = ts.zero()
    edges = []
    for t in trees:
        if t.typeset != ts:
            raise ValueError("mixed type sets in product")
        nested = t._nested()
        nd = mi_add(nd, nested[0])
        edges.extend(nested[1])
    return DecoratedTree._from_nested(ts, (nd, edges))


# ---------------------------------------------------------------------------
# cuts, contraction, colouring


def cuts(tree: DecoratedTree, kernel_only: bool = False) -> list[frozenset[int]]:
    """All cuts of the tree: edge subsets meeting every root path at most once.

    With ``kernel_only`` the cut may only contain kernel-type edges.  The empty
    cut is always included.  Cuts never touch coloured edges (for uncoloured
    trees this is vacuous).
    """
    return _node_cuts(tree, 0, kernel_only)


def _node_cuts(tree: DecoratedTree, v: int,
               kernel_only: bool) -> list[frozenset[int]]:
    """Cuts of the branch above node v; each child edge c may be cut itself
    or contribute a cut of its own branch."""
    out = [frozenset()]
    for c in tree.children(v):
        options = _node_cuts(tree, c, kernel_only)
        if not tree.coloured[c] and (
                not kernel_only or tree.typeset.is_kernel(tree.etype[c])):
            options = [frozenset((c,))] + options
        out = [s | o for s in out for o in options]
    return out


def root_part_nodes(tree: DecoratedTree, cut: frozenset[int]) -> set[int]:
    """Nodes of the tree that are not strictly above (or at the top of) a cut edge."""
    # in preorder a parent comes before its children
    keep: set[int] = set()
    for v in range(tree.n_nodes):
        if v not in cut and (v == 0 or tree.parent[v] in keep):
            keep.add(v)
    return keep


def colour_nodes(tree: DecoratedTree) -> set[int]:
    """Nodes incident to the coloured edge set (always includes the root)."""
    out = {0}
    for i in tree.edges():
        if tree.coloured[i]:
            out.add(i)
            out.add(tree.parent[i])
    return out


def contract(tree: DecoratedTree) -> DecoratedTree:
    """Contract the coloured subtree to the root.

    Node decorations of collapsed nodes are summed onto the new root; edge
    decorations and over-decorations of surviving edges are kept.
    """
    cn = colour_nodes(tree)
    nd = tree.typeset.zero()
    for v in cn:
        nd = mi_add(nd, tree.ndeco[v])
    edges = []
    for v in cn:
        for c in tree.children(v):
            if not tree.coloured[c]:
                edges.append((tree.etype[c], tree.edeco[c], tree.odeco[c],
                              False, tree._branch_nested(c)))
    return DecoratedTree._from_nested(tree.typeset, (nd, edges))


def paint(tree: DecoratedTree, root_part: set[int]) -> DecoratedTree:
    """Return the tree with edges inside ``root_part`` coloured."""
    return DecoratedTree._from_nested(tree.typeset,
                                      tree._branch_nested(0, root_part))


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """Finite linear combination of hashable keys with exact coefficients.

    Zero coefficients are pruned.  Coefficients are normally ``Fraction``;
    floats are tolerated for numeric pipelines but never silently mixed into
    exact computations by this class itself.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if key in acc:
                acc[key] = acc[key] + coeff
            else:
                acc[key] = coeff
        self._terms = {k: c for k, c in acc.items() if c != 0}

    @classmethod
    def single(cls, key, coeff=Fraction(1)) -> "FormalSum":
        return cls({key: coeff})

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def coeff(self, key):
        return self._terms.get(key, Fraction(0))

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

    def __mul__(self, scalar) -> "FormalSum":
        return type(self)({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def bind(self, fn: Callable) -> "FormalSum":
        """Linear extension of a key -> FormalSum map."""
        out = type(self)()
        for k, c in self._terms.items():
            out = out + c * fn(k)
        return out

    def filter(self, pred: Callable) -> "FormalSum":
        return type(self)({k: c for k, c in self._terms.items() if pred(k)})

    def __repr__(self):
        if not self._terms:
            return "FormalSum(0)"
        bits = [f"{c}*{k!r}" for k, c in sorted(
            self._terms.items(), key=lambda kv: repr(kv[0]))]
        return "FormalSum(" + " + ".join(bits) + ")"
