"""Decorated rooted trees over a typed alphabet, with exact rational bookkeeping.

Trees are stored in a canonical flat form (parent pointers in DFS preorder,
children visited in sorted order), so structural equality and hashing are
plain tuple comparisons.  All degree arithmetic is done with ``Fraction``;
degrees are affine expressions ``c0 + c1*kappa`` in a small formal parameter
kappa whose value is fixed on the :class:`TypeSet`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product as _iproduct
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

MultiIndex = tuple[int, ...]

__all__ = [
    "Degree",
    "TypeSet",
    "DecoratedTree",
    "FormalSum",
    "mi_zero",
    "mi_add",
    "mi_sub",
    "mi_leq",
    "mi_factorial",
    "mi_binom",
    "mi_below",
    "mi_sdeg",
    "unit",
    "monomial",
    "noise",
    "leaf",
    "plant",
    "tree_product",
    "cuts",
    "contract",
    "symmetry_factor",
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


def mi_leq(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))


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


def mi_sdeg(a: MultiIndex, scaling: Sequence[Fraction]) -> Fraction:
    """Scaled size |a|_s = sum_i s_i a_i."""
    return sum((s * x for s, x in zip(scaling, a, strict=True)), Fraction(0))


def mi_leq_iter(a: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices j with j <= a componentwise."""
    for j in _iproduct(*(range(x + 1) for x in a)):
        yield j


def mi_below(scaling: Sequence[Fraction], bound: Fraction) -> list[MultiIndex]:
    """All multi-indices k with |k|_s < bound, where every s_i > 0."""
    d = len(scaling)
    out: list[MultiIndex] = []
    if bound <= 0:
        return out

    def rec(i: int, prefix: tuple[int, ...], remaining: Fraction) -> None:
        if i == d:
            out.append(prefix)
            return
        k = 0
        while k * scaling[i] < remaining:
            rec(i + 1, prefix + (k,), remaining - k * scaling[i])
            k += 1

    rec(0, (), bound)
    return sorted(out)


# ---------------------------------------------------------------------------
# degrees


@dataclass(frozen=True)
class Degree:
    """Affine degree c0 + c1*kappa with exact rational coefficients."""

    const: Fraction = Fraction(0)
    kappa: Fraction = Fraction(0)

    @staticmethod
    def of(const, kappa=0) -> "Degree":
        return Degree(Fraction(const), Fraction(kappa))

    def at(self, kappa_value: Fraction) -> Fraction:
        return self.const + self.kappa * kappa_value

    def __add__(self, other):
        if isinstance(other, Degree):
            return Degree(self.const + other.const, self.kappa + other.kappa)
        return Degree(self.const + Fraction(other), self.kappa)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Degree):
            return Degree(self.const - other.const, self.kappa - other.kappa)
        return Degree(self.const - Fraction(other), self.kappa)

    def __rsub__(self, other):
        return Degree(Fraction(other) - self.const, -self.kappa)

    def __neg__(self):
        return Degree(-self.const, -self.kappa)

    def __mul__(self, n):
        return Degree(self.const * n, self.kappa * n)

    __rmul__ = __mul__

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

    @property
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

    def zero(self) -> MultiIndex:
        return mi_zero(self.d)

    def lt(self, a: Degree, b: Degree | Fraction | int) -> bool:
        bv = b.at(self.kappa) if isinstance(b, Degree) else Fraction(b)
        return a.at(self.kappa) < bv


# ---------------------------------------------------------------------------
# trees

# Internally trees are built from a nested form:
#   node := (ndeco, [edge, ...])   edge := (etype, edeco, odeco|None, coloured, node)
# which is canonicalised (children sorted by a recursive key) and flattened.

_NO_ODECO = (-1,)  # sort placeholder for "no over-decoration"


def _edge_key(etype, edeco, odeco, coloured, child_enc):
    return (etype, edeco, odeco if odeco is not None else _NO_ODECO,
            coloured, child_enc)


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

        def walk(node, par, edata):
            idx = len(parent)
            parent.append(par)
            et, ed, od, col = edata
            etype.append(et)
            edeco.append(ed)
            # a zero over-decoration is the same as no over-decoration
            odeco.append(od if od is not None and any(od) else None)
            coloured.append(col)
            ndeco.append(node[0])
            edges = sorted(node[1], key=lambda e: _edge_key(e[0], e[1], e[2], e[3],
                                                            _encode(e[4])))
            for (cet, ced, cod, ccol, ch) in edges:
                walk(ch, idx, (cet, ced, cod, bool(ccol)))

        walk(nested, -1, (None, None, None, False))
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

    def _nested(self):
        def rec(v):
            return (self.ndeco[v],
                    [(self.etype[c], self.edeco[c], self.odeco[c],
                      self.coloured[c], rec(c)) for c in self.children(v)])
        return rec(0)

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

    def branch(self, v: int) -> "DecoratedTree":
        """Subtree rooted at node v (the edge into v is not part of the result)."""
        def rec(w):
            return (self.ndeco[w],
                    [(self.etype[c], self.edeco[c], self.odeco[c], False, rec(c))
                     for c in self.children(w)])
        return DecoratedTree._from_nested(self.typeset, rec(v))

    def factor(self) -> tuple[MultiIndex, list[tuple]]:
        """Decompose into root decoration and planted factors.

        Returns ``(root_ndeco, [(etype, edeco, odeco, branch), ...])``; the tree is
        the product of ``X^root_ndeco`` with ``plant(branch_i, ...)``.
        """
        return self.ndeco[0], [
            (self.etype[c], self.edeco[c], self.odeco[c], self.branch(c))
            for c in self.children(0)]

    # -- rebuilding helpers --------------------------------------------------

    def with_root_ndeco(self, k: MultiIndex) -> "DecoratedTree":
        nested = self._nested()
        return DecoratedTree._from_nested(self.typeset, (tuple(k), nested[1]))

    def strip_odeco(self) -> "DecoratedTree":
        if all(od is None for od in self.odeco):
            return self
        def rec(node):
            nd, edges = node
            return (nd, [(et, ed, None, col, rec(ch)) for (et, ed, _od, col, ch) in edges])
        return DecoratedTree._from_nested(self.typeset, rec(self._nested()))

    # -- degree and ordering ---------------------------------------------------

    @cached_property
    def degree(self) -> Degree:
        ts = self.typeset
        deg = Degree()
        for i in self.edges():
            deg = deg + ts.degree_of(self.etype[i]) - ts.sdeg(self.edeco[i])
        for nd in self.ndeco:
            deg = deg + ts.sdeg(nd)
        return deg

    def degree_value(self) -> Fraction:
        return self.degree.at(self.typeset.kappa)

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

        def rec(v):
            return (tuple(nodes[v]["deco"]),
                    [(et, ed, od, col, rec(w)) for (w, et, ed, od, col) in kids[v]])

        return DecoratedTree._from_nested(ts, rec(root))

    def __repr__(self):
        return f"DecoratedTree({_pretty(self, 0)})"


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
# cuts, contraction, symmetry


def cuts(tree: DecoratedTree, kernel_only: bool = False) -> list[frozenset[int]]:
    """All cuts of the tree: edge subsets meeting every root path at most once.

    With ``kernel_only`` the cut may only contain kernel-type edges.  The empty
    cut is always included.  Cuts never touch coloured edges (for uncoloured
    trees this is vacuous).
    """
    def options(e: int) -> list[frozenset[int]]:
        below = node_cuts(e)
        if tree.coloured[e]:
            return below
        if kernel_only and not tree.typeset.is_kernel(tree.etype[e]):
            return below
        return [frozenset((e,))] + below

    def node_cuts(v: int) -> list[frozenset[int]]:
        out = [frozenset()]
        for c in tree.children(v):
            out = [s | o for s in out for o in options(c)]
        return out

    return node_cuts(0)


def root_part_nodes(tree: DecoratedTree, cut: frozenset[int]) -> set[int]:
    """Nodes of the tree that are not strictly above (or at the top of) a cut edge."""
    removed: set[int] = set()

    def mark(v: int) -> None:
        removed.add(v)
        for c in tree.children(v):
            mark(c)

    for e in cut:
        mark(e)
    return set(range(tree.n_nodes)) - removed


def restrict(tree: DecoratedTree, keep: set[int],
             ndeco_map: Mapping[int, MultiIndex],
             keep_colour: bool = True) -> DecoratedTree:
    """Tree induced on a root-containing node set, with node decorations replaced."""
    def rec(v):
        return (tuple(ndeco_map[v]),
                [(tree.etype[c], tree.edeco[c], tree.odeco[c],
                  tree.coloured[c] if keep_colour else False, rec(c))
                 for c in tree.children(v) if c in keep])
    if 0 not in keep:
        raise ValueError("restriction must contain the root")
    return DecoratedTree._from_nested(tree.typeset, rec(0))


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

    def rec(v):
        return (tree.ndeco[v],
                [(tree.etype[c], tree.edeco[c], tree.odeco[c], False, rec(c))
                 for c in tree.children(v)])

    for v in cn:
        for c in tree.children(v):
            if not tree.coloured[c]:
                edges.append((tree.etype[c], tree.edeco[c], tree.odeco[c],
                              False, rec(c)))
    return DecoratedTree._from_nested(tree.typeset, (nd, edges))


def paint(tree: DecoratedTree, root_part: set[int]) -> DecoratedTree:
    """Return the tree with edges inside ``root_part`` coloured."""
    def rec(v):
        return (tree.ndeco[v],
                [(tree.etype[c], tree.edeco[c], tree.odeco[c],
                  c in root_part, rec(c)) for c in tree.children(v)])
    return DecoratedTree._from_nested(tree.typeset, rec(0))


def symmetry_factor(tree: DecoratedTree) -> int:
    """Order of the decoration-preserving automorphism group."""
    def rec(v: int) -> tuple[int, tuple]:
        # returns (sym factor, canonical key) for the branch rooted at v
        child_data = []
        sym = 1
        for c in tree.children(v):
            s, key = rec(c)
            sym *= s
            child_data.append((_edge_key(tree.etype[c], tree.edeco[c],
                                         tree.odeco[c], tree.coloured[c], key)))
        child_data.sort()
        run = 1
        for i in range(1, len(child_data)):
            if child_data[i] == child_data[i - 1]:
                run += 1
            else:
                sym *= factorial(run)
                run = 1
        sym *= factorial(run) if child_data else 1
        return sym, (tree.ndeco[v], tuple(child_data))

    return rec(0)[0]


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

    def map_keys(self, fn: Callable) -> "FormalSum":
        """Apply a key -> key map, merging collisions."""
        return type(self)(((fn(k), c) for k, c in self._terms.items()))

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
