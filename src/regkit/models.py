"""Grid-scale canonical and renormalised models on a historic tree sector.

Everything lives on a periodic space-time grid whose time step equals the
square of the space step, so that dyadic scales mean the same thing in both
directions.  A model assigns to every tree of a historic set and every base
point of a coarse lattice a grid field, built by the usual recursion:
noises and monomials are given, products are pointwise, planted trees are
kernel convolutions minus the Taylor jet at the base point, and the whole
thing is twisted by a preparation map at every step.  The recentering maps
come from characters evaluated on planted generators, stored lazily.  The
same recursion without a base point is the un-recentred model (monomials
about the origin, no jet subtracted); the Monte Carlo expectation oracle
reads it at the origin.  It draws each sample index once per sampler, keeps
only the window of cells around the origin that the recursion reads, and
evaluates the model on those windows a block of samples at a time, with the
same bits as a full-grid evaluation of each sample.

Convolutions are direct summations of the sampled dyadic kernel components
against the grid quadrature; no transform is used for them.  (The noise
sampler does use an FFT, but only to mollify white noise.)
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import blake2b
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.random import default_rng

from .hopf import Character, character_inverse, convolve, gamma_action
from .kernels import (
    CutoffFamily,
    DyadicKernel,
    _down,
    _m_of,
    dilate,
    dyadic_decompose,
)
from .renorm import HistoricSet, PreparationMap
from .trees import (
    DecoratedTree,
    FormalSum,
    MultiIndex,
    mi_add,
    mi_below,
    mi_factorial,
)

__all__ = [
    "Grid",
    "GridField",
    "monomial_field",
    "KernelOnGrid",
    "bump_kernel",
    "mollifier",
    "mollified_noise_sampler",
    "sector_order",
    "check_kernel_orders",
    "ModelInstance",
    "build_model",
    "check_chain",
    "recentering_exponent",
    "expectation_oracle",
    "model_difference",
]


# ---------------------------------------------------------------------------
# grid plumbing


@dataclass(frozen=True)
class Grid:
    """Periodic uniform space-time grid; the time step is the square of the
    space step so grid cells are parabolic."""

    shape: tuple[int, int]
    spacing: tuple[float, float]

    def __post_init__(self):
        dt, dx = self.spacing
        if not math.isclose(dt, dx * dx, rel_tol=1e-12):
            raise ValueError("time step must equal the square of the space step")

    @property
    def scaling(self) -> tuple[int, int]:
        return (2, 1)

    @property
    def cell_volume(self) -> float:
        return self.spacing[0] * self.spacing[1]

    @property
    def extent(self) -> tuple[float, float]:
        return (self.shape[0] * self.spacing[0], self.shape[1] * self.spacing[1])

    def axes(self):
        return (np.arange(self.shape[0]) * self.spacing[0],
                np.arange(self.shape[1]) * self.spacing[1])

    def index_of(self, z) -> tuple[int, int]:
        """Grid index of a point that must lie on the grid."""
        out = []
        for v, h, n in zip(z, self.spacing, self.shape):
            i = round(v / h)
            if abs(v - i * h) > 1e-9 * h:
                raise ValueError(f"point {tuple(z)} is not a grid point")
            out.append(i % n)
        return tuple(out)


@dataclass
class GridField:
    """Samples of a function on a periodic grid, with the quadrature weight
    (one cell volume per sample) carried by the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("sample array does not match the grid shape")

    # small arithmetic surface; everything returns fields on the same grid
    def _wrap(self, values):
        return GridField(self.grid, values)

    def __add__(self, other):
        return self._wrap(self.values + _vals(other))

    def __sub__(self, other):
        return self._wrap(self.values - _vals(other))

    def __mul__(self, other):
        return self._wrap(self.values * _vals(other))

    __radd__ = __add__
    __rmul__ = __mul__

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def at(self, idx: tuple[int, int]) -> float:
        return float(self.values[idx[0] % self.grid.shape[0],
                                 idx[1] % self.grid.shape[1]])

    def derivative(self, k: MultiIndex) -> "GridField":
        """Iterated central differences, axis by axis."""
        return self._wrap(_derivative(self.values, k, self.spacing))

    @property
    def spacing(self):
        return self.grid.spacing

    def sample_at(self, points: np.ndarray) -> np.ndarray:
        """Periodic bilinear interpolation at points (..., 2), bit for bit as
        scipy.ndimage.map_coordinates(order=1, mode="grid-wrap"): its wrap
        (to 0 on one cell), weights w = 1 - (c - s) and 1 - w, sum order."""
        corners, pts = [], np.asarray(points, dtype=float) / self.spacing
        for c, n in zip(np.moveaxis(pts, -1, 0), self.grid.shape):
            c = np.where(c < 0, c + n * (np.trunc(-c / n) + 1), np.where(
                c > n - 1, c - n * np.trunc(c / n), c)) * (n > 1)
            s = np.floor(c)
            w = 1.0 - (c - s)
            corners.append([(s.astype(int) % n, w),
                            ((s.astype(int) + 1) % n, 1.0 - w)])
        return sum(self.values[i, j] * wt * wx
                   for (i, wt), (j, wx) in product(*corners))


def _vals(other):
    return other.values if isinstance(other, GridField) else other


def _central_difference(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """One periodic central difference of step h along an axis."""
    return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)


def _derivative(v: np.ndarray, k: MultiIndex, spacing) -> np.ndarray:
    """Iterated central differences along the last two (time, space) axes,
    so that leading sample axes ride along."""
    for axis, (m, h) in enumerate(zip(k, spacing)):
        for _ in range(m):
            v = _central_difference(v, axis - 2, h)
    return v


def monomial_field(grid: Grid, base, k: MultiIndex) -> GridField:
    """(z - base)^k on the grid, with plain (unwrapped) coordinates."""
    return GridField(grid, _monomial(grid.axes(), base, k))


def _monomial(axes, base, k: MultiIndex) -> np.ndarray:
    """(z - base)^k on the cells whose plain coordinates are the given time
    and space axes."""
    t, x = axes
    if not any(k):
        return np.ones((len(t), len(x)))
    return np.outer((t - base[0]) ** k[0], (x - base[1]) ** k[1])


def _axis_cells(length: int, n: int) -> tuple[np.ndarray, int]:
    """Grid indices of the cells of an origin window of the given length
    along a periodic axis of n cells, and the origin's place in it.  The
    whole axis keeps its order (origin first); a window of odd length 2h+1 <
    n runs from -h to h."""
    h = 0 if length == n else length // 2
    return (np.arange(length) - h) % n, h


# ---------------------------------------------------------------------------
# kernels on the grid


class KernelOnGrid:
    """A translation-invariant kernel sampled at grid offsets: the window
    holds the dyadic components plus the far-field rest, K + R, from one
    evaluation of the kernel's profile.

    Derivative kernels are produced by iterated central differences of the
    sampled window, so that every derivative label is realised by a fixed
    linear convolution operator; the recursion below only ever combines the
    labels additively, which keeps its algebraic identities exact on the grid.
    """

    def __init__(self, kernel: DyadicKernel, grid: Grid):
        self.grid = grid
        dt, dx = grid.spacing
        # sized for the coarsest component, supported in B_s(0, 1)
        it = min(int(math.ceil(1.0 / dt)), grid.shape[0] // 2 - 1)
        ix = min(int(math.ceil(1.0 / dx)), grid.shape[1] // 2 - 1)
        self._half = (it + 6, ix + 6)  # six cells of margin
        ti = np.arange(-self._half[0], self._half[0] + 1) * dt
        xi = np.arange(-self._half[1], self._half[1] + 1) * dx
        pts = np.stack(np.meshgrid(ti, xi, indexing="ij"), axis=-1)
        window = sum(kernel.parts(pts))
        self._windows: dict[MultiIndex, np.ndarray] = {(0, 0): window}
        self._stencils: dict[MultiIndex, tuple] = {}

    def _window(self, m: MultiIndex) -> np.ndarray:
        if m not in self._windows:
            axis = _m_of(m)
            self._windows[m] = _central_difference(
                self._window(_down(m)), axis, self.grid.spacing[axis])
        return self._windows[m]

    def stencil(self, m: MultiIndex = (0, 0)):
        """Nonzero offsets (in cells) and values of the derivative window."""
        if m not in self._stencils:
            w = self._window(m)
            ti, xi = np.nonzero(w)
            self._stencils[m] = (ti - self._half[0], xi - self._half[1],
                                 w[ti, xi])
        return self._stencils[m]

    def reach(self, m: MultiIndex) -> tuple[int, int]:
        """Largest offset, in cells per axis, that the D^m stencil reads."""
        ti, xi, _vals = self.stencil(m)
        return (int(np.max(np.abs(ti), initial=0)),
                int(np.max(np.abs(xi), initial=0)))

    def convolve(self, f, m: MultiIndex = (0, 0)):
        """(D^m K * f) by direct summation of the sampled offsets against the
        grid quadrature.  ``f`` is a GridField, or an array whose last two
        axes are periodic (the grid, or a window of it whose edge cells are
        then wrong up to the stencil's reach) with leading sample axes.

        The field is padded periodically once, by the stencil's reach, and
        each offset adds its weight times a shifted view of the padded field,
        in stencil order: every cell sums the same products in the same order
        as shifting the field itself would."""
        ti, xi, vals = self.stencil(m)
        v = _vals(f)
        nt, nx = v.shape[-2:]
        rt, rx = self.reach(m)
        # mode="wrap" repeats the field when the reach exceeds its length
        padded = np.pad(v, [(0, 0)] * (v.ndim - 2) + [(rt, rt), (rx, rx)],
                        mode="wrap")
        out = np.zeros(v.shape)
        tmp = np.empty(v.shape)
        for i, j, c in zip(ti, xi, vals):
            np.multiply(c, padded[..., rt - i:rt - i + nt, rx - j:rx - j + nx],
                        out=tmp)
            out += tmp
        out = out * self.grid.cell_volume
        return GridField(self.grid, out) if isinstance(f, GridField) else out

    def value_at(self, f, m: MultiIndex, idx: tuple[int, int]):
        """(D^m K * f)(z) at a single cell of a GridField, or of an array
        laid out as for ``convolve`` with at most one sample axis, which
        gives one value per sample."""
        ti, xi, vals = self.stencil(m)
        v = _vals(f)
        nt, nx = v.shape[-2:]
        samples = v[..., (idx[0] - ti) % nt, (idx[1] - xi) % nx]
        if samples.ndim == 1:
            return float(np.dot(vals, samples)) * self.grid.cell_volume
        # one dot per sample over a contiguous row, as for a single sample:
        # a matrix product, or a strided row, sums in another order
        rows = np.ascontiguousarray(samples)
        return (np.array([np.dot(vals, row) for row in rows])
                * self.grid.cell_volume)


def bump_kernel(*, levels: int = 4, order: int = 8) -> DyadicKernel:
    """A smooth compactly supported kernel of regularising order 2 split into
    dyadic components.

    The profile is the radial cutoff bump squeezed into the parabolic ball of
    radius 1/4, so the far-field remainder vanishes identically.
    """
    cutoff = CutoffFamily((2, 1))

    def profile(z):
        return cutoff.chi(dilate(z, 4.0, (2, 1)))

    return dyadic_decompose(profile, cutoff, levels, beta=Fraction(2),
                            order=order)


def mollifier(grid: Grid, epsilon: int, *, profile: Callable | None = None
              ) -> GridField:
    """Unit-mass bump at scale ``epsilon`` space cells, sampled with its
    centre at grid index (0, 0) (periodically wrapped)."""
    cutoff = CutoffFamily(grid.scaling)
    profile = profile or cutoff.chi
    scale = epsilon * grid.spacing[1]
    t, x = grid.axes()
    T, L = grid.extent
    tw = np.minimum(t, T - t)
    xw = np.minimum(x, L - x)
    pts = np.stack(np.meshgrid(tw, xw, indexing="ij"), axis=-1)
    vals = profile(dilate(pts, 1.0 / scale, grid.scaling))
    vals = vals / (np.sum(vals) * grid.cell_volume)
    return GridField(grid, vals)


def mollified_noise_sampler(grid: Grid, noise_types: Sequence[str],
                            epsilon: int, seed: int, *,
                            profile: Callable | None = None) -> Callable:
    """i.i.d. smooth noise: white noise on the grid convolved with a bump at
    scale ``epsilon`` cells.  ``sampler(i)`` is reproducible per index."""
    rho = mollifier(grid, epsilon, profile=profile)
    rho_hat = np.fft.rfft2(rho.values) * grid.cell_volume
    amp = 1.0 / math.sqrt(grid.cell_volume)

    def sampler(i: int) -> dict[str, GridField]:
        rng = default_rng([seed, i])
        out = {}
        for ntype in noise_types:
            white = rng.standard_normal(grid.shape) * amp
            smooth = np.fft.irfft2(np.fft.rfft2(white) * rho_hat,
                                   s=grid.shape)
            out[ntype] = GridField(grid, smooth)
        return out

    return sampler


# ---------------------------------------------------------------------------
# sector order


def sector_order(historic: Iterable[DecoratedTree]) -> Fraction:
    """Least kernel order that supports the recursion on the sector: the
    maximum over its planted trees of branch degree plus edge degree plus the
    largest scaling weight, and of jet sizes against the lowest degree."""
    trees = list(historic)
    ts = trees[0].typeset
    lowest = min(t.degree_value() for t in trees)
    best = Fraction(0)
    for t in trees:
        if not t.is_planted:
            continue
        e = t.children(0)[0]
        if not ts.is_kernel(t.etype[e]):
            continue
        branch = t.branch(e)
        best = max(best,
                   branch.degree_value()
                   + ts.degree_of(t.etype[e]).at(ts.kappa) + max(ts.scaling),
                   ts.sdeg(t.edeco[e]) - math.floor(lowest))
    return best


def check_kernel_orders(historic: Iterable[DecoratedTree],
                        kernel_assignment: Mapping[str, DyadicKernel]) -> None:
    """ValueError unless every kernel order exceeds the sector order: the
    recursion would otherwise consult derivative levels the kernel does not
    control."""
    ord_w = sector_order(historic)
    for name, K in kernel_assignment.items():
        if Fraction(K.order) <= ord_w:
            raise ValueError(
                f"kernel order {K.order} for type {name!r} does not exceed "
                f"the sector order {ord_w}")


# ---------------------------------------------------------------------------
# the model


@dataclass
class ModelInstance:
    """A realisation of a historic sector on the grid.

    Per-tree evaluators are produced lazily and cached: ``pi_times`` is the
    multiplicative (un-twisted) half of the recursion, ``pi`` its composition
    with the preparation map, ``g`` the recentering character at a base point
    and ``gamma`` the recentering map between two base points.  Passing
    ``x=None`` to ``pi_times``/``pi`` gives the un-recentred model, which
    ``value`` evaluates at the origin.

    A field is realised once per base point it depends on.  A tree is
    anchored when it carries a node decoration, or a kernel edge below which
    a Taylor jet is subtracted, or a branch whose prepared realisation is
    anchored; a prepared tree is anchored when a term of its preparation is.
    Any other tree has the same realisation at every base point and at
    ``x=None``, and is realised once, under the key ``None``.  Per base
    point the model keeps each tree's field, each planted factor's field
    (its convolution minus its jet), and each jet value (D^m K * Pi_x br)(x)
    per (kernel, m, branch), which ``g(x)`` reads too.  A stencil sum runs
    once per (edge type, edge decoration, bits of its input).  The
    characters and maps the model keeps reach it through a weak reference:
    with no reference cycle, it is freed with its last reference.

    ``noise`` maps each noise type to a GridField, or to an array whose last
    two axes are the grid or an origin window of it (see ``_axis_cells``)
    and whose leading axis, if any, runs over samples.  The x=None recursion
    (``value``) works on either; base points and the GridField views need
    one sample on the whole grid.
    """

    historic: HistoricSet
    kernels: Mapping[str, KernelOnGrid]
    noise: Mapping[str, GridField | np.ndarray]
    prep: PreparationMap
    base_points: tuple[tuple[float, float], ...]
    grid: Grid
    _pi: dict = field(default_factory=dict, repr=False)
    _pit: dict = field(default_factory=dict, repr=False)
    _conv: dict = field(default_factory=dict, repr=False)
    _anchor: dict = field(default_factory=dict, repr=False)
    _jets: dict = field(default_factory=dict, repr=False)
    _g: dict = field(default_factory=dict, repr=False)
    _gamma: dict = field(default_factory=dict, repr=False)
    _noise_deriv: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the cells the noise covers: their shape (with any sample axis),
        # plain coordinates and the origin's place among them
        self._shape = np.shape(_vals(next(iter(self.noise.values()))))
        cells = [_axis_cells(length, n) for length, n
                 in zip(self._shape[-2:], self.grid.shape)]
        self._axes = tuple(idx * h for (idx, _c), h
                           in zip(cells, self.grid.spacing))
        self._origin = tuple(c for _idx, c in cells)

    @property
    def basis(self) -> tuple[DecoratedTree, ...]:
        return tuple(self.historic.trees)

    # -- evaluators ----------------------------------------------------------

    def pi_times(self, tree: DecoratedTree, x) -> GridField:
        return GridField(self.grid, self._times(tree, x))

    def pi(self, tree: DecoratedTree, x) -> GridField:
        return GridField(self.grid, self._prepared(tree, x))

    def value(self, tree: DecoratedTree):
        """The un-recentred model of a tree at the origin, one value per
        sample.  The root factors are reduced to stencil sums there; fields
        are only built below them."""
        root_nd, factors = tree.factor()
        if any(root_nd):
            return 0.0
        at = (..., *self._origin)
        total = 1.0
        for et, ed, _od, br in factors:
            if et in tree.typeset.noise_types:
                total = total * self._noise_field(et, ed)[at]
                if not br.is_unit:
                    total = total * self._times(br, None)[at]
            else:
                total = total * self.kernels[et].value_at(
                    self._prepared(br, None), ed, self._origin)
        return total

    def _key(self, tree: DecoratedTree, x, prepared: bool):
        """Cache key of a tree's (prepared) realisation at a base point:
        ``None`` unless it depends on the base point."""
        if x is None or not self._anchored(tree, prepared):
            return None
        return tuple(x)

    def _anchored(self, tree: DecoratedTree, prepared: bool) -> bool:
        """Whether the (prepared) realisation of the tree depends on the
        base point; see the class docstring."""
        key = (tree, prepared)
        out = self._anchor.get(key)
        if out is None:
            if prepared:
                out = any(self._anchored(s, False)
                          for s, _c in self.prep(tree).items())
            else:
                ts = tree.typeset
                out = any(map(any, tree.ndeco)) or any(
                    (et in ts.kernel_types and _jet_indices(et, ed, br))
                    or self._anchored(br, True)
                    for et, ed, _od, br in tree.factor()[1])
            self._anchor[key] = out
        return out

    def _times(self, tree: DecoratedTree, x) -> np.ndarray:
        key = (tree, self._key(tree, x, False))
        out = self._pit.get(key)
        if out is None:
            root_nd, factors = tree.factor()
            if tree.is_planted:
                out = self._planted(*factors[0], x)
            else:
                # a product starts from its first factor, each kept as a
                # planted tree: multiplying by X^0 (ones) would only copy it
                if any(root_nd) or not factors:
                    base = (0.0, 0.0) if x is None else x
                    out = _monomial(self._axes, base, root_nd)
                for p in tree.planted_factors:
                    f = self._times(p, x)
                    out = f if out is None else out * f
            self._pit[key] = out
        return out

    def _prepared(self, tree: DecoratedTree, x) -> np.ndarray:
        key = (tree, self._key(tree, x, True))
        out = self._pi.get(key)
        if out is None:
            terms = list(self.prep(tree).items())
            if terms == [(tree, 1)]:
                # a tree the preparation leaves alone shares its un-twisted
                # field, which the sum below would copy bit for bit unless it
                # holds a negative zero (0.0 + -0.0 is 0.0) or lacks the
                # sample axis
                out = self._times(tree, x)
                if out.shape != self._shape or np.signbit(out[out == 0]).any():
                    out = None
            if out is None:
                out = np.zeros(self._shape)
                for s, c in terms:
                    out += float(c) * self._times(s, x)
            self._pi[key] = out
        return out

    def _noise_field(self, ntype: str, ed: MultiIndex) -> np.ndarray:
        key = (ntype, ed)
        if key not in self._noise_deriv:
            self._noise_deriv[key] = _derivative(_vals(self.noise[ntype]), ed,
                                                 self.grid.spacing)
        return self._noise_deriv[key]

    def _planted(self, et, ed, od, br, x) -> np.ndarray:
        if od is not None:
            raise ValueError("over-decorated trees have no realisation")
        if et in br.typeset.noise_types:
            # a noise edge does not integrate, so whatever hangs below it
            # (node decorations, in practice) multiplies at the same point
            out = self._noise_field(et, ed)
            if not br.is_unit:
                out = out * self._prepared(br, x)
            return out
        f = self._prepared(br, x)
        key = (et, ed, f.shape, blake2b(np.ascontiguousarray(f)).digest())
        out = self._conv.get(key)
        if out is None:
            out = self._conv[key] = self.kernels[et].convolve(f, ed)
        if x is None:
            return out
        for j, cj in self._jet(et, ed, br, x):
            out = out - cj * _monomial(self._axes, x, j)
        return out

    def _jet(self, et, ed, br, x) -> list[tuple[MultiIndex, float]]:
        """Taylor coefficients (j, (D^{ed+j} K * Pi_x br)(x) / j!) at the
        base point x of the tree planted on br by a kernel edge (et, ed), for
        |j|_s below that tree's degree.  Each value (D^m K * Pi_x br)(x) is
        kept per (et, m, br, x), whichever (ed, j) with ed + j = m asks."""
        out = []
        for j in _jet_indices(et, ed, br):
            m = mi_add(ed, j)
            key = (et, m, br, tuple(x))
            if key not in self._jets:
                self._jets[key] = self.kernels[et].value_at(
                    self._prepared(br, x), m, self.grid.index_of(x))
            out.append((j, self._jets[key] / mi_factorial(j)))
        return out

    # -- recentering ---------------------------------------------------------

    def g(self, x) -> Character:
        """Recentering character at a base point; the character memoises
        its values on generators.  It reads the model's jets through a weak
        proxy, so it raises ReferenceError once the model is gone."""
        x = tuple(x)
        if x not in self._g:
            model = weakref.proxy(self)

            def on_planted(tree: DecoratedTree) -> float:
                et, ed, _od, br = tree.factor()[1][0]
                if et not in tree.typeset.kernel_types:
                    return 0.0
                total = 0.0
                for j, cj in model._jet(et, ed, br, x):
                    total += cj * (-x[0]) ** j[0] * (-x[1]) ** j[1]
                return -total

            self._g[x] = Character(on_planted, (-x[0], -x[1]))
        return self._g[x]

    def gamma(self, x, y) -> Callable[[DecoratedTree], FormalSum]:
        """Recentering map between base points, as a tree -> formal sum map,
        kept per pair with its character's memo."""
        key = (tuple(x), tuple(y))
        if key not in self._gamma:
            self._gamma[key] = gamma_action(
                convolve(character_inverse(self.g(x)), self.g(y)))
        return self._gamma[key]


def _jet_indices(et, ed, br) -> list[MultiIndex]:
    """The j with |j|_s below the degree of the tree planted on br by the
    kernel edge (et, ed): the Taylor jet its realisation subtracts."""
    ts = br.typeset
    bound = br.degree_value() + ts.degree_of(et).at(ts.kappa) - ts.sdeg(ed)
    return mi_below(ts.scaling, bound)


def build_model(historic: HistoricSet, kernel_assignment: Mapping[str, DyadicKernel],
                noise: Mapping[str, GridField], prep: PreparationMap
                ) -> ModelInstance:
    """Realise a historic sector on the grid of the supplied noise fields,
    with base points at the origin and a quarter and half way along the
    grid's diagonal.

    The tree set must be historic and the kernel orders must exceed its
    sector order (``check_kernel_orders``): both are checked up front.
    """
    if not isinstance(historic, HistoricSet) or not historic.is_closed():
        raise ValueError("the tree set is not a historic closure")
    check_kernel_orders(historic, kernel_assignment)
    grids = {f.grid.shape + f.grid.spacing for f in noise.values()}
    if len(grids) != 1:
        raise ValueError("noise fields live on different grids")
    grid = next(iter(noise.values())).grid
    nt, nx = grid.shape
    dt, dx = grid.spacing
    base_points = ((0.0, 0.0), (nt // 4 * dt, nx // 4 * dx),
                   (nt // 2 * dt, nx // 2 * dx))
    return ModelInstance(historic, _kernels_on_grid(kernel_assignment, grid),
                         dict(noise), prep, base_points, grid)


# ---------------------------------------------------------------------------
# diagnostics


def check_chain(model: ModelInstance) -> dict:
    """Largest normalised defect of the recentering identity: realising a
    tree at one base point through the recentering map must reproduce its
    realisation at the other.  The terms of c * Pi_x(s) - Pi_y(tree) add up
    in one buffer; a base-point-free tree that Gamma_xy fixes has defect 0."""
    worst = 0.0
    per_tree: dict = {}
    scale: dict = {}
    buf, tmp = np.empty(model.grid.shape), np.empty(model.grid.shape)
    for x in model.base_points:
        for y in model.base_points:
            if x == y:
                continue
            act = model.gamma(x, y)
            for tree in model.basis:
                terms, defect = act(tree), 0.0
                if model._anchored(tree, True) \
                        or terms != FormalSum.single(tree):
                    target = model._prepared(tree, y)
                    if (tree, y) not in scale:
                        scale[tree, y] = max(float(np.max(np.abs(target))), 1.0)
                    buf.fill(0.0)
                    for s, c in terms.items():
                        buf += np.multiply(float(c), model._prepared(s, x),
                                           out=tmp)
                    buf -= target
                    defect = float(np.max(np.abs(buf, out=buf))) \
                        / scale[tree, y]
                worst = max(worst, defect)
                per_tree[tree] = max(per_tree.get(tree, 0.0), defect)
    return {"max_defect": worst, "per_tree": per_tree,
            "base_points": model.base_points}


def _bump_bank(scaling):
    """A few fixed test profiles sampled on the scaled unit ball; the same
    stencil is reused at every scale so monomial pairings scale exactly."""
    cutoff = CutoffFamily(tuple(scaling))
    t = np.linspace(-1.0, 1.0, 13)
    x = np.linspace(-1.0, 1.0, 25)
    pts = np.stack(np.meshgrid(t, x, indexing="ij"), axis=-1).reshape(-1, 2)
    du = (t[1] - t[0]) * (x[1] - x[0])
    chi = cutoff.chi(pts)
    weights = [chi * du, chi * pts[:, 1] * du, chi * pts[:, 0] * du]
    return pts, weights


def recentering_exponent(model: ModelInstance, tree: DecoratedTree, x, *,
                         lambdas: Sequence[float] = (0.5, 0.25, 0.125, 0.0625),
                         ) -> tuple[float, float]:
    """Log-log fit of the pairings of a realised tree against recentred bumps
    across dyadic scales; returns (slope, fit residual).

    Scales whose parabolic extent falls below the grid spacing are refused
    rather than silently extrapolated."""
    scaling = model.grid.scaling
    for lam in lambdas:
        for s, h in zip(scaling, model.grid.spacing):
            if lam ** s < h:
                raise ValueError(
                    f"scale {lam} is below the grid resolution {h}")
    f = model.pi(tree, x)
    pts, weights = _bump_bank(scaling)
    vals = []
    for lam in lambdas:
        shifted = np.asarray(x) + dilate(pts, lam, scaling)
        samples = f.sample_at(shifted)
        vals.append(max(abs(float(np.dot(w, samples))) for w in weights))
    logs = np.log(np.asarray(vals))
    ll = np.log(np.asarray(lambdas))
    slope, intercept = np.polyfit(ll, logs, 1)
    residual = float(np.max(np.abs(logs - (slope * ll + intercept))))
    return float(slope), residual


def model_difference(a: ModelInstance, b: ModelInstance) -> float:
    """Largest normalised pointwise difference of the two realisations over
    the shared sector and base points (for mollifier comparisons)."""
    worst = 0.0
    for tree in a.basis:
        for x in a.base_points:
            fa, fb = a.pi(tree, x), b.pi(tree, x)
            worst = max(worst, (fa - fb).sup() / max(fa.sup(), 1.0))
    return worst


# ---------------------------------------------------------------------------
# expectation oracle


# bytes of origin windows kept per sampler, and cells per noise array of a
# sample block (about 1 MB)
_WINDOW_CACHE_BYTES = 64 << 20
_BLOCK_CELLS = 1 << 17

# per-sampler draws and per-kernel grid realisations, freed with their key
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ON_GRID: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernels_on_grid(kernel_assignment: Mapping[str, DyadicKernel],
                     grid: Grid) -> dict[str, KernelOnGrid]:
    """One KernelOnGrid per (kernel, grid), shared by every model."""
    out = {}
    for name, K in kernel_assignment.items():
        per_grid = _ON_GRID.setdefault(K, {})
        if grid not in per_grid:
            per_grid[grid] = KernelOnGrid(K, grid)
        out[name] = per_grid[grid]
    return out


class _Draws:
    """The origin windows of one sampler's draws, by sample index.

    A window is cut from the full draw after its mollification, so its bits
    are those of the full field.  Windows are kept for a prefix of indices
    while they fit in ``_WINDOW_CACHE_BYTES``; the rest are drawn again on
    every call.  The sampler is only ever called as ``sampler(i)``.
    """

    def __init__(self, sampler: Callable):
        self._full = sampler(0)  # the grid is only known from a draw
        self.grid = next(iter(self._full.values())).grid
        self.half = (-1, -1)
        self.windows: list[dict[str, np.ndarray]] = []

    def cover(self, half: tuple[int, int]) -> None:
        """Make the windows reach ``half`` cells from the origin per axis
        (the whole axis once that reaches half the grid)."""
        if all(h <= have for h, have in zip(half, self.half)):
            return
        self.half = tuple(map(max, half, self.half))
        self.windows.clear()
        self.cells = [_axis_cells(min(2 * h + 1, n), n)[0]
                       for h, n in zip(self.half, self.grid.shape)]

    def block(self, sampler: Callable, start: int, stop: int
              ) -> dict[str, np.ndarray]:
        """Windows of samples start..stop-1, stacked along a sample axis."""
        rows = [self._window(sampler, i) for i in range(start, stop)]
        return {ntype: np.stack([w[ntype] for w in rows]) for ntype in rows[0]}

    def _window(self, sampler: Callable, i: int) -> dict[str, np.ndarray]:
        if i < len(self.windows):
            return self.windows[i]
        full = self._full if i == 0 and self._full else sampler(i)
        self._full = None
        cut = np.ix_(*self.cells)
        window = {ntype: f.values[cut] for ntype, f in full.items()}
        size = sum(w.nbytes for w in window.values())
        if i == len(self.windows) and (i + 1) * size <= _WINDOW_CACHE_BYTES:
            self.windows.append(window)
        return window


def _origin_reach(kernels: Mapping[str, KernelOnGrid], prep: PreparationMap,
                  trees: Iterable[DecoratedTree]) -> tuple[int, int]:
    """Largest offset from the origin, in cells per axis, of the noise that
    ``ModelInstance.value`` reads for any of the trees: stencil reaches add
    up along nested kernel edges, and each noise derivative reads one cell
    further along its axis.  A prepared tree is bounded by itself and by
    every term of its preparation."""
    memo: dict = {}
    return _widest([_times_reach(t, kernels, prep, memo) for t in trees])


def _times_reach(tree: DecoratedTree, kernels: Mapping[str, KernelOnGrid],
                 prep: PreparationMap, memo: dict) -> tuple[int, int]:
    """``_origin_reach`` of one tree read as a product of planted factors;
    ``memo`` holds the reach of each prepared branch."""
    reach = []
    for et, ed, _od, br in tree.factor()[1]:
        if br.is_unit:
            below = (0, 0)
        else:
            if br not in memo:
                memo[br] = _widest(
                    [_times_reach(br, kernels, prep, memo)]
                    + [_times_reach(s, kernels, prep, memo)
                       for s, _c in prep(br).items()])
            below = memo[br]
        if et in tree.typeset.noise_types:
            reach += [ed, below]
        else:
            step = kernels[et].reach(ed)
            reach.append((step[0] + below[0], step[1] + below[1]))
    return _widest(reach)


def _widest(reaches) -> tuple[int, int]:
    return tuple(max((r[a] for r in reaches), default=0) for a in (0, 1))


def _draws(sampler: Callable) -> _Draws:
    try:
        draws = _DRAWS.get(sampler)
    except TypeError:  # not weakly referenceable: nothing is kept
        return _Draws(sampler)
    if draws is None:
        draws = _DRAWS[sampler] = _Draws(sampler)
    return draws


def expectation_oracle(historic: HistoricSet,
                       kernel_assignment: Mapping[str, DyadicKernel],
                       noise_sampler: Callable, prep: PreparationMap,
                       tree, samples: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error at the origin of the un-recentred
    multiplicative model of a tree (or a formal combination of trees).
    The standard error needs at least two samples.

    Each sample index is drawn once per sampler: the model is evaluated on
    the origin's window of the draws (wide enough for every tree of the
    sector and of the combination under ``prep``), one block of samples at
    a time, with the bits of the full-grid evaluation."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    check_kernel_orders(historic, kernel_assignment)
    combo = tree if isinstance(tree, FormalSum) else FormalSum.single(tree)
    draws = _draws(noise_sampler)
    grid = draws.grid
    kernels = _kernels_on_grid(kernel_assignment, grid)
    draws.cover(_origin_reach(kernels, prep, list(historic)
                              + [s for s, _c in combo.items()]))
    cells = math.prod(len(c) for c in draws.cells)
    step = max(1, _BLOCK_CELLS // cells)
    vals = np.empty(samples)
    for start in range(0, samples, step):
        stop = min(samples, start + step)
        noise = draws.block(noise_sampler, start, stop)
        model = ModelInstance(historic, kernels, noise, prep, (), grid)
        total = 0.0
        for s, c in combo.items():
            total = total + float(c) * model.value(s)
        vals[start:stop] = total
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return mean, stderr
