"""Grid-scale canonical and renormalised models on a historic tree sector.

Everything lives on a periodic space-time grid whose time step equals the
square of the space step, so that dyadic scales mean the same thing in both
directions.  A model assigns to every tree of a historic set and every base
point of a coarse lattice a grid field, built by the usual recursion:
noises and monomials are given, products are pointwise, planted trees are
kernel convolutions minus the Taylor jet at the base point, and the whole
thing is twisted by a preparation map at every step.  The recentering maps
come from characters evaluated on planted generators, stored lazily.

Convolutions are direct summations of the sampled dyadic kernel components
against the grid quadrature; no transform is used for them.  (The noise
sampler does use an FFT, but only to mollify white noise.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .hopf import Character, character_inverse, convolve, gamma_action
from .kernels import CutoffFamily, DyadicKernel, dilate, dyadic_decompose
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

    def coords(self) -> np.ndarray:
        t, x = self.axes()
        return np.stack(np.meshgrid(t, x, indexing="ij"), axis=-1)

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
        v = self.values
        for axis, (m, h) in enumerate(zip(k, self.spacing)):
            for _ in range(m):
                v = (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)
        return self._wrap(v)

    @property
    def spacing(self):
        return self.grid.spacing

    def sample_at(self, points: np.ndarray) -> np.ndarray:
        """Periodic bilinear interpolation at arbitrary points (..., 2)."""
        from scipy.ndimage import map_coordinates
        pts = np.asarray(points, dtype=float)
        coords = [pts[..., i] / self.grid.spacing[i] for i in range(2)]
        return map_coordinates(self.values, coords, order=1, mode="grid-wrap")


def _vals(other):
    return other.values if isinstance(other, GridField) else other


def monomial_field(grid: Grid, base, k: MultiIndex) -> GridField:
    """(z - base)^k on the grid, with plain (unwrapped) coordinates."""
    if not any(k):
        return GridField(grid, np.ones(grid.shape))
    t, x = grid.axes()
    tv = (t - base[0]) ** k[0]
    xv = (x - base[1]) ** k[1]
    return GridField(grid, np.outer(tv, xv))


# ---------------------------------------------------------------------------
# kernels on the grid


class KernelOnGrid:
    """A translation-invariant kernel sampled at grid offsets.

    Derivative kernels are produced by iterated central differences of the
    sampled window, so that every derivative label is realised by a fixed
    linear convolution operator; the recursion below only ever combines the
    labels additively, which keeps its algebraic identities exact on the grid.
    """

    def __init__(self, kernel: DyadicKernel, grid: Grid, *, margin: int = 6):
        self.kernel = kernel
        self.grid = grid
        self.order = kernel.order
        self.beta = kernel.beta
        dt, dx = grid.spacing
        r = kernel.support_radius(0)
        it = min(int(math.ceil(r * r / dt)), grid.shape[0] // 2 - 1)
        ix = min(int(math.ceil(r / dx)), grid.shape[1] // 2 - 1)
        self._half = (it + margin, ix + margin)
        ti = np.arange(-self._half[0], self._half[0] + 1) * dt
        xi = np.arange(-self._half[1], self._half[1] + 1) * dx
        pts = np.stack(np.meshgrid(ti, xi, indexing="ij"), axis=-1)
        window = kernel(pts)
        if kernel.remainder is not None:
            window = window + kernel.remainder(pts)
        self._windows: dict[MultiIndex, np.ndarray] = {(0, 0): window}
        self._stencils: dict[MultiIndex, tuple] = {}

    def _window(self, m: MultiIndex) -> np.ndarray:
        if m not in self._windows:
            down = (m[0] - 1, m[1]) if m[0] else (m[0], m[1] - 1)
            axis = 0 if m[0] else 1
            h = self.grid.spacing[axis]
            w = self._window(down)
            self._windows[m] = (np.roll(w, -1, axis) - np.roll(w, 1, axis)) \
                / (2.0 * h)
        return self._windows[m]

    def stencil(self, m: MultiIndex = (0, 0)):
        """Nonzero offsets (in cells) and values of the derivative window."""
        if m not in self._stencils:
            w = self._window(m)
            ti, xi = np.nonzero(w)
            self._stencils[m] = (ti - self._half[0], xi - self._half[1],
                                 w[ti, xi])
        return self._stencils[m]

    def convolve(self, f: GridField, m: MultiIndex = (0, 0)) -> GridField:
        """(D^m K * f) on the whole grid, by direct summation of the sampled
        offsets against the grid quadrature."""
        ti, xi, vals = self.stencil(m)
        out = np.zeros(self.grid.shape)
        for i, j, v in zip(ti, xi, vals):
            out += v * np.roll(np.roll(f.values, i, 0), j, 1)
        return GridField(self.grid, out * self.grid.cell_volume)

    def value_at(self, f: GridField, m: MultiIndex, idx: tuple[int, int]) -> float:
        """(D^m K * f)(z) at a single grid point."""
        ti, xi, vals = self.stencil(m)
        nt, nx = self.grid.shape
        samples = f.values[(idx[0] - ti) % nt, (idx[1] - xi) % nx]
        return float(np.dot(vals, samples)) * self.grid.cell_volume


def bump_kernel(*, radius: float = 0.25, levels: int = 4,
                beta=Fraction(2), order: int = 8) -> DyadicKernel:
    """A smooth compactly supported kernel split into dyadic components.

    The profile is the radial cutoff bump squeezed into the parabolic ball of
    the given radius, so the far-field remainder vanishes identically.
    """
    cutoff = CutoffFamily((2, 1))
    lam = 1.0 / radius

    def profile(z):
        return cutoff.chi(dilate(z, lam, (2, 1)))

    return dyadic_decompose(profile, cutoff, levels, beta=beta, order=order)


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
        rng = np.random.default_rng([seed, i])
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


# ---------------------------------------------------------------------------
# the model


@dataclass
class ModelInstance:
    """A realisation of a historic sector on the grid.

    Per-tree evaluators are produced lazily and cached: ``pi_times`` is the
    multiplicative (un-twisted) half of the recursion, ``pi`` its composition
    with the preparation map, ``g`` the recentering character at a base point
    and ``gamma`` the recentering map between two base points.
    """

    historic: HistoricSet
    kernels: Mapping[str, KernelOnGrid]
    noise: Mapping[str, GridField]
    prep: PreparationMap
    base_points: tuple[tuple[float, float], ...]
    grid: Grid
    _pi: dict = field(default_factory=dict, repr=False)
    _pit: dict = field(default_factory=dict, repr=False)
    _g: dict = field(default_factory=dict, repr=False)
    _noise_deriv: dict = field(default_factory=dict, repr=False)

    @property
    def basis(self) -> tuple[DecoratedTree, ...]:
        return tuple(self.historic.trees)

    # -- evaluators ----------------------------------------------------------

    def pi_times(self, tree: DecoratedTree, x) -> GridField:
        key = (tree, tuple(x))
        if key not in self._pit:
            root_nd, factors = tree.factor()
            vals = monomial_field(self.grid, x, root_nd).values
            for et, ed, od, br in factors:
                if od is not None:
                    raise ValueError("over-decorated trees have no realisation")
                vals = vals * self._planted(et, ed, br, x).values
            self._pit[key] = GridField(self.grid, vals)
        return self._pit[key]

    def pi(self, tree: DecoratedTree, x) -> GridField:
        key = (tree, tuple(x))
        if key not in self._pi:
            out = np.zeros(self.grid.shape)
            for s, c in self.prep(tree).items():
                out += float(c) * self.pi_times(s, x).values
            self._pi[key] = GridField(self.grid, out)
        return self._pi[key]

    def pi_sum(self, combo: FormalSum, x) -> GridField:
        out = np.zeros(self.grid.shape)
        for s, c in combo.items():
            out += float(c) * self.pi(s, x).values
        return GridField(self.grid, out)

    def _noise_field(self, ntype: str, ed: MultiIndex) -> GridField:
        key = (ntype, ed)
        if key not in self._noise_deriv:
            self._noise_deriv[key] = self.noise[ntype].derivative(ed)
        return self._noise_deriv[key]

    def _planted(self, et, ed, br, x) -> GridField:
        ts = br.typeset
        if et in ts.noise_types:
            # a noise edge does not integrate, so whatever hangs below it
            # (node decorations, in practice) multiplies at the same point
            field = self._noise_field(et, ed)
            if not br.is_unit:
                field = field * self.pi(br, x)
            return field
        K = self.kernels[et]
        f = self.pi(br, x)
        out = K.convolve(f, ed)
        bound = (br.degree_value() + ts.degree_of(et).at(ts.kappa)
                 - ts.sdeg(ed))
        idx = self.grid.index_of(x)
        for j in mi_below(ts.scaling, bound):
            cj = K.value_at(f, mi_add(ed, j), idx) / mi_factorial(j)
            out = out - cj * monomial_field(self.grid, x, j)
        return out

    # -- recentering ---------------------------------------------------------

    def g(self, x) -> Character:
        """Recentering character at a base point, stored on generators."""
        x = tuple(x)
        if x not in self._g:
            cache: dict[DecoratedTree, float] = {}
            idx = self.grid.index_of(x)

            def on_planted(tree: DecoratedTree) -> float:
                if tree in cache:
                    return cache[tree]
                ts = tree.typeset
                e = tree.children(0)[0]
                et = tree.etype[e]
                if et not in ts.kernel_types:
                    return 0.0
                K = self.kernels[et]
                br, ed = tree.branch(e), tree.edeco[e]
                f = self.pi(br, x)
                total = 0.0
                for j in mi_below(ts.scaling, tree.degree_value()):
                    cj = K.value_at(f, mi_add(ed, j), idx) / mi_factorial(j)
                    total += cj * (-x[0]) ** j[0] * (-x[1]) ** j[1]
                cache[tree] = -total
                return cache[tree]

            self._g[x] = Character(on_planted, (-x[0], -x[1]))
        return self._g[x]

    def gamma(self, x, y) -> Callable[[DecoratedTree], FormalSum]:
        """Recentering map between base points, as a tree -> formal sum map."""
        return gamma_action(convolve(character_inverse(self.g(x)), self.g(y)))


def build_model(historic: HistoricSet, kernel_assignment: Mapping[str, DyadicKernel],
                noise: Mapping[str, GridField], prep: PreparationMap, *,
                base_points: Sequence | None = None) -> ModelInstance:
    """Realise a historic sector on the grid of the supplied noise fields.

    The kernel order must exceed the sector order (the recursion would
    otherwise consult derivative levels the kernel does not control) and the
    tree set must actually be historic: both are checked up front.
    """
    if not isinstance(historic, HistoricSet) or not historic.is_closed():
        raise ValueError("the tree set is not a historic closure")
    ord_w = sector_order(historic)
    for name, K in kernel_assignment.items():
        if Fraction(K.order) <= ord_w:
            raise ValueError(
                f"kernel order {K.order} for type {name!r} does not exceed "
                f"the sector order {ord_w}")
    grids = {f.grid.shape + f.grid.spacing for f in noise.values()}
    if len(grids) != 1:
        raise ValueError("noise fields live on different grids")
    grid = next(iter(noise.values())).grid
    if base_points is None:
        nt, nx = grid.shape
        dt, dx = grid.spacing
        base_points = [(0.0, 0.0),
                       (nt // 4 * dt, nx // 4 * dx),
                       (nt // 2 * dt, nx // 2 * dx)]
    kernels = {name: KernelOnGrid(K, grid)
               for name, K in kernel_assignment.items()}
    return ModelInstance(historic, kernels, dict(noise), prep,
                         tuple(tuple(p) for p in base_points), grid)


# ---------------------------------------------------------------------------
# diagnostics


def check_chain(model: ModelInstance) -> dict:
    """Largest normalised defect of the recentering identity: realising a
    tree at one base point through the recentering map must reproduce its
    realisation at the other."""
    worst = 0.0
    per_tree: dict = {}
    for x in model.base_points:
        for y in model.base_points:
            if x == y:
                continue
            act = model.gamma(x, y)
            for tree in model.basis:
                target = model.pi(tree, y)
                moved = model.pi_sum(act(tree), x)
                scale = max(target.sup(), 1.0)
                defect = (moved - target).sup() / scale
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


class _OriginEvaluator:
    """Evaluates the un-recentred multiplicative model at the origin for one
    noise realisation.  Full-grid fields are only materialised below kernel
    edges; factors at the root are reduced to stencil sums."""

    def __init__(self, kernels, noise_fields, prep):
        self.kernels = kernels
        self.noise = noise_fields
        self.prep = prep
        self._fields: dict[DecoratedTree, GridField] = {}
        self._derivs: dict = {}

    def _noise_field(self, et, ed):
        key = (et, ed)
        if key not in self._derivs:
            self._derivs[key] = self.noise[et].derivative(ed)
        return self._derivs[key]

    def twisted_field(self, tree) -> GridField:
        grid = next(iter(self.noise.values())).grid
        out = np.zeros(grid.shape)
        for s, c in self.prep(tree).items():
            out += float(c) * self.field(s).values
        return GridField(grid, out)

    def field(self, tree) -> GridField:
        if tree not in self._fields:
            grid = next(iter(self.noise.values())).grid
            root_nd, factors = tree.factor()
            vals = monomial_field(grid, (0.0, 0.0), root_nd).values
            for et, ed, _od, br in factors:
                if et in tree.typeset.noise_types:
                    vals = vals * self._noise_field(et, ed).values
                    if not br.is_unit:
                        vals = vals * self.field(br).values
                else:
                    vals = vals * self.kernels[et].convolve(
                        self.twisted_field(br), ed).values
            self._fields[tree] = GridField(grid, vals)
        return self._fields[tree]

    def value(self, tree) -> float:
        root_nd, factors = tree.factor()
        if any(root_nd):
            return 0.0
        total = 1.0
        for et, ed, _od, br in factors:
            if et in tree.typeset.noise_types:
                total *= self._noise_field(et, ed).at((0, 0))
                if not br.is_unit:
                    total *= self.field(br).at((0, 0))
            else:
                total *= self.kernels[et].value_at(
                    self.twisted_field(br), ed, (0, 0))
        return total


def expectation_oracle(historic: HistoricSet,
                       kernel_assignment: Mapping[str, DyadicKernel],
                       noise_sampler: Callable, prep: PreparationMap,
                       tree, samples: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error at the origin of the un-recentred
    multiplicative model of a tree (or a formal combination of trees).
    The standard error needs at least two samples."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    first = noise_sampler(0)
    grid = next(iter(first.values())).grid
    kernels = {name: KernelOnGrid(K, grid)
               for name, K in kernel_assignment.items()}
    combo = tree if isinstance(tree, FormalSum) else FormalSum.single(tree)
    vals = np.empty(samples)
    for i in range(samples):
        fields = first if i == 0 else noise_sampler(i)
        ev = _OriginEvaluator(kernels, fields, prep)
        vals[i] = sum(float(c) * ev.value(s) for s, c in combo.items())
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return mean, stderr
