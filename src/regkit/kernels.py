"""Translation-invariant regularising kernels and anisotropic calculus.

Provides the smooth cutoff family used to chop a singular kernel into dyadic
pieces, the graded norms measuring how fast those pieces regularise, Hölder
norm estimation on grids, and an anisotropic Taylor formula whose
remainder is a sum of one-dimensional Gauss–Jacobi increments; its slot
builder, ``_taylor_slots``, also serves the heat-kernel Taylor splits.

Points live in ℝ^d with an integer scaling s; the scaled distance is
|z|_s = Σ_i |z_i|^{1/s_i} and dilation by λ acts as z_i ↦ λ^{s_i} z_i.
Multi-index sets, k! and |k|_s come from the helpers in ``trees``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .trees import mi_below, mi_factorial, mi_sdeg

__all__ = [
    "snorm",
    "dilate",
    "CutoffFamily",
    "DyadicKernel",
    "dyadic_decompose",
    "NormReport",
    "kernel_norm",
    "holder_norm_estimate",
    "is_lower_set",
    "lower_boundary",
    "aniso_taylor",
]


def snorm(z, scaling: Sequence[int]):
    """Scaled norm |z|_s = Σ |z_i|^{1/s_i} (vectorised over leading axes)."""
    z = np.asarray(z, dtype=float)
    return sum(np.abs(z[..., i]) ** (1.0 / s) for i, s in enumerate(scaling))

def dilate(z, lam: float, scaling: Sequence[int]):
    z = np.asarray(z, dtype=float)
    return z * np.array([float(lam) ** s for s in scaling])


def _smoothstep(t):
    """C^∞ step: 0 for t ≤ 0, 1 for t ≥ 1, exp(-1/t)-based in between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.clip(t, 1e-300, None)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.clip(1 - t, 1e-300, None)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class CutoffFamily:
    """Radial smooth bump χ with 1 on B_s(0,1/2) and 0 off B_s(0,1),
    together with the telescoping annular pieces φ_n built from it."""

    scaling: tuple[int, ...]

    def chi(self, z):
        return _smoothstep(2.0 * (1.0 - snorm(z, self.scaling)))

    def phi(self, z):
        return self.chi(z) - self.chi(dilate(z, 2.0, self.scaling))

    def phi_n(self, z, n: int):
        return self.phi(dilate(z, 2.0 ** n, self.scaling))

    def telescope_defect(self, z, upto: int):
        """(1-χ) + Σ_{n≤N} φ_n − (1 − χ at scale 2^{N+1}); zero exactly."""
        total = 1.0 - self.chi(z)
        for n in range(upto + 1):
            total = total + self.phi_n(z, n)
        return total - (1.0 - self.chi(dilate(z, 2.0 ** (upto + 1),
                                              self.scaling)))


@dataclass(frozen=True)
class DyadicKernel:
    """K = Σ_{n≤N} φ_n·F, stored as the profile F, the cutoff and N only.

    K_n = φ_n·F is supported in B_s(0, 2^{-n}), and K plus the far-field rest
    R = (1−χ)·F reassembles F off B_s(0, 2^{-(N+1)}).  ``beta`` is the
    regularising order and ``order`` the number 𝔬 of controlled derivative
    levels (norms measure |k|_s ≤ 2𝔬, by finite differences).
    """

    profile: Callable
    cutoff: CutoffFamily
    levels: int
    beta: Fraction
    order: int

    def component(self, n: int) -> Callable:
        """The n-th dyadic piece z ↦ φ_n(z)·F(z)."""
        return lambda z: self.cutoff.phi_n(z, n) * self.profile(z)

    def parts(self, z) -> list:
        """[K_0(z), …, K_N(z), R(z)] from one evaluation of the profile."""
        z = np.asarray(z, dtype=float)
        f = self.profile(z)
        return ([self.cutoff.phi_n(z, n) * f for n in range(self.levels + 1)]
                + [(1.0 - self.cutoff.chi(z)) * f])


def dyadic_decompose(F: Callable, cutoff: CutoffFamily, N: int, *,
                     beta: Fraction, order: int = 0) -> DyadicKernel:
    """Split the profile F into N + 1 dyadic components and the far-field
    rest: F = R + Σ_{n≤N} φ_n·F (see DyadicKernel)."""
    if N <= 0:
        raise ValueError("need at least one dyadic level")
    return DyadicKernel(F, cutoff, N, Fraction(beta), order)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormReport:
    value: float
    mode: str
    per_component: tuple[float, ...]
    degraded: bool

    def __float__(self):
        return self.value


def _fd_derivative(f, k, steps):
    """Nested central differences, one axis at a time."""
    def deriv(z, axis_orders=k):
        g = f
        for axis, m in enumerate(axis_orders):
            for _ in range(m):
                g = (lambda zz, gg=g, ax=axis, h=steps[axis]:
                     (gg(_shift(zz, ax, h)) - gg(_shift(zz, ax, -h)))
                     / (2.0 * h))
        return g(z)
    return deriv

def _shift(z, axis, h):
    z = np.array(z, dtype=float, copy=True)
    z[..., axis] += h
    return z

def _sample_box(radius, scaling, per_axis):
    axes = [np.linspace(-radius ** s, radius ** s, per_axis) for s in scaling]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _sup_abs(fn, radius, scaling, per_axis):
    """Supremum of |fn| over B_s(0, radius) by grid search with four
    zooms around the running argmax."""
    centre = np.zeros(len(scaling))
    halves = np.array([float(radius) ** s for s in scaling])
    best = 0.0
    for _ in range(5):
        axes = [np.linspace(c - h, c + h, per_axis)
                for c, h in zip(centre, halves)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.abs(fn(pts))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        centre = pts[i]
        halves = halves * 2.0 / (per_axis - 1) * 2.0
    return best


def kernel_norm(K: DyadicKernel, *, samples_per_axis: int = 17) -> NormReport:
    """sup over components of sup_{|k|_s ≤ 2𝔬} |∂^k K_n| / 2^{(|s|-β+|k|_s)n}.

    Derivatives are centered finite differences with a scale-adapted step,
    so any norm with 𝔬 > 0 is flagged as a degraded estimate rather than
    hidden; with 𝔬 = 0 only the components themselves are sampled.
    """
    scaling = K.cutoff.scaling
    abs_s = sum(scaling)
    beta = float(K.beta)
    # |k|_s ≤ 2𝔬, as the scaling is integer
    kset = mi_below(scaling, 2 * K.order + 1)
    degraded = any(any(k) for k in kset)
    mode = "finite-difference" if degraded else "sampled"
    per = []
    for n in range(K.levels + 1):
        comp = K.component(n)
        r = 2.0 ** (-n)
        steps = [r ** s / 40.0 for s in scaling]
        best = 0.0
        for k in kset:
            dk = _fd_derivative(comp, k, steps) if any(k) else comp
            weight = 2.0 ** ((abs_s - beta + mi_sdeg(k, scaling)) * n)
            best = max(best, _sup_abs(dk, r, scaling, samples_per_axis)
                       / weight)
        per.append(best)
    return NormReport(max(per), mode, tuple(per), degraded)


def holder_norm_estimate(fieldfn: Callable, alpha: float,
                         scaling: Sequence[int], *, per_axis: int = 9,
                         levels: int = 4) -> float:
    """Hölder norm over a lattice of base points in the unit box and dyadic
    scales.

    Negative exponents pair the field against rescaled bumps φ_x^λ and take
    sup of |⟨f, φ_x^λ⟩| / λ^α; positive non-integer exponents use the
    increment form sup |f(y) − jet_x(y)| / |y−x|_s^α with the jet taken by
    centered finite differences.
    """
    if float(alpha) == int(alpha) and alpha >= 0:
        raise ValueError("integer exponents are not Hölder exponents")
    scaling = tuple(int(s) for s in scaling)
    xs = _sample_box(1.0, scaling, per_axis)
    lambdas = [2.0 ** (-j) for j in range(1, levels + 1)]
    best = 0.0
    if alpha < 0:
        cutoff = CutoffFamily(scaling)
        # quadrature grid for one bump, reused for every (x, λ) by rescaling
        base = _sample_box(1.0, scaling, 33)
        vol = np.prod([2.0 * 1.0 ** s / 32 for s in scaling])
        bump_vals = cutoff.chi(base)
        for lam in lambdas:
            # substituting y = x + D_λu absorbs the λ^{-|s|} normalisation
            pts = dilate(base, lam, scaling)
            for x in xs:
                pairing = np.sum(bump_vals * fieldfn(pts + x)) * vol
                best = max(best, abs(pairing) / lam ** alpha)
        return best
    # positive exponent: increment form against the finite-difference jet
    h = 1.0 / max(per_axis - 1, 1)
    jet_orders = mi_below(scaling, alpha)
    fx = fieldfn(xs)
    sup_part = float(np.max(np.abs(fx)))
    for lam in lambdas:
        for axis in range(len(scaling)):
            off = np.zeros(len(scaling))
            off[axis] = lam ** scaling[axis]
            ys = xs + off
            jet = np.zeros(len(xs))
            for k in jet_orders:
                dk = (fx if not any(k)
                      else _fd_derivative(fieldfn, k, [h] * len(scaling))(xs))
                mono = np.prod((ys - xs) ** np.array(k), axis=-1)
                jet = jet + dk * mono / mi_factorial(k)
            inc = np.abs(fieldfn(ys) - jet) / lam ** alpha
            best = max(best, float(np.max(inc)))
    return max(best, sup_part)


# ---------------------------------------------------------------------------
# anisotropic Taylor formula


def is_lower_set(A) -> bool:
    A = set(map(tuple, A))
    return all(tuple(v - (j == i) for j, v in enumerate(k)) in A
               for k in A for i, ki in enumerate(k) if ki)


def _m_of(k) -> int:
    """Index of the first non-vanishing entry of k."""
    return min(i for i, v in enumerate(k) if v)


def _down(k):
    """k with its first non-vanishing entry lowered by one."""
    i = _m_of(k)
    return tuple(v - (j == i) for j, v in enumerate(k))


def lower_boundary(A) -> list[tuple[int, ...]]:
    """Multi-indices just outside a lower set whose decrement lies inside."""
    A = set(map(tuple, A))
    out = set()
    for k in A:
        for i in range(len(k)):
            cand = tuple(v + (j == i) for j, v in enumerate(k))
            if cand not in A and _down(cand) in A:
                out.add(cand)
    return sorted(out)


@lru_cache(maxsize=None)
def _jacobi_01(exponent: int):
    """24 nodes/weights for int_0^1 f(y) n (1-y)^{n-1} dy with n = exponent."""
    from scipy.special import roots_jacobi
    nodes, wts = roots_jacobi(24, exponent - 1, 0)
    return (nodes + 1.0) / 2.0, wts * exponent / 2.0 ** exponent


def _increment(dval, k, kd, w, pt):
    """int delta_k[dval(kd, .)](w + (pt-w) y) Q^{kd}(dy): the increment of
    the kd-th derivative dval(kd, point) along the first non-vanishing
    direction m of k, exact when kd[m] = 0 and by Gauss-Jacobi otherwise."""
    w = np.asarray(w, dtype=float)
    pt = np.asarray(pt, dtype=float)
    m = _m_of(k)
    if kd[m] == 0:
        return dval(kd, _mix(pt, w, m + 1)) - dval(kd, _mix(pt, w, m))
    nodes, wts = _jacobi_01(kd[m])
    lo = _mix(pt, w, m)
    base = dval(kd, lo)
    acc = 0.0
    for node, wq in zip(nodes, wts):
        p = np.array(lo, copy=True)
        p[..., m] = w[..., m] + node * (pt[..., m] - w[..., m])
        acc = acc + wq * (dval(kd, p) - base)
    return acc


def _mix(zbar, w, upto: int):
    """First ``upto`` coordinates from zbar, the rest from w."""
    zbar, w = np.broadcast_arrays(np.asarray(zbar, dtype=float),
                                  np.asarray(w, dtype=float))
    out = np.array(w, copy=True)
    out[..., :upto] = zbar[..., :upto]
    return out


@dataclass(frozen=True)
class _SlotTerm:
    nu: tuple[int, ...]            # exponent of (zbar - w)
    k_label: tuple[int, ...] | None  # boundary index; None = jet term
    value: Callable                # (w, z, zbar) -> array


def _taylor_slots(dval, A, frame) -> list[_SlotTerm]:
    """The expansion of g(zbar) in its base point about w over the lower
    set A, as slot terms:

        g(zbar) = sum_{k in A} (zbar-w)^k d^k g(w) / k!
                + sum_{k in boundary} (zbar-w)^{k_down} inc_k(w, zbar)/k_down!

    with inc_k the Gauss-Jacobi increment of d^{k_down} g and the boundary
    ``lower_boundary(A)``; jets come in the order of A.  ``dval(k, point,
    v)`` is d^k g at a point and profile variable v, and ``frame(z, zbar,
    f)`` turns a profile f(v) into the slot value.  Jets divide by k!
    inside the frame, remainders outside it."""
    slots = [_SlotTerm(k, None, lambda w, z, zbar, k=k: frame(
        z, zbar, lambda v: dval(k, w, v) / mi_factorial(k)))
        for k in A]
    for k in lower_boundary(A):
        kd = _down(k)
        slots.append(_SlotTerm(kd, k, lambda w, z, zbar, k=k, kd=kd: frame(
            z, zbar, lambda v: _increment(lambda j, p: dval(j, p, v),
                                          k, kd, w, zbar)) / mi_factorial(kd)))
    return slots


def aniso_taylor(A, x, derivs: Callable):
    """Split f(x) into the jet over a lower set of multi-indices plus
    increment-form remainders.

    ``derivs(k, point)`` evaluates ∂^k f, so f itself is ``derivs(0, .)``.
    Returns ``(jet_terms, remainder)`` where ``jet_terms[k] = ∂^k f(0) x^k /
    k!`` and ``remainder(x)`` sums, for each boundary index, the
    Gauss-Jacobi increment of the corresponding derivative — so jet_terms
    total plus remainder(x) reproduces f(x).  Both are the slots of
    ``_taylor_slots`` at the base point 0, times powers of x.
    """
    A = sorted(map(tuple, A))
    if not A or not is_lower_set(A):
        raise ValueError("index set must be a non-empty lower set")
    origin = np.zeros(len(A[0]))
    slots = _taylor_slots(lambda k, p, v: derivs(k, p), A,
                          lambda z, zbar, f: f(None))

    def power(pt, k):
        return float(np.prod(np.asarray(pt, dtype=float) ** np.array(k)))

    jet_terms = {s.nu: power(x, s.nu) * s.value(origin, None, x)
                 for s in slots if s.k_label is None}

    def remainder(pt):
        return sum(power(pt, s.nu) * s.value(origin, None, pt)
                   for s in slots if s.k_label is not None)

    return jet_terms, remainder
