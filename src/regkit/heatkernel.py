"""Variable-coefficient heat kernels in one space dimension.

Implements the frozen-coefficient Gaussian, the one-step error kernel, a
"heat calculus" of kernels with prescribed short-time order, convolution
within that calculus by Gauss-Jacobi x Gauss-Legendre quadrature, the
parametrix (Volterra) series, Taylor decompositions of the series' building
blocks in the coefficient field, and the resulting split of the Green's
kernel into a singular part that depends on the coefficients only through
their jet at the base point (with a machine-checkable certificate of that
form) plus a smooth remainder.

Points are z = (t, x); the parabolic scaling is (2, 1), |z|_s = sqrt|t|+|x|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import sympy as sp
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "CoefficientField",
    "FiniteDifferenceField",
    "frozen_gaussian",
    "z_value",
    "error_kernel",
    "HeatCalcKernel",
    "z_kernel",
    "e_kernel",
    "heat_convolve",
    "convolution_norm_report",
    "monomial_times",
    "Volterra",
    "volterra",
    "apply_operator",
    "LambdaTerm",
    "parse_lambda_term",
    "taylor_decompose_Z",
    "taylor_decompose_E",
    "GreenDecomposition",
    "decompose_green",
    "decompose_green_adjoint",
    "scaled_degree",
    "boundary_indices",
]

T_SYM, X_SYM = sp.symbols("t x", real=True)
_WT, _WX, _V = sp.symbols("w_t w_x v", real=True)
_AFUN = sp.Function("a")(_WT, _WX)

SCALING = (2, 1)


def scaled_degree(k) -> int:
    return 2 * k[0] + k[1]


@lru_cache(maxsize=None)
def _jacobi_01(n_points: int, exponent: int):
    """Nodes/weights for int_0^1 f(y) n (1-y)^{n-1} dy with n = exponent."""
    nodes, wts = roots_jacobi(n_points, exponent - 1, 0)
    return (nodes + 1.0) / 2.0, wts * exponent / 2.0 ** exponent


def lower_indices(r: int) -> list[tuple[int, int]]:
    """Multi-indices (k_t, k_x) of parabolic degree below r."""
    return [(i, j) for i in range(r) for j in range(r)
            if scaled_degree((i, j)) < r]


def boundary_indices(r: int) -> list[tuple[int, int]]:
    """Indices just outside {|k|_s < r} whose decrement is inside."""
    A = set(lower_indices(r))
    out = set()
    for k in A:
        for step in ((1, 0), (0, 1)):
            cand = (k[0] + step[0], k[1] + step[1])
            if cand not in A and _down(cand) in A:
                out.add(cand)
    return sorted(out)


def _down(k):
    return (k[0] - 1, k[1]) if k[0] else (k[0], k[1] - 1)


def _m_of(k) -> int:
    """Index (0 = time, 1 = space) of the first non-vanishing entry."""
    return 0 if k[0] else 1


def _fact(k) -> int:
    return math.factorial(k[0]) * math.factorial(k[1])


def _binom(k, l) -> int:
    return math.comb(k[0], l[0]) * math.comb(k[1], l[1])


def _sub(k, l):
    return (k[0] - l[0], k[1] - l[1])


def _leq(l, k) -> bool:
    return l[0] <= k[0] and l[1] <= k[1]


def _mono(z, k):
    z = np.asarray(z, dtype=float)
    return z[..., 0] ** k[0] * z[..., 1] ** k[1]


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient a, drift b and potential c on R^{1+1},
    given symbolically in the variables t, x so that every derivative has a
    closed form.  ``ellipticity`` is the constant lam with
    lam <= a <= 1/lam, checked on a lattice rather than assumed."""

    a_expr: sp.Expr
    b_expr: sp.Expr
    c_expr: sp.Expr
    ellipticity: float = 0.25
    regularity: int = 12
    _cache: dict = dfield(default_factory=dict, compare=False, repr=False)

    @classmethod
    def make(cls, a="1", b="0", c="0", *, ellipticity=0.25, regularity=12):
        # parse against the module's own t, x so differentiation sees them
        env = {"t": T_SYM, "x": X_SYM}
        return cls(sp.sympify(a, locals=env), sp.sympify(b, locals=env),
                   sp.sympify(c, locals=env), ellipticity, regularity)

    def _fn(self, name: str, k=(0, 0)) -> Callable:
        key = (name, k)
        if key not in self._cache:
            expr = {"a": self.a_expr, "b": self.b_expr,
                    "c": self.c_expr}[name]
            expr = sp.diff(expr, T_SYM, k[0], X_SYM, k[1])
            self._cache[key] = sp.lambdify((T_SYM, X_SYM), expr, "numpy")
        return self._cache[key]

    def jet(self, name: str, k, w) -> np.ndarray:
        """Derivative d^k of a coefficient at the points w = (t, x): a batch
        w of shape (..., 2) gives values of shape (...), so one point passed
        as shape (1, 2) gives an array of shape (1,), not a scalar."""
        if scaled_degree(k) > self.regularity:
            raise ValueError("jet order exceeds the field's regularity")
        w = np.asarray(w, dtype=float)
        return self._fn(name, tuple(k))(w[..., 0] + 0.0 * w[..., 1],
                                        w[..., 1]) * np.ones(w.shape[:-1])

    def a(self, z):
        return self.jet("a", (0, 0), z)

    def b(self, z):
        return self.jet("b", (0, 0), z)

    def c(self, z):
        return self.jet("c", (0, 0), z)

    def check_parabolicity(self, radius: float = 2.0, n: int = 21) -> bool:
        ts = np.linspace(-radius ** 2, radius ** 2, n)
        xs = np.linspace(-radius, radius, n)
        grid = np.stack(np.meshgrid(ts, xs, indexing="ij"), axis=-1)
        vals = self.a(grid.reshape(-1, 2))
        lam = self.ellipticity
        return bool(np.all(vals >= lam) and np.all(vals <= 1.0 / lam))

    def is_constant(self) -> bool:
        return all(not expr.free_symbols for expr in
                   (self.a_expr, self.b_expr, self.c_expr))

    def adjoint(self) -> "CoefficientField":
        """Coefficient triple of the formal adjoint (still written as a
        backward operator; combine with ``reflect_time`` for a forward
        one)."""
        a, b, c = self.a_expr, self.b_expr, self.c_expr
        b_star = 2 * sp.diff(a, X_SYM) - b
        c_star = c - sp.diff(b, X_SYM) + sp.diff(a, X_SYM, 2)
        return CoefficientField(a, sp.expand(b_star), sp.expand(c_star),
                                self.ellipticity, self.regularity)

    def reflect_time(self) -> "CoefficientField":
        sub = {T_SYM: -T_SYM}
        return CoefficientField(self.a_expr.subs(sub).expand(),
                                self.b_expr.subs(sub).expand(),
                                self.c_expr.subs(sub).expand(),
                                self.ellipticity, self.regularity)


class FiniteDifferenceField:
    """Coefficient field given by plain callables (t, x) -> value; every jet
    is taken by nested central differences with the recorded steps.  A
    fallback for fields without closed forms: expect jet accuracy to fade
    with the order."""

    def __init__(self, a, b=None, c=None, *, ellipticity: float = 0.25,
                 regularity: int = 4, steps=(1e-3, 1e-3)):
        zero = lambda t, x: np.zeros(np.broadcast(t, x).shape)
        self._raw = {"a": a, "b": b or zero, "c": c or zero}
        self.ellipticity = ellipticity
        self.regularity = regularity
        self.steps = tuple(float(s) for s in steps)

    def _fn(self, name: str, k=(0, 0)) -> Callable:
        fn = self._raw[name]
        ht, hx = self.steps
        for _ in range(k[0]):
            fn = (lambda t, x, g=fn:
                  (g(t + ht, x) - g(t - ht, x)) / (2 * ht))
        for _ in range(k[1]):
            fn = (lambda t, x, g=fn:
                  (g(t, x + hx) - g(t, x - hx)) / (2 * hx))
        return fn

    def jet(self, name: str, k, w) -> np.ndarray:
        """Finite-difference d^k of a coefficient; w of shape (..., 2) gives
        values of shape (...), as in CoefficientField.jet."""
        if scaled_degree(k) > self.regularity:
            raise ValueError("jet order exceeds the field's regularity")
        w = np.asarray(w, dtype=float)
        return (self._fn(name, tuple(k))(w[..., 0], w[..., 1])
                * np.ones(w.shape[:-1]))

    a = CoefficientField.a
    b = CoefficientField.b
    c = CoefficientField.c
    check_parabolicity = CoefficientField.check_parabolicity

    def is_constant(self) -> bool:
        return False

    def adjoint(self) -> "FiniteDifferenceField":
        ax = self._fn("a", (0, 1))
        axx = self._fn("a", (0, 2))
        bx = self._fn("b", (0, 1))
        a, b, c = self._raw["a"], self._raw["b"], self._raw["c"]
        return FiniteDifferenceField(
            a,
            lambda t, x: 2 * ax(t, x) - b(t, x),
            lambda t, x: c(t, x) - bx(t, x) + axx(t, x),
            ellipticity=self.ellipticity,
            regularity=max(self.regularity - 2, 0), steps=self.steps)

    def reflect_time(self) -> "FiniteDifferenceField":
        a, b, c = (self._raw[n] for n in "abc")
        return FiniteDifferenceField(
            lambda t, x: a(-t, x), lambda t, x: b(-t, x),
            lambda t, x: c(-t, x), ellipticity=self.ellipticity,
            regularity=self.regularity, steps=self.steps)


def frozen_gaussian(field: CoefficientField, w, z):
    """Fundamental solution of the operator with diffusion frozen at the
    one point w = (t, x) of shape (2,), evaluated at the increments z of
    shape (..., 2); the values have shape (...) and vanish where t <= 0."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2,):
        raise ValueError(f"w must be one point of shape (2,), not {w.shape}")
    a0 = float(field.a(w[None, :])[0])
    if a0 <= 0:
        raise ValueError("ellipticity violated: a(w) is not positive")
    z = np.asarray(z, dtype=float)
    t, x = z[..., 0], z[..., 1]
    safe = np.clip(t, 1e-300, None)
    return np.where(t > 0,
                    np.exp(-x ** 2 / (4 * a0 * safe))
                    / np.sqrt(4 * np.pi * a0 * safe), 0.0)


def z_value(field: CoefficientField, z, zbar):
    """First parametrix term: the Gaussian frozen at the base point."""
    z = np.asarray(z, dtype=float)
    zbar = np.asarray(zbar, dtype=float)
    return z_kernel(field)(z, zbar)


def error_kernel(field: CoefficientField, z, zbar):
    """L applied to the frozen-coefficient parametrix off the diagonal."""
    return e_kernel(field)(z, zbar)


# ---------------------------------------------------------------------------
# heat calculus


@dataclass(frozen=True)
class HeatCalcKernel:
    """Kernel of the form 1_{t>tb} (t-tb)^{(alpha-3)/2} Ftilde(zb, u, v)
    with u = sqrt(t-tb) and v = (x-xb)/u; ``alpha`` is the short-time
    regularising order."""

    alpha: float
    ftilde: Callable
    translation_invariant: bool = False
    label: str = ""
    r: int = 0

    def __call__(self, z, zbar):
        z = np.asarray(z, dtype=float)
        zbar = np.asarray(zbar, dtype=float)
        s = z[..., 0] - zbar[..., 0]
        mask = s > 0
        safe = np.where(mask, s, 1.0)
        u = np.sqrt(safe)
        v = (z[..., 1] - zbar[..., 1]) / u
        vals = self.ftilde(zbar[..., 0], zbar[..., 1], u, v)
        return np.where(mask, safe ** ((self.alpha - 3.0) / 2.0) * vals, 0.0)

    def seminorm(self, T: float = 1.0, n: int = 0, samples: int = 21,
                 v_max: float = 10.0, base_radius: float = 1.5) -> float:
        """Reported sup of (1+|v|)^n |Ftilde| over a sample grid."""
        tb = np.linspace(-base_radius ** 2, base_radius ** 2, samples)
        xb = np.linspace(-base_radius, base_radius, samples)
        u = np.linspace(1e-6, math.sqrt(T), samples)
        v = np.linspace(-v_max, v_max, 4 * samples)
        grid = np.stack([m.ravel() for m in
                         np.meshgrid(tb, xb, u, v, indexing="ij")], axis=-1)
        best = 0.0
        for lo in range(0, grid.shape[0], 16384):  # bound peak memory
            part = grid[lo:lo + 16384]
            vals = np.abs(self.ftilde(part[:, 0], part[:, 1],
                                      part[:, 2], part[:, 3]))
            best = max(best, float(np.max(
                vals * (1.0 + np.abs(part[:, 3])) ** n)))
        return best

    def scaled(self, c: float) -> "HeatCalcKernel":
        return HeatCalcKernel(
            self.alpha,
            lambda tb, xb, u, v: c * self.ftilde(tb, xb, u, v),
            self.translation_invariant, self.label)


def z_kernel(field: CoefficientField) -> HeatCalcKernel:
    def ftilde(tb, xb, u, v):
        a = field._fn("a")(tb, xb) * np.ones(np.shape(u))
        return np.exp(-np.asarray(v) ** 2 / (4 * a)) / np.sqrt(4 * np.pi * a)
    return HeatCalcKernel(2.0, ftilde, label="Z")


def e_kernel(field: CoefficientField) -> HeatCalcKernel:
    """One-step error E = (a(zb)-a(z)) dx^2 Z - b(z) dx Z - c(z) Z as an
    order-one element of the calculus."""
    afn = field._fn("a")
    bfn = field._fn("b")
    cfn = field._fn("c")

    def ftilde(tb, xb, u, v):
        tb, xb, u, v = np.broadcast_arrays(
            np.asarray(tb, dtype=float), np.asarray(xb, dtype=float),
            np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        a = afn(tb, xb) * np.ones_like(u)
        g = np.exp(-v ** 2 / (4 * a)) / np.sqrt(4 * np.pi * a)
        gp = -v / (2 * a) * g
        gpp = (v ** 2 / (4 * a ** 2) - 1 / (2 * a)) * g
        t_z, x_z = tb + u ** 2, xb + u * v
        da = a - afn(t_z, x_z) * np.ones_like(u)
        safe_u = np.where(u > 0, u, 1.0)
        return (da / safe_u * gpp
                - bfn(t_z, x_z) * np.ones_like(u) * gp
                - cfn(t_z, x_z) * np.ones_like(u) * u * g)

    return HeatCalcKernel(1.0, ftilde, label="E")


def monomial_times(K: HeatCalcKernel, k) -> HeatCalcKernel:
    """Multiply a kernel by (z - zbar)^k; raises the order by |k|_s."""
    def ftilde(tb, xb, u, v):
        u = np.asarray(u, dtype=float)
        return (u ** (2 * k[0]) * (u * np.asarray(v)) ** k[1]
                * K.ftilde(tb, xb, u, v))
    return HeatCalcKernel(K.alpha + scaled_degree(k), ftilde,
                          K.translation_invariant,
                          f"(z)^{k}*{K.label}")


def heat_convolve(F: HeatCalcKernel, G: HeatCalcKernel, *,
                  n_s: int = 20, n_y: int = 24, y_half: float = 9.0,
                  decay_tol: float = 1e-6) -> HeatCalcKernel:
    """Space-time convolution F*G inside the calculus.

    The time integral is reduced to s in (0,1) whose endpoint weights
    (1-s)^{alpha/2-1} s^{beta/2-1} are treated exactly by Gauss-Jacobi
    nodes; the space integral uses Gauss-Legendre on [-y_half, y_half].
    Refuses kernels whose profiles have not decayed at the edge of that
    window.
    """
    alpha, beta = F.alpha, G.alpha
    if alpha <= 0 or beta <= 0:
        raise ValueError("convolution requires positive orders")
    for K in (F, G):
        centre = np.max(np.abs(K.ftilde(0.0, 0.0, 0.5, np.array([0.0]))))
        edge = np.max(np.abs(K.ftilde(0.0, 0.0, 0.5, np.array([y_half]))))
        if centre > 0 and edge > decay_tol * max(centre, 1.0):
            raise ValueError(
                f"kernel profile has not decayed at |v|={y_half}: "
                f"|Ftilde|={edge:.3e} vs centre {centre:.3e}")
    if float(alpha).is_integer() and float(beta).is_integer():
        # s = sin^2(theta) renders the profiles' dependence on sqrt(s) and
        # sqrt(1-s) analytic, so plain Gauss-Legendre in theta is spectral
        xl, wl_ = roots_legendre(n_s)
        theta = (xl + 1.0) * (np.pi / 4.0)
        s_nodes = np.sin(theta) ** 2
        s_weights = (wl_ * (np.pi / 4.0) * 2.0
                     * np.sin(theta) ** (beta - 1.0)
                     * np.cos(theta) ** (alpha - 1.0))
    else:
        xs, ws = roots_jacobi(n_s, alpha / 2.0 - 1.0, beta / 2.0 - 1.0)
        s_nodes = (xs + 1.0) / 2.0
        s_weights = ws * 2.0 ** (1.0 - alpha / 2.0 - beta / 2.0)
    yl, wl = roots_legendre(n_y)
    y_nodes = yl * y_half
    y_weights = wl * y_half

    S = s_nodes[:, None]
    Y = y_nodes[None, :]
    WSY = (s_weights[:, None] * y_weights[None, :])

    def ftilde(tb, xb, u, v):
        tb, xb, u, v = np.broadcast_arrays(
            np.asarray(tb, dtype=float), np.asarray(xb, dtype=float),
            np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        tb_, xb_, u_, v_ = (a[..., None, None] for a in (tb, xb, u, v))
        g_vals = G.ftilde(tb_, xb_, u_ * np.sqrt(S),
                          Y * np.sqrt(1 - S) + v_ * np.sqrt(S))
        f_vals = F.ftilde(tb_ + u_ ** 2 * S,
                          u_ * Y * np.sqrt(S * (1 - S)) + xb_ + u_ * v_ * S,
                          u_ * np.sqrt(1 - S),
                          v_ * np.sqrt(1 - S) - Y * np.sqrt(S))
        return np.sum(WSY * g_vals * f_vals, axis=(-2, -1))

    return HeatCalcKernel(alpha + beta, ftilde,
                          F.translation_invariant and G.translation_invariant,
                          f"({F.label})*({G.label})")


def convolution_norm_report(F: HeatCalcKernel, G: HeatCalcKernel,
                            FG: HeatCalcKernel, *, T: float = 1.0,
                            n: int = 3, samples: int = 9) -> dict:
    """Check the convolution bound
    ||F*G|| <= C * B((alpha-1)/2, beta/2) * ||F|| * ||G||_{n+2}
    on sampled seminorms; the constant is reported, not asserted."""
    from scipy.special import beta as beta_fn
    nf = F.seminorm(T=T, n=n, samples=samples)
    ng = G.seminorm(T=T, n=n + 2, samples=samples)
    nfg = FG.seminorm(T=T, n=n, samples=samples)
    b = beta_fn((F.alpha - 1.0) / 2.0, G.alpha / 2.0)
    bound_core = b * nf * ng
    return {"lhs": nfg, "beta_factor": b, "norm_F": nf, "norm_G": ng,
            "constant": nfg / bound_core if bound_core > 0 else float("inf")}


# ---------------------------------------------------------------------------
# Volterra series


@dataclass
class Volterra:
    """Partial sums of the parametrix series Z * sum_k (-E)^{*k}."""

    field: CoefficientField
    order: int
    summands: list
    partial: bool = False
    computed_upto: int = 0

    def __call__(self, z, zbar):
        total = 0.0
        for s in self.summands:
            total = total + s(z, zbar)
        return total

    def summand(self, k: int) -> HeatCalcKernel:
        return self.summands[k]


def volterra(field: CoefficientField, N: int, *, n_s: int = 20,
             n_y: int = 24, y_half: float = 9.0,
             budget: float = 5e8) -> Volterra:
    """Truncated parametrix series; each summand lives one order higher in
    the calculus.  Nested quadrature cost grows geometrically in the order,
    so the series is cut (and flagged partial) once the per-evaluation
    budget would be exceeded."""
    if N < 0:
        raise ValueError("series order must be non-negative")
    if field.is_constant():
        base = z_kernel(field)
        return Volterra(field, N, [base], False, N)
    neg_e = e_kernel(field).scaled(-1.0)
    summands = [z_kernel(field)]
    cost = 1.0
    partial = False
    for k in range(1, N + 1):
        cost *= n_s * n_y
        if cost > budget:
            partial = True
            break
        summands.append(heat_convolve(summands[-1], neg_e,
                                      n_s=n_s, n_y=n_y, y_half=y_half))
    return Volterra(field, N, summands, partial, len(summands) - 1)


def apply_operator(field: CoefficientField, G: Callable, z, zbar, *,
                   ht: float = 2e-5, hx: float = 2e-4) -> float:
    """(d_t - a d_x^2 - b d_x - c) G(., zbar) at z by central differences."""
    z = np.asarray(z, dtype=float)
    et = np.array([ht, 0.0])
    ex = np.array([0.0, hx])
    dt = (G(z + et, zbar) - G(z - et, zbar)) / (2 * ht)
    dx = (G(z + ex, zbar) - G(z - ex, zbar)) / (2 * hx)
    dxx = (G(z + ex, zbar) - 2 * G(z, zbar) + G(z - ex, zbar)) / hx ** 2
    w = z[None, :]
    return (dt - field.a(w)[0] * dxx - field.b(w)[0] * dx
            - field.c(w)[0] * G(z, zbar))


# ---------------------------------------------------------------------------
# locality certificates


def _jet_symbol(name: str, k) -> sp.Symbol:
    return sp.Symbol(f"{name}{k[0]}_{k[1]}", real=True)


def _parse_jet(s: sp.Symbol) -> tuple[str, tuple[int, int]]:
    """Inverse of _jet_symbol: a{i}_{j} -> ("a", (i, j))."""
    i, j = str(s)[1:].split("_")
    return str(s)[0], (int(i), int(j))


@dataclass(frozen=True)
class LambdaTerm:
    """One certified local term F(w) * int prod P[i](y_i - y_{i+1})
    W^w(y_i - y_{i+1}) dy.

    ``coefficient`` is a rational expression in the jet symbols
    a{i}_{j}, b{i}_{j}, c{i}_{j} (denominators only powers of a0_0);
    each chain entry is a polynomial Q[i] in (u, v), realising
    P[i](t, x) = t^{-1/2} Q[i](sqrt t, x / sqrt t).
    """

    coefficient: sp.Expr
    chain: tuple[sp.Expr, ...]

    @property
    def arity(self) -> int:
        return len(self.chain) - 1

    def validate(self, r: int | None = None) -> bool:
        """Structural check against the admissible grammar."""
        u, v = sp.symbols("u v")
        for q in self.chain:
            if not q.free_symbols <= {u, v}:
                return False
            try:
                sp.Poly(q, u, v)
            except sp.PolynomialError:
                return False
        num, den = sp.fraction(sp.together(self.coefficient))
        jets = [s for s in num.free_symbols | den.free_symbols]
        for s in jets:
            name = str(s)
            if not (name[0] in "abc" and "_" in name):
                return False
            if r is not None and scaled_degree(_parse_jet(s)[1]) > r:
                return False
        a00 = _jet_symbol("a", (0, 0))
        if not (den.is_polynomial() and den.free_symbols <= {a00}):
            return False
        return True

    def to_dict(self) -> dict:
        return {"coefficient": sp.srepr(self.coefficient),
                "chain": [sp.srepr(q) for q in self.chain]}

    def _kernel_at(self, field: CoefficientField, w) -> HeatCalcKernel:
        u, v = sp.symbols("u v")
        subs = self._jet_values(field, w)
        a0 = subs[_jet_symbol("a", (0, 0))]
        coeff = float(self.coefficient.xreplace(
            {k: sp.Float(val) for k, val in subs.items()}))
        kernels = []
        for q in self.chain:
            qfn = sp.lambdify((u, v), q, "numpy")
            def ftilde(tb, xb, uu, vv, qfn=qfn, a0=a0):
                uu = np.asarray(uu, dtype=float)
                vv = np.asarray(vv, dtype=float)
                g = np.exp(-vv ** 2 / (4 * a0)) / np.sqrt(4 * np.pi * a0)
                return qfn(uu, vv) * g * np.ones(np.shape(uu))
            kernels.append(HeatCalcKernel(1.0, ftilde, True, "P*W"))
        out = kernels[0]
        for k in kernels[1:]:
            out = heat_convolve(out, k)
        return out.scaled(coeff)

    def _jet_values(self, field: CoefficientField, w) -> dict:
        out = {}
        for s in self.coefficient.free_symbols:
            out[s] = float(field.jet(*_parse_jet(s),
                                     np.asarray(w, dtype=float)[None, :])[0])
        a00 = _jet_symbol("a", (0, 0))
        if a00 not in out:
            out[a00] = float(field.a(np.asarray(w)[None, :])[0])
        return out

    def evaluate(self, field: CoefficientField, w, zeta):
        """Numeric value of the certified kernel at offset zeta, frozen at
        w.  Everything is consumed through the jet of the field at w."""
        zeta = np.asarray(zeta, dtype=float)
        kern = self._kernel_at(field, w)
        # undo the generic order-1 normalisation: the chain realises
        # prod t^{-1/2} Q W directly, which is what _kernel_at encodes
        return kern(zeta, np.zeros(2))


def parse_lambda_term(data: dict) -> LambdaTerm:
    return LambdaTerm(sp.sympify(data["coefficient"]),
                      tuple(sp.sympify(q) for q in data["chain"]))


# ---------------------------------------------------------------------------
# Taylor decomposition of Z in the coefficient field


def _ztilde_expr():
    return sp.exp(-_V ** 2 / (4 * _AFUN)) / sp.sqrt(4 * sp.pi * _AFUN)


def _jetify(expr: sp.Expr) -> sp.Expr:
    """Replace derivatives of the abstract coefficient by jet symbols."""
    repl = {}
    for der in expr.atoms(sp.Derivative):
        counts = {_WT: 0, _WX: 0}
        for var, cnt in der.variable_count:
            counts[var] += cnt
        repl[der] = _jet_symbol("a", (counts[_WT], counts[_WX]))
    expr = expr.xreplace(repl)
    return expr.xreplace({_AFUN: _jet_symbol("a", (0, 0))})


class _ZtildeJets:
    """Symbolic w-derivatives of the profile of the frozen Gaussian, exposed
    as callables of (field jets at a point, v)."""

    def __init__(self):
        self._exprs = {}
        self._fns = {}

    def expr(self, k, dv: int = 0) -> sp.Expr:
        key = (tuple(k), dv)
        if key not in self._exprs:
            e = sp.diff(_ztilde_expr(), _WT, k[0], _WX, k[1], _V, dv)
            self._exprs[key] = _jetify(sp.expand(e))
        return self._exprs[key]

    def fn(self, k, dv: int = 0) -> tuple[Callable, list]:
        """The lambdified derivative and the jet indices of its arguments,
        parsed from the symbol names once."""
        key = (tuple(k), dv)
        if key not in self._fns:
            e = self.expr(k, dv)
            syms = sorted((s for s in e.free_symbols if s is not _V),
                          key=str)
            self._fns[key] = (sp.lambdify([*syms, _V], e, "numpy"),
                              [_parse_jet(s)[1] for s in syms])
        return self._fns[key]

    def value(self, field, k, point, v, dv: int = 0):
        fn, ks = self.fn(k, dv)
        point = np.asarray(point, dtype=float)
        return fn(*(field.jet("a", j, point) for j in ks),
                  np.asarray(v, dtype=float))


_ZJETS = _ZtildeJets()


@dataclass(frozen=True)
class ZJet:
    """One jet kernel of the frozen Gaussian: the k-th w-derivative of its
    profile, divided by k!."""

    k: tuple[int, int]
    field: CoefficientField

    def profile(self, w, v, dv: int = 0):
        return (_ZJETS.value(self.field, self.k, w, v, dv)
                / _fact(self.k))

    def __call__(self, w, zeta, dv: int = 0):
        zeta = np.asarray(zeta, dtype=float)
        t, x = zeta[..., 0], zeta[..., 1]
        mask = t > 0
        safe = np.where(mask, t, 1.0)
        v = x / np.sqrt(safe)
        power = -0.5 - 0.5 * dv
        return np.where(mask,
                        safe ** power * self.profile(w, v, dv), 0.0)

    def kernel(self, w) -> HeatCalcKernel:
        def ftilde(tb, xb, u, v, self=self, w=tuple(w)):
            return self.profile(np.array(w), v) * np.ones(np.shape(u))
        return HeatCalcKernel(2.0, ftilde, True, f"Z[{self.k}]")

    def lambda_terms(self) -> list[LambdaTerm]:
        # the generic chain factor carries t^{-1} Q(u, v); the jet kernel is
        # t^{-1/2} f(v) W-shaped, so Q picks up one power of u
        u, v = sp.symbols("u v")
        gauss = _jetify(_ztilde_expr())
        ratio = sp.cancel(sp.together(
            _ZJETS.expr(self.k) / gauss)) / _fact(self.k)
        poly = sp.Poly(sp.expand(ratio), _V)
        terms = []
        for (deg,), coeff in poly.terms():
            terms.append(LambdaTerm(sp.together(coeff), (u * v ** deg,)))
        return terms


class ZRemainder:
    """Increment-form remainder of the w-expansion of the frozen Gaussian,
    for a boundary index k."""

    def __init__(self, k, field, quad_points: int = 24):
        self.k = tuple(k)
        self.field = field
        self.kd = _down(self.k)
        self.quad = quad_points

    def __call__(self, w, z, zbar, dv: int = 0):
        w = np.asarray(w, dtype=float)
        z = np.asarray(z, dtype=float)
        zbar = np.asarray(zbar, dtype=float)
        s = z[..., 0] - zbar[..., 0]
        mask = s > 0
        safe = np.where(mask, s, 1.0)
        v = (z[..., 1] - zbar[..., 1]) / np.sqrt(safe)
        inc = _increment(
            lambda kd, p: _ZJETS.value(self.field, kd, p, v, dv),
            self.k, self.kd, w, zbar, self.quad)
        power = -0.5 - 0.5 * dv
        return np.where(mask, safe ** power * inc / _fact(self.kd), 0.0)


def _increment(dval, k, kd, w, pt, quad: int = 24):
    """int delta_k[dval(kd, .)](w + (pt-w) y) Q^{kd}(dy): the increment of
    the kd-th derivative dval(kd, point) along the first non-vanishing
    direction m of k, exact when kd[m] = 0 and by Gauss-Jacobi otherwise."""
    w = np.asarray(w, dtype=float)
    pt = np.asarray(pt, dtype=float)
    m = _m_of(k)
    if kd[m] == 0:
        return dval(kd, _mix(pt, w, m + 1)) - dval(kd, _mix(pt, w, m))
    nodes, wts = _jacobi_01(quad, kd[m])
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
    zbar = np.asarray(zbar, dtype=float)
    w = np.asarray(w, dtype=float)
    out = np.array(np.broadcast_arrays(zbar, w)[1], copy=True)
    if upto > 0:
        out[..., :upto] = np.broadcast_arrays(zbar, w)[0][..., :upto]
    return out


def taylor_decompose_Z(field: CoefficientField, r: int):
    """Expand the parametrix term in its base-point slot about w.

    Returns (jets, remainders): jets[k] is a ZJet with
    Z(z, zbar) = sum_k (zbar-w)^k jets[k](w, z-zbar)
               + sum_{k in boundary} (zbar-w)^{k_down} remainders[k](w,z,zbar)
    """
    if r > field.regularity:
        raise ValueError("insufficient coefficient regularity for this "
                         "expansion order")
    jets = {k: ZJet(k, field) for k in lower_indices(r)}
    rems = {k: ZRemainder(k, field) for k in boundary_indices(r)}
    return jets, rems


# ---------------------------------------------------------------------------
# Taylor decomposition of the error kernel


@dataclass(frozen=True)
class _SlotTerm:
    nu: tuple[int, int]           # exponent of (zbar - w)
    k_label: tuple[int, int] | None  # boundary index; None = jet term
    value: Callable                # (w, z, zbar) -> array


def _coeff_slot_terms(field, name: str, r: int, at_z: bool, sign: float):
    """Expansion of a coefficient evaluated at z (at_z) or of the increment
    a(zbar)-a(z) (not at_z), as slot terms in powers of (zbar-w)."""
    deriv = lambda kd, pt: field.jet(name, kd, pt)
    terms = []
    for k in lower_indices(r):
        ls = [(i, j) for i in range(k[0] + 1) for j in range(k[1] + 1)]
        for l in ls:
            if not at_z and l == (0, 0):
                continue
            nu = _sub(k, l)
            c = sign / (_fact(nu) * _fact(l))
            if not at_z:
                c = -c

            def val(w, z, zbar, k=k, l=l, c=c):
                jet = field.jet(name, k, np.asarray(w, dtype=float))
                return c * jet * _mono(np.asarray(z) - np.asarray(zbar), l)
            terms.append(_SlotTerm(nu, None, val))
    for k in boundary_indices(r):
        kd = _down(k)
        if not at_z:
            terms.append(_SlotTerm(kd, k,
                                   lambda w, z, zbar, k=k, kd=kd:
                                   (_increment(deriv, k, kd, w, zbar)
                                    - _increment(deriv, k, kd, w, z))
                                   / _fact(kd)))
        else:
            terms.append(_SlotTerm(kd, k,
                                   lambda w, z, zbar, k=k, kd=kd, s=sign:
                                   s * _increment(deriv, k, kd, w, z)
                                   / _fact(kd)))
        # the part of (z-w)^{k_down} carrying (z-zbar) powers
        for eta in [(i, j) for i in range(kd[0] + 1)
                    for j in range(kd[1] + 1) if (i, j) != (0, 0)]:
            nu = _sub(kd, eta)
            c = _binom(kd, eta) / _fact(kd)
            if not at_z:
                c = -c
            else:
                c = sign * c

            def val_b(w, z, zbar, k=k, kd=kd, eta=eta, c=c):
                return (c * _mono(np.asarray(z) - np.asarray(zbar), eta)
                        * _increment(deriv, k, kd, w, z))
            terms.append(_SlotTerm(nu, k, val_b))
    return terms


def _bracket_slot_terms(field, r: int):
    """Expansion at w of the second-derivative profile factor
    g(zbar) = v^2/(4 a(zbar)^2) - 1/(2 a(zbar)), split into its two parts;
    the v^2 flag rides along with each term."""
    terms = []
    for expr, v2 in ((sp.Rational(1, 4) / _AFUN ** 2, True),
                     (-sp.Rational(1, 2) / _AFUN, False)):
        derivs = {}
        for k in lower_indices(r) + [
                _down(k) for k in boundary_indices(r)]:
            if k not in derivs:
                e = _jetify(sp.expand(sp.diff(expr, _WT, k[0], _WX, k[1])))
                syms = sorted(e.free_symbols, key=str)
                derivs[k] = (sp.lambdify(syms, e, "numpy"),
                             [_parse_jet(s)[1] for s in syms])

        def dval(k, pt, derivs=derivs):
            fn, ks = derivs[k]
            pt = np.asarray(pt, dtype=float)
            return fn(*(field.jet("a", j, pt) for j in ks))

        for k in lower_indices(r):
            def val(w, z, zbar, k=k, dval=dval):
                return dval(k, w) / _fact(k)
            terms.append((_SlotTerm(k, None, val), v2))
        for k in boundary_indices(r):
            kd = _down(k)

            def val_r(w, z, zbar, k=k, kd=kd, dval=dval):
                return _increment(dval, k, kd, w, zbar) / _fact(kd)
            terms.append((_SlotTerm(kd, k, val_r), v2))
    return terms


class _Row(NamedTuple):
    nu: tuple[int, int]               # total power of (zbar - w)
    slots: tuple[int, ...]            # indices into EDecomposition.slots
    lead: bool                        # leading part: carries 1/s
    v2: bool                          # ... and v^2 = x^2/s
    k_label: tuple[int, int] | None   # first remainder's index; None = jet


class EDecomposition:
    """Jet/remainder split of the error kernel in the base-point slot.

    Each factor of E = (a(zbar)-a(z)) [v^2/4a^2 - 1/2a](zbar) s^{-1} Z
    - b(z) dx Z - c(z) Z is expanded in powers of (zbar - w) into slot
    terms: jets at w times powers of z - zbar, or increment-form
    remainders.  ``slots`` holds the distinct slot terms (82 for r = 3:
    8 of Z, 8 of dx Z, 14 of the a-increment, 16 of the bracket, 18 each of
    b and c) and ``rows`` their products (2,080 for r = 3), jet rows
    first.  A row is a remainder row if any of its slots is a remainder.
    Every view evaluates each slot its rows use once per call and sums the
    row products in table order, so that

        E(z, zbar) = sum_nu (zbar-w)^nu jets()[nu](w, z - zbar)
                   + sum_{k,nu} (zbar-w)^nu remainders()[k, nu](w, z, zbar)
                   = reassemble(w, z, zbar).
    """

    def __init__(self, field: CoefficientField, r: int):
        if r <= 2:
            raise ValueError("expansion order must exceed two")
        if 3 * r > field.regularity:
            raise ValueError("insufficient coefficient regularity for this "
                             "expansion order")
        self.field = field
        self.r = r
        self.zjets, self.zrems = taylor_decompose_Z(field, r)
        self._build()

    def _build(self):
        field, r = self.field, self.r
        self.slots: list[_SlotTerm] = []

        def add(terms) -> range:
            self.slots.extend(terms)
            return range(len(self.slots) - len(terms), len(self.slots))

        iz, izx = (add(
            [_SlotTerm(k, None,
                       lambda w, z, zbar, jet=self.zjets[k], dv=dv:
                       jet(w, np.asarray(z) - np.asarray(zbar), dv=dv))
             for k in self.zjets]
            + [_SlotTerm(_down(k), k,
                         lambda w, z, zbar, rem=self.zrems[k], dv=dv:
                         rem(w, z, zbar, dv=dv))
               for k in self.zrems]) for dv in (0, 1))
        ida = add(_coeff_slot_terms(field, "a", r, at_z=False, sign=1.0))
        bracket = _bracket_slot_terms(field, r)
        ibr = add([s for s, _v2 in bracket])
        ib = add(_coeff_slot_terms(field, "b", r, at_z=True, sign=-1.0))
        ic = add(_coeff_slot_terms(field, "c", r, at_z=True, sign=-1.0))

        # leading part: (a(zbar)-a(z)) * [v^2/4a^2 - 1/2a](zbar)
        #   * s^{-1} * Z-slot, with the v^2 factor realised as v^2 = x^2/s
        combos = [((i, j, k), True, v2) for i in ida
                  for j, (_s, v2) in zip(ibr, bracket) for k in iz]
        combos += [((i, k), False, False) for i in ib for k in izx]
        combos += [((i, k), False, False) for i in ic for k in iz]
        rows = []
        for idx, lead, v2 in combos:
            slots = [self.slots[i] for i in idx]
            rems = [s.k_label for s in slots if s.k_label is not None]
            nu = tuple(sum(s.nu[c] for s in slots) for c in (0, 1))
            rows.append(_Row(nu, idx, lead, v2, rems[0] if rems else None))
        self.rows = sorted(rows, key=lambda row: row.k_label is not None)

    def _values(self, rows, w, z, zbar):
        """Yield the value of each row at (w, z, zbar), evaluating every
        slot the rows use once."""
        w, z, zbar = (np.asarray(p, dtype=float) for p in (w, z, zbar))
        s_t = z[..., 0] - zbar[..., 0]
        mask = s_t > 0
        safe = np.where(mask, s_t, 1.0)
        lead = {False: 1.0 / safe,
                True: 1.0 / safe * (z[..., 1] - zbar[..., 1]) ** 2 / safe}
        slot_values: dict = {}
        for row in rows:
            out = 1.0
            for i in row.slots:
                if i not in slot_values:
                    slot_values[i] = self.slots[i].value(w, z, zbar)
                out = out * slot_values[i]
            if row.lead:
                out = np.where(mask, out * lead[row.v2], 0.0)
            yield out

    def _groups(self, jet: bool) -> dict:
        groups: dict = {}
        for row in self.rows:
            if (row.k_label is None) == jet:
                key = row.nu if jet else (row.k_label, row.nu)
                groups.setdefault(key, []).append(row)
        return groups

    # -- public views ---------------------------------------------------
    def jets(self) -> dict:
        """Jet kernels (w, z - zbar) -> value, keyed by nu."""
        return {nu: lambda w, zeta, rows=rows:
                sum(self._values(rows, w, zeta, np.zeros(2)))
                for nu, rows in self._groups(jet=True).items()}

    def remainders(self) -> dict:
        """Remainder kernels (w, z, zbar) -> value, keyed by (k, nu)."""
        return {key: lambda w, z, zbar, rows=rows:
                sum(self._values(rows, w, z, zbar))
                for key, rows in self._groups(jet=False).items()}

    def reassemble(self, w, z, zbar) -> float:
        w, z, zbar = (np.asarray(p, dtype=float) for p in (w, z, zbar))
        offset = zbar - w
        total = 0.0
        for row, value in zip(self.rows, self._values(self.rows, w, z, zbar)):
            total = total + _mono(offset, row.nu) * value
        return total


def taylor_decompose_E(field: CoefficientField, r: int):
    """Jet kernels (keyed by the power of (zbar-w)) and increment-form
    remainder kernels (keyed by (boundary index, power)) for the error
    kernel; see EDecomposition for the reassembly identity."""
    dec = EDecomposition(field, r)
    return dec.jets(), dec.remainders()


def _e0_lambda_pieces(r: int) -> list[tuple[sp.Expr, sp.Expr]]:
    """Symbolic (coefficient, profile) pairs with
    -E^{[0]}(zeta) = sum coeff * t^{-1} Q(u, v) * W-profile(v)."""
    u, v = sp.symbols("u v")
    a0 = _jet_symbol("a", (0, 0))
    pieces = []
    for l in lower_indices(r):
        du = 2 * l[0] + l[1]
        lf = _fact(l)
        if l != (0, 0):
            al = _jet_symbol("a", l)
            pieces.append((al / (4 * a0 ** 2 * lf),
                           u ** (du - 1) * v ** (l[1] + 2)))
            pieces.append((-al / (2 * a0 * lf),
                           u ** (du - 1) * v ** l[1]))
        pieces.append((-_jet_symbol("b", l) / (2 * a0 * lf),
                       u ** du * v ** (l[1] + 1)))
        pieces.append((_jet_symbol("c", l) / lf,
                       u ** (du + 1) * v ** l[1]))
    return pieces


# ---------------------------------------------------------------------------
# Green's kernel decomposition


class GreenDecomposition:
    """Split Gamma(z, zbar) = K^{upper}(z - zbar) + remainder, where the
    singular family K depends on the coefficients only through their jets
    at the base point and carries term-by-term certificates of that form."""

    def __init__(self, field: CoefficientField, r: int, M: int, cutoff,
                 N: int = 1, *, levels: int = 8, upper: str = "zbar",
                 n_s: int = 16, n_y: int = 24):
        if field.regularity < 3 * r:
            raise ValueError(
                f"coefficient regularity {field.regularity} below the "
                f"required threshold {3 * r} for expansion order {r}")
        self.field = field
        self.r = r
        self.M = M
        self.N = N
        self.cutoff = cutoff
        self.levels = levels
        self.upper = upper
        self._quad = dict(n_s=n_s, n_y=n_y)
        self._zjets, _ = taylor_decompose_Z(field, r)
        if N >= 1 and not field.is_constant():
            self._ejets = taylor_decompose_E(field, max(r, 3))[0]
        else:
            self._ejets = {}
        self._kernel_cache: dict = {}
        self._volterra = None

    # -- singular part ------------------------------------------------
    def _chain_kernel(self, w) -> Callable:
        key = tuple(np.asarray(w, dtype=float))
        if key not in self._kernel_cache:
            field = self.field
            base = ZJet((0, 0), field)
            parts = [lambda zeta, base=base, w=w: base(w, zeta)]
            if self.N >= 1 and (0, 0) in self._ejets and not \
                    field.is_constant():
                e00 = self._ejets[(0, 0)]
                for k0 in self._zjets:
                    zk = self._zjets[k0].kernel(w)

                    def e_ftilde(tb, xb, u, v, e00=e00, w=tuple(w), k0=k0):
                        # profile of (z-zbar)^{k0} (-E[0]) at order 1+|k0|_s
                        u = np.asarray(u, dtype=float)
                        v = np.asarray(v, dtype=float)
                        zeta = np.stack(
                            np.broadcast_arrays(u ** 2, u * v), axis=-1)
                        vals = -e00(np.array(w), zeta)
                        s = np.where(u > 0, u ** 2, 1.0)
                        return vals * s * v ** k0[1]

                    ek = HeatCalcKernel(1.0 + scaled_degree(k0), e_ftilde,
                                        True, f"(z)^{k0}*(-E[0])")
                    conv = heat_convolve(zk, ek, **self._quad)
                    parts.append(lambda zeta, conv=conv:
                                 conv(zeta, np.zeros(2)))
            self._kernel_cache[key] = lambda zeta: sum(
                p(zeta) for p in parts)
        return self._kernel_cache[key]

    def local(self, w) -> Callable:
        """Evaluator of chi * K^w as a function of the offset z - zbar."""
        w = np.asarray(w, dtype=float)
        if self.upper == "z":
            w_eff = np.array([-w[0], w[1]])
            inner = self._chain_kernel(w_eff)

            def ev(zeta, inner=inner):
                zeta = np.asarray(zeta, dtype=float)
                refl = np.stack([zeta[..., 0], -zeta[..., 1]], axis=-1)
                return self.cutoff.chi(zeta) * inner(refl)
            return ev
        inner = self._chain_kernel(w)
        return lambda zeta: self.cutoff.chi(zeta) * inner(zeta)

    def dyadic(self, w):
        from .kernels import dyadic_decompose
        return dyadic_decompose(self.local(w), self.cutoff, self.levels,
                                beta=Fraction(2), order=self.M)

    def certificate(self) -> list[LambdaTerm]:
        """Term-by-term witnesses that the singular part lies in the
        admissible chain grammar: coefficient jets at the base point times
        convolution chains of (polynomial profile) x (frozen Gaussian)."""
        u, v = sp.symbols("u v")
        terms = [LambdaTerm(sp.Integer(1), (u,))]
        if self.N >= 1 and not self.field.is_constant():
            e0_pieces = _e0_lambda_pieces(self.r)
            for k0 in self._zjets:
                mono = u ** (2 * k0[0] + k0[1]) * v ** k0[1]
                for lt in self._zjets[k0].lambda_terms():
                    for c_e, q_e in e0_pieces:
                        terms.append(LambdaTerm(
                            sp.together(lt.coefficient * c_e),
                            (lt.chain[0], sp.expand(mono * q_e))))
        return terms

    # -- remainder ------------------------------------------------------
    def gamma(self, z, zbar):
        """Truncated series for the Green's kernel the split refers to."""
        if self._volterra is None:
            self._volterra = volterra(self.field, self.N + 1, **self._quad)
        z = np.asarray(z, dtype=float)
        zbar = np.asarray(zbar, dtype=float)
        if self.upper == "z":
            # the stored field generates the kernel of the time-reflected
            # adjoint problem; map back through both reflections
            refl = np.array([-1.0, 1.0])
            return self._volterra(zbar * refl, z * refl)
        return self._volterra(z, zbar)

    def remainder(self, z, zbar):
        z = np.asarray(z, dtype=float)
        zbar = np.asarray(zbar, dtype=float)
        base = zbar if self.upper == "zbar" else z
        return self.gamma(z, zbar) - self.local(base)(z - zbar)


def decompose_green(field: CoefficientField, r: int, M: int, cutoff, *,
                    N: int = 1, levels: int = 8) -> GreenDecomposition:
    """Green's kernel split with the jet base point in the *first* slot:
    Gamma(z, zbar) = K^z(z - zbar) + R(z, zbar).

    Built by running the base-point-in-second-slot construction for the
    time-reflected adjoint operator and mapping back, since the parametrix
    series naturally freezes coefficients at the second argument.
    """
    twisted = field.adjoint().reflect_time()
    return GreenDecomposition(twisted, r, M, cutoff, N, levels=levels,
                              upper="z")


def decompose_green_adjoint(field: CoefficientField, r: int, M: int,
                            cutoff, *, N: int = 1,
                            levels: int = 8) -> GreenDecomposition:
    """Green's kernel split with the jet base point in the second slot:
    Gamma(z, zbar) = Kbar^{zbar}(z - zbar) + Rbar(z, zbar)."""
    return GreenDecomposition(field, r, M, cutoff, N, levels=levels,
                              upper="zbar")
