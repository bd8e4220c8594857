"""Variable-coefficient heat kernels in one space dimension.

Implements the frozen-coefficient Gaussian, the one-step error kernel, a
"heat calculus" of kernels of integer short-time order with one frame,
``HeatCalcKernel``, convolution in it by Gauss-Legendre quadrature, the
parametrix (Volterra) series, Taylor decompositions of the series'
building blocks in the coefficient field, and the resulting split of the
Green's kernel into a singular part that depends on the coefficients only
through their jet at the base point (with a machine-checkable certificate
of that form) plus a smooth remainder.

A nested convolution evaluates its inner kernel at every quadrature node of
its outer one, so ``heat_convolve`` runs its quadrature over blocks of at
most ``_QUAD_BLOCK`` products, whose temporaries (64 KiB) stay in cache,
and each profile reads a coefficient only on the axes that it varies along
(a(zbar) once per outer point, not once per node).  A point's value has the
same bits alone as in any batch.

The expansions in the base point zbar about w of the frozen Gaussian, its
x-derivative and the bracket factors of E are built by one function,
``kernels._taylor_slots`` (the builder behind ``aniso_taylor`` too): jets
d^k g(w)/k! for |k|_s < r plus one Gauss-Jacobi increment remainder per
boundary index, with the derivatives d^k g taken from one cached table of
lambdified a-jets, ``_a_jet_fn``.
The singular Green's kernel ``local(w)`` and its ``certificate()`` read one
table of (jet coefficient, Q(u, v)) pairs per order r, ``_green_table(r)``,
evaluated at the jets at w by ``_chain_factor`` or serialised as products.
The base term of ``local(w)``, the Gaussian frozen at a(w), is not a table
term: it comes from the (0, 0) Z slot, ``_z_slots(field, 1, 0)[0]``, whose
bits ``tests/heat_convolve_pins.json`` pins (``_chain_factor`` on the same
Z jet pair differs from it by rounding, up to 4.1e-16 relative).
One reader, ``_read``, serves two grammars of untrusted text: coefficients
(``parse_coefficient``) and certificate terms as plain expressions
(``parse_lambda_term``).  It walks the text's Python ``ast`` and calls sympy
itself on each node, with every number bounded before sympy computes with
it.  ``_load`` imports sympy, ``scipy.special`` and ``scipy.linalg`` with
the first field, parse or ``heat_convolve``, not with the module.

Points are z = (t, x); the parabolic scaling is (2, 1), |z|_s = sqrt|t|+|x|.
Index sets {|k|_s < r}, k!, binomials and |k|_s come from the multi-index
helpers of ``trees``, so the slot and row order follows ``mi_below``.
"""
from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .kernels import (_SlotTerm, _down, _increment, _taylor_slots,
                      dyadic_decompose, lower_boundary)
from .trees import (mi_below, mi_binom, mi_factorial, mi_leq_iter, mi_sdeg,
                    mi_sub)

__all__ = [
    "CoefficientField",
    "parse_coefficient",
    "frozen_gaussian",
    "HeatCalcKernel",
    "z_kernel",
    "e_kernel",
    "heat_convolve",
    "Volterra",
    "volterra",
    "apply_operator",
    "LambdaTerm",
    "parse_lambda_term",
    "taylor_decompose_Z",
    "GreenDecomposition",
    "decompose_green",
    "decompose_green_adjoint",
    "boundary_indices",
]

SCALING = (2, 1)
_LAMBDA = 0.25  # check_parabolicity asks for _LAMBDA <= a <= 1/_LAMBDA
_VOLTERRA_BUDGET = 5e8  # profile evaluations per point of a summand
_QUAD_BLOCK = 1 << 13  # quadrature products per block of heat_convolve


def boundary_indices(r: int) -> list[tuple[int, int]]:
    """Indices just outside {|k|_s < r} whose decrement is inside."""
    return lower_boundary(mi_below(SCALING, r))


def _mono(z, k):
    z = np.asarray(z, dtype=float)
    return z[..., 0] ** k[0] * z[..., 1] ** k[1]


# ---------------------------------------------------------------------------
# coefficient fields

# _read builds each node of untrusted text with sympy (sympify would run it
# as Python), operands first, each number bounded in bits before sympy
# computes with it: "9**9**9" or "sin(sinh(1e9))" would never finish (2**13
# bits keeps integers below Python's limit on converting them to text)
_MAX_EXACT_BITS = 1 << 13


def _bits(n) -> float:
    """Bits of a rational's numerator or denominator, or of a float's
    magnitude or its inverse's; infinite for zoo, oo and nan."""
    if isinstance(n, sp.Rational):
        return max(n.p.bit_length(), n.q.bit_length())
    if isinstance(n, sp.Float):
        return abs(n._mpf_[2] + n._mpf_[3])  # (sign, mantissa, exponent, bits)
    return math.inf if n.is_number and not n.is_finite else 0


def _check_numbers(atoms) -> None:
    if max(map(_bits, atoms), default=0) > _MAX_EXACT_BITS:
        raise ValueError("a number too large to evaluate, or not finite")


def _check_power(base, exponent) -> None:
    """Refuses, before sympy evaluates it, a power whose exponent is a number
    above ``_MAX_EXACT_BITS`` in size, or that could take the bits of a
    number in the base (of a factor, for a product) above it."""
    size = abs(exponent) if isinstance(exponent, sp.Number) else 0
    if size > _MAX_EXACT_BITS or math.ceil(size) * max(
            map(_bits, base.atoms(sp.Number)), default=0) > _MAX_EXACT_BITS:
        raise ValueError("a power too large to evaluate")


@cache
def _load() -> None:
    """Bind ``sp``, ``roots_legendre`` and the module's symbols, and import
    what sympy and scipy would on a first diff, lambdify or Jacobi root."""
    global sp, roots_legendre, T_SYM, X_SYM, U_SYM, V_SYM, _WT, _WX, _V
    global _AFUN, _BRACKET
    import scipy.linalg  # noqa: F401
    import sympy as sp
    import sympy.assumptions.wrapper  # noqa: F401
    import sympy.codegen.ast  # noqa: F401
    from scipy.special import roots_legendre
    T_SYM, X_SYM, _WT, _WX, _V = sp.symbols("t x w_t w_x v", real=True)
    U_SYM, V_SYM = sp.symbols("u v")  # of a chain's Q(u, v); _V is real
    _AFUN = sp.Function("a")(_WT, _WX)
    # E's bracket v^2/(4a^2) - 1/(2a) as two parts, flagged if they hold v^2
    _BRACKET = ((sp.Rational(1, 4) / _AFUN ** 2, True),
                (-sp.Rational(1, 2) / _AFUN, False))


# the coefficient grammar's functions (README), and both grammars' operators
_FUNCTIONS = "sin cos tan exp log sqrt sinh cosh tanh atan".split()
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.USub: operator.neg,
              ast.UAdd: operator.pos}


def _read(value, what: str, names: Callable, functions,
          floats: bool) -> sp.Expr:
    """The expression that the ASCII text of ``value`` writes with integer
    literals, float literals if ``floats`` (each read as sympify reads it),
    ``_OPERATORS``, the names that ``names`` maps to a symbol (None for any
    other) and one-argument calls of ``functions``, built node by node,
    operands first, after ``_load``; ValueError, naming the text, for
    anything else or for a number too large (exp, sinh or cosh too) to
    evaluate."""
    text = " ".join(str(value).split())  # one line: offsets are columns
    if not text.isascii():
        raise ValueError(f"unexpected non-ASCII text in {what} {text!r}")
    try:
        stack, built = [(ast.parse(text, mode="eval").body, False)], {}
        while stack:  # post-order, without recursion
            node, ready = stack.pop()
            kids = node.args if isinstance(node, ast.Call) else [
                k for k in ast.iter_child_nodes(node)
                if isinstance(k, ast.expr)]
            if not ready:
                stack += [(node, True)] + [(k, False) for k in kids[::-1]]
                continue
            args = [built.pop(k) for k in kids]
            source = text[node.col_offset:node.end_col_offset]
            op = _OPERATORS.get(type(getattr(node, "op", None)))
            name = getattr(getattr(node, "func", None), "id", None)
            kind = type(getattr(node, "value", None))  # a literal's, if any
            if kind is int and source.isdigit():
                out = sp.Integer(node.value)
            elif kind is float and floats and "_" not in source:
                # mpmath reads 10**exponent exactly: 1e999999 took 45 s
                if len(source.lower().partition("e")[2].lstrip("+-0")) > 4:
                    raise ValueError("a number too large to evaluate")
                out = sp.Float(source)
            elif isinstance(node, ast.Name) and names(node.id) is not None:
                out = names(node.id)
            elif op:  # of a unary or binary operation
                if op is operator.pow:
                    _check_power(*args)
                out = op(*args)
            elif name in functions and len(args) == 1 and not node.keywords:
                if (name in ("exp", "sinh", "cosh") and args[0].is_Number
                        and abs(args[0]) > _MAX_EXACT_BITS * math.log(2)):
                    raise ValueError(f"{name} of too large a number")
                out = getattr(sp, name)(*args)
            else:
                raise ValueError(f"unexpected {source[:20]!r}")
            built[node] = out
            _check_numbers([out] if isinstance(out, sp.Atom) else [])
        _check_numbers(out.atoms())
        return out
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # MemoryError: the parser's stack overflows on "-" * 10000 + "1"
        raise ValueError(f"{what} {text!r} does not parse") from exc
    except ValueError as exc:
        raise ValueError(f"{exc} in {what} {text!r}") from exc


def parse_coefficient(value) -> sp.Expr:
    """A coefficient, a number or text in its grammar (t, x, floats and
    ``_FUNCTIONS``), as an expression in the module's t and x, so that
    differentiation sees them; ValueError for anything else."""
    _load()
    return _read(value, "coefficient", {"t": T_SYM, "x": X_SYM}.get,
                 _FUNCTIONS, floats=True)


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient a, drift b and potential c on R^{1+1},
    given symbolically in the variables t, x so that every derivative has a
    closed form.  Parabolicity, _LAMBDA <= a <= 1/_LAMBDA, is checked on
    a lattice rather than assumed."""

    a_expr: sp.Expr
    b_expr: sp.Expr
    c_expr: sp.Expr
    regularity: int = 12
    _cache: dict = dfield(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        _load()  # also for a field built from sympy objects, without make

    @classmethod
    def make(cls, a="1", b="0", c="0", *, regularity=12):
        return cls(parse_coefficient(a), parse_coefficient(b),
                   parse_coefficient(c), regularity)

    def _fn(self, name: str, k=(0, 0)) -> Callable:
        key = (name, k)
        fn = self._cache.get(key)
        if fn is None:
            if mi_sdeg(k, SCALING) > self.regularity:
                raise ValueError("jet order exceeds the field's regularity")
            expr = {"a": self.a_expr, "b": self.b_expr,
                    "c": self.c_expr}[name]
            expr = sp.diff(expr, T_SYM, k[0], X_SYM, k[1])
            fn = self._cache[key] = sp.lambdify((T_SYM, X_SYM), expr,
                                                "numpy")
        return fn

    def jet(self, name: str, k, w) -> np.ndarray:
        """Derivative d^k, |k|_s up to the regularity, of a coefficient at
        the points w = (t, x): a batch w of shape (..., 2) gives values of
        shape (...), so one point of shape (1, 2) gives shape (1,)."""
        w = np.asarray(w, dtype=float)
        out = self._fn(name, tuple(k))(w[..., 0], w[..., 1])
        # a constant gives a Python number, an unbatched point a NumPy scalar
        if not isinstance(out, np.ndarray) or out.shape != w.shape[:-1]:
            out = out * np.ones(w.shape[:-1])
        return out

    def a(self, z):
        return self.jet("a", (0, 0), z)

    def b(self, z):
        return self.jet("b", (0, 0), z)

    def c(self, z):
        return self.jet("c", (0, 0), z)

    def check_parabolicity(self) -> bool:
        """lam <= a <= 1/lam on a 21 x 21 lattice of |t| <= 4, |x| <= 2."""
        ts = np.linspace(-4.0, 4.0, 21)
        xs = np.linspace(-2.0, 2.0, 21)
        grid = np.stack(np.meshgrid(ts, xs, indexing="ij"), axis=-1)
        try:
            with np.errstate(all="ignore"):  # sqrt(x) or log(x) give nan
                vals = self.a(grid.reshape(-1, 2))
        except OverflowError:  # an integer beyond the range of floats
            return False
        return bool(np.isrealobj(vals) and np.all(vals >= _LAMBDA)
                    and np.all(vals <= 1.0 / _LAMBDA))

    def error_vanishes(self) -> bool:
        """Whether E is zero: a constant and b = c = 0 (a constant b or c
        still leaves E = -b dx Z - c Z)."""
        return (not self.a_expr.free_symbols and self.b_expr == 0
                and self.c_expr == 0)

    def adjoint(self) -> "CoefficientField":
        """Coefficient triple of the formal adjoint (still written as a
        backward operator; combine with ``reflect_time`` for a forward
        one), unexpanded: expanding (1+x)**4000 would take seconds."""
        a, b, c = self.a_expr, self.b_expr, self.c_expr
        b_star = 2 * sp.diff(a, X_SYM) - b
        c_star = c - sp.diff(b, X_SYM) + sp.diff(a, X_SYM, 2)
        return CoefficientField(a, b_star, c_star, self.regularity)

    def reflect_time(self) -> "CoefficientField":
        sub = {T_SYM: -T_SYM}
        return CoefficientField(self.a_expr.subs(sub), self.b_expr.subs(sub),
                                self.c_expr.subs(sub), self.regularity)


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


# ---------------------------------------------------------------------------
# heat calculus


@dataclass(frozen=True)
class HeatCalcKernel:
    """Kernel of the form 1_{t>tb} (t-tb)^{(alpha-3)/2} Ftilde(zb, u, v)
    with u = sqrt(t-tb) and v = (x-xb)/u; ``alpha`` is the short-time
    regularising order, an integer for every kernel regkit builds.
    ``ftilde(tb, xb, u, v)`` gives values of its arguments' broadcast
    shape, which ``heat_convolve`` sums over."""

    alpha: float
    ftilde: Callable

    def __call__(self, z, zbar):
        z, zbar = (np.asarray(p, dtype=float) for p in (z, zbar))
        s = z[..., 0] - zbar[..., 0]
        mask = s > 0
        safe = np.where(mask, s, 1.0)
        u = np.sqrt(safe)
        v = (z[..., 1] - zbar[..., 1]) / u
        vals = self.ftilde(zbar[..., 0], zbar[..., 1], u, v)
        return np.where(mask, safe ** ((self.alpha - 3.0) / 2.0) * vals, 0.0)

    def scaled(self, c: float) -> "HeatCalcKernel":
        return HeatCalcKernel(
            self.alpha,
            lambda tb, xb, u, v: c * self.ftilde(tb, xb, u, v))


def _gauss(v, a):
    """Profile of the Gaussian with diffusion a: t^{1/2} Z at v = x/sqrt t."""
    return np.exp(-np.asarray(v) ** 2 / (4 * a)) / np.sqrt(4 * np.pi * a)


def _full(out, *args) -> np.ndarray:
    """A profile's values broadcast (a view, not a copy) to the shape of its
    arguments, when it read some of them along fewer axes."""
    return np.broadcast_to(out, np.broadcast_shapes(
        np.shape(out), *(np.shape(p) for p in args)))


def z_kernel(field: CoefficientField) -> HeatCalcKernel:
    def ftilde(tb, xb, u, v):
        return _full(_gauss(v, field._fn("a")(tb, xb)), tb, xb, u, v)
    return HeatCalcKernel(2.0, ftilde)


def e_kernel(field: CoefficientField) -> HeatCalcKernel:
    """One-step error E = (a(zb)-a(z)) dx^2 Z - b(z) dx Z - c(z) Z as an
    order-one element of the calculus."""
    afn, bfn, cfn = (field._fn(name) for name in "abc")

    def ftilde(tb, xb, u, v):
        tb, xb, u, v = (np.asarray(p, dtype=float) for p in (tb, xb, u, v))
        # a(zb) is read on the axes of zb alone: inside a convolution that
        # is one value per outer point, not one per quadrature node
        a = afn(tb, xb)
        g = _gauss(v, a)
        gp = -v / (2 * a) * g
        gpp = (v ** 2 / (4 * a ** 2) - 1 / (2 * a)) * g
        t_z, x_z = tb + u ** 2, xb + u * v
        da = a - afn(t_z, x_z)
        safe_u = np.where(u > 0, u, 1.0)
        return _full(da / safe_u * gpp
                     - bfn(t_z, x_z) * gp
                     - cfn(t_z, x_z) * u * g, tb, xb, u, v)

    return HeatCalcKernel(1.0, ftilde)


def heat_convolve(F: HeatCalcKernel, G: HeatCalcKernel, *,
                  n_s: int = 20, n_y: int = 24) -> HeatCalcKernel:
    """Space-time convolution F*G inside the calculus, for positive
    integer orders.

    The time integral is reduced to s = sin^2(theta) in (0,1), which renders
    the profiles' dependence on sqrt(s) and sqrt(1-s) analytic, so plain
    Gauss-Legendre in theta is spectral; the space integral uses
    Gauss-Legendre on [-9, 9].  Refuses kernels whose profiles have not
    decayed to 1e-6 of their centre value (or of 1, if larger) at the edge
    of that window.

    The profile evaluates its n_s x n_y quadrature over the flattened batch
    of points in blocks of at most ``_QUAD_BLOCK`` products (17 points at
    the default 20 x 24): the inner level of a nested convolution has one
    point per outer node, and one array over all of them (1.8 MB per
    temporary at ``volterra(field, 2)``) would leave the cache, and be
    mapped and page-faulted afresh by the allocator, for every temporary.
    Each point still sums its products with one ``np.sum`` over the two
    quadrature axes of a C-contiguous array, so its value has the same bits
    whether it is evaluated alone or in a batch.
    """
    alpha, beta = F.alpha, G.alpha
    if not all(o > 0 and float(o).is_integer() for o in (alpha, beta)):
        raise ValueError(f"convolution requires positive integer orders, "
                         f"not {alpha} and {beta}")
    y_half = 9.0
    for K in (F, G):
        centre = np.max(np.abs(K.ftilde(0.0, 0.0, 0.5, np.array([0.0]))))
        edge = np.max(np.abs(K.ftilde(0.0, 0.0, 0.5, np.array([y_half]))))
        if centre > 0 and edge > 1e-6 * max(centre, 1.0):
            raise ValueError(
                f"kernel profile has not decayed at |v|={y_half}: "
                f"|Ftilde|={edge:.3e} vs centre {centre:.3e}")
    _load()
    xl, wl_ = roots_legendre(n_s)
    theta = (xl + 1.0) * (np.pi / 4.0)
    s_nodes = np.sin(theta) ** 2
    s_weights = (wl_ * (np.pi / 4.0) * 2.0
                 * np.sin(theta) ** (beta - 1.0)
                 * np.cos(theta) ** (alpha - 1.0))
    yl, wl = roots_legendre(n_y)
    y_nodes = yl * y_half
    y_weights = wl * y_half

    S, Y = s_nodes[:, None], y_nodes[None, :]
    WSY = (s_weights[:, None] * y_weights[None, :])
    root_s, root_1s = np.sqrt(S), np.sqrt(1 - S)
    root_s1s = np.sqrt(S * (1 - S))
    per_block = max(1, _QUAD_BLOCK // (n_s * n_y))

    def ftilde(tb, xb, u, v):
        args = [np.asarray(p, dtype=float) for p in (tb, xb, u, v)]
        shape = np.broadcast_shapes(*(p.shape for p in args))
        n = math.prod(shape)
        tb, xb, u, v = (np.broadcast_to(p, shape).reshape(-1, 1, 1)
                        for p in args)
        out = np.empty(n)
        for lo in range(0, n, per_block):
            hi = min(lo + per_block, n)
            tb_, xb_, u_, v_ = tb[lo:hi], xb[lo:hi], u[lo:hi], v[lo:hi]
            g_vals = G.ftilde(tb_, xb_, u_ * root_s,
                              Y * root_1s + v_ * root_s)
            f_vals = F.ftilde(tb_ + u_ ** 2 * S,
                              u_ * Y * root_s1s + xb_ + u_ * v_ * S,
                              u_ * root_1s,
                              v_ * root_1s - Y * root_s)
            # a profile has its arguments' shape, and both v arguments span
            # the block: the products form one C-contiguous array
            out[lo:hi] = np.sum(WSY * g_vals * f_vals, axis=(-2, -1))
        return out.reshape(shape)

    return HeatCalcKernel(alpha + beta, ftilde)


# ---------------------------------------------------------------------------
# Volterra series


@dataclass
class Volterra:
    """Partial sums of the parametrix series Z * sum_k (-E)^{*k}."""

    summands: list
    partial: bool = False
    computed_upto: int = 0

    def __call__(self, z, zbar):
        return sum(s(z, zbar) for s in self.summands)


def volterra(field: CoefficientField, N: int, *, n_s: int = 20,
             n_y: int = 24) -> Volterra:
    """Truncated parametrix series; each summand lives one order higher in
    the calculus.  Nested quadrature cost grows geometrically in the order,
    so the series is cut (and flagged partial) once one evaluation would
    cost more than ``_VOLTERRA_BUDGET`` profile evaluations."""
    if N < 0:
        raise ValueError("series order must be non-negative")
    if field.error_vanishes():
        return Volterra([z_kernel(field)], False, N)
    neg_e = e_kernel(field).scaled(-1.0)
    summands = [z_kernel(field)]
    cost, partial = 1.0, False
    for k in range(1, N + 1):
        cost *= n_s * n_y
        if cost > _VOLTERRA_BUDGET:
            partial = True
            break
        summands.append(heat_convolve(summands[-1], neg_e,
                                      n_s=n_s, n_y=n_y))
    return Volterra(summands, partial, len(summands) - 1)


def apply_operator(field: CoefficientField, G: Callable, z, zbar) -> float:
    """(d_t - a d_x^2 - b d_x - c) G(., zbar) at z by central differences
    with steps 2e-5 in t and 2e-4 in x."""
    z = np.asarray(z, dtype=float)
    ht, hx = 2e-5, 2e-4
    et, ex = np.array([ht, 0.0]), np.array([0.0, hx])
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


def _parse_jet(s) -> tuple[str, tuple[int, int]] | None:
    """Inverse of _jet_symbol: a{i}_{j} -> ("a", (i, j)); None for a name
    that _jet_symbol does not write."""
    name, (i, _, j) = str(s)[:1], str(s)[1:].partition("_")
    if name in ("a", "b", "c") and all(
            n.isdecimal() and str(int(n)) == n for n in (i, j)):
        return name, (int(i), int(j))
    return None


def _term_symbol(name: str) -> sp.Symbol | None:
    """The symbol of a name of the term grammar, a jet (``_parse_jet``) or a
    chain variable u or v, else None; ``LambdaTerm.validate`` admits the
    same two kinds."""
    jet = _parse_jet(name)
    return _jet_symbol(*jet) if jet else {"u": U_SYM, "v": V_SYM}.get(name)


@dataclass(frozen=True)
class LambdaTerm:
    """One certified local term F(w) * int prod P[i](y_i - y_{i+1})
    W^w(y_i - y_{i+1}) dy.

    ``coefficient`` is a rational expression in the jet symbols
    a{i}_{j}, b{i}_{j}, c{i}_{j} (denominators only powers of a0_0);
    the chain, of at least one factor, holds polynomials Q[i] in (u, v),
    realising P[i](t, x) = t^{-1/2} Q[i](sqrt t, x / sqrt t).  ``to_dict``
    prints them once per term as plain expressions of the term grammar,
    which the coefficient reader ``_read`` reads back.
    """

    coefficient: sp.Expr
    chain: tuple[sp.Expr, ...]

    def __post_init__(self):
        _load()

    def validate(self, r: int) -> bool:
        """Structural check against the admissible grammar, with jets of
        order at most r: a chain of at least one polynomial in (u, v), and
        a coefficient rational in the jets, its denominator a monomial in
        a0_0."""
        jets = [_parse_jet(s) for s in self.coefficient.free_symbols]
        den = sp.denom(sp.together(self.coefficient))
        a0 = _jet_symbol("a", (0, 0))
        return (bool(self.chain) and all(
            q.free_symbols <= {U_SYM, V_SYM} and q.is_polynomial(U_SYM, V_SYM)
            for q in self.chain)
            and all(jet and mi_sdeg(jet[1], SCALING) <= r for jet in jets)
            and self.coefficient.is_rational_function()
            and den.free_symbols <= {a0} and sp.Poly(den, a0).is_monomial)

    @cached_property
    def _text(self) -> tuple[str, ...]:
        return tuple(map(str, (self.coefficient, *self.chain)))

    def to_dict(self) -> dict:
        coefficient, *chain = self._text
        return {"coefficient": coefficient, "chain": chain}

    def evaluate(self, field: CoefficientField, w, zeta):
        """Numeric value of the certified kernel at offset zeta, frozen at
        w.  Everything is consumed through the jet of the field at w."""
        kern = reduce(heat_convolve, [
            _chain_factor(field, w, [(sp.S.One, q)], 1) for q in self.chain])
        coeff = _at_jets(field, w, [self.coefficient])[0]
        return kern.scaled(coeff)(np.asarray(zeta, dtype=float), np.zeros(2))


def _at_jets(field: CoefficientField, w, exprs) -> list[float]:
    """Expressions in the jet symbols at the field's jets at the point w."""
    w = np.asarray(w, dtype=float)[None, :]
    syms = set().union(*(e.free_symbols for e in exprs))
    subs = {s: sp.Float(float(field.jet(*_parse_jet(s), w)[0])) for s in syms}
    return [float(e.xreplace(subs)) for e in exprs]


@cache
def _monomials(q: sp.Expr, alpha: int) -> tuple:
    """u^{1-alpha} Q(u, v) as ((p, q), coefficient of u^p v^q) pairs: the
    profile in an order-alpha kernel of t^{-1} Q(sqrt t, x / sqrt t)."""
    poly = sp.Poly(sp.expand(q * U_SYM ** (1 - alpha)), U_SYM, V_SYM)
    return tuple((pq, float(c)) for pq, c in poly.as_dict().items())


def _chain_factor(field: CoefficientField, w, pairs,
                  alpha: int) -> HeatCalcKernel:
    """sum_i c_i t^{-1} Q_i(sqrt t, x / sqrt t) W^w(x / sqrt t) over the
    (c_i, Q_i) pairs, as an order-alpha kernel of the calculus: each c_i is
    an expression in the jet symbols, taken at the field's jets at w, and
    W^w is the profile of the Gaussian frozen at a(w).  The pairs collapse
    into one polynomial in (u, v) per w.  The one evaluator of certificate
    chains and of the table terms of ``local(w)``; its base term, the
    frozen Gaussian, is read from the (0, 0) Z slot instead (see
    ``GreenDecomposition._chain_kernel``)."""
    coeffs = _at_jets(field, w, [c for c, _q in pairs])
    poly: dict = {}
    for c, (_c, q) in zip(coeffs, pairs):
        for pq, m in _monomials(q, alpha):
            poly[pq] = poly.get(pq, 0.0) + c * m
    top = [max((pq[i] for pq in poly), default=0) for i in (0, 1)]
    a0 = float(field.a(np.asarray(w, dtype=float)[None, :])[0])

    def ftilde(tb, xb, u, v):
        u, v = (np.asarray(p, dtype=float) for p in (u, v))
        # the powers x^0..x^n by products: numpy's x**n is slower for n > 2
        us, vs = (list(accumulate([x] * n, np.multiply, initial=1.0))
                  for x, n in zip((u, v), top))
        return _full(sum(c * us[p] * vs[q] for (p, q), c in poly.items())
                     * _gauss(v, a0), tb, xb, u, v)
    return HeatCalcKernel(float(alpha), ftilde)


def parse_lambda_term(data: dict) -> LambdaTerm:
    """The inverse of ``LambdaTerm.to_dict``: the coefficient reader
    ``_read`` held to the term grammar, integer literals, the operators and
    the names of ``_term_symbol``, without floats or calls; ValueError for
    anything else.  A number is not distributed over a sum that the text
    keeps in a product, as ``str`` writes 1/(2*(u + 1))."""
    _load()
    if not (isinstance(data, dict) and data.keys() == {"coefficient", "chain"}
            and isinstance(data["chain"], list)):
        raise ValueError(f"not a term's dict: {data!r:.60}")
    texts = [data["coefficient"], *data["chain"]]
    for distribute in (True, False):
        # not distributing is tried second, where sympy's reading does not
        # print back as the text: switching it on or off clears sympy's
        # cache, and reading every term so made the round trip 4x slower
        with sp.core.parameters.distribute(distribute):
            coefficient, *chain = (_read(text, "term", _term_symbol, (),
                                         floats=False) for text in texts)
        term = LambdaTerm(coefficient, tuple(chain))
        if list(term._text) == texts:
            break
    return term


# ---------------------------------------------------------------------------
# Taylor expansion in the base point


@cache
def _gauss_expr() -> sp.Expr:
    # built on first use: sympy's first exp and sqrt take 80 ms and 1 MB
    return sp.exp(-_V ** 2 / (4 * _AFUN)) / sp.sqrt(4 * sp.pi * _AFUN)


def _jetify(expr: sp.Expr) -> sp.Expr:
    """Replace derivatives of the abstract coefficient by jet symbols."""
    repl = {}
    for der in expr.atoms(sp.Derivative):
        counts = {_WT: 0, _WX: 0}
        for var, cnt in der.variable_count:
            counts[var] += cnt
        repl[der] = _jet_symbol("a", (counts[_WT], counts[_WX]))
    return expr.xreplace(repl).xreplace({_AFUN: _jet_symbol("a", (0, 0))})


@cache
def _a_jet_expr(g, k, dv: int) -> sp.Expr:
    """d_w^k d_v^dv of an expression g in a(w) and v (the frozen Gaussian's
    profile, a bracket factor of E), with a-derivatives as jet symbols."""
    return _jetify(sp.expand(sp.diff(g, _WT, k[0], _WX, k[1], _V, dv)))


@cache
def _a_jet_fn(g, k, dv: int) -> tuple[Callable, list]:
    """_a_jet_expr lambdified, with the jet indices of its arguments: the
    one table of callables behind every base-point expansion."""
    e = _a_jet_expr(g, k, dv)
    syms = sorted((s for s in e.free_symbols if s is not _V), key=str)
    return (sp.lambdify([*syms, _V], e, "numpy"),
            [_parse_jet(s)[1] for s in syms])


def _a_jet(field, g, k, point, v, dv: int):
    """d_w^k d_v^dv g at the field's a-jets at a point and at v."""
    fn, ks = _a_jet_fn(g, tuple(k), dv)
    point = np.asarray(point, dtype=float)
    return fn(*(field.jet("a", j, point) for j in ks),
              np.asarray(v, dtype=float))


def _z_slots(field: CoefficientField, r: int, dv: int) -> list[_SlotTerm]:
    """Base-point slots of the frozen Gaussian (dv = 0), an order-2 kernel,
    or of its x-derivative (dv = 1), an order-1 kernel: the jet slot of k
    is the frozen Gaussian's profile differentiated k times in w, over k!."""
    return _taylor_slots(
        lambda k, p, v: _a_jet(field, _gauss_expr(), k, p, v, dv),
        mi_below(SCALING, r),
        lambda z, zbar, f: HeatCalcKernel(
            2.0 - dv, lambda _tb, _xb, _u, v: f(v))(z, zbar))


@cache
def _zjet_pairs(k) -> tuple:
    """The k-th Z jet as (jet coefficient, Q(u, v)) pairs of the chain
    grammar; they read no field.  The generic chain factor carries
    t^{-1} Q(u, v) and the jet kernel is t^{-1/2} f(v) W-shaped, so Q picks
    up one power of u."""
    gauss = _gauss_expr()
    ratio = sp.cancel(sp.together(_a_jet_expr(gauss, k, 0)
                                  / _jetify(gauss))) / mi_factorial(k)
    return tuple((sp.together(coeff), U_SYM * V_SYM ** deg)
                 for (deg,), coeff in sp.Poly(sp.expand(ratio), _V).terms())


def taylor_decompose_Z(field: CoefficientField, r: int):
    """Expand the parametrix term in its base-point slot about w.

    Returns (jets, remainders), the jet and remainder slots of
    ``_z_slots(field, r, 0)``: jets[k] for |k|_s < r and remainders[k] for
    the boundary indices k, each a kernel (w, z, zbar) -> value, with
    Z(z, zbar) = sum_k (zbar-w)^k jets[k](w, z, zbar)
               + sum_{k in boundary} (zbar-w)^{k_down} remainders[k](w,z,zbar)
    """
    if r > field.regularity:
        raise ValueError("insufficient coefficient regularity for this "
                         "expansion order")
    slots = _z_slots(field, r, 0)
    return ({s.nu: s.value for s in slots if s.k_label is None},
            {s.k_label: s.value for s in slots if s.k_label is not None})


# ---------------------------------------------------------------------------
# Taylor decomposition of the error kernel


def _coeff_slot_terms(field, name: str, r: int, at_z: bool):
    """Expansion of minus a coefficient evaluated at z (at_z) or of the
    increment a(zbar)-a(z) (not at_z), as slot terms in powers of (zbar-w)."""
    deriv = lambda kd, pt: field.jet(name, kd, pt)
    terms = []
    for k in mi_below(SCALING, r):
        for l in mi_leq_iter(k):
            if not at_z and l == (0, 0):
                continue
            nu = mi_sub(k, l)
            c = -1.0 / (mi_factorial(nu) * mi_factorial(l))

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
                                   / mi_factorial(kd)))
        else:
            terms.append(_SlotTerm(kd, k,
                                   lambda w, z, zbar, k=k, kd=kd:
                                   -_increment(deriv, k, kd, w, z)
                                   / mi_factorial(kd)))
        # the part of (z-w)^{k_down} carrying (z-zbar) powers
        for eta in mi_leq_iter(kd):
            if eta == (0, 0):
                continue
            nu = mi_sub(kd, eta)
            c = -(mi_binom(kd, eta) / mi_factorial(kd))

            def val_b(w, z, zbar, k=k, kd=kd, eta=eta, c=c):
                return (c * _mono(np.asarray(z) - np.asarray(zbar), eta)
                        * _increment(deriv, k, kd, w, z))
            terms.append(_SlotTerm(nu, k, val_b))
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
    remainders.  Z, dx Z and the two bracket parts come from
    ``_taylor_slots``, the coefficient factors from ``_coeff_slot_terms``.
    ``slots`` holds the distinct slot terms (82 for r = 3:
    8 of Z, 8 of dx Z, 14 of the a-increment, 16 of the bracket, 18 each of
    b and c) and ``rows`` their products (2,080 for r = 3), jet rows
    first.  A row is a remainder row if any of its slots is a remainder.
    Each slot is evaluated once per point: the views and ``reassemble``
    share the slot values of the last point they were called at, and sum
    the row products in table order, so that

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
        self.field, self.r = field, r
        self._build()

    def _build(self):
        field, r = self.field, self.r
        self.slots: list[_SlotTerm] = []

        def add(terms) -> range:
            self.slots.extend(terms)
            return range(len(self.slots) - len(terms), len(self.slots))

        iz, izx = (add(_z_slots(field, r, dv)) for dv in (0, 1))
        ida = add(_coeff_slot_terms(field, "a", r, at_z=False))
        # the bracket factors carry no v: their frame is the profile itself
        bracket = [(s, v2) for g, v2 in _BRACKET for s in _taylor_slots(
            lambda k, p, v, g=g: _a_jet(field, g, k, p, v, 0),
            mi_below(SCALING, r), lambda z, zbar, f: f(0.0))]
        ibr = add([s for s, _v2 in bracket])
        ib = add(_coeff_slot_terms(field, "b", r, at_z=True))
        ic = add(_coeff_slot_terms(field, "c", r, at_z=True))

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
        self._point: tuple = (None, {})

    def _values(self, rows, w, z, zbar):
        """Yield the value of each of the rows at (w, z, zbar).  A slot is
        evaluated when a row first asks for it and kept with the point,
        whose key is the arguments' shapes and bytes, until a call at
        another point."""
        w, z, zbar = (np.asarray(p, dtype=float) for p in (w, z, zbar))
        key = tuple((p.shape, p.tobytes()) for p in (w, z, zbar))
        if self._point[0] != key:
            self._point = (key, {})
        slot_values = self._point[1]
        s_t = z[..., 0] - zbar[..., 0]
        mask = s_t > 0
        safe = np.where(mask, s_t, 1.0)
        lead = {False: 1.0 / safe,
                True: 1.0 / safe * (z[..., 1] - zbar[..., 1]) ** 2 / safe}
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
        # the rows share few powers of the offset (16 for r = 3)
        mono = {nu: _mono(offset, nu) for nu in {row.nu for row in self.rows}}
        return sum(mono[row.nu] * value for row, value in
                   zip(self.rows, self._values(self.rows, w, z, zbar)))


def _e0_lambda_pieces(r: int) -> list[tuple[sp.Expr, sp.Expr]]:
    """Symbolic (coefficient, profile) pairs with
    -E^{[0]}(zeta) = sum coeff * t^{-1} Q(u, v) * W-profile(v)."""
    a0 = _jet_symbol("a", (0, 0))
    pieces = []
    for l in mi_below(SCALING, r):
        du, lf = mi_sdeg(l, SCALING), mi_factorial(l)
        if l != (0, 0):
            al = _jet_symbol("a", l)
            pieces.append((al / (4 * a0 ** 2 * lf),
                           U_SYM ** (du - 1) * V_SYM ** (l[1] + 2)))
            pieces.append((-al / (2 * a0 * lf),
                           U_SYM ** (du - 1) * V_SYM ** l[1]))
        pieces.append((-_jet_symbol("b", l) / (2 * a0 * lf),
                       U_SYM ** du * V_SYM ** (l[1] + 1)))
        pieces.append((_jet_symbol("c", l) / lf,
                       U_SYM ** (du + 1) * V_SYM ** l[1]))
    return pieces


# ---------------------------------------------------------------------------
# Green's kernel decomposition


class _Factors(NamedTuple):
    """The chain factors of one Z-jet index k0 as (jet coefficient, Q(u, v))
    pairs: the k0-th jet of Z, and (z-zbar)^{k0} times -E^{[0]}."""
    z: tuple
    e: tuple


@cache
def _green_table(r: int) -> tuple[tuple[tuple[int, int], _Factors], ...]:
    """The (k0, chain factors) of every |k0|_s < r in ``mi_below`` order:
    one table per order r, shared by every field whose E does not vanish."""
    e0 = _e0_lambda_pieces(r)
    return tuple((k0, _Factors(_zjet_pairs(k0), tuple(
        (c, sp.expand(U_SYM ** mi_sdeg(k0, SCALING) * V_SYM ** k0[1] * q))
        for c, q in e0))) for k0 in mi_below(SCALING, r))


class GreenDecomposition:
    """Split Gamma(z, zbar) = K^{upper}(z - zbar) + remainder, where the
    singular family K depends on the coefficients only through their jets
    at the base point and carries term-by-term certificates of that form.

    K^w is the frozen Gaussian plus, for N >= 1 and a non-vanishing E, one
    convolution Z^{[k0]} * ((z-zbar)^{k0} (-E^{[0]})) per k0 with
    |k0|_s < r.  Both factors are read from one table, ``_green_table(r)``:
    ``certificate()`` serialises the products of their pairs, and
    ``local(w)`` evaluates the same pairs at the field's jets at w."""

    def __init__(self, field: CoefficientField, r: int, M: int, cutoff,
                 N: int = 1, *, levels: int = 8, upper: str = "zbar"):
        if field.regularity < 3 * r:
            raise ValueError(
                f"coefficient regularity {field.regularity} below the "
                f"required threshold {3 * r} for expansion order {r}")
        self.field, self.r, self.M, self.N = field, r, M, N
        self.cutoff, self.levels, self.upper = cutoff, levels, upper
        self._quad = dict(n_s=16, n_y=24)
        self._table = (_green_table(r) if N >= 1
                       and not field.error_vanishes() else ())
        self._kernel_cache: dict = {}
        self._volterra = None

    # -- singular part ------------------------------------------------
    def _chain_kernel(self, w) -> Callable:
        key = tuple(np.asarray(w, dtype=float))
        if key not in self._kernel_cache:
            # the (0, 0) jet slot of Z: the Gaussian frozen at a(w).  It
            # stays on this route, not _chain_factor's, because the pinned
            # window bits are its bits: the two differ by rounding only
            base = _z_slots(self.field, 1, 0)[0].value
            parts = [lambda zeta: base(w, zeta, np.zeros(2))]
            for k0, (zs, es) in self._table:
                conv = heat_convolve(
                    _chain_factor(self.field, w, zs, 2),
                    _chain_factor(self.field, w, es,
                                  1 + mi_sdeg(k0, SCALING)), **self._quad)
                parts.append(lambda zeta, conv=conv: conv(zeta, np.zeros(2)))
            self._kernel_cache[key] = lambda zeta: sum(
                p(zeta) for p in parts)
        return self._kernel_cache[key]

    def local(self, w) -> Callable:
        """Evaluator of chi * K^w as a function of the offset z - zbar."""
        w = np.asarray(w, dtype=float)
        if self.upper == "z":
            inner = self._chain_kernel(np.array([-w[0], w[1]]))

            def ev(zeta, inner=inner):
                zeta = np.asarray(zeta, dtype=float)
                refl = np.stack([zeta[..., 0], -zeta[..., 1]], axis=-1)
                return self.cutoff.chi(zeta) * inner(refl)
            return ev
        inner = self._chain_kernel(w)
        return lambda zeta: self.cutoff.chi(zeta) * inner(zeta)

    def dyadic(self, w):
        return dyadic_decompose(self.local(w), self.cutoff, self.levels,
                                beta=Fraction(2), order=self.M)

    def certificate(self) -> list[LambdaTerm]:
        """Term-by-term witnesses that the singular part lies in the
        admissible chain grammar: coefficient jets at the base point times
        convolution chains of (polynomial profile) x (frozen Gaussian)."""
        terms = [LambdaTerm(sp.Integer(1), (U_SYM,))]
        for _k0, (zs, es) in self._table:
            terms += [LambdaTerm(sp.together(c_z * c_e), (q_z, q_e))
                      for c_z, q_z in zs for c_e, q_e in es]
        return terms

    # -- remainder ------------------------------------------------------
    def gamma(self, z, zbar):
        """Truncated series for the Green's kernel the split refers to."""
        if self._volterra is None:
            self._volterra = volterra(self.field, self.N + 1, **self._quad)
        z, zbar = (np.asarray(p, dtype=float) for p in (z, zbar))
        if self.upper == "z":
            # the stored field generates the kernel of the time-reflected
            # adjoint problem; map back through both reflections
            refl = np.array([-1.0, 1.0])
            return self._volterra(zbar * refl, z * refl)
        return self._volterra(z, zbar)

    def remainder(self, z, zbar):
        z, zbar = (np.asarray(p, dtype=float) for p in (z, zbar))
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
