import hashlib
import json
import math
import operator
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from regkit.heatkernel import (
    CoefficientField,
    EDecomposition,
    HeatCalcKernel,
    LambdaTerm,
    _QUAD_BLOCK,
    _PROFILES,
    _a_jet,
    _a_jet_expr,
    _chain_factor,
    _z_slots,
    _zjet_pairs,
    apply_operator,
    boundary_indices,
    decompose_green,
    decompose_green_adjoint,
    e_kernel,
    frozen_gaussian,
    heat_convolve,
    parse_coefficient,
    parse_lambda_term,
    taylor_decompose_Z,
    volterra,
    z_kernel,
)
from regkit.kernels import CutoffFamily, dyadic_decompose, kernel_norm
from regkit.models import Grid, KernelOnGrid
from regkit.trees import mi_below, mi_factorial, mi_sdeg

ORIGIN = np.array([0.0, 0.0])


@pytest.fixture(scope="module")
def cutoff():
    return CutoffFamily((2, 1))


@pytest.fixture(scope="module")
def gentle():
    # smooth, uniformly parabolic, all three coefficients active
    return CoefficientField.make("1 + sin(x)/5 + t/10", "x/7", "cos(x)/3",
                                 regularity=12)


@pytest.fixture(scope="module")
def constant():
    return CoefficientField.make("3/4")


def down(k):
    return (k[0] - 1, k[1]) if k[0] else (k[0], k[1] - 1)


def fit_exponent(hs, vals):
    return np.polyfit(np.log(hs), np.log(vals), 1)[0]


COEFFICIENT_TOKENS = ["x", "t", "0", "1", "9", "0.5", "99", "1e3", ".5", " ",
                      "+", "-", "*", "/", "//", "**", "(", ")", "sin(",
                      "exp(", "sqrt(", "log("]
T_SYM, X_SYM = sp.symbols("t x", real=True)
TERM_SYMBOLS = [*sp.symbols("u v"), *sp.symbols("a0_0 a1_0 a0_2 b0_1 c2_3",
                                                 real=True)]


def term_exprs():
    """Expressions of the term grammar: jet names, u, v and small integers
    under + - * / and small integer powers."""
    leaves = st.integers(-9, 9).map(sp.Integer) | st.sampled_from(TERM_SYMBOLS)
    ops = st.sampled_from([operator.add, operator.sub, operator.mul,
                           operator.truediv])
    return st.recursive(leaves, lambda inner: (
        st.tuples(ops, inner, inner).map(lambda p: p[0](p[1], p[2]))
        | st.tuples(inner, st.integers(-3, 3)).map(lambda p: p[0] ** p[1])),
        max_leaves=8)


def coefficient_texts(depth):
    """Texts of the coefficient grammar of README, nested at most ``depth``
    deep, with bounded literals; an operand is bracketed or not, as drawn."""
    leaves = st.sampled_from(["t", "x", "0", "1", "2", "7", "99", "0.5", "2.",
                              ".25", "1e3", "3e-2", "1.000000000000000001"])
    if depth == 0:
        return leaves
    inner = coefficient_texts(depth - 1).flatmap(
        lambda s: st.sampled_from([s, f"({s})"]))
    return (leaves
            | st.tuples(st.sampled_from("-+"), inner).map("".join)
            | st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]),
                        inner).map("".join)
            | st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log",
                                         "sqrt", "sinh", "cosh", "tanh",
                                         "atan"]),
                        coefficient_texts(depth - 1)).map(
                lambda p: f"{p[0]}({p[1]})"))


class TestCoefficientField:
    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.sampled_from(COEFFICIENT_TOKENS), max_size=14))
    def test_parse_returns_or_refuses(self, parts):
        # towers of powers, long or broken strings: an expression in t and
        # x, or a ValueError, never another exception or a stall
        try:
            expr = parse_coefficient("".join(parts))
        except ValueError:
            return
        assert isinstance(expr, sp.Expr)

    @settings(max_examples=300, deadline=None)
    @given(text=coefficient_texts(3))
    def test_reads_as_sympify(self, text):
        # sympify, which runs the text as Python, is the reference: where
        # the reader accepts, it builds the same expression, bit for bit
        try:
            expr = parse_coefficient(text)
        except ValueError:
            return
        assert sp.srepr(expr) == sp.srepr(
            sp.sympify(text, locals={"t": T_SYM, "x": X_SYM}))

    @pytest.mark.parametrize("text", [
        "1//(x-x)", "sin(sinh(1e9))", "exp(1e2400)", "1 + 0*9**9**9",
        "0x10", "1_000", "1j", "\uff58", "1/0", "x/0", "log(0)", "1e-3000",
        "(2**4000*x)**3", "sin(x, x)", "sin(x=1)", "sin(*x)", "x.real",
        "(x)(2)", "lambda: 1", "[x]", "x if t else 1", "'x'", "y", "1e999999",
        "-" * 10000 + "1"], ids=lambda text: text[:20])
    def test_outside_the_grammar_refused_quickly(self, text):
        parse_coefficient("x")  # sympy is loaded before the clock starts
        started = time.monotonic()
        with pytest.raises(ValueError, match="coefficient"):
            parse_coefficient(text)
        assert time.monotonic() - started < 1.0

    def test_literals_keep_their_text(self):
        # a float is read from its own digits, at their precision
        assert parse_coefficient("1.000000000000000000001") != 1
        assert parse_coefficient(0.1) == sp.Float("0.1")
        assert parse_coefficient("00") == 0
        assert parse_coefficient("(1 +\n x)") == 1 + X_SYM

    def test_long_sum_parses_or_refuses(self):
        # 500 terms parse; 3000 nest too deeply for Python's parser, which
        # is a refusal, not a RecursionError
        assert str(parse_coefficient("+".join(["x"] * 500))) == "500*x"
        with pytest.raises(ValueError, match="does not parse"):
            parse_coefficient("+".join(["x"] * 3000))

    def test_parabolicity_sampled(self, gentle):
        assert gentle.check_parabolicity()
        bad = CoefficientField.make("sin(x)")
        assert not bad.check_parabolicity()

    def test_closed_form_jets(self, gentle):
        w = np.array([[0.2, -0.3]])
        assert gentle.jet("a", (0, 1), w).item() == pytest.approx(
            math.cos(-0.3) / 5, abs=1e-14)
        assert gentle.jet("c", (0, 2), w).item() == pytest.approx(
            -math.cos(-0.3) / 3, abs=1e-14)

    def test_jet_above_regularity_refused(self):
        # the order check runs when a derivative is first built, and again
        # on a repeat, since a refused order is never cached
        field = CoefficientField.make("1 + sin(x)/5", regularity=6)
        w = np.array([[0.2, 0.1]])
        for _ in range(2):
            with pytest.raises(ValueError, match="regularity"):
                field.jet("a", (0, 7), w)
        assert field.jet("a", (0, 6), w).item() == pytest.approx(
            -math.sin(0.1) / 5, abs=1e-14)

    def test_adjoint_triple(self, gentle):
        x = sp.Symbol("x", real=True)
        adj = gentle.adjoint()
        assert sp.simplify(adj.b_expr
                           - (2 * sp.diff(gentle.a_expr, x)
                              - gentle.b_expr)) == 0
        assert sp.simplify(adj.c_expr
                           - (gentle.c_expr - sp.diff(gentle.b_expr, x)
                              + sp.diff(gentle.a_expr, x, 2))) == 0

    def test_twist_keeps_powers(self):
        # the twist of decompose_green does not expand the coefficients, so
        # a high power stays one power (expanding it took 30 s)
        field = CoefficientField.make("(1+x)**4000")
        twisted = field.adjoint().reflect_time()
        assert twisted.a_expr == parse_coefficient("(1+x)**4000")
        assert str(twisted.a_expr) == "(x + 1)**4000"


class TestFrozenGaussian:
    def test_unit_coefficient_formula(self):
        f = CoefficientField.make("1")
        z = np.array([[0.3, 0.4]])
        expected = math.exp(-0.4 ** 2 / (4 * 0.3)) / math.sqrt(
            4 * math.pi * 0.3)
        assert frozen_gaussian(f, ORIGIN, z).item() == pytest.approx(
            expected, rel=1e-14)

    def test_mass_one(self, gentle):
        xs = np.linspace(-20, 20, 10001)
        for t in (0.1, 1.0):
            z = np.stack([np.full_like(xs, t), xs], axis=-1)
            mass = np.trapezoid(frozen_gaussian(gentle, ORIGIN, z), xs)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_causality(self, gentle):
        z = np.array([[0.0, 0.3], [-0.2, 0.1]])
        assert np.all(frozen_gaussian(gentle, ORIGIN, z) == 0.0)

    def test_ellipticity_error(self):
        f = CoefficientField.make("x")  # vanishes at the base point
        with pytest.raises(ValueError, match="ellipticity"):
            frozen_gaussian(f, ORIGIN, np.array([[0.1, 0.0]]))

    def test_batch_of_base_points_refused(self):
        # one frozen coefficient per call: a batch of w has no single a(w)
        f = CoefficientField.make("1 + sin(x)/5")
        with pytest.raises(ValueError, match="shape"):
            frozen_gaussian(f, [[0, 0], [0, 1]], np.array([[0.1, 0.0]]))


class TestErrorKernel:
    def test_constant_coefficients_vanish(self, constant):
        assert e_kernel(constant)(np.array([0.5, 0.2]),
                                  np.array([0.1, 0.0])) == 0.0

    def test_matching_diffusion_vanishes(self):
        # pure diffusion, equal a at the sampled pair
        f = CoefficientField.make("1 + sin(x)/5")
        z, zbar = np.array([0.4, 0.3]), np.array([0.1, 0.3])
        assert float(e_kernel(f)(z, zbar)) == pytest.approx(0.0, abs=1e-15)

    def test_short_time_order(self):
        # |E| at fixed v scales like (t - tbar)^{(1-3)/2}
        E = e_kernel(CoefficientField.make("1 + sin(x)/5", regularity=12))
        hs = np.array([0.02, 0.01, 0.005, 0.0025])
        vals = [abs(float(E(np.array([h, 2.0 * math.sqrt(h)]), ORIGIN)))
                for h in hs]
        assert fit_exponent(hs, vals) == pytest.approx(-1.0, abs=0.2)


class TestHeatConvolve:
    def test_against_direct_quadrature(self, gentle):
        Z, E = z_kernel(gentle), e_kernel(gentle)
        conv = heat_convolve(Z, E, n_s=24, n_y=48)
        z, zbar = np.array([0.7, 0.3]), np.array([0.1, -0.1])
        # independent oracle: endpoint-desingularised trapezoid rule
        theta = np.linspace(0, np.pi / 2, 402)[1:-1]
        taus = zbar[0] + (z[0] - zbar[0]) * np.sin(theta) ** 2
        jac = (z[0] - zbar[0]) * np.sin(2 * theta)
        ys = np.linspace(zbar[1] - 16, zbar[1] + 16, 2401)
        TT, YY = np.meshgrid(taus, ys, indexing="ij")
        pts = np.stack([TT, YY], axis=-1)
        vals = Z(z[None, None, :], pts) * E(pts, zbar[None, None, :])
        direct = np.trapezoid(np.trapezoid(vals, ys, axis=1) * jac, theta)
        assert float(conv(z, zbar)) == pytest.approx(direct, rel=1e-4)

    def test_gaussian_pair_order(self, constant):
        Z = z_kernel(constant)
        conv = heat_convolve(Z, Z)
        assert conv.alpha == 4.0
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        vals = [float(conv(np.array([h, 0.3 * math.sqrt(h)]), ORIGIN))
                for h in hs]
        assert fit_exponent(hs, vals) == pytest.approx((4 - 3) / 2, abs=0.1)

    def test_chapman_kolmogorov(self, constant):
        # constant coefficients make Z*Z = (t - tbar) W exactly
        Z = z_kernel(constant)
        conv = heat_convolve(Z, Z, n_y=48)
        z, zbar = np.array([0.7, 0.3]), np.array([0.1, -0.1])
        exact = (z[0] - zbar[0]) * frozen_gaussian(
            constant, zbar, (z - zbar)[None, :]).item()
        assert float(conv(z, zbar)) == pytest.approx(exact, rel=1e-10)

    def test_zero_kernel(self, gentle):
        Z = z_kernel(gentle)
        conv = heat_convolve(Z, Z.scaled(0.0))
        assert float(conv(np.array([0.5, 0.2]), ORIGIN)) == 0.0

    def test_associativity(self, gentle):
        Z, E = z_kernel(gentle), e_kernel(gentle)
        left = heat_convolve(heat_convolve(Z, E), E)
        right = heat_convolve(Z, heat_convolve(E, E))
        z, zbar = np.array([0.6, 0.2]), np.array([0.1, -0.1])
        assert float(left(z, zbar)) == pytest.approx(float(right(z, zbar)),
                                                     rel=1e-3)

    def test_non_integer_order_refused(self, gentle):
        # every kernel regkit builds has an integer order, which the sin^2
        # Gauss-Legendre rule needs
        Z = z_kernel(gentle)
        with pytest.raises(ValueError, match="integer orders"):
            heat_convolve(Z, HeatCalcKernel(1.5, Z.ftilde))

    def test_undecayed_tail_refused(self, gentle):
        Z = z_kernel(gentle)
        flat = z_kernel(gentle)
        bad = type(flat)(1.0, lambda tb, xb, u, v: np.ones(np.shape(v)))
        with pytest.raises(ValueError, match="decayed"):
            heat_convolve(Z, bad)


class TestVolterra:
    def test_constant_equals_gaussian(self, constant):
        vol = volterra(constant, 3)
        z, zbar = np.array([0.5, 0.2]), np.array([0.1, 0.0])
        exact = frozen_gaussian(constant, zbar, (z - zbar)[None, :]).item()
        assert float(vol(z, zbar)) == pytest.approx(exact, rel=1e-14)

    def test_causality(self, gentle):
        vol = volterra(gentle, 1, n_s=8, n_y=12)
        assert float(vol(np.array([0.1, 0.0]), np.array([0.4, 0.0]))) == 0.0

    def test_telescoping(self, gentle):
        # L Gamma_N = -(-E)^{*(N+1)} off the diagonal, L by differences
        neg_e = e_kernel(gentle).scaled(-1.0)
        vol = volterra(gentle, 2, n_s=16, n_y=32)
        tail = heat_convolve(heat_convolve(neg_e, neg_e, n_s=16, n_y=32),
                             neg_e, n_s=16, n_y=32)
        z, zbar = np.array([0.6, 0.25]), np.array([0.1, -0.1])
        lhs = apply_operator(gentle, vol, z, zbar)
        rhs = -float(tail(z, zbar))
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_summand_scaling(self, gentle):
        vol = volterra(gentle, 2, n_s=12, n_y=24)
        hs = np.array([0.04, 0.02, 0.01, 0.005])
        rays = (0.0, 0.5, 1.0, 2.0)
        for k in (0, 1, 2):
            S = vol.summands[k]
            vals = [max(abs(float(S(np.array([h, v * math.sqrt(h)]), ORIGIN)))
                        for v in rays) for h in hs]
            assert fit_exponent(hs, vals) == pytest.approx(
                (2 + k - 3) / 2, abs=0.2)

    @pytest.mark.parametrize("b, c", [(1 / 3, 0.0), (0.0, 0.5)],
                             ids=["drift", "potential"])
    def test_constant_drift_and_potential(self, b, c):
        # a constant b or c leaves E = -b dx Z - c Z, so the series is
        # built; the Green's kernel of a = 1 is e^{ct} Z(t, x + bt)
        field = CoefficientField.make("1", str(b), str(c))
        vol = volterra(field, 2)
        assert vol.computed_upto == 2
        t, x = 0.3, 0.2
        exact = (math.exp(c * t - (x + b * t) ** 2 / (4 * t))
                 / math.sqrt(4 * math.pi * t))
        assert float(vol(np.array([t, x]), ORIGIN)) == pytest.approx(
            exact, rel=2e-3)

    def test_budget_flag(self, gentle):
        # at n_s * n_y = 480 a fourth nested step would cost 480^4 > 5e8
        # profile evaluations per point, so the series stops after three
        # (only closures are built)
        vol = volterra(gentle, 4)
        assert vol.partial
        assert vol.computed_upto == 3
        assert len(vol.summands) == 4


HEAT_PINS = json.loads(
    (Path(__file__).parent / "heat_convolve_pins.json").read_text())


@lru_cache(maxsize=None)
def _pinned_field():
    return CoefficientField.make(*HEAT_PINS["field"], regularity=12)


def _point_counts(per_block):
    """Point counts just below, at and just above 1, 2 and 3 blocks."""
    return [k * per_block + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@st.composite
def batches(draw, per_block):
    """A batch of points (z, zbar): shape (n,) or (a, b) with n = a*b
    points, zbar sometimes one point or a length-1 axis that broadcasts."""
    n = draw(st.sampled_from(_point_counts(per_block)))
    if draw(st.booleans()):
        shape = (n,)
    else:
        a = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        shape = (a, n // a)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zbar_shape = draw(st.sampled_from(
        [shape, (), shape[:-1] + (1,), (1,) * len(shape)]))
    zbar = rng.uniform(-0.3, 0.3, zbar_shape + (2,))
    z = zbar + np.stack([rng.uniform(-0.05, 0.8, shape),
                         rng.uniform(-0.6, 0.6, shape)], axis=-1)
    return z, zbar


def _each_point_alone(kernel, z, zbar):
    zbar = np.broadcast_to(zbar, z.shape)
    return [float(kernel(z[i], zbar[i])).hex()
            for i in np.ndindex(z.shape[:-1])]


class TestBlockedQuadrature:
    """heat_convolve evaluates its quadrature in blocks of at most
    _QUAD_BLOCK products; the values keep the bits of one evaluation over
    the whole batch, and of each point alone."""

    def test_pinned_volterra_points(self):
        vol = volterra(_pinned_field(), 2)
        for pin in HEAT_PINS["volterra_2"]:
            got = vol(np.array(pin["z"]), np.array(pin["zbar"]))
            assert float(got).hex() == pin["value"]

    def test_pinned_base_point_kernel(self, cutoff):
        probe = HEAT_PINS["probe"]
        field = CoefficientField.make(probe["field_a"], regularity=12)
        local = decompose_green(field, 3, 2, cutoff, N=1).local(
            np.array(probe["w"]))
        grid = Grid((256, 256), (1 / 256, 1 / 16))
        kog = KernelOnGrid(dyadic_decompose(local, cutoff, 4,
                                            beta=Fraction(2), order=10), grid)
        ti, xi, vals = kog.stencil()
        digest = hashlib.blake2b(digest_size=16)
        for part in (ti.astype(np.int64), xi.astype(np.int64),
                     vals.astype(np.float64)):
            digest.update(np.ascontiguousarray(part).tobytes())
        assert len(vals) == probe["stencil_size"]
        assert digest.hexdigest() == probe["blake2b_16"]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), quad=st.sampled_from([(20, 24), (16, 24),
                                                 (64, 64)]))
    def test_convolution_batch_equals_points(self, data, quad):
        n_s, n_y = quad
        field = _pinned_field()
        conv = heat_convolve(z_kernel(field), e_kernel(field),
                             n_s=n_s, n_y=n_y)
        z, zbar = data.draw(batches(_QUAD_BLOCK // (n_s * n_y)))
        batch = conv(z, zbar)
        assert batch.shape == z.shape[:-1]
        assert [float(x).hex() for x in batch.reshape(-1)] == \
            _each_point_alone(conv, z, zbar)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_volterra_batch_equals_points(self, data):
        # 8 x 12 nodes: 85 points per block; each outer point's inner level
        # has 96 points, so the inner blocks straddle the outer points
        vol = volterra(_pinned_field(), 2, n_s=8, n_y=12)
        z, zbar = data.draw(batches(_QUAD_BLOCK // 96))
        batch = vol(z, zbar)
        assert [float(x).hex() for x in batch.reshape(-1)] == \
            _each_point_alone(vol, z, zbar)

    def test_warm_point_memory(self):
        # one point of volterra(field, 2) evaluates 480 inner points; in
        # blocks its temporaries stay small (19.5 MB when evaluated at once)
        vol = volterra(_pinned_field(), 2)
        pin = HEAT_PINS["volterra_2"][0]
        z, zbar = np.array(pin["z"]), np.array(pin["zbar"])
        vol(z, zbar)
        tracemalloc.start()
        try:
            vol(z, zbar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestTaylorZ:
    def test_boundary_indices_literal(self):
        # the slot and row order of the pinned E views starts from these
        assert [boundary_indices(r) for r in range(1, 7)] == [
            [(0, 1), (1, 0)],
            [(0, 2), (1, 0), (1, 1)],
            [(0, 3), (1, 1), (1, 2), (2, 0)],
            [(0, 4), (1, 2), (1, 3), (2, 0), (2, 1)],
            [(0, 5), (1, 3), (1, 4), (2, 1), (2, 2), (3, 0)],
            [(0, 6), (1, 4), (1, 5), (2, 2), (2, 3), (3, 0), (3, 1)],
        ]

    def test_order_one_is_gaussian(self, gentle):
        jets, rems = taylor_decompose_Z(gentle, 1)
        assert set(jets) == {(0, 0)}
        w, zeta = np.array([0.2, 0.1]), np.array([[0.3, 0.4]])
        assert jets[(0, 0)](w, zeta, ORIGIN).item() == pytest.approx(
            frozen_gaussian(gentle, w, zeta).item(), rel=1e-12)

    def test_constant_field_trivial(self, constant):
        jets, rems = taylor_decompose_Z(constant, 2)
        w = np.array([0.0, 0.0])
        z, zbar = np.array([0.4, 0.3]), np.array([0.05, 0.02])
        for k, jet in jets.items():
            if k != (0, 0):
                assert jet(w, z[None, :], zbar).item() == 0.0
        for rem in rems.values():
            assert float(rem(w, z, zbar)) == 0.0

    def test_reassembly(self, gentle):
        rng = np.random.default_rng(3)
        jets, rems = taylor_decompose_Z(gentle, 2)
        Z = z_kernel(gentle)
        for _ in range(50):
            w = rng.uniform(-0.5, 0.5, 2)
            zbar = w + rng.uniform(-1, 1, 2) * np.array([0.01, 0.1])
            z = zbar + np.array([rng.uniform(0.02, 0.5),
                                 rng.uniform(-0.6, 0.6)])
            total = sum(
                (zbar - w)[0] ** k[0] * (zbar - w)[1] ** k[1]
                * float(jet(w, z, zbar)) for k, jet in jets.items())
            total += sum(
                (zbar - w)[0] ** down(k)[0] * (zbar - w)[1] ** down(k)[1]
                * float(rem(w, z, zbar)) for k, rem in rems.items())
            assert abs(total - float(Z(z, zbar))) <= 1e-6

    def test_insufficient_regularity(self):
        shallow = CoefficientField.make("1 + sin(x)/5", regularity=1)
        with pytest.raises(ValueError, match="regularity"):
            taylor_decompose_Z(shallow, 2)

    @pytest.mark.parametrize("r", ["2", "4"])
    def test_pinned_values(self, r):
        # bit-for-bit the values of the per-kernel implementation; at r = 4
        # the remainder (1, 3) tells (t^p inc) / kd! from t^p (inc / kd!)
        pins = E_PINS["taylor_z"][r]
        field = CoefficientField.make(*E_PINS["field"], regularity=12)
        jets, rems = taylor_decompose_Z(field, int(r))
        # the jet slots of the x-derivative of Z (dv = 1)
        dx_jets = {s.nu: s.value for s in _z_slots(field, int(r), 1)
                   if s.k_label is None}
        assert list(dx_jets) == list(jets)
        for i, triple in enumerate(E_PINS["triples"]):
            w, z, zbar = (np.array(p) for p in triple)
            assert {str(k): [_hex(jet(w, z, zbar)),
                             _hex(dx_jets[k](w, z, zbar))]
                    for k, jet in jets.items()} == pins["jets"][i]
            assert {str(k): _hex(rem(w, z, zbar))
                    for k, rem in rems.items()} == pins["remainders"][i]

    def test_jet_certificates(self, gentle):
        jets, _ = taylor_decompose_Z(gentle, 3)
        w, zeta = np.array([0.1, -0.2]), np.array([[0.2, 0.15]])
        for k, jet in jets.items():
            terms = [LambdaTerm(c, (q,)) for c, q in _zjet_pairs(k)]
            assert all(t.validate(3) for t in terms)
            total = sum(float(t.evaluate(gentle, w, zeta[0])) for t in terms)
            assert total == pytest.approx(jet(w, zeta, ORIGIN).item(),
                                          rel=1e-9)


def _parabolic_reference(zeta, dv, profile):
    """The frame of the frozen Gaussian (dv = 0) and of its x-derivative
    (dv = 1) as a formula of its own: t^{-1/2-dv/2} profile(x / sqrt t) at
    the offsets zeta = (t, x), and 0 where t <= 0."""
    zeta = np.asarray(zeta, dtype=float)
    t, x = zeta[..., 0], zeta[..., 1]
    mask = t > 0
    safe = np.where(mask, t, 1.0)
    return np.where(mask, safe ** (-0.5 - 0.5 * dv)
                    * profile(x / np.sqrt(safe)), 0.0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _a_jet_reference(name, k, dv):
    """d_w^k d_v^dv of a profile of ``_PROFILES`` by sympy's derivatives of
    an abstract coefficient a(w_t, w_x), expanded, with each derivative of
    a, and a itself, then replaced by its jet symbol a{i}_{j}: the route
    that ``_a_jet_expr``'s chain rule replaces."""
    wt, wx, v = sp.symbols("w_t w_x v", real=True)
    a = sp.Function("a")(wt, wx)
    g = {"gauss": sp.exp(-v ** 2 / (4 * a)) / sp.sqrt(4 * sp.pi * a),
         "bracket_v2": sp.Rational(1, 4) / a ** 2,
         "bracket_1": -sp.Rational(1, 2) / a}[name]
    expr = sp.expand(sp.diff(g, wt, k[0], wx, k[1], v, dv))
    jets = {}
    for der in expr.atoms(sp.Derivative):
        counts = {wt: 0, wx: 0}
        for var, count in der.variable_count:
            counts[var] += count
        jets[der] = sp.Symbol(f"a{counts[wt]}_{counts[wx]}", real=True)
    return expr.xreplace(jets).xreplace({a: sp.Symbol("a0_0", real=True)})


class TestAJetTable:
    @pytest.mark.parametrize("name", sorted(_PROFILES))
    def test_chain_rule_is_the_derivative(self, name):
        # structurally equal, so lambdify prints the same code and every
        # value keeps its bits
        for k in mi_below((2, 1), 4):
            for dv in (0, 1):
                assert _a_jet_expr(name, k, dv) == _a_jet_reference(
                    name, k, dv), (k, dv)


class TestFrame:
    # offsets with t <= 0 (zeros included) and t > 0, in batches
    points = hnp.arrays(
        float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3).map(
            lambda shape: shape + (2,)),
        elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))

    @settings(max_examples=60, deadline=None)
    @given(z=points, zbar=st.sampled_from([(0.0, 0.0), (0.25, -0.5),
                                           (-0.3, 0.1)]),
           dv=st.sampled_from([0, 1]))
    def test_calculus_frame_is_the_formula(self, z, zbar, dv):
        # an order 2 - dv kernel whose profile ignores (zb, u) is the
        # frame of the Z slots, bit for bit
        zbar = np.array(zbar)
        profile = lambda v: np.exp(-v ** 2 / 3) * (1 + v)  # noqa: E731
        got = HeatCalcKernel(2.0 - dv, lambda _tb, _xb, _u, v: profile(v))
        want = _parabolic_reference(z - zbar, dv, profile)
        assert np.array_equal(_bits(got(z, zbar)), _bits(want))

    @settings(max_examples=20, deadline=None)
    @given(z=points, dv=st.sampled_from([0, 1]),
           k=st.sampled_from([(0, 0), (0, 1), (1, 0), (0, 2)]))
    def test_z_jet_slots_are_the_formula(self, gentle, z, dv, k):
        # the jet slot of k is the frame of the k-th w-derivative of the
        # frozen Gaussian's profile, over k!
        w, zbar = np.array([0.1, -0.2]), np.array([0.05, 0.3])
        slot = {s.nu: s for s in _z_slots(gentle, 3, dv)
                if s.k_label is None}[k]
        want = _parabolic_reference(
            z - zbar, dv, lambda v: _a_jet(gentle, "gauss", k, w, v, dv)
            / mi_factorial(k))
        assert np.array_equal(_bits(slot.value(w, z, zbar)), _bits(want))


REASSEMBLY_FIELDS = [
    ("1 + sin(x)/5", "0", "1/3"),
    ("1 + t/10 + sin(x)/5", "x/7", "cos(x)/3"),
]
E_PINS = json.loads(
    (Path(__file__).parent / "e_decomposition_pins.json").read_text())


@lru_cache(maxsize=None)
def _e_decomposition(coeffs, r=3):
    return EDecomposition(CoefficientField.make(*coeffs, regularity=12), r)


def _hex(x) -> str:
    return float(x).hex()


class TestTaylorE:
    def test_low_order_refused(self, gentle):
        with pytest.raises(ValueError, match="exceed"):
            EDecomposition(gentle, 2)

    def test_constant_coefficients_trivial(self, constant):
        dec = EDecomposition(constant, 3)
        jets, rems = dec.jets(), dec.remainders()
        w = np.array([0.0, 0.0])
        z, zbar = np.array([0.4, 0.3]), np.array([0.05, 0.02])
        for jet in jets.values():
            assert jet(w, (z - zbar)[None, :]).item() == 0.0
        for rem in rems.values():
            assert float(rem(w, z, zbar)) == 0.0

    def test_each_slot_once_per_point(self):
        # the views evaluated at one point share its slot values; a call at
        # another point evaluates them again
        dec = EDecomposition(
            CoefficientField.make(*REASSEMBLY_FIELDS[1], regularity=12), 3)
        calls = []

        def counted(i, value):
            def run(*args):
                calls.append(i)
                return value(*args)
            return run
        dec.slots = [type(s)(s.nu, s.k_label, counted(i, s.value))
                     for i, s in enumerate(dec.slots)]
        w, zbar = np.array([0.1, -0.2]), np.array([0.105, -0.18])
        for z in (np.array([0.3, 0.1]), np.array([0.25, -0.1])):
            calls.clear()
            want = dec.reassemble(w, z, zbar)
            for rem in dec.remainders().values():
                rem(w, z, zbar)
            again = dec.reassemble(w, z, zbar)
            assert sorted(calls) == list(range(len(dec.slots)))
            assert np.array_equal(_bits(again), _bits(want))

    @pytest.mark.parametrize("coeffs", REASSEMBLY_FIELDS)
    def test_reassembly(self, coeffs):
        rng = np.random.default_rng(5)
        field = CoefficientField.make(*coeffs, regularity=12)
        E = e_kernel(field)
        dec = EDecomposition(field, 3)
        jets, rems = dec.jets(), dec.remainders()
        for _ in range(15):
            w = rng.uniform(-0.4, 0.4, 2)
            zbar = w + rng.uniform(-1, 1, 2) * np.array([0.01, 0.05])
            z = zbar + np.array([rng.uniform(0.02, 0.4),
                                 rng.uniform(-0.5, 0.5)])
            total = sum(
                (zbar - w)[0] ** k[0] * (zbar - w)[1] ** k[1]
                * float(jet(w, z - zbar)) for k, jet in jets.items())
            total += sum(
                (zbar - w)[0] ** nu[0] * (zbar - w)[1] ** nu[1]
                * float(rem(w, z, zbar)) for (k, nu), rem in rems.items())
            assert abs(total - float(E(z, zbar))) <= 1e-6

    def test_pinned_values(self):
        # bit-for-bit the values of the per-combo implementation
        dec = _e_decomposition(tuple(E_PINS["field"]), E_PINS["r"])
        jets, rems = dec.jets(), dec.remainders()
        for i, triple in enumerate(E_PINS["triples"]):
            w, z, zbar = (np.array(p) for p in triple)
            assert _hex(dec.reassemble(w, z, zbar)) == E_PINS["reassemble"][i]
            assert {str(nu): _hex(jet(w, z - zbar))
                    for nu, jet in jets.items()} == E_PINS["jets"][i]
            assert {str(key): _hex(rem(w, z, zbar))
                    for key, rem in rems.items()} == E_PINS["remainders"][i]
        batch = E_PINS["jet_00_batch"]
        vals = jets[(0, 0)](np.array(batch["w"]), np.array(batch["zeta"]))
        assert [_hex(v) for v in vals] == batch["values"]

    @settings(max_examples=6, deadline=None)
    @given(coeffs=st.sampled_from(REASSEMBLY_FIELDS),
           w=st.tuples(*[st.floats(-0.4, 0.4)] * 2),
           dw=st.tuples(st.floats(-0.01, 0.01), st.floats(-0.05, 0.05)),
           dz=st.tuples(st.floats(0.02, 0.4), st.floats(-0.5, 0.5)))
    def test_reassemble_is_sum_of_views(self, coeffs, w, dw, dz):
        dec = _e_decomposition(coeffs)
        w = np.array(w)
        zbar = w + np.array(dw)
        z = zbar + np.array(dz)
        got = float(dec.reassemble(w, z, zbar))
        views = sum(
            (zbar - w)[0] ** nu[0] * (zbar - w)[1] ** nu[1]
            * float(jet(w, z - zbar)) for nu, jet in dec.jets().items())
        views += sum(
            (zbar - w)[0] ** nu[0] * (zbar - w)[1] ** nu[1]
            * float(rem(w, z, zbar))
            for (k, nu), rem in dec.remainders().items())
        assert got == pytest.approx(views, rel=1e-12, abs=1e-14)
        assert abs(got - float(e_kernel(dec.field)(z, zbar))) <= 1e-6

    def test_emitted_sets(self, gentle):
        dec = EDecomposition(gentle, 3)
        jets, rems = dec.jets(), dec.remainders()
        assert all(mi_sdeg(k, (2, 1)) < 9 for k in jets)
        floor = min(mi_sdeg(down(k), (2, 1)) for k in boundary_indices(3))
        assert all(mi_sdeg(k, (2, 1)) >= floor + mi_sdeg((0, 0), (2, 1))
                   for (k, nu) in rems)

    def test_remainder_extra_order(self, gentle):
        # each remainder gains at least (1 + |kd - l|_s - 3)/2 in short time
        rems = EDecomposition(gentle, 3).remainders()
        key = max(rems, key=lambda kl: mi_sdeg(down(kl[0]), (2, 1))
                  - mi_sdeg(kl[1], (2, 1)))
        k, nu = key
        rem = rems[key]
        w = np.array([0.1, 0.2])
        zbar = w + np.array([0.005, 0.08])
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        vals = [abs(float(rem(w, zbar + np.array([h, 0.4 * math.sqrt(h)]),
                              zbar))) for h in hs]
        target = (1 + mi_sdeg(down(k), (2, 1)) - mi_sdeg(nu, (2, 1)) - 3) / 2
        assert fit_exponent(hs, vals) >= target - 0.2


class TestParseLambdaTerm:
    def test_python_is_not_run(self, tmp_path):
        target = tmp_path / "ran"
        payload = f"__import__('pathlib').Path({str(target)!r}).touch()"
        for data in ({"coefficient": payload, "chain": []},
                     {"coefficient": "1", "chain": [payload]}):
            with pytest.raises(ValueError, match="unexpected .* in term"):
                parse_lambda_term(data)
        assert not target.exists()

    @pytest.mark.parametrize("text", [
        # the srepr texts that an older version wrote are calls, refused
        "Symbol('u', positive=True)", "Symbol('u', real=1)", "Integer(True)",
        "Integer('12')", "Rational(1, 2, 3)", "Rational(1, 0)",
        "Pow(Integer(0), Integer(-1))", "Pow(Integer(9), Integer(10 ** 9))",
        "Pow(Integer(9), Integer(999999999))", "Add()", "Mul(1, 2)",
        "Integer(1)(2)", "Symbol('a').func", "x", "Integer(1", "Integer(1)",
        "Symbol('u')", "u.func", "f(u, k=1)", "0.5*u", "sin(u)", "1/0",
        "0**-1", "9**(10**9)", "1//2", "t", "a01_0", "d0_0", "a0_0_1", "w",
        "u if v else 1", "'u'", "1e3", "True", "-" * 10000 + "1"],
        ids=lambda text: text[:40])
    def test_outside_the_grammar_refused(self, text):
        parse_lambda_term({"coefficient": "1", "chain": ["u"]})  # loads sympy
        for data in ({"coefficient": text, "chain": ["u"]},
                     {"coefficient": "1", "chain": ["u", text]}):
            started = time.monotonic()
            with pytest.raises(ValueError, match="term"):
                parse_lambda_term(data)
            assert time.monotonic() - started < 1.0

    @settings(max_examples=300, deadline=None)
    @given(coefficient=term_exprs(), chain=st.lists(term_exprs(), min_size=1,
                                                    max_size=3))
    def test_plain_text_round_trip(self, coefficient, chain):
        # any finite expression of the term grammar reads back as itself
        assume(not any(e.has(sp.zoo, sp.nan) for e in (coefficient, *chain)))
        term = LambdaTerm(coefficient, tuple(chain))
        again = parse_lambda_term(term.to_dict())
        assert (again.coefficient, again.chain) == (coefficient, tuple(chain))
        assert again.to_dict() == term.to_dict()

    def test_plain_text_example(self):
        # the README's example reads back as itself; its srepr form is refused
        srepr = "Mul(Rational(-1, 2), Symbol('b0_1', real=True))"
        with pytest.raises(ValueError, match="unexpected"):
            parse_lambda_term({"coefficient": srepr, "chain": ["Symbol('u')"]})
        term = parse_lambda_term({"coefficient": "-b0_1/(2*a0_0)",
                                  "chain": ["u", "u*v**2"]})
        b01, a00 = (sp.Symbol(n, real=True) for n in ("b0_1", "a0_0"))
        u, v = sp.symbols("u v")
        assert term == LambdaTerm(-b01 / (2 * a00), (u, u * v ** 2))
        assert term.to_dict() == {"coefficient": "-b0_1/(2*a0_0)",
                                  "chain": ["u", "u*v**2"]}
        # read as sympy would, 2*(a0_0 + 1) would become 2*a0_0 + 2
        kept = LambdaTerm((a00 + 1) ** -1 / 2, (u,))
        assert kept.to_dict()["coefficient"] == "1/(2*(a0_0 + 1))"
        assert parse_lambda_term(kept.to_dict()) == kept

    @pytest.mark.parametrize("data", [
        {"coefficient": "1", "chain": "uv"}, {"chain": ["u"]},
        {"coefficient": "1", "chain": ["u"], "order": 3}, ["1", ["u"]], None],
        ids=repr)
    def test_not_a_terms_dict_refused(self, data):
        # a chain given as one string would read as one factor per letter
        with pytest.raises(ValueError, match="not a term's dict"):
            parse_lambda_term(data)

    def test_order_five_table_round_trips(self, cutoff):
        field = CoefficientField.make("1 + sin(x)/5 + t/10", "x/7",
                                      "cos(x)/3", regularity=15)
        cert = decompose_green(field, 5, 2, cutoff, N=1).certificate()
        for term in cert:
            again = parse_lambda_term(term.to_dict())
            assert again == term and again.to_dict() == term.to_dict()
            assert term.validate(5)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_certificates_round_trip(self, gentle, cutoff, r):
        # `regkit heat` and the benchmark compare the dicts
        for term in decompose_green(gentle, r, 2, cutoff, N=1).certificate():
            again = parse_lambda_term(term.to_dict())
            assert again.to_dict() == term.to_dict()
            assert (again.coefficient, again.chain) == (term.coefficient,
                                                        term.chain)


class TestValidate:
    U = sp.Symbol("u")
    B01, A00, A10 = sp.symbols("b0_1 a0_0 a1_0", real=True)

    def test_empty_chain_refused(self):
        # a term is a convolution chain of at least one factor; evaluate
        # could not reduce an empty one
        assert not LambdaTerm(sp.Integer(1), ()).validate(3)
        assert LambdaTerm(sp.Integer(1), (self.U,)).validate(3)

    @pytest.mark.parametrize("den, valid", [
        (A00, True), (2 * A00 ** 3, True), (sp.Integer(1), True),
        (A00 + 1, False), (A00 ** 2 - A00, False), (A10, False)], ids=str)
    def test_denominators_are_powers_of_a0_0(self, den, valid):
        assert LambdaTerm(self.B01 / den, (self.U,)).validate(3) is valid

    @pytest.mark.parametrize("coefficient", [
        sp.sin(A00), sp.sqrt(B01) / A00, A00 ** sp.Rational(1, 2)], ids=str)
    def test_coefficient_not_rational_refused(self, coefficient):
        assert not LambdaTerm(coefficient, (self.U,)).validate(3)


CERTIFICATE_PINS = json.loads(
    (Path(__file__).parent / "certificate_pins.json").read_text())


class TestGreenDecomposition:
    def test_constant_split_exact(self, constant, cutoff):
        dec = decompose_green(constant, 3, 2, cutoff, N=1)
        zeta = np.array([[0.09, 0.2], [0.2, -0.3], [0.5, 0.1]])
        W = frozen_gaussian(constant, ORIGIN, zeta)
        K = dec.local(ORIGIN)(zeta)
        assert np.max(np.abs(K - cutoff.chi(zeta) * W)) < 1e-14
        for row in zeta:
            R = float(dec.remainder(row, ORIGIN))
            expected = ((1 - cutoff.chi(row[None, :]))
                        * frozen_gaussian(constant, ORIGIN,
                                          row[None, :])).item()
            assert R == pytest.approx(expected, abs=1e-12)

    def test_locality(self, cutoff):
        base = "1 + sin(x)/5"
        f1 = CoefficientField.make(base, "x/7", "1/3", regularity=12)
        # same jets to high order at the origin, different far field
        f2 = CoefficientField.make(base + " + x**9*t**5", "x/7", "1/3",
                                   regularity=12)
        k1 = decompose_green(f1, 3, 2, cutoff, N=1).local(ORIGIN)
        k2 = decompose_green(f2, 3, 2, cutoff, N=1).local(ORIGIN)
        zeta = np.array([[0.04, 0.1], [0.09, 0.2], [0.16, -0.25]])
        assert np.max(np.abs(k1(zeta) - k2(zeta))) <= 1e-10

    # offsets with t <= 0 and with chi = 0 (|zeta|_s >= 1) besides those
    # that a drawn batch may hold
    FIXED_OFFSETS = np.array([[0.0, 0.3], [-0.2, 0.1], [0.0, 0.0],
                              [0.5, 1.2], [1.2, 0.0], [0.04, 0.1]])

    @settings(max_examples=25, deadline=None)
    @given(zeta=hnp.arrays(float, st.integers(0, 8).map(lambda n: (n, 2)),
                           elements=st.one_of(st.just(0.0),
                                              st.floats(-1.5, 1.5))),
           w=st.sampled_from([(0.0, 0.0), (0.1, -0.3)]),
           route=st.sampled_from([decompose_green, decompose_green_adjoint]))
    def test_masked_local_is_unmasked(self, gentle, cutoff, zeta, w, route):
        # local(w) runs the table terms' quadrature only where chi > 0 and
        # t > 0, the reference every term at every offset: the same bits
        # up to a zero's sign, which + 0.0 clears as a window's sum does
        # (the masked route gives +0 where chi = 0)
        zeta = np.concatenate([self.FIXED_OFFSETS, zeta])
        chi = cutoff.chi(zeta)
        assert np.any(chi == 0) and np.any(zeta[:, 0] <= 0)
        dec, w = route(gentle, 2, 2, cutoff, N=1), np.array(w)
        at, kw = zeta, w
        if dec.upper == "z":
            at = np.stack([zeta[:, 0], -zeta[:, 1]], axis=-1)
            kw = np.array([-w[0], w[1]])
        kernel = _z_slots(dec.field, 1, 0)[0].value(kw, at, ORIGIN)
        for k0, (zs, es) in dec._table:
            kernel = kernel + heat_convolve(
                _chain_factor(dec.field, kw, zs, 2),
                _chain_factor(dec.field, kw, es, 1 + mi_sdeg(k0, (2, 1))),
                n_s=16, n_y=24)(at, ORIGIN)
        assert len(dec._table) == 2
        got = dec.local(w)(zeta)
        assert np.array_equal(_bits(got + 0.0), _bits(chi * kernel + 0.0))
        assert np.all(_bits(got[chi == 0]) == 0)

    def test_certificates(self, gentle, cutoff):
        dec = decompose_green(gentle, 3, 2, cutoff, N=1)
        cert = dec.certificate()
        assert len(cert) > 1
        assert all(term.validate(3) for term in cert)
        # serialise and re-parse without loss
        for term in cert[:5]:
            again = parse_lambda_term(term.to_dict())
            assert sp.simplify(again.coefficient - term.coefficient) == 0

    def test_constant_drift_certified(self, cutoff):
        # only a constant a with b = c = 0 has a vanishing E
        drift = CoefficientField.make("1", "1/3", "0", regularity=12)
        heat = CoefficientField.make("1", regularity=12)
        assert len(decompose_green(drift, 3, 2, cutoff, N=1)
                   .certificate()) == 113
        assert len(decompose_green(heat, 3, 2, cutoff, N=1)
                   .certificate()) == 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_pinned_certificate_texts(self, cutoff, r):
        # the texts read no float: they pin the jet table, and _zjet_pairs'
        # division by the k = 0 entry of the a-jets
        field = CoefficientField.make(*CERTIFICATE_PINS["field"],
                                      regularity=12)
        cert = decompose_green(field, r, 2, cutoff, N=1).certificate()
        assert [term.to_dict() for term in cert] == CERTIFICATE_PINS[str(r)]

    def test_table_reads_no_field(self, cutoff):
        # one table per expansion order: two fields with different a, b and
        # c share it, and so their certificates
        decs = [decompose_green(CoefficientField.make(*c, regularity=12), 3,
                                2, cutoff, N=1) for c in REASSEMBLY_FIELDS]
        assert decs[0]._table == decs[1]._table
        certs = [dec.certificate() for dec in decs]
        assert len(certs[0]) == 113
        assert certs[0] == certs[1]

    def test_table_is_the_expansion(self, gentle, cutoff):
        # local(w) evaluates the certified table, at the orders it convolves
        # them: its Z factors are the Z jets, and at r = 3 its E factor of
        # k0 is zeta^{k0} times minus the nu = 0 jet view of the error
        # kernel's decomposition
        dec = decompose_green_adjoint(gentle, 3, 2, cutoff, N=1)
        zjets, _ = taylor_decompose_Z(gentle, 3)
        e00 = EDecomposition(gentle, 3).jets()[(0, 0)]
        rng = np.random.default_rng(11)
        zeta = np.stack([rng.uniform(0.01, 0.5, 200),
                         rng.uniform(-0.8, 0.8, 200)], axis=-1)
        for w in (ORIGIN, np.array([0.1, -0.3])):
            minus_e0 = -e00(w, zeta)
            for k0, factors in dec._table:
                for got, want in [
                        (_chain_factor(gentle, w, factors.z, 2),
                         zjets[k0](w, zeta, ORIGIN)),
                        (_chain_factor(gentle, w, factors.e,
                                       1 + mi_sdeg(k0, (2, 1))),
                         zeta[:, 0] ** k0[0] * zeta[:, 1] ** k0[1]
                         * minus_e0)]:
                    got = got(zeta, ORIGIN)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(
                        np.abs(want))

    @pytest.mark.parametrize("r, terms", [(1, 3), (2, 19)])
    def test_low_order_kernel_finite(self, gentle, cutoff, r, terms):
        dec = decompose_green(gentle, r, 2, cutoff, N=1)
        assert len(dec.certificate()) == terms
        zeta = np.array([[0.04, 0.1], [0.09, 0.2], [0.16, -0.25]])
        K = dec.local(ORIGIN)(zeta)
        K0 = decompose_green(gentle, r, 2, cutoff, N=0).local(ORIGIN)(zeta)
        assert np.all(np.isfinite(K))
        assert np.max(np.abs(K - K0)) > 1e-3

    def test_norm_finite_and_stable(self, gentle, cutoff):
        dec = decompose_green(gentle, 2, 1, cutoff, N=1, levels=4)
        dk = dec.dyadic(ORIGIN)
        coarse = kernel_norm(dk, samples_per_axis=9)
        fine = kernel_norm(dk, samples_per_axis=17)
        assert np.isfinite(float(fine)) and float(fine) > 0
        assert abs(float(fine) - float(coarse)) <= 0.02 * float(fine)

    def test_insufficient_regularity_names_threshold(self, cutoff):
        shallow = CoefficientField.make("1 + sin(x)/5", regularity=5)
        with pytest.raises(ValueError, match="threshold 9"):
            decompose_green_adjoint(shallow, 3, 2, cutoff)

    def test_field_continuity_reported(self, cutoff):
        base = decompose_green(
            CoefficientField.make("1", regularity=12), 3, 2, cutoff, N=1)
        zeta = np.array([[0.04, 0.1], [0.09, -0.2]])
        ref = base.local(ORIGIN)(zeta)
        diffs = []
        for delta in (0.05, 0.025):
            f = CoefficientField.make(f"1 + {delta}*sin(x)", regularity=12)
            d = decompose_green(f, 3, 2, cutoff, N=1)
            diffs.append(np.max(np.abs(d.local(ORIGIN)(zeta) - ref)) / delta)
        # fitted Lipschitz constant: finite and consistent across deltas
        assert all(np.isfinite(c) and c < 10 for c in diffs)
        assert diffs[1] == pytest.approx(diffs[0], rel=0.5)


class TestGreenAdjoint:
    def test_self_adjoint_constant(self, constant, cutoff):
        dec = decompose_green(constant, 3, 2, cutoff, N=1)
        adj = decompose_green_adjoint(constant, 3, 2, cutoff, N=1)
        zeta = np.array([[0.09, 0.2], [0.2, -0.3]])
        assert np.max(np.abs(dec.local(ORIGIN)(zeta)
                             - adj.local(ORIGIN)(zeta))) < 1e-14

    def test_routes_agree(self, cutoff):
        f = CoefficientField.make("1 + sin(x)/20", "x/40", "1/10",
                                  regularity=12)
        direct = decompose_green_adjoint(f, 3, 2, cutoff, N=1,
                                         levels=4)
        twisted = decompose_green(f, 3, 2, cutoff, N=1, levels=4)
        z, zbar = np.array([0.5, 0.3]), np.array([0.1, -0.1])
        a = float(direct.gamma(z, zbar))
        b = float(twisted.gamma(z, zbar))
        assert a == pytest.approx(b, rel=2e-4)
