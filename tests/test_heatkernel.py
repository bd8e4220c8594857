import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from regkit.heatkernel import (
    CoefficientField,
    EDecomposition,
    FiniteDifferenceField,
    apply_operator,
    boundary_indices,
    convolution_norm_report,
    decompose_green,
    decompose_green_adjoint,
    e_kernel,
    error_kernel,
    frozen_gaussian,
    heat_convolve,
    parse_lambda_term,
    scaled_degree,
    taylor_decompose_E,
    taylor_decompose_Z,
    volterra,
    z_kernel,
)
from regkit.kernels import CutoffFamily, kernel_norm

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


class TestCoefficientField:
    def test_parabolicity_sampled(self, gentle):
        assert gentle.check_parabolicity()
        bad = CoefficientField.make("sin(x)", ellipticity=0.25)
        assert not bad.check_parabolicity()

    def test_closed_form_jets(self, gentle):
        w = np.array([[0.2, -0.3]])
        assert gentle.jet("a", (0, 1), w).item() == pytest.approx(
            math.cos(-0.3) / 5, abs=1e-14)
        assert gentle.jet("c", (0, 2), w).item() == pytest.approx(
            -math.cos(-0.3) / 3, abs=1e-14)

    def test_fd_field_matches_symbolic(self, gentle):
        shape = lambda t, x: np.broadcast(t, x).shape
        fd = FiniteDifferenceField(
            lambda t, x: (1 + np.sin(x) / 5 + t / 10) * np.ones(shape(t, x)),
            lambda t, x: x / 7 * np.ones(shape(t, x)),
            lambda t, x: np.cos(x) / 3 * np.ones(shape(t, x)))
        z, zbar = np.array([0.6, 0.3]), np.array([0.1, -0.1])
        assert float(error_kernel(fd, z, zbar)) == pytest.approx(
            float(error_kernel(gentle, z, zbar)), rel=1e-9)
        w = np.array([[0.2, 0.1]])
        assert fd.jet("a", (0, 2), w).item() == pytest.approx(
            gentle.jet("a", (0, 2), w).item(), abs=1e-5)
        # the fallback records its steps instead of hiding them
        assert fd.steps == (1e-3, 1e-3)

    def test_adjoint_triple(self, gentle):
        x = sp.Symbol("x", real=True)
        adj = gentle.adjoint()
        assert sp.simplify(adj.b_expr
                           - (2 * sp.diff(gentle.a_expr, x)
                              - gentle.b_expr)) == 0
        assert sp.simplify(adj.c_expr
                           - (gentle.c_expr - sp.diff(gentle.b_expr, x)
                              + sp.diff(gentle.a_expr, x, 2))) == 0


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
        assert error_kernel(constant, np.array([0.5, 0.2]),
                            np.array([0.1, 0.0])) == 0.0

    def test_matching_diffusion_vanishes(self):
        # pure diffusion, equal a at the sampled pair
        f = CoefficientField.make("1 + sin(x)/5")
        z, zbar = np.array([0.4, 0.3]), np.array([0.1, 0.3])
        assert float(error_kernel(f, z, zbar)) == pytest.approx(0.0,
                                                                abs=1e-15)

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

    def test_norm_report(self, gentle):
        Z = z_kernel(gentle)
        conv = heat_convolve(Z, Z)
        report = convolution_norm_report(Z, Z, conv, n=2)
        assert report["lhs"] > 0
        assert np.isfinite(report["constant"])

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
            S = vol.summand(k)
            vals = [max(abs(float(S(np.array([h, v * math.sqrt(h)]), ORIGIN)))
                        for v in rays) for h in hs]
            assert fit_exponent(hs, vals) == pytest.approx(
                (2 + k - 3) / 2, abs=0.2)

    def test_budget_flag(self, gentle):
        vol = volterra(gentle, 3, n_s=16, n_y=32, budget=1e3)
        assert vol.partial
        assert vol.computed_upto < 3


class TestTaylorZ:
    def test_order_one_is_gaussian(self, gentle):
        jets, rems = taylor_decompose_Z(gentle, 1)
        assert set(jets) == {(0, 0)}
        w, zeta = np.array([0.2, 0.1]), np.array([[0.3, 0.4]])
        assert jets[(0, 0)](w, zeta).item() == pytest.approx(
            frozen_gaussian(gentle, w, zeta).item(), rel=1e-12)

    def test_constant_field_trivial(self, constant):
        jets, rems = taylor_decompose_Z(constant, 2)
        w = np.array([0.0, 0.0])
        z, zbar = np.array([0.4, 0.3]), np.array([0.05, 0.02])
        for k, jet in jets.items():
            if k != (0, 0):
                assert jet(w, (z - zbar)[None, :]).item() == 0.0
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
                * float(jet(w, z - zbar)) for k, jet in jets.items())
            total += sum(
                (zbar - w)[0] ** down(k)[0] * (zbar - w)[1] ** down(k)[1]
                * float(rem(w, z, zbar)) for k, rem in rems.items())
            assert abs(total - float(Z(z, zbar))) <= 1e-6

    def test_insufficient_regularity(self):
        shallow = CoefficientField.make("1 + sin(x)/5", regularity=1)
        with pytest.raises(ValueError, match="regularity"):
            taylor_decompose_Z(shallow, 2)

    def test_jet_certificates(self, gentle):
        jets, _ = taylor_decompose_Z(gentle, 3)
        w, zeta = np.array([0.1, -0.2]), np.array([[0.2, 0.15]])
        for k, jet in jets.items():
            terms = jet.lambda_terms()
            assert all(t.validate(3) for t in terms)
            total = sum(float(t.evaluate(gentle, w, zeta[0])) for t in terms)
            assert total == pytest.approx(jet(w, zeta).item(), rel=1e-9)


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
            taylor_decompose_E(gentle, 2)

    def test_constant_coefficients_trivial(self, constant):
        jets, rems = taylor_decompose_E(constant, 3)
        w = np.array([0.0, 0.0])
        z, zbar = np.array([0.4, 0.3]), np.array([0.05, 0.02])
        for jet in jets.values():
            assert jet(w, (z - zbar)[None, :]).item() == 0.0
        for rem in rems.values():
            assert float(rem(w, z, zbar)) == 0.0

    @pytest.mark.parametrize("coeffs", REASSEMBLY_FIELDS)
    def test_reassembly(self, coeffs):
        rng = np.random.default_rng(5)
        field = CoefficientField.make(*coeffs, regularity=12)
        E = e_kernel(field)
        jets, rems = taylor_decompose_E(field, 3)
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
        jets, rems = taylor_decompose_E(dec.field, E_PINS["r"])
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
        jets, rems = taylor_decompose_E(gentle, 3)
        assert all(scaled_degree(k) < 9 for k in jets)
        floor = min(scaled_degree(down(k)) for k in boundary_indices(3))
        assert all(scaled_degree(k) >= floor + scaled_degree((0, 0))
                   for (k, nu) in rems)

    def test_remainder_extra_order(self, gentle):
        # each remainder gains at least (1 + |kd - l|_s - 3)/2 in short time
        _, rems = taylor_decompose_E(gentle, 3)
        key = max(rems, key=lambda kl: scaled_degree(down(kl[0]))
                  - scaled_degree(kl[1]))
        k, nu = key
        rem = rems[key]
        w = np.array([0.1, 0.2])
        zbar = w + np.array([0.005, 0.08])
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        vals = [abs(float(rem(w, zbar + np.array([h, 0.4 * math.sqrt(h)]),
                              zbar))) for h in hs]
        target = (1 + scaled_degree(down(k)) - scaled_degree(nu) - 3) / 2
        assert fit_exponent(hs, vals) >= target - 0.2


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

    def test_certificates(self, gentle, cutoff):
        dec = decompose_green(gentle, 3, 2, cutoff, N=1)
        cert = dec.certificate()
        assert len(cert) > 1
        assert all(term.validate(3) for term in cert)
        # serialise and re-parse without loss
        for term in cert[:5]:
            again = parse_lambda_term(term.to_dict())
            assert sp.simplify(again.coefficient - term.coefficient) == 0

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
