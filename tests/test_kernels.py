import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from regkit.kernels import (
    CutoffFamily,
    aniso_taylor,
    dyadic_decompose,
    holder_norm_estimate,
    is_lower_set,
    kernel_norm,
    lower_boundary,
    snorm,
)
from regkit.models import bump_kernel
from regkit.trees import mi_below

SCALING = (2, 1)


@pytest.fixture(scope="module")
def cutoff():
    return CutoffFamily(SCALING)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.uniform(-1.5, 1.5, size=(500, 2))


def heat_gaussian(z):
    t, x = z[..., 0], z[..., 1]
    safe_t = np.clip(t, 1e-300, None)
    return np.where(t > 0,
                    np.exp(-x ** 2 / (4 * safe_t))
                    / np.sqrt(4 * np.pi * safe_t), 0.0)


class TestCutoff:
    def test_plateau_and_support(self, cutoff, points):
        u = snorm(points, SCALING)
        vals = cutoff.chi(points)
        assert np.all(vals[u <= 0.5] == 1.0)
        assert np.all(vals[u >= 1.0] == 0.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_telescoping(self, cutoff, points):
        for upto in (0, 3, 6):
            assert np.max(np.abs(cutoff.telescope_defect(points, upto))) == 0

    def test_radial(self, cutoff):
        # equal scaled norm, equal value
        a = cutoff.chi(np.array([0.36, 0.0]))
        b = cutoff.chi(np.array([0.0, 0.6]))
        assert a == pytest.approx(b, abs=1e-14)


class TestDyadicDecompose:
    def test_rejects_empty_decomposition(self, cutoff):
        with pytest.raises(ValueError):
            dyadic_decompose(lambda z: 1.0, cutoff, 0, beta=Fraction(2))

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 10),
           pts=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                        min_size=1, max_size=40))
    def test_partition_of_unity(self, cutoff, N, pts):
        # the components and the rest sum to 1 off B_s(0, 2^{-N})
        pts = np.array(pts)
        pts = pts[snorm(pts, SCALING) >= 2.0 ** -N]
        assume(len(pts))
        one = lambda z: np.ones(z.shape[:-1])
        K = dyadic_decompose(one, cutoff, N, beta=Fraction(2))
        assert np.max(np.abs(sum(K.parts(pts)) - 1.0)) < 1e-12

    def test_parts_match_components(self, cutoff, points):
        K = dyadic_decompose(heat_gaussian, cutoff, 6, beta=Fraction(2))
        parts = K.parts(points)
        assert len(parts) == 8
        for n in range(7):
            assert np.array_equal(parts[n], K.component(n)(points))
        rest = (1.0 - cutoff.chi(points)) * heat_gaussian(points)
        assert np.array_equal(parts[-1], rest)

    def test_component_supports(self, cutoff, points):
        K = dyadic_decompose(heat_gaussian, cutoff, 8, beta=Fraction(2))
        for n in (0, 2, 5):
            outside = points[snorm(points, SCALING) > 2.0 ** -n]
            assert np.all(K.component(n)(outside) == 0.0)

    def test_reassembly_off_origin(self, cutoff, points):
        K = dyadic_decompose(heat_gaussian, cutoff, 10, beta=Fraction(2))
        pts = points[snorm(points, SCALING) > 0.01]
        direct = heat_gaussian(pts)
        assert np.max(np.abs(sum(K.parts(pts)) - direct)) < 1e-10


class TestKernelNorm:
    def test_zero_kernel(self, cutoff):
        K = dyadic_decompose(lambda z: np.zeros(z.shape[:-1]), cutoff, 4,
                             beta=Fraction(2), order=1)
        assert float(kernel_norm(K)) == 0.0

    def test_homogeneity(self, cutoff):
        K = dyadic_decompose(heat_gaussian, cutoff, 5, beta=Fraction(2))
        K8 = dyadic_decompose(lambda z: 8.0 * heat_gaussian(z), cutoff, 5,
                              beta=Fraction(2))
        base = kernel_norm(K, samples_per_axis=9).value
        scaled = kernel_norm(K8, samples_per_axis=9).value
        assert scaled == pytest.approx(8.0 * base, rel=1e-12)

    def test_heat_kernel_norm_stable(self, cutoff):
        K = dyadic_decompose(heat_gaussian, cutoff, 10, beta=Fraction(2),
                             order=1)
        coarse = kernel_norm(K, samples_per_axis=17)
        fine = kernel_norm(K, samples_per_axis=33)
        assert math.isfinite(coarse.value) and coarse.value > 0
        assert abs(fine.value - coarse.value) <= 0.01 * fine.value
        assert coarse.degraded and coarse.mode == "finite-difference"

    def test_order_zero_only_samples(self):
        report = kernel_norm(bump_kernel(levels=2, order=0))
        assert report.mode == "sampled"
        assert report.degraded is False

    def test_subadditive(self, cutoff):
        wave = lambda z: np.cos(3.0 * z[..., 1]) * cutoff.chi(z)
        K1 = dyadic_decompose(heat_gaussian, cutoff, 5, beta=Fraction(2))
        K2 = dyadic_decompose(wave, cutoff, 5, beta=Fraction(2))
        Ksum = dyadic_decompose(lambda z: heat_gaussian(z) + wave(z), cutoff,
                                5, beta=Fraction(2))
        n1 = kernel_norm(K1, samples_per_axis=9).value
        n2 = kernel_norm(K2, samples_per_axis=9).value
        ns = kernel_norm(Ksum, samples_per_axis=9).value
        assert ns <= n1 + n2 + 1e-12


class TestHolderNorm:
    def test_rejects_integer_exponent(self):
        with pytest.raises(ValueError):
            holder_norm_estimate(lambda z: z[..., 0], 1.0, (1,))

    def test_constant_field(self):
        f = lambda z: 3.0 * np.ones(z.shape[:-1])
        assert holder_norm_estimate(f, 0.5, SCALING) == pytest.approx(3.0)

    def test_square_root_cusp(self):
        f = lambda z: np.sqrt(np.abs(z[..., 0]))
        below = holder_norm_estimate(f, 0.4, (1,), levels=10)
        at = holder_norm_estimate(f, 0.5 - 1e-9, (1,), levels=10)
        assert below <= at <= 1.0 + 1e-6
        # above the cusp exponent the estimate keeps growing with refinement
        coarse = holder_norm_estimate(f, 0.7, (1,), levels=6)
        fine = holder_norm_estimate(f, 0.7, (1,), levels=12)
        assert fine > 1.5 * coarse

    def test_monotone_in_exponent(self):
        f = lambda z: np.sin(3 * z[..., 0]) + np.cos(2 * z[..., 1])
        lo = holder_norm_estimate(f, 0.3, SCALING)
        hi = holder_norm_estimate(f, 0.8, SCALING)
        assert lo <= hi

    def test_distributional_pairing_finite(self):
        f = lambda z: np.sin(3 * z[..., 0]) + np.cos(2 * z[..., 1])
        val = holder_norm_estimate(f, -0.5, SCALING, per_axis=5)
        assert 0 < val < 10


class TestAnisoTaylor:
    def test_rejects_non_lower_set(self):
        with pytest.raises(ValueError):
            aniso_taylor([(1, 0)], (0.0, 0.0), lambda k, z: 0.0)

    def test_boundary_structure(self):
        A = [(0, 0), (1, 0), (0, 1), (0, 2)]
        assert is_lower_set(A)
        for k in lower_boundary(A):
            i = min(j for j, v in enumerate(k) if v)
            assert tuple(v - (j == i) for j, v in enumerate(k)) in A

    @pytest.mark.parametrize("A, scaling, r", [
        *((mi_below(SCALING, r), SCALING, r) for r in range(1, 6)),
        ([(0,)], (1,), 1),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 2)],
         (1, 1, 1), 3),
    ], ids=["r1", "r2", "r3", "r4", "r5", "1d", "3d"])
    def test_polynomial_exactness(self, A, scaling, r):
        # monomials up to |k|_s < r + 3 reach past A, so the remainder
        # slots carry real weight
        coef = {k: 1.0 + 0.3 * i
                for i, k in enumerate(mi_below(scaling, r + 3))}
        assert not set(coef) <= set(A)

        def pderiv(k, z):
            total = 0.0
            for kk, c in coef.items():
                if all(a >= b for a, b in zip(kk, k)):
                    fall = np.prod([math.factorial(a)
                                    / math.factorial(a - b)
                                    for a, b in zip(kk, k)])
                    total += c * fall * np.prod(
                        [z[i] ** (a - b) for i, (a, b) in
                         enumerate(zip(kk, k))])
            return total

        rng = np.random.default_rng(3)
        zero = (0,) * len(scaling)
        rems = []
        for _ in range(30):
            x = rng.uniform(-1, 1, len(scaling))
            jet, rem = aniso_taylor(A, x, pderiv)
            assert sorted(jet) == sorted(A)
            rems.append(rem(x))
            assert abs(pderiv(zero, x) - sum(jet.values()) - rems[-1]) \
                < 1e-10
        assert max(map(abs, rems)) > 0.1

    def test_one_dimensional_base_case(self):
        derivs = lambda k, z: math.exp(z[0])
        for x in (0.3, -0.7, 1.1):
            jet, rem = aniso_taylor([(0,)], (x,), derivs)
            assert jet[(0,)] == pytest.approx(1.0)
            assert rem((x,)) == pytest.approx(math.exp(x) - 1.0, abs=1e-12)

    def test_remainder_order_for_sine(self):
        derivs = lambda k, z: math.sin(z[0] + z[1]
                                       + (k[0] + k[1]) * math.pi / 2)
        A = [(0, 0), (0, 1)]  # scaled degree below two for scaling (2, 1)
        hs = [0.5 / 2 ** i for i in range(5)]
        errs = []
        for h in hs:
            x = (h ** 2, h)
            _, rem = aniso_taylor(A, x, derivs)
            errs.append(abs(rem(x)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_jet_matches_finite_differences(self):
        f = lambda z: math.cos(z[0]) * math.exp(z[1])
        derivs = {(0, 0): lambda z: math.cos(z[0]) * math.exp(z[1]),
                  (1, 0): lambda z: -math.sin(z[0]) * math.exp(z[1]),
                  (0, 1): lambda z: math.cos(z[0]) * math.exp(z[1])}
        x = (0.2, 0.1)
        jet, _ = aniso_taylor(list(derivs), x, lambda k, z: derivs[k](z))
        h = 1e-5
        fd_t = (f((h, 0.0)) - f((-h, 0.0))) / (2 * h)
        assert jet[(1, 0)] / x[0] == pytest.approx(fd_t, abs=1e-6)
