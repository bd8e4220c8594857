import math
from fractions import Fraction

import numpy as np
import pytest

from regkit.models import (
    Grid,
    GridField,
    build_model,
    bump_kernel,
    check_chain,
    expectation_oracle,
    model_difference,
    mollified_noise_sampler,
    mollifier,
    monomial_field,
    recentering_exponent,
    sector_order,
)
from regkit.renorm import PreparationMap, bphz_functional, hist
from regkit.trees import (
    Degree,
    FormalSum,
    TypeSet,
    mi_binom,
    monomial,
    noise,
    plant,
    tree_product,
)

KAPPA = Fraction(1, 100)


@pytest.fixture(scope="module")
def mild_ts():
    """One space dimension with white-noise-like degrees: the noise sits at
    -3/2 - kappa so planted trees are positive and jets are non-trivial."""
    return TypeSet.make(
        scaling=(2, 1),
        types={"Xi": Degree(Fraction(-3, 2), Fraction(-1)),
               "I": Degree(Fraction(2))},
        kappa=KAPPA,
    )


@pytest.fixture(scope="module")
def sector(mild_ts):
    xi = noise(mild_ts, "Xi")
    psi = plant(xi, "I")
    psi2 = tree_product(psi, psi)
    psi3 = tree_product(psi2, psi)
    return hist([psi3,
                 tree_product(monomial(mild_ts, (0, 1)), psi),
                 plant(psi2, "I")])


@pytest.fixture(scope="module")
def grid():
    return Grid((256, 256), (1 / 256, 1 / 16))


@pytest.fixture(scope="module")
def sampler(grid):
    return mollified_noise_sampler(grid, ["Xi"], epsilon=8, seed=7)


@pytest.fixture(scope="module")
def model(sector, grid, sampler):
    return build_model(sector, {"I": bump_kernel(order=8)}, sampler(0),
                       PreparationMap(lambda t: Fraction(0)))


class TestGrid:
    def test_parabolic_spacing_enforced(self):
        with pytest.raises(ValueError):
            Grid((64, 64), (0.05, 0.1))

    def test_off_grid_point_refused(self, grid):
        with pytest.raises(ValueError):
            grid.index_of((0.0001, 0.0))

    def test_derivative_of_monomial(self, grid):
        f = monomial_field(grid, (0.0, 0.0), (0, 2))
        df = f.derivative((0, 1))
        # central differences are exact on quadratics away from the wrap
        inner = df.values[:, 1:-1] - 2.0 * grid.axes()[1][1:-1]
        assert np.max(np.abs(inner)) < 1e-10


class TestBuildModel:
    def test_noise_lift_ignores_base_point(self, model, mild_ts):
        xi = noise(mild_ts, "Xi")
        a = model.pi_times(xi, model.base_points[0])
        b = model.pi_times(xi, model.base_points[1])
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, model.noise["Xi"].values)

    def test_monomial_times_noise_is_pointwise(self, model, mild_ts):
        xi = noise(mild_ts, "Xi")
        tree = tree_product(monomial(mild_ts, (1, 1)), xi)
        x = model.base_points[1]
        got = model.pi(tree, x)
        want = monomial_field(model.grid, x, (1, 1)) * model.noise["Xi"]
        assert np.array_equal(got.values, want.values)

    def test_jet_subtraction_vanishes_at_base_point(self, model, mild_ts):
        psi = plant(noise(mild_ts, "Xi"), "I")
        deep = plant(tree_product(psi, psi), "I")  # degree 3 - 2k
        for x in model.base_points:
            idx = model.grid.index_of(x)
            f = model.pi(deep, x)
            assert abs(f.at(idx)) < 1e-12
        # away from the periodic wrap the subtracted jet also kills the grid
        # derivatives (the unwrapped monomials spoil differences across the seam)
        for x in model.base_points[1:]:
            idx = model.grid.index_of(x)
            f = model.pi(deep, x)
            for j in ((0, 1), (1, 0), (0, 2)):
                assert abs(f.derivative(j).at(idx)) < 1e-8 * max(f.sup(), 1.0)

    def test_order_deficit_refused(self, sector, sampler):
        shallow = bump_kernel(order=3)
        with pytest.raises(ValueError, match="sector order"):
            build_model(sector, {"I": shallow}, sampler(0),
                        PreparationMap(lambda t: Fraction(0)))

    def test_non_historic_refused(self, mild_ts, sampler):
        psi = plant(noise(mild_ts, "Xi"), "I")
        with pytest.raises(ValueError, match="historic"):
            build_model([psi], {"I": bump_kernel(order=8)}, sampler(0),
                        PreparationMap(lambda t: Fraction(0)))

    def test_sector_order_value(self, sector, mild_ts):
        # largest planted branch is psi^2 of degree 1 - 2k; its plant needs
        # branch degree + edge degree + max scaling
        assert sector_order(sector) == Fraction(1) - 2 * KAPPA + 2 + 2


class TestRecentering:
    def test_monomial_gamma_is_binomial_shift(self, model, mild_ts):
        x, y = model.base_points[0], model.base_points[2]
        act = model.gamma(x, y)
        k = (1, 1)
        got = act(monomial(mild_ts, k))
        h = (x[0] - y[0], x[1] - y[1])
        want = FormalSum(
            (monomial(mild_ts, j),
             mi_binom(k, j) * h[0] ** (k[0] - j[0]) * h[1] ** (k[1] - j[1]))
            for j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        diff = got - want
        assert all(abs(float(c)) < 1e-12 for _t, c in diff.items())

    def test_gamma_multiplicative_on_products(self, model, mild_ts):
        x, y = model.base_points[0], model.base_points[1]
        act = model.gamma(x, y)
        psi = plant(noise(mild_ts, "Xi"), "I")
        xk = monomial(mild_ts, (0, 1))
        combined = act(tree_product(xk, psi))
        split = FormalSum(
            (tree_product(a, b), ca * cb)
            for a, ca in act(xk).items() for b, cb in act(psi).items())
        diff = combined - split
        assert all(abs(float(c)) < 1e-12 for _t, c in diff.items())

    def test_cocycle(self, model):
        x, y, z = model.base_points
        gxy, gyz, gxz = model.gamma(x, y), model.gamma(y, z), model.gamma(x, z)
        for tree in model.basis:
            diff = gyz(tree).bind(gxy) - gxz(tree)
            assert all(abs(float(c)) < 1e-8 for _t, c in diff.items())

    def test_chain_identity_canonical(self, model):
        report = check_chain(model)
        assert report["max_defect"] <= 1e-6

    def test_chain_identity_renormalised(self, sector, sampler):
        xi = noise(sector.trees[0].typeset, "Xi")
        injected = {xi: 0.75}
        prep = PreparationMap(lambda t: injected.get(t, 0))
        renorm = build_model(sector, {"I": bump_kernel(order=8)}, sampler(0),
                             prep)
        assert check_chain(renorm)["max_defect"] <= 1e-6

    def test_twist_trivial_on_kernel_planted_and_monomials(self, sector,
                                                           sampler, mild_ts):
        xi = noise(mild_ts, "Xi")
        prep = PreparationMap(lambda t: {xi: 0.75}.get(t, 0))
        m = build_model(sector, {"I": bump_kernel(order=8)}, sampler(0), prep)
        x = m.base_points[1]
        for tree in (plant(xi, "I"), monomial(mild_ts, (1, 0))):
            assert np.array_equal(m.pi(tree, x).values,
                                  m.pi_times(tree, x).values)
        # ... but not on the bare noise, which the functional may shift
        assert not np.array_equal(m.pi(xi, x).values,
                                  m.pi_times(xi, x).values)


class TestExponents:
    def test_monomial_slope(self, model, mild_ts):
        slope, _res = recentering_exponent(model, monomial(mild_ts, (0, 1)),
                                           model.base_points[1])
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_planted_slope_floor(self, model, mild_ts):
        psi = plant(noise(mild_ts, "Xi"), "I")
        slope, _res = recentering_exponent(model, psi, model.base_points[1])
        assert slope >= float(psi.degree_value()) - 0.15

    def test_smooth_noise_saturates(self, model, mild_ts):
        # mollified noise is smooth at the mollification scale, so the pairing
        # stops decaying even though the degree is negative
        slope, _res = recentering_exponent(model, noise(mild_ts, "Xi"),
                                           model.base_points[1])
        assert abs(slope) < 0.4

    def test_subgrid_scale_refused(self, model, mild_ts):
        with pytest.raises(ValueError, match="resolution"):
            recentering_exponent(model, noise(mild_ts, "Xi"),
                                 model.base_points[0], lambdas=(0.03,))


class TestMollifier:
    def test_unit_mass(self, grid):
        rho = mollifier(grid, 8)
        assert np.sum(rho.values) * grid.cell_volume == pytest.approx(1.0)

    def test_sampler_reproducible(self, grid):
        s = mollified_noise_sampler(grid, ["Xi"], epsilon=8, seed=3)
        assert np.array_equal(s(5)["Xi"].values, s(5)["Xi"].values)
        assert not np.array_equal(s(5)["Xi"].values, s(6)["Xi"].values)

    def test_two_mollifiers_reported(self, sector, grid):
        from regkit.kernels import snorm

        def cone(z):
            u = snorm(z, (2, 1))
            return np.clip(1.0 - u, 0.0, None)

        prep = PreparationMap(lambda t: Fraction(0))
        K = {"I": bump_kernel(order=8)}
        a = build_model(sector, K,
                        mollified_noise_sampler(grid, ["Xi"], 8, seed=7)(0),
                        prep)
        b = build_model(sector, K,
                        mollified_noise_sampler(grid, ["Xi"], 8, seed=7,
                                                profile=cone)(0),
                        prep)
        gap = model_difference(a, b)
        assert 0.0 < gap < 1.0


@pytest.fixture(scope="module")
def quartic_sector(ts):
    psi = plant(noise(ts, "Xi"), "I")
    return hist([tree_product(psi, psi, psi)])


class TestExpectationOracle:
    def test_odd_tree_centred(self, quartic_sector, sampler, ts):
        psi = plant(noise(ts, "Xi"), "I")
        mean, se = expectation_oracle(
            quartic_sector, {"I": bump_kernel(order=8)}, sampler,
            PreparationMap(lambda t: Fraction(0)), psi, samples=400)
        assert abs(mean) <= 3 * se

    def test_squared_tree_matches_wick_variance(self, quartic_sector, grid,
                                                sampler, ts):
        from regkit.models import KernelOnGrid
        psi = plant(noise(ts, "Xi"), "I")
        psi2 = tree_product(psi, psi)
        K = bump_kernel(order=8)
        mean, se = expectation_oracle(
            quartic_sector, {"I": K}, sampler,
            PreparationMap(lambda t: Fraction(0)), psi2, samples=400)
        kr = KernelOnGrid(K, grid).convolve(mollifier(grid, 8))
        variance = float(np.sum(kr.values ** 2)) * grid.cell_volume
        assert abs(mean - variance) <= 3 * se

    def test_single_sample_refused(self, quartic_sector, sampler, ts):
        # one sample has no standard error
        psi = plant(noise(ts, "Xi"), "I")
        with pytest.raises(ValueError, match="at least 2 samples"):
            expectation_oracle(quartic_sector, {"I": bump_kernel(order=8)},
                               sampler, PreparationMap(lambda t: Fraction(0)),
                               psi, samples=1)

    def test_bphz_centres_negative_trees(self, quartic_sector, sampler, ts):
        K = {"I": bump_kernel(order=8)}

        def mc(tree, ell):
            prep = PreparationMap(lambda t: ell.get(t, 0.0))
            return expectation_oracle(quartic_sector, K, sampler, prep,
                                      tree, samples=300)[0]

        ell = bphz_functional(quartic_sector, mc)
        prep = PreparationMap(lambda t: ell.get(t, 0.0))
        for tree in quartic_sector.negative():
            mean, se = expectation_oracle(quartic_sector, K, sampler, prep,
                                          prep(tree), samples=300)
            assert abs(mean) <= max(3 * se, 1e-12)
