import gc
import json
import math
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import map_coordinates

from regkit import models
from regkit.kernels import CutoffFamily, dilate, dyadic_decompose
from regkit.models import (
    Grid,
    GridField,
    KernelOnGrid,
    ModelInstance,
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
ORACLE_PINS = json.loads(
    (Path(__file__).parent / "oracle_pins.json").read_text())


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
def bump():
    return {"I": bump_kernel(order=8)}


@pytest.fixture(scope="module")
def model(sector, bump, sampler):
    return build_model(sector, bump, sampler(0),
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


def _cell_coordinate(n: int):
    """Cell coordinates along an axis of n cells: anywhere within a thousand
    cells of 0, or m*n + d for m whole periods and d one of 0 (exactly n
    at m = 1), -1 (exactly n - 1), -0.5 (the middle of the last cell), 0.5
    and +-1e-9 (just either side of a period's start)."""
    return st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False),
        st.builds(lambda m, d: m * n + d, st.integers(-60, 60),
                  st.sampled_from([0.0, -1.0, -0.5, 0.5, -1e-9, 1e-9])))


@st.composite
def _field_and_points(draw):
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    # power-of-two steps keep the cell coordinates exact; 0.3 and 1/7 do not
    dx = draw(st.sampled_from([1 / 16, 1 / 2, 0.3, 1 / 7]))
    cells = draw(st.lists(st.tuples(*map(_cell_coordinate, shape)),
                          min_size=1, max_size=40))
    return shape, dx, draw(st.integers(0, 2**32 - 1)), cells


class TestSampleAt:
    @settings(max_examples=300, deadline=None)
    @given(case=_field_and_points())
    @example(case=((4, 3), 1 / 16, 0, [(-4.0, -3.0), (3.0, 2.0), (4.0, 3.0),
                                       (3.5, 2.5), (-0.5, -1e-9),
                                       (400.25, -299.75), (7.0, 6.0)]))
    def test_equals_map_coordinates_bit_for_bit(self, case):
        """The NumPy interpolation reproduces scipy's periodic order-1
        interpolation to the last bit, signed zeros included."""
        shape, dx, seed, cells = case
        grid = Grid(shape, (dx * dx, dx))
        values = np.random.default_rng(seed).standard_normal(shape)
        pts = np.array(cells) * np.array(grid.spacing)
        got = GridField(grid, values).sample_at(pts)
        want = map_coordinates(values, list((pts / grid.spacing).T),
                               order=1, mode="grid-wrap")
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKernelOnGrid:
    def test_profile_evaluated_once(self, grid):
        cutoff = CutoffFamily((2, 1))
        calls = []

        def profile(z):
            calls.append(z.shape)
            return cutoff.chi(dilate(z, 4.0, (2, 1)))

        K = dyadic_decompose(profile, cutoff, 4, beta=Fraction(2), order=8)
        window = KernelOnGrid(K, grid).stencil()
        assert calls == [(267, 45, 2)]
        ref = KernelOnGrid(bump_kernel(order=8), grid).stencil()
        assert all(np.array_equal(a, b) for a, b in zip(window, ref))

    @settings(max_examples=40, deadline=None)
    @given(window=st.one_of(
               st.tuples(st.integers(1, 40), st.integers(1, 40)),
               st.sampled_from([(17, 9), (3, 3), (256, 256)])),
           samples=st.sampled_from([None, 1, 5]),
           m=st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
           seed=st.integers(0, 2**32 - 1))
    def test_convolve_equals_rolled_sum(self, bump_on_grid, window, samples,
                                        m, seed):
        # windows narrower than the reach (15-17 time, 3-5 space cells)
        # wrap more than once; signed zeros must come out as a rolled field's
        rng = np.random.default_rng(seed)
        shape = window if samples is None else (samples, *window)
        v = rng.standard_normal(shape)
        v[rng.random(shape) < 0.2] = -0.0
        ti, xi, vals = bump_on_grid.stencil(m)
        want = np.zeros(shape)
        for i, j, c in zip(ti, xi, vals):
            want += c * np.roll(np.roll(v, i, -2), j, -1)
        want = want * bump_on_grid.grid.cell_volume
        got = bump_on_grid.convolve(v, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def bump_on_grid(grid):
    return KernelOnGrid(bump_kernel(order=8), grid)


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

    def test_gamma_memoised(self, model):
        # one map per pair of base points, so its character's memo is kept
        x, y = model.base_points[0], model.base_points[1]
        assert model.gamma(x, y) is model.gamma(x, y)
        assert model.gamma(list(x), y) is model.gamma(x, y)
        assert model.gamma(y, x) is not model.gamma(x, y)

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


def _chain_by_sums(model):
    """``check_chain`` as a sum of fields per (x, y, tree): zeros, plus
    float(c) * Pi_x(s) for each term of Gamma_xy tree, minus Pi_y(tree),
    then the sup over the sup of the target."""
    worst, per_tree = 0.0, {}
    for x in model.base_points:
        for y in model.base_points:
            if x == y:
                continue
            act = model.gamma(x, y)
            for tree in model.basis:
                target = model.pi(tree, y).values
                moved = np.zeros(model.grid.shape)
                for s, c in act(tree).items():
                    moved += float(c) * model.pi(s, x).values
                defect = (float(np.max(np.abs(moved - target)))
                          / max(float(np.max(np.abs(target))), 1.0))
                worst = max(worst, defect)
                per_tree[tree] = max(per_tree.get(tree, 0.0), defect)
    return worst, per_tree


class TestChainCheck:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1 << 16), with_ell=st.booleans())
    def test_equals_sum_of_fields(self, sector, grid, mild_ts, bump, seed,
                                  with_ell):
        xi = noise(mild_ts, "Xi")
        psi = plant(xi, "I")
        ell = {xi: 0.75, tree_product(psi, psi): -0.5} if with_ell else {}
        prep = PreparationMap(lambda t: ell.get(t, 0))
        field = mollified_noise_sampler(grid, ["Xi"], epsilon=8,
                                        seed=seed)(0)
        report = check_chain(build_model(sector, bump, field, prep))
        worst, per_tree = _chain_by_sums(build_model(sector, bump, field,
                                                     prep))
        assert report["max_defect"].hex() == worst.hex()
        assert list(report["per_tree"]) == list(per_tree)
        assert [v.hex() for v in report["per_tree"].values()] == [
            v.hex() for v in per_tree.values()]

    def test_model_freed_by_reference_count(self, sector, bump, sampler,
                                            mild_ts):
        # the recentering characters the model keeps must not refer back
        # to it, or its fields live until the next cyclic collection
        xi = noise(mild_ts, "Xi")
        gc.disable()
        try:
            model = build_model(sector, bump, sampler(0),
                                PreparationMap(lambda t: Fraction(0)))
            check_chain(model)
            x, y, z = model.base_points
            gxy, gyz, gxz = (model.gamma(x, y), model.gamma(y, z),
                             model.gamma(x, z))
            for t in model.basis:
                gyz(t).bind(gxy) - gxz(t)
            recentering_exponent(model, monomial(mild_ts, (0, 1)), y)
            last = model.basis[-1]
            terms = gxy(last)
            ref = weakref.ref(model)
            del model
            assert ref() is None
            # a kept map still answers from its memo, and refuses new trees
            assert gxy(last) == terms
            with pytest.raises(ReferenceError):
                gxy(plant(tree_product(monomial(mild_ts, (0, 1)), xi), "I"))
        finally:
            gc.enable()


class _PerPoint(ModelInstance):
    """The model with every (tree, base point) realised under its own key:
    the reference for the base-point-free keys."""

    def _key(self, tree, x, prepared):
        return None if x is None else tuple(x)


def _decider(ts, prep) -> ModelInstance:
    """A model without kernels, for the base-point decision alone, which
    reads only the trees and the preparation map."""
    grid = Grid((4, 4), (1 / 16, 1 / 4))
    return ModelInstance(hist([noise(ts, "Xi")]), {},
                         {"Xi": np.zeros(grid.shape)}, prep, (), grid)


class TestBasePointKeys:
    def test_anchor_decision(self, model, mild_ts, ts):
        xi = noise(mild_ts, "Xi")
        assert not model._anchored(xi, True)
        # I(Xi) has degree 1/2 - kappa > 0, so its jet at x is subtracted
        assert model._anchored(plant(xi, "I"), True)
        assert model._anchored(tree_product(monomial(mild_ts, (0, 1)), xi),
                               True)
        # with the noise at -5/2 the planted noise has no jet
        rough = _decider(ts, PreparationMap(lambda t: Fraction(0)))
        assert not rough._anchored(plant(noise(ts, "Xi"), "I"), True)

    def test_anchored_counterterm_anchors_the_prepared_tree(self, ts):
        xi = noise(ts, "Xi")
        psi = plant(xi, "I")
        anchored = tree_product(monomial(ts, (0, 1)), xi)

        class Shifted(PreparationMap):
            def __call__(self, tree):
                out = super().__call__(tree)
                if tree == psi:
                    out = out + FormalSum.single(anchored, Fraction(1, 2))
                return out

        m = _decider(ts, Shifted(lambda t: Fraction(0)))
        assert not m._anchored(psi, False)
        assert m._anchored(psi, True)
        # so is a tree that realises the prepared psi as a branch
        assert m._anchored(plant(psi, "Xi"), False)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1 << 16), with_ell=st.booleans(),
           order=st.permutations(range(4)))
    def test_keys_change_no_bits(self, sector, grid, mild_ts, bump, seed,
                                 with_ell, order):
        xi = noise(mild_ts, "Xi")
        psi = plant(xi, "I")
        ell = {xi: 0.75, tree_product(psi, psi): -0.5} if with_ell else {}
        prep = PreparationMap(lambda t: ell.get(t, 0))
        field = mollified_noise_sampler(grid, ["Xi"], epsilon=8,
                                        seed=seed)(0)
        model = build_model(sector, bump, field, prep)
        ref = _PerPoint(sector, model.kernels, model.noise, prep,
                        model.base_points, grid)
        points = [(*model.base_points, None)[i] for i in order]
        for x in points:
            for tree in model.basis:
                got, want = model.pi(tree, x).values, ref.pi(tree, x).values
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_one_convolution_per_branch_realisation(self, sector, sampler,
                                                    bump, mild_ts):
        with mock.patch.object(KernelOnGrid, "convolve", autospec=True,
                               side_effect=KernelOnGrid.convolve) as conv:
            model = build_model(sector, bump, sampler(0),
                                PreparationMap(lambda t: Fraction(0)))
            check_chain(model)
            recentering_exponent(model, monomial(mild_ts, (0, 1)),
                                 model.base_points[1])
        # I(1) and I(Xi) once; I(I(Xi)) and I(I(Xi)^2), whose branches
        # subtract a jet, once per base point
        assert conv.call_count == 2 + 2 * len(model.base_points)

    def test_one_stencil_value_per_jet_entry(self, sector, sampler, bump):
        with mock.patch.object(KernelOnGrid, "value_at", autospec=True,
                               side_effect=KernelOnGrid.value_at) as value:
            model = build_model(sector, bump, sampler(0),
                                PreparationMap(lambda t: Fraction(0)))
            check_chain(model)
        # one value per (kernel, branch, derivative, base point), which the
        # planted fields of every parent tree and g(x) share
        assert value.call_count == 33
        keys = {(c.args[1].ctypes.data, c.args[2], c.args[3])
                for c in value.call_args_list}
        assert len(keys) == value.call_count


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


def oracle_pin_cases(ts):
    """Oracle calls pinned in ``oracle_pins.json``: three trees of the
    default sector under a preparation map with a non-zero functional, on a
    small grid with a few samples.  Returns the oracle arguments and, per
    pin, the tree or formal sum evaluated."""
    spec = ORACLE_PINS["setup"]
    xi, x1 = noise(ts, "Xi"), monomial(ts, (0, 1))
    psi = plant(xi, "I")
    psi2 = tree_product(psi, psi)
    xi_x = plant(x1, "Xi")
    ell = {xi: 0.25, xi_x: 0.5, psi2: 1.5}
    prep = PreparationMap(lambda t: ell.get(t, 0.0))
    trees = {
        # twisted I(Xi) branches: the functional enters below each kernel
        "ell": psi2,
        # a kernel edge above a noise edge that carries an X^(0,1) branch
        "noise_branch": tree_product(psi, plant(xi_x, "I")),
        # a formal sum: a tree plus the monomial its preparation adds
        "formal_sum": prep(tree_product(psi, plant(tree_product(x1, xi),
                                                   "I"))),
    }
    grid = Grid(tuple(spec["shape"]), (spec["dx"] ** 2, spec["dx"]))
    sampler = mollified_noise_sampler(grid, ["Xi"], spec["mollifier_cells"],
                                      seed=spec["seed"])
    historic = hist([psi2, trees["noise_branch"]])
    kernels = {"I": bump_kernel(levels=spec["levels"], order=8)}
    args = (historic, kernels, sampler, prep)
    return args, trees, spec["samples"]


class TestExpectationOracle:
    def test_odd_tree_centred(self, quartic_sector, sampler, ts):
        psi = plant(noise(ts, "Xi"), "I")
        mean, se = expectation_oracle(
            quartic_sector, {"I": bump_kernel(order=8)}, sampler,
            PreparationMap(lambda t: Fraction(0)), psi, samples=400)
        assert abs(mean) <= 3 * se

    def test_squared_tree_matches_wick_variance(self, quartic_sector, grid,
                                                sampler, ts):
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

    def test_pinned_values(self, ts):
        # (mean, stderr) as float.hex, recorded with the evaluator that the
        # model recursion replaced; both must be reproduced to the last bit
        args, trees, samples = oracle_pin_cases(ts)
        for name, tree in trees.items():
            pin = ORACLE_PINS["pins"][name]
            assert pin["tree"] == repr(tree)
            mean, se = expectation_oracle(*args, tree, samples)
            assert [mean.hex(), se.hex()] == pin["value"], name

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


def full_grid_oracle(historic, kernels, sampler, prep, tree, samples):
    """The oracle as a loop over samples, each a model on the whole grid:
    what the window and block evaluation must reproduce to the last bit."""
    grid = next(iter(sampler(0).values())).grid
    on_grid = {name: KernelOnGrid(K, grid) for name, K in kernels.items()}
    combo = tree if isinstance(tree, FormalSum) else FormalSum.single(tree)
    vals = np.empty(samples)
    for i in range(samples):
        model = ModelInstance(historic, on_grid, sampler(i), prep, (), grid)
        total = 0.0
        for s, c in combo.items():
            total = total + float(c) * model.value(s)
        vals[i] = total
    return (float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(samples)))


COEFFS = st.floats(-2.0, 2.0, allow_nan=False).filter(bool)


@pytest.fixture(scope="module")
def pin_case(ts):
    return oracle_pin_cases(ts)


class TestBlockOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), single=st.booleans(), samples=st.integers(2, 6),
           block_cells=st.sampled_from([1, 400, 1 << 17]))
    def test_equals_full_grid_loop(self, pin_case, data, single, samples,
                                   block_cells):
        # on the 64x64 pin grid, with one sampler throughout so that later
        # examples read cached windows; small blocks hold one sample each
        (historic, kernels, sampler, _prep), _trees, _n = pin_case
        trees = sorted(historic, key=repr)
        ell = data.draw(st.dictionaries(st.sampled_from(trees), COEFFS,
                                        max_size=6))
        terms = data.draw(st.dictionaries(st.sampled_from(trees), COEFFS,
                                          min_size=1, max_size=3))
        prep = PreparationMap(lambda t: ell.get(t, 0.0))
        tree = next(iter(terms)) if single else FormalSum(terms)
        with mock.patch.object(models, "_BLOCK_CELLS", block_cells):
            got = expectation_oracle(historic, kernels, sampler, prep, tree,
                                     samples)
        want = full_grid_oracle(historic, kernels, sampler, prep, tree,
                                samples)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_whole_axis_window_equals_full_grid_loop(self, sector, mild_ts):
        # nested kernels reach 30 time cells, more than half of 32: the
        # window keeps the whole time axis and a part of the space axis
        grid = Grid((32, 32), (1 / 256, 1 / 16))
        sampler = mollified_noise_sampler(grid, ["Xi"], epsilon=4, seed=5)
        kernels = {"I": bump_kernel(order=8)}
        prep = PreparationMap(lambda t: Fraction(0))
        psi = plant(noise(mild_ts, "Xi"), "I")
        for tree in (plant(tree_product(psi, psi), "I"),
                     tree_product(monomial(mild_ts, (0, 1)), psi)):
            got = expectation_oracle(sector, kernels, sampler, prep, tree, 5)
            want = full_grid_oracle(sector, kernels, sampler, prep, tree, 5)
            assert got == want
        cells = models._draws(sampler).cells
        assert [len(c) for c in cells] == [32, 13]

    def test_second_call_draws_nothing(self, ts):
        (historic, kernels, sampler, prep), trees, samples = \
            oracle_pin_cases(ts)
        drawn = []

        def counting(i):
            drawn.append(i)
            return sampler(i)

        expectation_oracle(historic, kernels, counting, prep, trees["ell"],
                           samples)
        assert sorted(drawn) == list(range(samples))
        drawn.clear()
        for tree in trees.values():
            expectation_oracle(historic, kernels, counting, prep, tree,
                               samples)
        assert drawn == []

    def test_windows_past_the_cache_bound_are_redrawn(self, ts):
        # the cache keeps the windows of samples 0-2 only; blocks of two
        # samples mix a cached window with a redrawn one
        (historic, kernels, sampler, prep), trees, _n = oracle_pin_cases(ts)
        tree = trees["noise_branch"]
        expectation_oracle(historic, kernels, sampler, prep, tree, 2)
        probe = models._draws(sampler)
        window_bytes = sum(w.nbytes for w in probe.windows[0].values())
        cells = math.prod(len(c) for c in probe.cells)
        drawn = []

        def counting(i):
            drawn.append(i)
            return sampler(i)

        with mock.patch.object(models, "_WINDOW_CACHE_BYTES",
                               3 * window_bytes), \
                mock.patch.object(models, "_BLOCK_CELLS", 2 * cells):
            first = expectation_oracle(historic, kernels, counting, prep,
                                       tree, 6)
            assert sorted(drawn) == list(range(6))
            assert len(models._draws(counting).windows) == 3
            drawn.clear()
            second = expectation_oracle(historic, kernels, counting, prep,
                                        tree, 6)
            assert drawn == [3, 4, 5]
        want = full_grid_oracle(historic, kernels, sampler, prep, tree, 6)
        assert [v.hex() for v in first] == [v.hex() for v in want]
        assert [v.hex() for v in second] == [v.hex() for v in want]

    def test_dropping_the_sampler_frees_its_windows(self, ts):
        args, trees, samples = oracle_pin_cases(ts)
        expectation_oracle(*args, trees["ell"], samples)
        windows = weakref.ref(models._DRAWS[args[2]])
        del args
        gc.collect()
        assert windows() is None
