"""End-to-end acceptance checks, one per headline criterion.

Each test is self-contained and pins the advertised tolerance and, where one
is stated, the runtime budget.  Everything is seeded, so a failure here is a
regression, not noise.
"""
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy as sp

from regkit.hopf import (
    GammaMap,
    a_star,
    antipode,
    counit,
    delta,
    delta_plus,
    delta_r_minus,
    delta_r_minus_reduced,
    delta_tilde,
    delta_tilde_coloured,
    delta_tilde_explicit,
    m_star,
)
from regkit.kernels import (
    CutoffFamily,
    aniso_taylor,
    dyadic_decompose,
    kernel_norm,
    snorm,
)
from regkit.models import (
    Grid,
    KernelOnGrid,
    build_model,
    bump_kernel,
    check_chain,
    expectation_oracle,
    mollified_noise_sampler,
    mollifier,
)
from regkit.renorm import PreparationMap, age, bphz_functional, hist
from regkit.rules import generate
from regkit.trees import (
    Degree,
    FormalSum,
    TypeSet,
    contract,
    monomial,
    noise,
    paint,
    plant,
    tree_product,
    unit,
)

ORIGIN = np.array([0.0, 0.0])


@pytest.fixture(scope="module")
def universe(quartic_rule):
    return generate(quartic_rule, Fraction(2), 5)


@pytest.fixture(scope="module")
def mild_ts():
    return TypeSet.make(
        scaling=(2, 1),
        types={"Xi": Degree(Fraction(-3, 2), Fraction(-1)),
               "I": Degree(Fraction(2))},
        kappa=Fraction(1, 100),
    )


def fit_exponent(hs, vals):
    return float(np.polyfit(np.log(hs), np.log(vals), 1)[0])


def test_01_hopf_suite_exact(ts, universe):
    started = time.monotonic()
    assert len(universe) >= 100
    one = unit(ts)
    for t in universe:
        # comodule identity for the coaction, on the universe itself
        dc = delta(t)
        assert dc.apply(0, delta) == dc.apply(1, delta_plus)
        # the Hopf side lives on positively-planted trees
        p = plant(t, "I")
        if p.degree_value() <= 0:
            continue
        d = delta_plus(p)
        # coassociativity
        assert d.apply(0, delta_plus) == d.apply(1, delta_plus)
        # counit laws
        left = FormalSum.zero()
        right = FormalSum.zero()
        for (l, r), c in d.items():
            left = left + FormalSum.single(r, c * counit(l))
            right = right + FormalSum.single(l, c * counit(r))
        assert left == FormalSum.single(p)
        assert right == FormalSum.single(p)
    # multiplicativity on a deterministic grid of pairs
    sample = universe.trees[::9]
    for a in sample[:8]:
        for b in sample[8:16]:
            assert delta_plus(tree_product(a, b)) == \
                delta_plus(a).mul(delta_plus(b))
    # antipode convolution identity on the group-like generators
    for t in universe:
        p = plant(t, "I")
        if p.degree_value() <= 0:
            continue
        folded = FormalSum.zero()
        for (l, r), c in delta_plus(p).items():
            for s, c2 in antipode(l).items():
                folded = folded + FormalSum.single(tree_product(s, r), c * c2)
        assert folded == FormalSum.single(one, counit(p))
    assert time.monotonic() - started <= 60.0


def test_02_cointeraction_exact(universe):
    for t in universe:
        assert delta(t).apply(0, delta_r_minus) == \
            delta_r_minus(t).apply(1, delta)


def test_03_jet_coproduct_oracle(ts):
    psi = plant(noise(ts, "Xi"), "I")
    xpsi = tree_product(monomial(ts, (0, 1)), psi)
    sector = hist([tree_product(psi, psi),
                   xpsi,
                   tree_product(psi, xpsi),
                   plant(xpsi, "I"),
                   tree_product(monomial(ts, (0, 2)), psi),
                   tree_product(plant(noise(ts, "Xi"), "I", (0, 1)), psi)])
    assert max(t.n_edges for t in sector) <= 4
    base = set(sector.trees)
    for gamma0 in (Fraction(67, 10), Fraction(73, 10), Fraction(89, 10)):
        gm = GammaMap(gamma0, a_star(base))
        m = m_star(gm, base)
        for t in sector:
            assert delta_tilde(t, gm, m) == delta_tilde_explicit(t, gm, m)
    # contraction compatibility on coloured variants
    gm = GammaMap(Fraction(67, 10), a_star(base))
    m = m_star(gm, base)
    checked = 0
    for t in sorted(base):
        for r in range(0, t.n_edges + 1):
            for sub in combinations(t.edges(), r):
                s = set(sub)
                if not all(t.parent[e] == 0 or t.parent[e] in s for e in s):
                    continue
                ct = paint(t, s)
                lhs = delta_tilde_explicit(contract(ct), gm, m)
                rhs = delta_tilde_coloured(ct, gm, m).apply(
                    0, lambda x: FormalSum.single(contract(x)))
                assert lhs == rhs
                checked += 1
                if checked >= 50:
                    return
    assert checked >= 50


def test_04_hist_idempotent_and_age_decreasing(universe):
    rng = np.random.default_rng(2024)
    pool = list(universe.trees)
    for _ in range(20):
        seed = [pool[i] for i in rng.choice(len(pool), size=3, replace=False)]
        once = hist(seed)
        again = hist(once.trees)
        assert set(once) == set(again)
    for t in universe:
        a = age(t)
        _nd, factors = t.factor()
        if len(factors) > 1:
            for et, ed, od, br in factors:
                assert age(plant(br, et, ed, od)) < a
        if t.is_planted:
            assert age(t.branch(t.children(0)[0])) < a
        for (l, r), _c in delta_r_minus_reduced(t).items():
            assert age(l) < a and age(r) < a


def test_05_model_chain_and_cocycle(mild_ts):
    started = time.monotonic()
    xi = noise(mild_ts, "Xi")
    psi = plant(xi, "I")
    psi2 = tree_product(psi, psi)
    sector = hist([tree_product(psi2, psi),
                   tree_product(monomial(mild_ts, (0, 1)), psi),
                   plant(psi2, "I")])
    grid = Grid((256, 256), (1 / 256, 1 / 16))
    sampler = mollified_noise_sampler(grid, ["Xi"], epsilon=8, seed=7)
    kernels = {"I": bump_kernel(order=8)}

    def mc(tree, ell):
        prep = PreparationMap(lambda t: ell.get(t, 0.0))
        return expectation_oracle(sector, kernels, sampler, prep, tree,
                                  samples=2000)[0]

    ell_hat = bphz_functional(sector, mc)
    preps = [PreparationMap(lambda t: Fraction(0)),
             PreparationMap(lambda t: ell_hat.get(t, 0.0))]
    for prep in preps:
        model = build_model(sector, kernels, sampler(0), prep)
        assert check_chain(model)["max_defect"] <= 1e-6
        x, y, z = model.base_points
        gxy, gyz, gxz = (model.gamma(x, y), model.gamma(y, z),
                         model.gamma(x, z))
        for t in model.basis:
            diff = gyz(t).bind(gxy) - gxz(t)
            assert all(abs(float(c)) <= 1e-8 for _s, c in diff.items())
    assert time.monotonic() - started <= 300.0


def test_06_bphz_centers_the_model(ts):
    psi = plant(noise(ts, "Xi"), "I")
    psi2 = tree_product(psi, psi)
    sector = hist([tree_product(psi2, psi)])
    grid = Grid((256, 256), (1 / 256, 1 / 16))
    sampler = mollified_noise_sampler(grid, ["Xi"], epsilon=8, seed=11)
    kernels = {"I": bump_kernel(order=8)}
    samples = 10_000

    def mc(tree, ell):
        prep = PreparationMap(lambda t: ell.get(t, 0.0))
        return expectation_oracle(sector, kernels, sampler, prep, tree,
                                  samples)[0]

    ell_hat = bphz_functional(sector, mc)
    prep_hat = PreparationMap(lambda t: ell_hat.get(t, 0.0))
    for tau in sector.negative():
        mean, se = expectation_oracle(sector, kernels, sampler, prep_hat,
                                      prep_hat(tau), samples)
        assert abs(mean) <= max(3.0 * se, 1e-12)
    # closed-form Gaussian oracle for the squared tree: the counterterm is
    # minus the variance of the kernel-smoothed mollified noise at a point
    _mean2, se2 = expectation_oracle(sector, kernels, sampler,
                                     PreparationMap(lambda t: Fraction(0)),
                                     psi2, samples)
    smoothed = KernelOnGrid(kernels["I"], grid).convolve(mollifier(grid, 8))
    variance = float(np.sum(smoothed.values ** 2)) * grid.cell_volume
    assert abs(ell_hat[psi2] + variance) <= 3.0 * se2


def test_07_heat_kernel_suite():
    from regkit.heatkernel import (
        CoefficientField,
        apply_operator,
        e_kernel,
        frozen_gaussian,
        heat_convolve,
        volterra,
        z_kernel,
    )
    started = time.monotonic()
    constant = CoefficientField.make("3/4")
    gentle = CoefficientField.make("1 + sin(x)/5 + t/10", "x/7", "cos(x)/3",
                                   regularity=12)
    # (a) constant coefficients: the series truncates to the Gaussian, which
    # carries unit mass in space
    vol = volterra(constant, 3)
    for z, zbar in [(np.array([0.5, 0.2]), np.array([0.1, 0.0])),
                    (np.array([0.9, -0.4]), np.array([0.3, 0.2]))]:
        exact = float(frozen_gaussian(constant, zbar, (z - zbar)[None, :])[0])
        assert float(vol(z, zbar)) == pytest.approx(exact, rel=1e-12)
    xs = np.linspace(-12.0, 12.0, 24001)
    zeta = np.stack([np.full_like(xs, 0.25), xs], axis=-1)
    mass = np.trapezoid(frozen_gaussian(constant, ORIGIN, zeta), xs)
    assert abs(mass - 1.0) <= 1e-8
    # (b) space-time convolution against an endpoint-desingularised
    # trapezoid oracle
    Z, E = z_kernel(gentle), e_kernel(gentle)
    conv = heat_convolve(Z, E, n_s=24, n_y=48)
    z, zbar = np.array([0.7, 0.3]), np.array([0.1, -0.1])
    theta = np.linspace(0, np.pi / 2, 402)[1:-1]
    taus = zbar[0] + (z[0] - zbar[0]) * np.sin(theta) ** 2
    jac = (z[0] - zbar[0]) * np.sin(2 * theta)
    ys = np.linspace(zbar[1] - 16, zbar[1] + 16, 2401)
    TT, YY = np.meshgrid(taus, ys, indexing="ij")
    pts = np.stack([TT, YY], axis=-1)
    vals = Z(z[None, None, :], pts) * E(pts, zbar[None, None, :])
    direct = np.trapezoid(np.trapezoid(vals, ys, axis=1) * jac, theta)
    assert float(conv(z, zbar)) == pytest.approx(direct, rel=1e-4)
    # (c) telescoping: applying the operator to the truncated series leaves
    # exactly the (N+1)-fold error tail, off the diagonal
    neg_e = e_kernel(gentle).scaled(-1.0)
    vol2 = volterra(gentle, 2, n_s=16, n_y=32)
    tail = heat_convolve(heat_convolve(neg_e, neg_e, n_s=16, n_y=32),
                         neg_e, n_s=16, n_y=32)
    lhs = apply_operator(gentle, vol2, z, zbar)
    rhs = -float(tail(z, zbar))
    assert lhs == pytest.approx(rhs, rel=1e-3)
    # (d) fitted scaling orders: E sits one power below the Gaussian, each
    # extra error factor gains half a power
    hs = np.array([0.04, 0.02, 0.01, 0.005])
    vals = [abs(float(E(np.array([h, 2.0 * math.sqrt(h)]), ORIGIN)))
            for h in hs]
    assert fit_exponent(hs, vals) == pytest.approx((1 - 3) / 2, abs=0.2)
    rays = (0.0, 0.5, 1.0, 2.0)
    for k in (0, 1, 2):
        S = vol2.summands[k]
        vals = [max(abs(float(S(np.array([h, v * math.sqrt(h)]), ORIGIN)))
                    for v in rays) for h in hs]
        assert fit_exponent(hs, vals) == pytest.approx((2 + k - 3) / 2,
                                                       abs=0.2)
    assert time.monotonic() - started <= 600.0


def test_08_locality_and_certificates():
    from regkit.heatkernel import (
        CoefficientField,
        EDecomposition,
        decompose_green,
        e_kernel,
        parse_lambda_term,
        taylor_decompose_Z,
        z_kernel,
    )
    cutoff = CutoffFamily((2, 1))
    # identical order-r jets at the base point => identical singular kernel
    f1 = CoefficientField.make("1 + sin(x)/5", "x/7", "1/3", regularity=12)
    f2 = CoefficientField.make("1 + sin(x)/5 + x**9*t**5", "x/7", "1/3",
                               regularity=12)
    k1 = decompose_green(f1, 3, 2, cutoff, N=1).local(ORIGIN)
    k2 = decompose_green(f2, 3, 2, cutoff, N=1).local(ORIGIN)
    zeta = np.array([[0.04, 0.1], [0.09, 0.2], [0.16, -0.25]])
    assert np.max(np.abs(k1(zeta) - k2(zeta))) <= 1e-10
    # every certificate term validates and survives a serialisation roundtrip
    cert = decompose_green(f1, 3, 2, cutoff, N=1).certificate()
    assert len(cert) > 1
    for term in cert:
        assert term.validate(3)
        again = parse_lambda_term(term.to_dict())
        assert sp.simplify(again.coefficient - term.coefficient) == 0
    # Taylor reassembly of both kernel splits at 50 sampled triples
    field = CoefficientField.make("1 + t/10 + sin(x)/5", "x/7", "cos(x)/3",
                                  regularity=12)
    Z, E = z_kernel(field), e_kernel(field)
    zjets, zrems = taylor_decompose_Z(field, 2)
    edec = EDecomposition(field, 3)
    ejets, erems = edec.jets(), edec.remainders()

    def down(k):
        return (k[0] - 1, k[1]) if k[0] else (k[0], k[1] - 1)

    def jet_part(jets, w, z, zbar, *at):
        # Z jets take (w, z, zbar), the E jet views (w, z - zbar)
        return sum((zbar - w)[0] ** k[0] * (zbar - w)[1] ** k[1]
                   * float(jet(w, *at)) for k, jet in jets.items())

    rng = np.random.default_rng(17)
    for i in range(50):
        w = rng.uniform(-0.4, 0.4, 2)
        zbar = w + rng.uniform(-1, 1, 2) * np.array([0.01, 0.05])
        z = zbar + np.array([rng.uniform(0.02, 0.4),
                             rng.uniform(-0.5, 0.5)])
        total = jet_part(zjets, w, z, zbar, z, zbar)
        total += sum(
            (zbar - w)[0] ** down(k)[0] * (zbar - w)[1] ** down(k)[1]
            * float(rem(w, z, zbar)) for k, rem in zrems.items())
        assert abs(total - float(Z(z, zbar))) <= 1e-6
        # the error-kernel split is an order of magnitude costlier, so thin
        # it out
        if i % 5 == 0:
            total = jet_part(ejets, w, z, zbar, z - zbar)
            total += sum(
                (zbar - w)[0] ** nu[0] * (zbar - w)[1] ** nu[1]
                * float(rem(w, z, zbar)) for (k, nu), rem in erems.items())
            assert abs(total - float(E(z, zbar))) <= 1e-6


def test_09_anisotropic_taylor():
    A = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]
    coef = {k: 1.0 + 0.3 * i for i, k in enumerate(A)}

    def p(z):
        return sum(c * z[0] ** k[0] * z[1] ** k[1] for k, c in coef.items())

    def pderiv(k, z):
        total = 0.0
        for kk, c in coef.items():
            if all(a >= b for a, b in zip(kk, k)):
                fall = np.prod([math.factorial(a) / math.factorial(a - b)
                                for a, b in zip(kk, k)])
                total += c * fall * np.prod(
                    [z[i] ** (a - b)
                     for i, (a, b) in enumerate(zip(kk, k))])
        return total

    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        jet, rem = aniso_taylor(A, x, pderiv)
        assert abs(p(x) - sum(jet.values()) - rem(x)) <= 1e-10

    derivs = lambda k, z: math.sin(z[0] + z[1]  # noqa: E731
                                   + (k[0] + k[1]) * math.pi / 2)
    lower = [(0, 0), (0, 1)]  # scaled degree below two under (2, 1)
    hs = [0.5 / 2 ** i for i in range(5)]
    errs = []
    for h in hs:
        x = (h ** 2, h)
        _jet, rem = aniso_taylor(lower, x, derivs)
        errs.append(abs(rem(x)))
    assert fit_exponent(np.asarray(hs), errs) == pytest.approx(2.0, abs=0.2)


def test_10_dyadic_norms():
    cutoff = CutoffFamily((2, 1))

    def heat_gaussian(z):
        t, x = z[..., 0], z[..., 1]
        safe_t = np.clip(t, 1e-300, None)
        return np.where(t > 0,
                        np.exp(-x ** 2 / (4 * safe_t))
                        / np.sqrt(4 * np.pi * safe_t), 0.0)

    levels = 6
    K = dyadic_decompose(heat_gaussian, cutoff, levels, beta=Fraction(2),
                         order=1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(5000, 2))
    pts = pts[snorm(pts, (2, 1)) >= 2.0 ** (-levels)]
    rebuilt = sum(K.parts(pts))
    assert float(np.max(np.abs(rebuilt - heat_gaussian(pts)))) <= 1e-10
    coarse = kernel_norm(K, samples_per_axis=9)
    fine = kernel_norm(K, samples_per_axis=17)
    assert np.isfinite(fine.value) and fine.value > 0
    assert abs(fine.value - coarse.value) <= 0.02 * fine.value
