"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload combinatorics --seed 0 \
        --trace 0 --t0 <time.monotonic() of the parent when it spawned us>

A pass builds its inputs (the set-up phase), runs the workload's fixed list
of calls into ``regkit`` once as a closed loop with one caller (the timed
phase), checks every output it can check for any seed, and prints one JSON
object as its last line: times, counts, checks, and the values that
``run.py`` compares with ``reference.json``.  Only public ``regkit`` names
are called.  With ``--trace 1`` the wrappers of ``tracing.py`` are installed
before set-up, per-layer numbers are added, and the spans are written to
``--spans``.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, cache_stats  # noqa: E402

# -- sizes: one pass takes 4-6 s of timed work on a 2-core x86 box --
HOPF_STRIDE = 16           # coassociativity/antipode on every 16th tree
HOPF_PAIRS = 2             # multiplicativity on a 2 x 2 grid of pairs
HIST_TRIPLES = 6           # seeded hist idempotence triples
AGE_STRIDE = 3             # age-decrease check on every 3rd tree
JET_GAMMAS = (Fraction(67, 10), Fraction(73, 10), Fraction(89, 10))
JET_MAX_EDGES = 2          # jet-sector trees this small, at every gamma,
                           # and the first one edge larger at the first gamma
MC_SAMPLES = 16            # Monte Carlo samples per oracle call
PATHS = 2                  # noise paths through the test_05 sector
REASSEMBLY_POINTS = 2
KERNEL_POINTS = 16
NORM_SAMPLES = 5           # samples_per_axis of the Green-split norm

CHAIN_TOL, COCYCLE_TOL, REASSEMBLY_TOL, SLOPE_TOL = 1e-6, 1e-8, 1e-6, 0.05


class Checks:
    def __init__(self):
        self.items: list[list] = []
        self.values: dict = {}

    def __call__(self, name: str, failed: int, attempted: int = 1,
                 detail=None) -> None:
        """Record ``attempted`` checks of one kind, ``failed`` of them bad."""
        self.items.append([name, attempted, int(failed), detail])

    def value(self, key: str, v) -> None:
        """A number the parent compares with the recorded reference."""
        self.values[key] = str(v) if isinstance(v, Fraction) else v


# Typical time of probe() on the 2-core x86 machine the bounds were set on.
# That machine switches between a fast and a slow state (about 1.5x apart)
# in spells of seconds to minutes, which no run length averages out, so each
# stage segment is also reported scaled by PROBE_REF_S / (mean of the probes
# just before and just after it): its time at the reference speed.
PROBE_REF_S = 0.0095
TICK_S = 0.3


def probe() -> float:
    """Seconds for a fixed piece of work that does not touch regkit: pure
    Python arithmetic, a 256x256 FFT round trip and small-array numpy."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    np.fft.irfft2(np.fft.rfft2(a))
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(600):
        v = np.sqrt(np.abs(np.sin(v) * 0.5 + v * v))
    return time.perf_counter() - start


class Stages:
    """Wall-clock timer for the workload's stages.  A probe runs before each
    stage and, at item boundaries, again once a stage has run for TICK_S;
    probes are not part of any stage's time.  With a tracer each stage is
    also a span named ``bench.<stage>``, and ``item`` names the benchmark
    operation that the spans below it belong to."""

    def __init__(self, tracer: Tracer | None = None):
        self.seconds: dict[str, float] = {}
        self.tracer = tracer
        self.probes: list[float] = []
        self.log: list[tuple] = []    # (stage, seconds, index of its probe)
        self._stage = None
        self._since = 0.0

    def probe(self) -> None:
        self.probes.append(probe())

    def run(self, name: str, fn, *args):
        self.probe()
        if self.tracer is not None:
            fn = self.tracer.wrap_one(f"bench.{name}", fn)
        self._stage, self._since = name, time.perf_counter()
        out = fn(*args)
        self._close()
        self._stage = None
        return out

    def item(self, op: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op
        if self._stage is not None and \
                time.perf_counter() - self._since >= TICK_S:
            self._close()
            self.probe()
            self._since = time.perf_counter()

    def _close(self) -> None:
        took = time.perf_counter() - self._since
        self.seconds[self._stage] = self.seconds.get(self._stage, 0.0) + took
        self.log.append((self._stage, took, len(self.probes) - 1))

    def scaled_seconds(self) -> dict[str, float]:
        """Stage times at the reference speed, each segment scaled by the
        probes on either side of it; call after the last probe."""
        out: dict[str, float] = {}
        for name, took, i in self.log:
            speed = (self.probes[i] + self.probes[i + 1]) / 2
            out[name] = out.get(name, 0.0) + took * PROBE_REF_S / speed
        return out


# ---------------------------------------------------------------------------
# combinatorics: exact tree algebra, no floats, no numpy


def setup_combinatorics(rk, seed):
    trees = rk["trees"]
    ts = trees.TypeSet.make(
        scaling=(2, 1),
        types={"Xi": trees.Degree(Fraction(-5, 2), Fraction(-1)),
               "I": trees.Degree(Fraction(2))},
        kappa=Fraction(1, 100))
    z = ts.zero()
    rule = rk["rules"].Rule.make(ts, {"I": [[("Xi", z)],
                                            [("I", z), ("I", z), ("I", z)]]})
    return {"ts": ts, "rule": rule, "seed": seed}


def run_combinatorics(rk, inp, stages, chk, counts):
    trees, hopf, renorm = rk["trees"], rk["hopf"], rk["renorm"]
    ts, FormalSum = inp["ts"], trees.FormalSum
    uni = stages.run("generate", rk["rules"].generate, inp["rule"],
                     Fraction(2), 5)
    counts["universe"] = len(uni)
    chk.value("universe_size", len(uni))
    chk.value("universe_negative", len(uni.negative()))

    def hopf_suite():
        one = trees.unit(ts)
        bad = {"comodule": 0, "cointeraction": 0, "counit": 0,
               "coassociativity": 0, "antipode": 0, "multiplicative": 0}
        tried = dict.fromkeys(bad, 0)
        terms = 0
        for i, t in enumerate(uni):
            stages.item(f"hopf:{i}")
            dc = hopf.delta(t)
            rm = hopf.delta_r_minus(t)
            terms += len(dc) + len(rm)
            tried["comodule"] += 1
            tried["cointeraction"] += 1
            bad["comodule"] += dc.apply(0, hopf.delta) != \
                dc.apply(1, hopf.delta_plus)
            bad["cointeraction"] += dc.apply(0, hopf.delta_r_minus) != \
                rm.apply(1, hopf.delta)
            p = trees.plant(t, "I")
            if p.degree_value() <= 0:
                continue
            d = hopf.delta_plus(p)
            terms += len(d)
            left, right = FormalSum.zero(), FormalSum.zero()
            for (l, r), c in d.items():
                left = left + FormalSum.single(r, c * hopf.counit(l))
                right = right + FormalSum.single(l, c * hopf.counit(r))
            tried["counit"] += 1
            bad["counit"] += left != FormalSum.single(p) or \
                right != FormalSum.single(p)
            if i % HOPF_STRIDE:
                continue
            tried["coassociativity"] += 1
            tried["antipode"] += 1
            bad["coassociativity"] += d.apply(0, hopf.delta_plus) != \
                d.apply(1, hopf.delta_plus)
            folded = FormalSum.zero()
            for (l, r), c in d.items():
                for s, c2 in hopf.antipode(l).items():
                    folded = folded + FormalSum.single(
                        trees.tree_product(s, r), c * c2)
            bad["antipode"] += folded != FormalSum.single(one,
                                                          hopf.counit(p))
        sample = uni.trees[::9]
        for a in sample[:HOPF_PAIRS]:
            for b in sample[8:8 + HOPF_PAIRS]:
                stages.item("hopf:mul")
                tried["multiplicative"] += 1
                bad["multiplicative"] += hopf.delta_plus(
                    trees.tree_product(a, b)) != \
                    hopf.delta_plus(a).mul(hopf.delta_plus(b))
        return (bad, tried), terms

    (bad, tried), terms = stages.run("hopf", hopf_suite)
    for name, n in bad.items():
        chk(f"hopf.{name}", n, tried[name])
    counts["hopf_trees"] = len(uni)
    counts["coproduct_terms"] = terms
    chk.value("coproduct_terms", terms)

    def hist_age():
        rng = random.Random(inp["seed"])
        pool = list(uni.trees)
        sizes, bad_hist, bad_age, ages = [], 0, 0, []
        for _ in range(HIST_TRIPLES):
            stages.item("hist")
            seed3 = rng.sample(pool, 3)
            once = renorm.hist(seed3)
            again = renorm.hist(once.trees)
            bad_hist += set(once) != set(again)
            sizes.append(len(once))
        for t in uni.trees[::AGE_STRIDE]:
            stages.item("age")
            a = renorm.age(t)
            ages.append(a)
            _nd, factors = t.factor()
            if len(factors) > 1:
                for et, ed, od, br in factors:
                    bad_age += not renorm.age(trees.plant(br, et, ed, od)) < a
            if t.is_planted:
                bad_age += not renorm.age(t.branch(t.children(0)[0])) < a
            for (l, r), _c in hopf.delta_r_minus_reduced(t).items():
                bad_age += not (renorm.age(l) < a and renorm.age(r) < a)
        return sizes, bad_hist, bad_age, ages

    sizes, bad_hist, bad_age, ages = stages.run("hist_age", hist_age)
    chk("renorm.hist_idempotent", bad_hist, HIST_TRIPLES)
    chk("renorm.age_decreasing", bad_age, len(ages))
    chk.value("hist_sizes", ",".join(map(str, sizes)))
    chk.value("age_total", sum(ages))

    def jet():
        xi = trees.noise(ts, "Xi")
        psi = trees.plant(xi, "I")
        xpsi = trees.tree_product(trees.monomial(ts, (0, 1)), psi)
        sector = renorm.hist([
            trees.tree_product(psi, psi), xpsi,
            trees.tree_product(psi, xpsi), trees.plant(xpsi, "I"),
            trees.tree_product(trees.monomial(ts, (0, 2)), psi),
            trees.tree_product(trees.plant(xi, "I", (0, 1)), psi)])
        base = set(sector.trees)
        small = [t for t in sector if t.n_edges <= JET_MAX_EDGES]
        big = [t for t in sector if t.n_edges == JET_MAX_EDGES + 1][:1]
        bad, pairs, terms, info = 0, 0, 0, []
        for gamma0 in JET_GAMMAS:
            gm = hopf.GammaMap(gamma0, hopf.a_star(base))
            m = hopf.m_star(gm, base)
            info.append(str(m))
            for t in small + (big if gamma0 == JET_GAMMAS[0] else []):
                stages.item(f"jet:{gamma0}:{pairs}")
                rec = hopf.delta_tilde(t, gm, m)
                exp = hopf.delta_tilde_explicit(t, gm, m)
                bad += rec != exp
                pairs += 1
                terms += len(exp)
        return len(sector), bad, pairs, terms, info

    size, bad, pairs, terms, m_values = stages.run("jet", jet)
    chk("hopf.jet_identity", bad, pairs)
    chk("hopf.jet_sector_size", size != 15, detail=size)
    counts["jet_pairs"] = pairs
    counts["jet_terms"] = terms
    chk.value("jet_terms", terms)
    chk.value("jet_m_star", ",".join(m_values))


# ---------------------------------------------------------------------------
# realisation: 256x256 parabolic grid, Monte Carlo and model paths


def setup_realisation(rk, seed):
    cli, models, trees = rk["cli"], rk["models"], rk["trees"]
    config = cli.RunConfig.load(None)
    ts, rule = cli.load_rule(config)
    grid = config.grid()
    cells = config.data["mollifier_cells"]
    kernels = {name: models.bump_kernel(
        levels=config.budget("dyadic_levels"),
        order=config.budget("kernel_order")) for name in ts.kernel_types}
    sampler = models.mollified_noise_sampler(grid, list(ts.noise_types),
                                             cells, 1000 + seed)
    mild = trees.TypeSet.make(
        scaling=(2, 1),
        types={"Xi": trees.Degree(Fraction(-3, 2), Fraction(-1)),
               "I": trees.Degree(Fraction(2))},
        kappa=Fraction(1, 100))
    path_sampler = models.mollified_noise_sampler(grid, ["Xi"], cells,
                                                  2000 + seed)
    return {"config": config, "ts": ts, "rule": rule, "grid": grid,
            "kernels": kernels, "sampler": sampler, "mild": mild,
            "path_sampler": path_sampler, "seed": seed}


def run_realisation(rk, inp, stages, chk, counts):
    cli, models, renorm, trees = rk["cli"], rk["models"], rk["renorm"], \
        rk["trees"]
    rules = rk["rules"]
    config, kernels, sampler = inp["config"], inp["kernels"], inp["sampler"]

    def sectors():
        uni = rules.generate(inp["rule"],
                             Fraction(str(config.data["degree_cap"])),
                             config.data["edge_cap"])
        sector = renorm.hist(uni.negative())
        mild = inp["mild"]
        psi = trees.plant(trees.noise(mild, "Xi"), "I")
        psi2 = trees.tree_product(psi, psi)
        paths = renorm.hist([trees.tree_product(psi2, psi),
                             trees.tree_product(trees.monomial(mild, (0, 1)),
                                                psi),
                             trees.plant(psi2, "I")])
        return uni, sector, paths

    uni, sector, path_sector = stages.run("sectors", sectors)
    counts["universe"] = len(uni)
    chk("models.bphz_sector_size", len(sector) != 20
        or len(sector.negative()) != 13, detail=len(sector))
    evals = [0]

    def oracle(prep, tree):
        evals[0] += MC_SAMPLES
        return models.expectation_oracle(sector, kernels, sampler, prep,
                                         tree, MC_SAMPLES)

    def monte_carlo():
        def mc(tree, ell):
            stages.item(f"mc:{len(ell)}")
            return oracle(renorm.PreparationMap(
                lambda t: ell.get(t, 0.0)), tree)[0]

        ell = renorm.bphz_functional(sector, mc)
        prep_hat = renorm.PreparationMap(lambda t: ell.get(t, 0.0))
        off = 0
        for i, tau in enumerate(sector.negative()):
            stages.item(f"centre:{i}")
            mean, se = oracle(prep_hat, prep_hat(tau))
            off += abs(mean) > max(3.0 * se, 1e-12)
        return ell, off

    ell, off = stages.run("mc", monte_carlo)
    chk("models.renormalised_means_zero", off, len(sector.negative()))
    counts["mc_samples"] = evals[0]
    chk.value("bphz_domain", len(ell))
    for t, v in sorted(ell.items(), key=lambda kv: cli.tree_name(kv[0])):
        chk.value(f"bphz[{cli.tree_name(t)}]", float(v))

    grid = inp["grid"]
    lams = tuple(lam for lam in (0.5 ** m for m in range(1, 9))
                 if all(lam ** s >= h for s, h in
                        zip(grid.scaling, grid.spacing)))[:4]
    mono = trees.monomial(inp["mild"], (0, 1))

    def paths():
        worst = {"chain": 0.0, "cocycle": 0.0, "slope": 0.0}
        bad = dict.fromkeys(worst, 0)
        slopes = []
        for i in range(PATHS):
            stages.item(f"path:{i}")
            model = models.build_model(
                path_sector, kernels, inp["path_sampler"](i),
                renorm.PreparationMap(lambda t: Fraction(0)))
            chain = models.check_chain(model)["max_defect"]
            x, y, z = model.base_points
            gxy, gyz, gxz = (model.gamma(x, y), model.gamma(y, z),
                             model.gamma(x, z))
            cocycle = 0.0
            for t in model.basis:
                diff = gyz(t).bind(gxy) - gxz(t)
                cocycle = max([cocycle] + [abs(float(c))
                                           for _s, c in diff.items()])
            slope, _res = models.recentering_exponent(
                model, mono, model.base_points[1], lambdas=lams)
            slopes.append(slope)
            for key, v, tol in (("chain", chain, CHAIN_TOL),
                                ("cocycle", cocycle, COCYCLE_TOL),
                                ("slope", abs(slope - 1.0), SLOPE_TOL)):
                worst[key] = max(worst[key], v)
                bad[key] += not v <= tol
        return worst, bad, slopes

    worst, bad, slopes = stages.run("paths", paths)
    chk("models.chain_defect", bad["chain"], PATHS, worst["chain"])
    chk("models.cocycle_defect", bad["cocycle"], PATHS, worst["cocycle"])
    chk("models.monomial_slope", bad["slope"], PATHS, worst["slope"])
    counts["paths"] = PATHS
    counts["chain_max_defect"] = worst["chain"]
    for i, s in enumerate(slopes):
        chk.value(f"path_slope[{i}]", s)

    stages.item("verify")
    report = stages.run("verify", cli.verify_report, config)
    chk("cli.verify_passed", not report["passed"])
    # seed-independent: verify runs on the default config's own seed
    for c in report["checks"]:
        key = f"verify.{c['name']}"
        chk.value(f"{key}.passed", c["passed"])
        chk.value(f"{key}.tolerance", c["tolerance"])
        if isinstance(c["measured"], int):  # violation counts are exact
            chk.value(f"{key}.measured", c["measured"])


# ---------------------------------------------------------------------------
# heat: sympy jets and quadrature, no trees, no grids


FIELD = ("1 + t/10 + sin(x)/5", "x/7", "cos(x)/3")


def setup_heat(rk, seed):
    hk, kernels = rk["heatkernel"], rk["kernels"]
    field = hk.CoefficientField.make(*FIELD, regularity=12)
    return {"field": field, "Z": hk.z_kernel(field), "E": hk.e_kernel(field),
            "cutoff": kernels.CutoffFamily((2, 1)), "seed": seed}


def run_heat(rk, inp, stages, chk, counts):
    import numpy as np
    hk, kernels, models = rk["heatkernel"], rk["kernels"], rk["models"]
    field, Z, E = inp["field"], inp["Z"], inp["E"]
    rng = np.random.default_rng([3000, inp["seed"]])

    def reassembly():
        dec = hk.EDecomposition(field, 3)
        worst, bad, vals = 0.0, 0, []
        for i in range(REASSEMBLY_POINTS):
            stages.item(f"reassemble:{i}")
            w = rng.uniform(-0.4, 0.4, 2)
            zbar = w + rng.uniform(-1, 1, 2) * np.array([0.01, 0.05])
            z = zbar + np.array([rng.uniform(0.02, 0.4),
                                 rng.uniform(-0.5, 0.5)])
            got = float(np.asarray(dec.reassemble(w, z, zbar)).reshape(-1)[0])
            want = float(np.asarray(E(z, zbar)).reshape(-1)[0])
            worst = max(worst, abs(got - want))
            bad += not abs(got - want) <= REASSEMBLY_TOL
            vals.append(got)
        return worst, bad, vals

    worst, bad, vals = stages.run("reassembly", reassembly)
    chk("heatkernel.reassembly", bad, REASSEMBLY_POINTS, worst)
    counts["reassembly_points"] = REASSEMBLY_POINTS
    counts["reassembly_max_defect"] = worst
    for i, v in enumerate(vals):
        chk.value(f"reassembly[{i}]", v)

    points = []
    for _ in range(KERNEL_POINTS):
        zbar = rng.uniform(-0.3, 0.3, 2)
        points.append((zbar + np.array([rng.uniform(0.2, 0.8),
                                        rng.uniform(-0.6, 0.6)]), zbar))

    def at_points(name, kernel):
        out = []
        for i, (z, zb) in enumerate(points):
            stages.item(f"{name}:{i}")
            out.append(float(np.asarray(kernel(z, zb)).reshape(-1)[0]))
        return out

    def convolve_points():
        stages.item("heat_convolve")
        return at_points("heat_convolve", hk.heat_convolve(Z, E))

    def volterra_points():
        stages.item("volterra")
        vol = hk.volterra(field, 2)
        return vol, at_points("volterra", vol)

    conv_vals = stages.run("heat_convolve", convolve_points)
    vol, vol_vals = stages.run("volterra", volterra_points)
    counts["kernel_points"] = 2 * KERNEL_POINTS
    chk("heatkernel.kernel_values_finite",
        int(np.sum(~np.isfinite(conv_vals + vol_vals))), 2 * KERNEL_POINTS)
    chk("heatkernel.volterra_complete", vol.partial
        or vol.computed_upto != 2, detail=vol.computed_upto)
    for i, (a, b) in enumerate(zip(conv_vals, vol_vals)):
        chk.value(f"heat_convolve[{i}]", a)
        chk.value(f"volterra[{i}]", b)

    def green():
        stages.item("green")
        dec = hk.decompose_green(field, 3, 2, inp["cutoff"], N=1)
        cert = dec.certificate()
        bad = 0
        for term in cert:
            again = hk.parse_lambda_term(term.to_dict())
            bad += not (term.validate(3) and again.to_dict() == term.to_dict())
        return len(cert), bad

    n_cert, bad = stages.run("green", green)
    chk("heatkernel.certificates", bad + (n_cert < 2), n_cert)
    chk.value("certificate_terms", n_cert)

    def norms():
        stages.item("norms")
        # zeroth-order split: with N=1 the norm alone takes 15 s per pass
        split = hk.decompose_green(field, 3, 2, inp["cutoff"], N=0, levels=4)
        green_norm = kernels.kernel_norm(split.dyadic(np.zeros(2)),
                                         samples_per_axis=NORM_SAMPLES)
        bump_norm = kernels.kernel_norm(models.bump_kernel(levels=4, order=1))
        return green_norm, bump_norm

    green_norm, bump_norm = stages.run("norms", norms)
    chk("kernels.norms_finite", sum(not (np.isfinite(r.value) and r.value > 0)
                                    for r in (green_norm, bump_norm)), 2)
    counts["norm_degraded"] = int(green_norm.degraded) + int(
        bump_norm.degraded)
    chk.value("green_norm", green_norm.value)
    chk.value("bump_norm", bump_norm.value)


# workload -> (set-up, timed phase, (stages, count) behind stage_a_per_s,
#              (stages, count) behind stage_b_per_s)
WORKLOADS = {
    "combinatorics": (setup_combinatorics, run_combinatorics,
                      (("hopf",), "hopf_trees"), (("jet",), "jet_pairs")),
    "realisation": (setup_realisation, run_realisation,
                    (("mc",), "mc_samples"), (("paths",), "paths")),
    "heat": (setup_heat, run_heat,
             (("reassembly",), "reassembly_points"),
             (("heat_convolve", "volterra"), "kernel_points")),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import importlib
    rk = {name: importlib.import_module(f"regkit.{name}")
          for name in ("trees", "rules", "hopf", "renorm", "kernels",
                       "heatkernel", "models", "cli")}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup, run, first, second = WORKLOADS[args.workload]
    stages = Stages(tracer)
    inp = setup(rk, args.seed)
    setup_end = time.monotonic()
    stages.probe()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    chk, counts = Checks(), {}
    start = time.perf_counter()
    run(rk, inp, stages, chk, counts)
    # the probes between stages are not part of the workload
    probing = sum(stages.probes[1:])
    wall = time.perf_counter() - start - probing
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    stages.probe()

    def rate(names, count, seconds):
        return counts[count] / sum(seconds[n] for n in names)

    raw, ref = stages.seconds, stages.scaled_seconds()
    typical = sorted(stages.probes)[len(stages.probes) // 2]
    unstaged = wall - sum(raw.values())

    out = {
        "setup_s": setup_end - args.t0,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime
                  - usage0.ru_utime - usage0.ru_stime - probing),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "stage_a_per_s": rate(*first, raw),
        "stage_b_per_s": rate(*second, raw),
        "stages": raw,
        "probe_s": typical,
        "scaled": {
            "setup_s": (setup_end - args.t0) * PROBE_REF_S / typical,
            "wall_s": sum(ref.values()) + unstaged * PROBE_REF_S / typical,
            "stage_a_per_s": rate(*first, ref),
            "stage_b_per_s": rate(*second, ref),
        },
        "counts": counts,
        "checks": chk.items,
        "values": chk.values,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(start, wall)
        layers.update(cache_stats())
        layers["rules.universe_size"] = counts.get("universe", 0)
        layers["hopf.jet_terms"] = counts.get("jet_terms", 0)
        layers["hopf.jet_built_per_term"] = (
            layers.pop("hopf.jet_built") / counts["jet_terms"]
            if counts.get("jet_terms") else 0.0)
        layers["hopf.coproduct_terms"] = counts.get("coproduct_terms", 0)
        layers["models.chain_max_defect"] = counts.get("chain_max_defect",
                                                       0.0)
        layers["kernels.norm_degraded"] = counts.get("norm_degraded", 0)
        layers["heatkernel.reassembly_max_defect"] = counts.get(
            "reassembly_max_defect", 0.0)
        layers["heatkernel.heat_convolve_s"] = stages.seconds.get(
            "heat_convolve", 0.0)
        layers["heatkernel.volterra_s"] = stages.seconds.get("volterra", 0.0)
        layers["bench.self_s"] -= probing
        out["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
