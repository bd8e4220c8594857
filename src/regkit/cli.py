"""Command-line entry point: JSON in, JSON out.

Every subcommand reads one ``RunConfig`` (``--config run.json``, with logged
defaults for anything missing), runs deterministically under the configured
seeds, and prints a single JSON report.  Reports are byte-identical across
runs of the same config apart from the ``timestamp`` field.  ``verify`` exits
nonzero when any check fails; a corrupted rule file produces a structured
parse error and no partial run.
"""
from __future__ import annotations

import copy
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import click
import numpy as np

from .heatkernel import (CoefficientField, decompose_green,
                         parse_coefficient, parse_lambda_term)
from .hopf import delta, delta_plus, delta_r_minus, delta_r_minus_reduced
from .kernels import CutoffFamily, kernel_norm, snorm
from .models import (
    Grid,
    bump_kernel,
    build_model,
    check_chain,
    check_kernel_orders,
    expectation_oracle,
    mollified_noise_sampler,
    mollifier,
    recentering_exponent,
    sector_order,
)
from .renorm import PreparationMap, age, bphz_functional, hist
from .rules import Rule, generate
from .trees import Degree, TypeSet, monomial

DEFAULT_RULE = {
    "scaling": [2, 1],
    "kappa": "1/100",
    "types": {"Xi": {"degree": "-5/2", "kappa": "-1"},
              "I": {"degree": "2"}},
    "rule": {"I": [[["Xi", [0, 0]]],
                   [["I", [0, 0]], ["I", [0, 0]], ["I", [0, 0]]]]},
}

DEFAULTS = {
    "rule": None,              # path to a rule file; None = built-in quartic
    "degree_cap": "2",
    "edge_cap": 4,
    "grid": {"shape": [256, 256], "dx": "1/16"},
    "mollifier_cells": 8,
    "budgets": {"mc_samples": 400, "dyadic_levels": 4, "kernel_order": 8,
                "norm_order": 1, "heat_order": 2},
    "seeds": {"noise": 7},
    "heat_field": {"a": "1 + sin(x)/5", "b": "0", "c": "0"},
    "tolerances": {
        "chain_defect": 1e-6,
        "cocycle_defect": 1e-8,
        "kernel_reassembly": 1e-10,
        "mollifier_mass": 1e-8,
        "monomial_slope": 0.05,
    },
}


class ConfigError(Exception):
    """Structured misconfiguration; carries a JSON-ready payload."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.payload = {"error": {"kind": kind, "detail": detail}}


def _matches(value, default) -> bool:
    """Whether a supplied config value has the JSON type of its default: an
    int may stand for a float, a number for a string (a number or an
    expression, read through ``str``), and the rule path may be null."""
    if isinstance(default, list):
        return (type(value) is list and len(value) == len(default)
                and all(map(_matches, value, default)))
    allowed = {type(None): (type(None), str), float: (int, float),
               str: (str, int, float)}
    return type(value) in allowed.get(type(default), (type(default),))


def _exact(value) -> Fraction:
    """``Fraction(str(value))`` for a config or rule number, refusing a
    decimal exponent of more than three digits, leading zeros not counted,
    before it is expanded: ``Fraction("1e10000000")`` alone takes seconds."""
    text = str(value)
    if len(text.lower().partition("e")[2].lstrip("+-0")) > 3:
        raise ValueError(f"exponent out of range in {text!r}")
    return Fraction(text)


# leaves that a report parses later, with the parser it uses
_PARSED = {"degree_cap": _exact,
           "grid.dx": _exact,
           **{f"heat_field.{c}": parse_coefficient for c in "abc"}}
# leaves whose (parsed) value a report can only use in a range; heat_order
# is capped by the 3r <= regularity (12) of the heat field's expansion, the
# diffusion coefficient a must be parabolic for its Gaussian to exist, and
# the upper bounds keep each report's work in reach.  On a 2-core Xeon, from
# the default config: with both caps at 8, `regkit trees` builds 116,976
# trees in about 16 s; `kernels` takes 5.4 s at norm order 4 (17 s at 5,
# 56 s at 6) and 11.6 s at norm order 4 with 16 dyadic levels; `bphz` takes
# 24 s for 10,000 samples; `model` takes 1.7 s and 377 MB on a 1024 x 512
# grid, and its memory grows with the cell count.  The bounds apply one at a
# time: a config at several of them at once takes the product of its factors.
_RANGES = {"grid.dx": ("positive", lambda v: v > 0),
           "grid.shape": ("between 1 and 1024 in each entry",
                          lambda v: 1 <= min(v) and max(v) <= 1024),
           "mollifier_cells": ("positive", lambda v: v > 0),
           "degree_cap": ("at most 8", lambda v: v <= 8),
           "edge_cap": ("between 1 and 8", lambda v: 1 <= v <= 8),
           "budgets.dyadic_levels": ("between 1 and 16",
                                     lambda v: 1 <= v <= 16),
           "budgets.kernel_order": ("positive", lambda v: v > 0),
           "budgets.norm_order": ("between 0 and 4", lambda v: 0 <= v <= 4),
           "budgets.mc_samples": ("between 2 (for a standard error) and "
                                  "10000", lambda v: 2 <= v <= 10000),
           "budgets.heat_order": ("between 1 and 4", lambda v: 1 <= v <= 4),
           "heat_field.a": ("parabolic (check_parabolicity)", lambda a:
                            CoefficientField(a, 0, 0).check_parabolicity()),
           **{f"tolerances.{name}": ("non-negative", lambda v: v >= 0)
              for name in DEFAULTS["tolerances"]}}


def _check_leaf(name: str, value, default) -> None:
    if not _matches(value, default):
        raise ConfigError("config-value", f"config key {name!r} must look "
                          f"like its default {default!r}, got {value!r}")
    parsed = value
    if name in _PARSED:
        try:
            parsed = _PARSED[name](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("config-value", f"config key {name!r} does not "
                              f"parse: {value!r} ({exc})") from exc
    if name in _RANGES and not _RANGES[name][1](parsed):
        raise ConfigError("config-value", f"config key {name!r} must be "
                          f"{_RANGES[name][0]}, got {value!r}")


@dataclass
class RunConfig:
    data: dict
    defaults_used: list
    path: str | None
    # the universe and sector, built once and shared by every report
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        data = copy.deepcopy(DEFAULTS)
        used = []
        supplied: dict = {}
        if path is not None:
            try:
                with open(path) as fh:
                    supplied = json.load(fh)
            # ValueError, the base of JSONDecodeError, is also what an
            # integer literal past Python's digit limit raises
            except (OSError, ValueError) as exc:
                raise ConfigError("config-parse", str(exc)) from exc
            if not isinstance(supplied, dict):
                raise ConfigError("config-parse", "config must be an object")
        for key, default in DEFAULTS.items():
            if key not in supplied:
                used.append(key)
            elif isinstance(default, dict):
                if not isinstance(supplied[key], dict):
                    raise ConfigError("config-parse",
                                      f"config key {key!r} must be an object")
                unknown = set(supplied[key]) - set(default)
                if unknown:
                    raise ConfigError("config-parse", "unknown config keys: "
                                      f"{sorted(f'{key}.{s}' for s in unknown)}")
                for sub in default:
                    if sub not in supplied[key]:
                        used.append(f"{key}.{sub}")
                        supplied[key][sub] = default[sub]
                    _check_leaf(f"{key}.{sub}", supplied[key][sub],
                                default[sub])
                data[key] = supplied[key]
            else:
                _check_leaf(key, supplied[key], default)
                data[key] = supplied[key]
        unknown = set(supplied) - set(DEFAULTS)
        if unknown:
            raise ConfigError("config-parse",
                              f"unknown config keys: {sorted(unknown)}")
        return cls(data, sorted(used), path)

    def tolerance(self, name: str) -> float:
        return float(self.data["tolerances"][name])

    def budget(self, name: str) -> int:
        return int(self.data["budgets"][name])

    def seed(self, name: str) -> int:
        return int(self.data["seeds"][name])

    def grid(self) -> Grid:
        shape = tuple(self.data["grid"]["shape"])
        dx = float(_exact(self.data["grid"]["dx"]))
        return Grid(shape, (dx * dx, dx))

    def meta(self) -> dict:
        return {"config": self.path or "<defaults>",
                "defaults_used": self.defaults_used,
                "seeds": self.data["seeds"]}


def load_rule(config: RunConfig) -> tuple[TypeSet, Rule]:
    src = config.data["rule"]
    if src is None:
        spec = DEFAULT_RULE
    else:
        try:
            with open(src) as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("rule-parse", f"{src}: {exc}") from exc
    try:
        types = {name: Degree(_exact(d["degree"]), _exact(d.get("kappa", 0)))
                 for name, d in spec["types"].items()}
        ts = TypeSet.make(scaling=spec["scaling"], types=types,
                          kappa=_exact(spec["kappa"]))
        table = {etype: [[(name, tuple(edeco)) for name, edeco in slot_set]
                         for slot_set in slot_sets]
                 for etype, slot_sets in spec["rule"].items()}
        return ts, Rule.make(ts, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("rule-parse", f"malformed rule spec: {exc}") from exc


# ---------------------------------------------------------------------------
# serialisation


def tree_name(tree) -> str:
    text = repr(tree)
    return text[len("DecoratedTree("):-1] if text.startswith("DecoratedTree(") \
        else text


def jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k if isinstance(k, str) else tree_name(k): jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def emit(report: dict) -> None:
    report = dict(report)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    click.echo(json.dumps(jsonable(report), indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# report builders (pure: config -> dict)


def _universe(config: RunConfig):
    if "universe" not in config._built:
        ts, rule = load_rule(config)
        cap = _exact(config.data["degree_cap"])
        try:
            uni = generate(rule, cap, config.data["edge_cap"])
        except ValueError as exc:  # no subcriticality witness
            raise ConfigError("rule-value", str(exc)) from exc
        config._built["universe"] = ts, uni
    return config._built["universe"]


# coproduct and tables run three coproducts on every tree of the universe,
# and verify checks coalgebra identities on every third: with the default
# rule, on a 2-core Xeon, caps (4, 6) give 1,304 trees, 7.3 s of coproducts
# and 8.0 s of identities, and caps (5, 5) 2,035 trees and 7.6 s and 19.7 s
_COPRODUCT_TREES = 2000


def _coproduct_universe(config: RunConfig):
    ts, uni = _universe(config)
    if len(uni) > _COPRODUCT_TREES:
        raise ConfigError(
            "config-value", f"degree_cap and edge_cap give {len(uni)} trees; "
            f"coproduct, verify and tables take at most {_COPRODUCT_TREES}")
    return ts, uni


def trees_report(config: RunConfig) -> dict:
    _ts, uni = _universe(config)
    by_degree: dict[str, int] = {}
    for deg, _t in uni.by_degree():
        by_degree[str(deg)] = by_degree.get(str(deg), 0) + 1
    return {"meta": config.meta(),
            "degree_cap": str(uni.degree_cap),
            "edge_cap": uni.edge_cap,
            "total": len(uni),
            "negative": len(uni.negative()),
            "by_degree": by_degree,
            "by_noise_count": {str(k): len(v)
                               for k, v in uni.by_noise_count().items()}}


def coproduct_report(config: RunConfig) -> dict:
    _ts, uni = _coproduct_universe(config)
    sizes = {}
    totals = {"delta_plus": 0, "delta": 0, "delta_r_minus": 0}
    for t in uni:
        row = {"delta_plus": len(delta_plus(t)),
               "delta": len(delta(t)),
               "delta_r_minus": len(delta_r_minus(t))}
        sizes[t] = row
        for k, v in row.items():
            totals[k] += v
    return {"meta": config.meta(), "per_tree": sizes, "totals": totals}


def _sector(config: RunConfig):
    if "sector" not in config._built:
        ts, uni = _universe(config)
        seed = uni.negative()
        if not seed:
            raise ConfigError("empty-sector",
                              "no negative trees under the configured caps")
        config._built["sector"] = ts, hist(seed)
    return config._built["sector"]


def hist_report(config: RunConfig) -> dict:
    _ts, sector = _sector(config)
    members = {t: {"degree": str(t.degree_value()),
                   "phase": sector.provenance[t][0],
                   "age": age(t)}
               for t in sector}
    return {"meta": config.meta(),
            "seed_size": len(sector.seed),
            "size": len(sector),
            "stabilisation_index": sector.stabilisation_index,
            "members": members}


def age_report(config: RunConfig) -> dict:
    _ts, sector = _sector(config)
    return {"meta": config.meta(),
            "ages": {t: age(t) for t in sector},
            "max_age": max(age(t) for t in sector)}


def _model_ingredients(config: RunConfig, ts, sector):
    order = config.budget("kernel_order")
    kernels = {name: bump_kernel(levels=config.budget("dyadic_levels"),
                                 order=order)
               for name in ts.kernel_types}
    try:
        check_kernel_orders(sector, kernels)
    except ValueError as exc:
        raise ConfigError("config-value", "config key 'budgets.kernel_order' "
                          f"is too low: {exc}") from exc
    grid = config.grid()
    sampler = mollified_noise_sampler(grid, list(ts.noise_types),
                                      config.data["mollifier_cells"],
                                      config.seed("noise"))
    return grid, sampler, kernels


def bphz_report(config: RunConfig) -> dict:
    samples = config.budget("mc_samples")
    ts, sector = _sector(config)
    _grid, sampler, kernels = _model_ingredients(config, ts, sector)

    def mc(tree, ell):
        prep = PreparationMap(lambda t: ell.get(t, 0.0))
        return expectation_oracle(sector, kernels, sampler, prep, tree,
                                  samples)[0]

    ell = bphz_functional(sector, mc)
    return {"meta": config.meta(),
            "samples": samples,
            "functional": {t: v for t, v in ell.items()},
            "domain_size": len(ell)}


def _reassembly_defect(config: RunConfig) -> float:
    """Largest error of component sum + remainder against the profile, away
    from the residual bump below the finest level."""
    levels = config.budget("dyadic_levels")
    K = bump_kernel(levels=levels, order=config.budget("kernel_order"))
    rng = np.random.default_rng(config.seed("noise"))
    pts = rng.uniform(-1.0, 1.0, size=(4000, 2))
    pts = pts[snorm(pts, (2, 1)) >= 2.0 ** (-levels)]
    rebuilt = sum(K.parts(pts))
    return float(np.max(np.abs(rebuilt - K.profile(pts))))


def kernels_report(config: RunConfig) -> dict:
    # the norm sweep iterates finite differences over |k|_s <= 2*order, so it
    # gets its own (low) order budget; model kernels keep the full order
    K = bump_kernel(levels=config.budget("dyadic_levels"),
                    order=config.budget("norm_order"))
    report = kernel_norm(K)
    return {"meta": config.meta(),
            "beta": str(K.beta),
            "order": config.budget("kernel_order"),
            "levels": K.levels,
            "norm": {"value": report.value, "mode": report.mode,
                     "degraded": report.degraded,
                     "per_component": list(report.per_component)},
            "reassembly_defect": _reassembly_defect(config)}


def heat_report(config: RunConfig) -> dict:
    spec = config.data["heat_field"]
    fld = CoefficientField.make(spec["a"], spec["b"], spec["c"])
    r = config.budget("heat_order")
    dec = decompose_green(fld, r, config.budget("kernel_order"),
                          CutoffFamily((2, 1)), N=1, levels=4)
    cert = dec.certificate()
    terms = []
    for term in cert:
        ok = term.validate(r)
        reparsed = parse_lambda_term(term.to_dict())
        terms.append({"valid": bool(ok),
                      "roundtrip": reparsed.to_dict() == term.to_dict(),
                      "chain_length": len(term.to_dict()["chain"])})
    return {"meta": config.meta(),
            "field": spec,
            "expansion_order": r,
            "certificates": terms,
            "all_valid": all(t["valid"] and t["roundtrip"] for t in terms)}


def _cocycle_and_scales(model) -> tuple[float, tuple[float, ...]]:
    """Largest coefficient of the recentering cocycle defect over the three
    base points, and the first four dyadic scales the grid resolves."""
    x, y, z = model.base_points
    gxy, gyz, gxz = model.gamma(x, y), model.gamma(y, z), model.gamma(x, z)
    cocycle = 0.0
    for t in model.basis:
        diff = gyz(t).bind(gxy) - gxz(t)
        cocycle = max(cocycle, max((abs(float(c)) for _s, c in diff.items()),
                                   default=0.0))
    lams = tuple(lam for lam in (0.5 ** m for m in range(1, 9))
                 if all(lam ** s >= h for s, h in
                        zip(model.grid.scaling, model.grid.spacing)))[:4]
    return cocycle, lams


def model_report(config: RunConfig) -> dict:
    ts, sector = _sector(config)
    _grid, sampler, kernels = _model_ingredients(config, ts, sector)
    model = build_model(sector, kernels, sampler(0),
                        PreparationMap(lambda t: Fraction(0)))
    chain = check_chain(model)
    cocycle, lams = _cocycle_and_scales(model)
    slopes = {}
    for t in model.basis:
        if t.is_unit:
            continue
        slope, residual = recentering_exponent(model, t, model.base_points[1],
                                               lambdas=lams)
        slopes[t] = {"slope": slope, "residual": residual,
                     "degree": str(t.degree_value())}
    return {"meta": config.meta(),
            "sector_size": len(sector),
            "sector_order": str(sector_order(sector)),
            "base_points": [list(p) for p in model.base_points],
            "chain_defect": chain["max_defect"],
            "cocycle_defect": cocycle,
            "exponents": slopes}


def verify_report(config: RunConfig) -> dict:
    ts, uni = _coproduct_universe(config)
    checks = []

    def check(name, measured, tolerance):
        checks.append({"name": name, "measured": measured,
                       "tolerance": tolerance,
                       "passed": bool(measured <= tolerance)})

    # exact coalgebra identities on a sample of the universe
    coassoc = comodule = cointeraction = 0
    for t in uni.trees[::3]:
        d = delta_plus(t)
        if t.degree_value() > 0 and t.is_planted:
            coassoc += d.apply(0, delta_plus) != d.apply(1, delta_plus)
        dc = delta(t)
        comodule += dc.apply(0, delta) != dc.apply(1, delta_plus)
        cointeraction += dc.apply(0, delta_r_minus) != \
            delta_r_minus(t).apply(1, delta)
    check("coassociativity_violations", coassoc, 0)
    check("comodule_violations", comodule, 0)
    check("cointeraction_violations", cointeraction, 0)

    _ts, sector = _sector(config)
    again = hist(sector.trees)
    check("hist_idempotent_defect",
          abs(len(again) - len(sector)) + len(set(again) ^ set(sector)), 0)
    age_bad = 0
    for t in sector:
        for (l, r), _c in delta_r_minus_reduced(t).items():
            age_bad += not (age(l) < age(t) and age(r) < age(t))
    check("age_decrease_violations", age_bad, 0)

    grid, sampler, kernels = _model_ingredients(config, ts, sector)
    rho = mollifier(grid, config.data["mollifier_cells"])
    mass = float(np.sum(rho.values)) * grid.cell_volume
    check("mollifier_mass_defect", abs(mass - 1.0),
          config.tolerance("mollifier_mass"))
    check("kernel_reassembly_defect", _reassembly_defect(config),
          config.tolerance("kernel_reassembly"))

    model = build_model(sector, kernels, sampler(0),
                        PreparationMap(lambda t: Fraction(0)))
    check("chain_defect", check_chain(model)["max_defect"],
          config.tolerance("chain_defect"))
    cocycle, lams = _cocycle_and_scales(model)
    check("cocycle_defect", cocycle, config.tolerance("cocycle_defect"))

    slope, _res = recentering_exponent(model, monomial(ts, (0, 1)),
                                       model.base_points[1], lambdas=lams)
    check("monomial_slope_defect", abs(slope - 1.0),
          config.tolerance("monomial_slope"))

    return {"meta": config.meta(),
            "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def tables_report(config: RunConfig) -> dict:
    report = {"meta": config.meta(),
              "coproduct_totals": coproduct_report(config)["totals"]}
    for name in ("trees", "bphz", "kernels", "model", "heat"):
        report[name] = {k: v for k, v in _BUILDERS[name](config).items()
                        if k != "meta"}
    return report


# ---------------------------------------------------------------------------
# click wiring

_BUILDERS = {
    "trees": trees_report,
    "coproduct": coproduct_report,
    "hist": hist_report,
    "age": age_report,
    "bphz": bphz_report,
    "kernels": kernels_report,
    "heat": heat_report,
    "model": model_report,
    "verify": verify_report,
    "tables": tables_report,
}


@click.group()
def main():
    """Tree algebra, renormalisation and model diagnostics, JSON out."""


def _run(name: str, config_path: str | None) -> None:
    try:
        config = RunConfig.load(config_path)
        report = _BUILDERS[name](config)
    except ConfigError as exc:
        emit(exc.payload)
        sys.exit(2)
    emit(report)
    if name == "verify" and not report["passed"]:
        sys.exit(1)


def _register(name: str) -> None:
    @main.command(name=name, help=_BUILDERS[name].__doc__)
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Path to a run config (JSON); missing keys get "
                       "logged defaults.")
    def _cmd(config_path):
        _run(name, config_path)


for _name in _BUILDERS:
    _register(_name)


if __name__ == "__main__":
    main()
