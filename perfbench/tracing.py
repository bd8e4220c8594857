"""Spans around the calls into each regkit layer, installed from outside the
package.

``Tracer.install`` replaces the public functions of every layer module (and a
few public methods) with wrappers that record one span per call: name, start,
end, parent span and the benchmark operation that caused it.  Every name that
another regkit module imported directly (``regkit.cli.expectation_oracle``,
``regkit.hopf.delta`` inside its own recursion, ...) is rebound too, so
internal calls are seen.  The ``trees`` layer is called millions of times per
second, so it is counted (trees built, tree hashes) instead of spanned.

Nothing here runs unless a traced pass asks for it: untraced passes install
no wrapper.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("trees", "rules", "hopf", "renorm", "kernels", "heatkernel",
          "models", "cli")
SPANNED = LAYERS[1:]
# public methods worth a span; module-level functions are found by scanning
METHODS = {
    "renorm": {"PreparationMap": ("__call__",)},
    "models": {"KernelOnGrid": ("convolve", "value_at")},
    "heatkernel": {"EDecomposition": ("reassemble",),
                   "GreenDecomposition": ("certificate", "dyadic"),
                   "LambdaTerm": ("validate", "to_dict")},
}
COPRODUCTS = ("hopf.delta", "hopf.delta_plus", "hopf.delta_r_minus",
              "hopf.delta_r_minus_reduced")
HIT_RATIOS = ("hopf.delta", "hopf.delta_plus", "hopf.delta_r_minus",
              "hopf.antipode", "renorm.age")
HOPF_CACHES = COPRODUCTS + ("hopf.antipode",)
# per-layer metric -> span name, summed over outermost calls (set-up included)
INCLUSIVE = {
    "rules.generate_s": "rules.generate",
    "hopf.delta_tilde_s": "hopf.delta_tilde",
    "hopf.delta_tilde_explicit_s": "hopf.delta_tilde_explicit",
    "renorm.hist_s": "renorm.hist",
    "renorm.age_s": "renorm.age",
    "renorm.bphz_functional_s": "renorm.bphz_functional",
    "renorm.prep_s": "renorm.PreparationMap.__call__",
    "models.convolve_s": "models.KernelOnGrid.convolve",
    "models.build_model_s": "models.build_model",
    "models.check_chain_s": "models.check_chain",
    "models.recentering_s": "models.recentering_exponent",
    "kernels.dyadic_decompose_s": "kernels.dyadic_decompose",
    "kernels.kernel_norm_s": "kernels.kernel_norm",
    "heatkernel.decompose_green_s": "heatkernel.decompose_green",
    "heatkernel.certificate_s": "heatkernel.GreenDecomposition.certificate",
    "cli.verify_report_s": "cli.verify_report",
}
# per-layer metric -> span name whose calls are counted
CALLS = {
    "renorm.prep_calls": "renorm.PreparationMap.__call__",
    "models.oracle_calls": "models.expectation_oracle",
    "models.value_at_calls": "models.KernelOnGrid.value_at",
    "models.convolve_calls": "models.KernelOnGrid.convolve",
}

# span record fields
NAME, START, END, PARENT, OP, BUILT, OUTER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.op = None
        self.built = 0
        self.hash_calls = 0
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------
    def wrap_one(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   tracer.op, tracer.built, depth == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] = depth
                stack.pop()
                rec[BUILT] = tracer.built - rec[BUILT]
                rec[END] = clock()

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _sampler_factory(self, fn):
        """``mollified_noise_sampler`` returns a closure; span its draws."""
        wrapped = self.wrap_one("models.mollified_noise_sampler", fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap_one("models.sampler_draw",
                                 wrapped(*args, **kwargs))
        return factory

    def install(self) -> None:
        modules = {name: importlib.import_module(f"regkit.{name}")
                   for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module(
            "regkit")]
        for lname in SPANNED:
            mod = modules[lname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) \
                        or inspect.isclass(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr == "mollified_noise_sampler":
                    new = self._sampler_factory(obj)
                else:
                    new = self.wrap_one(f"{lname}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, key, new)
            for cls_name, methods in METHODS.get(lname, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap_one(
                        f"{lname}.{cls_name}.{meth}", vars(cls)[meth]))
        tree_cls = modules["trees"].DecoratedTree
        init, hsh = vars(tree_cls)["__init__"], vars(tree_cls)["__hash__"]
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer.built += 1
            init(obj, *args, **kwargs)

        def counted_hash(obj):
            tracer.hash_calls += 1
            return hsh(obj)

        self._set(tree_cls, "__init__", counted_init)
        self._set(tree_cls, "__hash__", counted_hash)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the part its direct children cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for rec, s in zip(self.spans, own):
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP], "self": s}) + "\n")

    def layer_metrics(self, start: float, wall: float) -> dict:
        """Per-layer numbers this pass can give from its spans and counters;
        the workload adds the ones it measures itself.  Layer self times
        cover the timed phase, which began at ``start``; inclusive times
        cover set-up too."""
        own = self.self_times()
        inclusive: dict[str, float] = defaultdict(float)
        self_by: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list] = defaultdict(list)
        built_in: dict[str, int] = defaultdict(int)
        for rec, s in zip(self.spans, own):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] += 1
            if rec[START] >= start:
                self_by[name] += s
            durations[name].append(dur)
            if rec[OUTER]:
                inclusive[name] += dur
                built_in[name] += rec[BUILT]
        layer_self = dict.fromkeys(SPANNED + ("bench",), 0.0)
        for name, s in self_by.items():
            layer_self[name.split(".", 1)[0]] += s
        # benchmark time outside every span (set-up of the timed phase)
        covered = sum(rec[END] - rec[START] for rec in self.spans
                      if rec[PARENT] < 0 and rec[START] >= start)
        layer_self["bench"] += max(wall - covered, 0.0)

        draws = sorted(d * 1e3 for d in durations["models.sampler_draw"])
        m = {f"{layer}.self_s": t for layer, t in layer_self.items()}
        m.update({metric: inclusive[span]
                  for metric, span in INCLUSIVE.items()})
        m.update({metric: calls[span] for metric, span in CALLS.items()})
        m.update({
            "trees.built": self.built,
            "trees.hash_calls": self.hash_calls,
            "hopf.coproducts_s": sum(self_by[n] for n in COPRODUCTS),
            "hopf.antipode_s": self_by["hopf.antipode"],
            "hopf.identities_s": self_by["bench.hopf"],
            "hopf.jet_built": built_in["hopf.delta_tilde_explicit"],
            "models.sampler_draws": len(draws),
            "models.sampler_ms_p50": percentile(draws, 0.50),
            "models.sampler_ms_p99": percentile(draws, 0.99),
            "run.spans": len(self.spans),
        })
        reassembly = durations["heatkernel.EDecomposition.reassemble"]
        m["heatkernel.reassemble_first_s"] = reassembly[0] if reassembly \
            else 0.0
        m["heatkernel.reassemble_ms_p50"] = (
            statistics.median(reassembly[1:]) * 1e3 if len(reassembly) > 1
            else 0.0)
        return m


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def _cache_info(qualname: str):
    module, attr = qualname.split(".")
    fn = getattr(importlib.import_module(f"regkit.{module}"), attr)
    info = getattr(fn, "cache_info", None)
    return info() if info else None


def cache_stats() -> dict:
    """Hit ratios and sizes of the module-level coproduct/age caches, read
    through ``cache_info()`` where the function has one (0 otherwise)."""
    out = {}
    for name in HIT_RATIOS:
        info = _cache_info(name)
        total = info.hits + info.misses if info else 0
        out[f"{name}_hit_ratio"] = info.hits / total if total else 0.0
    infos = [_cache_info(name) for name in HOPF_CACHES]
    out["hopf.cache_entries"] = sum(i.currsize for i in infos if i)
    return out
