"""regkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload combinatorics --seed 0 --seconds 42 \
        --trace 0

Run from the root of a source checkout (it needs ``src/regkit``).  The run
repeats passes of the workload, each in a fresh interpreter started by
``workloads.py`` (the coproduct and age caches are module-level, so a repeat
inside one process would time warm caches; a CLI user pays for cold ones on
every call), until the next pass would end after ``--seconds``.  It reports
the median over passes of each end-to-end metric, checks every pass's
outputs (and, for the default seed, compares them with ``reference.json``),
prints a table of all metrics with units, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the spans of
each traced pass go to ``.perfbench_out/``.  Exit code 0 means the run
completed (``correct`` says whether the outputs were right); 2 means it
could not run at all.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
MAX_RUN_S = 150.0          # hard stop well inside the 180 s per-run limit
SEEDED_KEYS = ("hist_sizes", "bphz[", "path_slope[", "reassembly[",
               "heat_convolve[", "volterra[")

# (name, unit, better) -- BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("stage_a_per_s", "1/s", "higher"),
    ("stage_b_per_s", "1/s", "higher"),
]
# what stage_a/stage_b count on each workload
STAGE_NAMES = {
    "combinatorics": ("hopf_trees_per_s", "jet_pairs_per_s"),
    "realisation": ("mc_samples_per_s", "paths_per_s"),
    "heat": ("reassembly_points_per_s", "kernel_points_per_s"),
}
PER_LAYER = [
    ("trees.built", "count", "lower"),
    ("trees.hash_calls", "count", "lower"),
    ("rules.generate_s", "s", "lower"),
    ("rules.universe_size", "count", "higher"),
    ("rules.self_s", "s", "lower"),
    ("hopf.self_s", "s", "lower"),
    ("hopf.coproducts_s", "s", "lower"),
    ("hopf.identities_s", "s", "lower"),
    ("hopf.antipode_s", "s", "lower"),
    ("hopf.delta_tilde_s", "s", "lower"),
    ("hopf.delta_tilde_explicit_s", "s", "lower"),
    ("hopf.jet_terms", "count", "higher"),
    ("hopf.jet_built_per_term", "1", "lower"),
    ("hopf.delta_hit_ratio", "1", "higher"),
    ("hopf.delta_plus_hit_ratio", "1", "higher"),
    ("hopf.delta_r_minus_hit_ratio", "1", "higher"),
    ("hopf.antipode_hit_ratio", "1", "higher"),
    ("hopf.cache_entries", "count", "lower"),
    ("hopf.coproduct_terms", "count", "lower"),
    ("renorm.self_s", "s", "lower"),
    ("renorm.hist_s", "s", "lower"),
    ("renorm.age_s", "s", "lower"),
    ("renorm.age_hit_ratio", "1", "higher"),
    ("renorm.bphz_functional_s", "s", "lower"),
    ("renorm.prep_calls", "count", "lower"),
    ("renorm.prep_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("models.sampler_draws", "count", "lower"),
    ("models.sampler_ms_p50", "ms", "lower"),
    ("models.sampler_ms_p99", "ms", "lower"),
    ("models.oracle_calls", "count", "lower"),
    ("models.value_at_calls", "count", "lower"),
    ("models.convolve_calls", "count", "lower"),
    ("models.convolve_s", "s", "lower"),
    ("models.build_model_s", "s", "lower"),
    ("models.check_chain_s", "s", "lower"),
    ("models.recentering_s", "s", "lower"),
    ("models.chain_max_defect", "1", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.dyadic_decompose_s", "s", "lower"),
    ("kernels.kernel_norm_s", "s", "lower"),
    ("kernels.norm_degraded", "count", "lower"),
    ("heatkernel.self_s", "s", "lower"),
    ("heatkernel.reassemble_first_s", "s", "lower"),
    ("heatkernel.reassemble_ms_p50", "ms", "lower"),
    ("heatkernel.reassembly_max_defect", "1", "lower"),
    ("heatkernel.heat_convolve_s", "s", "lower"),
    ("heatkernel.volterra_s", "s", "lower"),
    ("heatkernel.decompose_green_s", "s", "lower"),
    ("heatkernel.certificate_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.verify_report_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("run.trace_overhead_frac", "1", "lower"),
]
LAYER_SHARES = ("rules", "hopf", "renorm", "kernels", "heatkernel", "models",
                "cli", "bench")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    # string hashing decides set order inside regkit; fix it so that every
    # pass does the same work in the same order
    env["PYTHONHASHSEED"] = "0"
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        try:
            env[var] = str(max(1, min(int(env.get(var, cap)), cap)))
        except ValueError:
            env[var] = str(cap)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = ROOT / "src" / "regkit"
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted(src.glob("*.py"))}
    env = child_env()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "regkit_threads": os.environ.get("REGKIT_THREADS", "unset"),
        "omp_threads": env["OMP_NUM_THREADS"],
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def run_pass(workload: str, seed: int, trace: bool, index: int,
             timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-s{seed}-p{index}"
                                     ".jsonl")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(started)], env=child_env(),
                              cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {timeout:.0f} s",
                "elapsed": time.monotonic() - started}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass {index} exited with {proc.returncode}",
                "elapsed": elapsed}
    out = json.loads(lines[-1])
    out["elapsed"] = elapsed
    out["traced"] = trace
    return out


def compare(values: dict, expected: dict, rel_tol: float) -> list:
    """One check per reference entry: exact for counts, strings, Fractions
    and flags; relative tolerance for floats."""
    out = []
    for key, want in sorted(expected.items()):
        got = values.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)) \
                and not isinstance(got, bool):
            ok = math.isclose(got, want, rel_tol=rel_tol, abs_tol=1e-300)
        else:
            ok = got == want and type(got) is type(want)
        out.append([f"reference.{key}", 1, int(not ok),
                    None if ok else {"got": got, "want": want}])
    return out


def scaled(p: dict) -> dict:
    """End-to-end metrics of one pass.  Times are at the reference machine
    speed (see ``workloads.PROBE_REF_S``); memory is as measured."""
    return {**p["scaled"], "peak_rss_mb": p["peak_rss_mb"]}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="One run of one regkit benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(STAGE_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="reference values to check the default seed against")
    ap.add_argument("--record-reference", action="store_true",
                    help="write this run's values as the reference instead "
                         "of checking them (default seed only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "regkit" / "__init__.py").is_file():
        print(f"error: no regkit sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        print(f"error: references are recorded for seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    start = time.monotonic()
    passes: list[dict] = []
    errors: list[str] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed + longest > args.seconds:
            break
        if elapsed + longest > MAX_RUN_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = run_pass(args.workload, args.seed, traced, len(passes),
                       MAX_RUN_S + 20.0 - elapsed)
        longest = max(longest, rec["elapsed"])
        if "error" in rec:
            errors.append(rec["error"])
            break
        passes.append(rec)
        print(f"# pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"setup {rec['setup_s']:.3f} s, wall {rec['wall_s']:.3f} s, "
              f"stages " + ", ".join(f"{k} {v:.3f}"
                                     for k, v in rec["stages"].items()),
              flush=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks: list = []
    for p in passes:
        checks += p["checks"]
    # every pass computes the same values from the same seed
    for p in passes[1:]:
        same = p["values"] == passes[0]["values"]
        checks.append(["determinism", 1, int(not same), None])

    if args.record_reference and passes and not errors:
        record_reference(Path(args.reference), args.workload,
                         passes[0]["values"])
    elif passes:
        ref = json.loads(Path(args.reference).read_text())
        expected = dict(ref["workloads"][args.workload]["any_seed"])
        if args.seed == ref["default_seed"]:
            expected.update(ref["workloads"][args.workload]["default_seed"])
        for p in passes:
            checks += compare(p["values"], expected, ref["float_rel_tol"])

    attempted = sum(c[1] for c in checks) + len(errors)
    failed = sum(c[2] for c in checks) + len(errors)
    for name, _n, bad, detail in checks:
        if bad:
            print(f"# FAILED {name} ({bad}x): {json.dumps(detail)}",
                  file=sys.stderr)
    for e in errors:
        print(f"# FAILED {e}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 2

    e2e = {name: median([scaled(p)[name] for p in plain])
           for name, _u, _b in END_TO_END}
    a_name, b_name = STAGE_NAMES[args.workload]
    table = [(n, e2e[n], u) for n, u, _b in END_TO_END]
    table += [("ops_failed_frac", failed / attempted, "1"),
              (a_name, e2e["stage_a_per_s"], "1/s"),
              (b_name, e2e["stage_b_per_s"], "1/s"),
              ("probe_s", median([p["probe_s"] for p in plain]), "s")]
    table += [(f"raw.{n}", median([p[n] for p in plain]), u)
              for n, u, _b in END_TO_END if n != "peak_rss_mb"]
    if args.trace:
        layers = {}
        for name, _u, _b in PER_LAYER:
            vals = [p["layers"][name] for p in traced if name in p["layers"]]
            layers[name] = median(vals) if vals else 0.0
        layers["run.cpu_s"] = median([p["cpu_s"] for p in plain])
        layers["run.trace_overhead_frac"] = (
            median([scaled(p)["wall_s"] for p in traced]) / e2e["wall_s"]
            - 1.0)
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u, _b in PER_LAYER}
        wall = median([p["wall_s"] for p in traced])
        table += [(f"share.{layer}", layers[f"{layer}.self_s"] / wall, "1")
                  for layer in LAYER_SHARES]
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _b in END_TO_END}

    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced, "
          f"{len(traced)} traced passes")
    for name, value, unit in table:
        print(f"#   {name:<28} {value:>14.6g} {unit}")
    if args.trace:
        for name, _u, _b in PER_LAYER:
            print(f"#   {name:<36} {metrics[name]['value']:>14.6g} "
                  f"{metrics[name]['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps({"env": env, "args": vars(args),
                              "passes": passes, "errors": errors,
                              "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def record_reference(path: Path, workload: str, values: dict) -> None:
    ref = json.loads(path.read_text()) if path.exists() else {
        "default_seed": DEFAULT_SEED, "float_rel_tol": 1e-9, "workloads": {}}
    seeded = {k: v for k, v in values.items() if k.startswith(SEEDED_KEYS)}
    ref["workloads"][workload] = {
        "any_seed": {k: v for k, v in values.items() if k not in seeded},
        "default_seed": seeded}
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"# recorded {len(values)} reference values for {workload}")


if __name__ == "__main__":
    sys.exit(main())
