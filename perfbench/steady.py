"""Steadiness of the benchmark: run one workload k times, one seed each, and
print every metric's median, quartiles and spread (IQR / median).

    python3 perfbench/steady.py --workload heat --runs 10 --seconds 42

Each run is a separate ``run.py`` process (whose passes are fresh
interpreters in turn), so no run sees another's caches.  Quartiles are
``statistics.quantiles(values, n=4)``; a metric is steady enough for a bound
b when its spread stays below b / 3.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bounds() -> dict:
    bench = HERE.parent / "BENCHMARK.json"
    if not bench.is_file():
        return {}
    spec = json.loads(bench.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values: dict[str, list] = {}
    units: dict[str, str] = {}
    failed = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with exit {proc.returncode}")
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    limit = bounds()
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>10}  unit")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = ""
        if name in limit and name != "setup_s" and spread > limit[name] / 3:
            flag = f"  > bound/3 ({limit[name] / 3:.3f})"
        print(f"{name:<32}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>10.4f}  {units[name]}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
