"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Checks that
  * BENCHMARK.json declares the same metrics, units and directions as run.py;
  * one untraced and one traced run emit every declared metric with its unit;
  * a corrupted reference value is reported as a failed check;
  * without ``src/`` next to it the benchmark exits non-zero and prints no
    result.
Exits 0 when all hold.  Scratch files go to ``.perfbench_out/``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOAD = "realisation"   # the quickest pass


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           WORKLOAD, "--seconds", "1", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    problems = []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [tuple(d) for d in declared]:
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        code, result = bench("--seed", "0", "--trace", str(trace))
        if code != 0 or result is None:
            problems.append(f"trace {trace}: run failed (exit {code})")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: outputs reported wrong")
        want = {name: unit for name, unit, _b in declared}
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics/units differ: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")

    ref = json.loads((HERE / "reference.json").read_text())
    section = ref["workloads"][WORKLOAD]["any_seed"]
    key = sorted(section)[0]
    value = section[key]
    section[key] = (not value if isinstance(value, bool)
                    else value + 1 if isinstance(value, (int, float))
                    else f"{value}x")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    corrupt = out / "corrupt-reference.json"
    corrupt.write_text(json.dumps(ref))
    code, result = bench("--seed", "0", "--reference", str(corrupt))
    if code != 0 or result is None:
        problems.append(f"corrupted reference: run failed (exit {code})")
    elif result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted reference {key} not reported: {result}")

    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--seed", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without sources: exit {code}, result {result}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
