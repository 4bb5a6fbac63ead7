"""Self-test of the benchmark: every workload, tiny inputs, both modes.

    python3 perfbench/smoke.py

Runs ``run.py`` for every workload of ``BENCHMARK.json`` with ``--trace 0``
and ``--trace 1`` on inputs shrunk to a tenth, for one second each.  Fails
unless every run exits 0 with no failed call and prints exactly the
metrics ``BENCHMARK.json`` names, each with its unit.  End-to-end metrics
must be nonzero, and so must every per-layer metric of a layer the
workload must reach (``spans.EXPECTED``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import EXPECTED, MAY_BE_ZERO, metric_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def must_be_nonzero(workload: str, trace: int, name: str) -> bool:
    if not trace:
        return True
    if name in MAY_BE_ZERO:
        return False
    layer = metric_layer(name)
    if layer in EXPECTED:
        return workload in EXPECTED[layer][1]
    # obs: the REPRO_TRACE calls run on the library workloads only.
    return layer == "trace" or workload != "service_mix"


def check_run(workload: str, trace: int, listed: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") or not result.get("attempted"):
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}\n{proc.stderr[-3000:]}")
    want = {m["name"]: m["unit"] for m in
            listed["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{sorted(n for n in want if got.get(n, want[n]) != want[n])}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or (
                value == 0 and must_be_nonzero(workload, trace, name)):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def main() -> int:
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in listed["workloads"]:
        for trace in (0, 1):
            problems += check_run(workload["name"], trace, listed)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
