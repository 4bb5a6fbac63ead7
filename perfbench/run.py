"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is the checkout's
``src/repro``, imported as it stands (pure Python, nothing to build).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  The run record and a traced
run's spans go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import numbers  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("bisect_mesh2d", "mlnd_stiff3d_w2", "service_mix")

#: Ambient knobs that change what the program does inside a timed call
#: (``REPRO_TRACE=-`` would stream a whole trace to stdout); CI legs set
#: several of them.
AMBIENT = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_WORKERS",
           "REPRO_KERNELS", "REPRO_WORKER_TIMEOUT")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the smoke test shrinks "
                             "inputs with it")
    return parser.parse_args(argv)


def run_workload(args, record):
    """``(log, metrics, unmeasured)`` of the selected workload and mode."""
    import service_mix
    import workloads

    if args.workload == "service_mix":
        module, head = service_mix, ()
    else:
        module, head = workloads, (args.workload,)
    common = (*head, args.seed, args.seconds, args.scale, record)
    if args.trace:
        return module.run_traced(*common, str(OUT))
    log, metrics = module.run_e2e(*common)
    return log, metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = listed["per_layer" if args.trace else "end_to_end"]
    cleared = {k: os.environ.pop(k) for k in AMBIENT if k in os.environ}
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")  # inherited by server and pool
    tempfile.tempdir = None
    sys.path.insert(0, str(src))

    import repro.core.multilevel  # noqa: F401
    import repro.ordering.nested_dissection  # noqa: F401
    from repro.core.options import DEFAULT_OPTIONS
    from repro.kernels import resolve_kernels

    import measure
    import service_mix  # noqa: F401
    import spans
    import workloads  # noqa: F401

    imports_s = time.perf_counter() - START
    gc.collect()
    gc.freeze()  # the per-call collections then scan only new objects
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "env": measure.environment(cleared),
        "kernels": resolve_kernels(DEFAULT_OPTIONS).as_dict(),
        "imports_s": imports_s,
        "spin_s": [measure.spin_seconds()],
    }
    log, metrics, unmeasured = run_workload(args, record)
    record["spin_s"].append(measure.spin_seconds())

    values, notes = {}, {}
    for spec in wanted:
        name = spec["name"]
        layer = spans.metric_layer(name)
        value = metrics.get(name)
        if args.trace and layer in unmeasured:
            value, notes[name] = 0, unmeasured[layer]
        elif value is None and args.trace:
            value = 0  # the workload does not reach this layer
        elif value is None:
            value, notes[name] = 0, "no value from this run"
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
        values[name] = {"value": value, "unit": spec["unit"]}
    # A traced run may leave layers unmeasured; an end-to-end run may not.
    correct = log.failed == 0 and log.attempted > 0 and (args.trace or not notes)
    record.update(attempted=log.attempted, failed=log.failed,
                  errors=log.errors, metrics=values, unmeasured=notes)
    path = OUT / f"run-{args.workload}-{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for name, why in notes.items():
        print(f"perfbench: {name} unmeasured: {why}", file=sys.stderr)
    for error in log.errors:
        print(f"perfbench: failed call: {error}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": log.attempted,
                      "failed": log.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a broken run prints a traceback and no result
        traceback.print_exc()
        sys.exit(1)
