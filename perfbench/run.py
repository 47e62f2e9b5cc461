"""seasoninfo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long_season --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics through the CLI;
``--trace 1`` runs the traced replay and reports the per-layer metrics.
A readable report goes to stdout, and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run
artifacts (inputs, outputs, ``result.json``, ``trace.json``) go under
``.perfbench-work/`` in the checkout. The exit code is 1 when an
invocation or an output check failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seasoninfo" / "__init__.py").is_file():
        print(f"error: no seasoninfo source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seasoninfo
    if not Path(seasoninfo.__file__).resolve().is_relative_to(SRC):
        print(f"error: seasoninfo imported from {seasoninfo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads as wk

    wl = wk.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wk.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    print(f"workload {wl.name}: {wl.seasons} season(s) of each of {', '.join(wl.leagues)} "
          f"per curve call, one call per league and fraction of the {len(wk.GRID)}-fraction "
          f"grid, {wk.REPLICATES} replicates, "
          f"--jobs {wl.jobs}; seed {args.seed}")
    facts = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    if args.trace:
        res = tracing.run_traced(wl, args.seed, work)
        metrics = {name: (res["metrics"][name], unit)
                   for name, unit in tracing.per_layer_units().items() if name in res["metrics"]}
        for name, why in res["missing"].items():
            print(f"  {name:<28} missing ({why})")
        problems = res["problems"]
        extra = {"counts": res["counts"], "missing": res["missing"]}
    else:
        res = wk.run_end_to_end(wl, args.seed, args.seconds, work)
        metrics, report_only, notes = wk.end_to_end_metrics(wl, res)
        problems = []
        extra = {"report_only": {k: v for k, (v, _) in report_only.items()}, "notes": notes,
                 "samples": {
                     "setups": [dataclasses.asdict(t) for t in res["setups"]],
                     "curve_calls": {"/".join(key): [dataclasses.asdict(t) for t in spent]
                                     for key, spent in res["calls"].items()},
                     "summaries": [dataclasses.asdict(t) for t in res["summaries"]],
                     "probes": res["probes"]}}
    runner = res["runner"]

    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}" if isinstance(value, float)
              else f"  {name:<28} {value} {unit}")
    if not args.trace:
        for name, (value, unit) in report_only.items():
            print(f"  {name:<28} {value:.6g} {unit}  (reported, not gated)")
        for note in notes:
            print(f"  note: {note}")
    for f in runner.failures:
        print(f"  FAILED: {json.dumps(f)}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    for path, digest in sorted(runner.digests.items()):
        print(f"  sha256 {digest}  {path}")

    failed = len(runner.failures) + len(problems)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted + len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "machine": facts, "failures": runner.failures, "problems": problems,
         "sha256": runner.digests, **extra}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
