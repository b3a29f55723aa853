#!/usr/bin/env python3
"""Recording and steadiness tools for the benchmark in ``run.py``.

    python3 perfbench/calibrate.py record
        Run every workload once at its default seed with ``--workers 1``
        and write the fixture and corpus digests to expected.json.

    python3 perfbench/calibrate.py repeat --workload NAME [--runs 10]
            [--seed0 1] [--trace 0|1] [--save baseline.json]
        Run ``run.py`` once per seed (seed0, seed0+1, ...), each in its
        own process for ``run_seconds`` from BENCHMARK.json, then print
        each metric's median and interquartile spread
        (q3 - q1 over the median) against its bound in BENCHMARK.json.
        ``--save`` merges the medians and quartiles, with the machine
        description, into a baseline file.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from fixtures import DEFAULT_SEED, WORKLOADS
from run import EXPECTED_FILE, benchmark

ROOT = Path.cwd()


def record() -> int:
    expected = {}
    for name, w in WORKLOADS.items():
        res = benchmark(ROOT, w, DEFAULT_SEED, seconds=0, trace=False, workers=1, record=True)
        if not res["correct"]:
            print("\n".join(res["report"]), file=sys.stderr)
            return 1
        expected[name] = {
            "seed": DEFAULT_SEED,
            "workers": 1,
            "fixture_sha256": res["fixture_sha256"],
            "corpora": res["digests"],
        }
        print(f"{name}: recorded {len(res['digests'])} corpora")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def machine() -> dict:
    import numpy
    import scipy

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(ram / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def repeat(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    runs: list[dict] = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print("\n".join(lines[:-1]), file=sys.stderr)
            return 1
        runs.append(res)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                                          if k in bounds or args.trace), flush=True)
    summary = {}
    print(f"\n{args.workload}: {args.runs} runs, trace={args.trace}")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  over a third of bound" if bound is not None and rel > bound / 3 else ""
        print(f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.4f} {bound if bound is not None else '':>6}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"], "runs": len(values)}
    if args.save:
        path = Path(args.save)
        base = json.loads(path.read_text()) if path.exists() else {}
        base["machine"] = machine()
        base["label"] = args.label or base.get("label", "")
        key = f"trace{args.trace}"
        base.setdefault("workloads", {}).setdefault(args.workload, {})[key] = {
            "seeds": [args.seed0, args.seed0 + args.runs - 1],
            "run_seconds": float(seconds),
            "metrics": summary,
        }
        path.write_text(json.dumps(base, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description="benchmark recording and steadiness tools")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("record", help="write expected.json from default-seed runs")
    rp = sub.add_parser("repeat", help="repeat one workload and report spreads")
    rp.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    rp.add_argument("--runs", type=int, default=10)
    rp.add_argument("--seed0", type=int, default=1)
    rp.add_argument("--trace", type=int, choices=[0, 1], default=0)
    rp.add_argument("--save", help="merge the summary into this baseline JSON file")
    rp.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = p.parse_args()
    return record() if args.cmd == "record" else repeat(args)


if __name__ == "__main__":
    sys.exit(main())
