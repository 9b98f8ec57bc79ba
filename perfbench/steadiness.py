"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads sweep,probe --seeds 1-10

For every end-to-end metric and workload it prints the median over the
seeds, the interquartile distance as a share of the median, and that
spread against the metric's bound in ``BENCHMARK.json`` (a steady metric
stays below a third of its bound).  The per-run results and the summary
are written to ``.perfbench/steadiness-<workload>.json``; with
``--record LABEL`` the medians are also appended to ``trajectory.json`` as
one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402

TRAJECTORY = HERE / "trajectory.json"


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="benchmark steadiness over seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="LABEL",
                        help="append the medians to trajectory.json under this label")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    point = {"label": args.record, **run.source_identity(),
             "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.relative_spread(values)
            summary[name] = {"median": statistics.median(values), "spread": spread,
                             "bound": bound, "values": values}
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound
                                                           else "TOO WIDE")
            if spread > bound and name != "setup_s":
                status = 1
            print(f"  {workload:<9} {name:<12} median {summary[name]['median']:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {verdict}")
        point["workloads"][workload] = {
            name: {"median": v["median"], "spread": v["spread"]} for name, v in summary.items()}
        out = ROOT / ".perfbench" / f"steadiness-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1), encoding="utf-8")
    if args.record:
        points = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        TRAJECTORY.write_text(json.dumps(points + [point], indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
