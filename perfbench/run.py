"""Desk-scale benchmark of the oamphoton CLI experiments.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout holding ``src/oamphoton``.  One client in
one process runs the workload's experiments back to back through
``oamphoton.cli.run`` (a closed loop: a CLI user waits for each run), with
BLAS pinned to at most two threads and ``--threads 1``.  Every output is
checked against stored references (``gate.py``).

``--seconds`` sets the amount of work: the run executes as many whole
cycles of the workload as fill that many seconds at the seed commit's
speed, so two commits always run the same experiments.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each cycle
untraced and then traced, prints the per-layer metrics from the spans, and
runs the ``--threads`` study.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable summary and the environment record.  Full results, the
spans and the environment go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Every subprocess must finish this long after the run started.
TIME_LIMIT_S = 170.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "exp_per_s": ("1/s", "higher"),
    "exp_p50_s": ("s", "lower"),
    "exp_tail_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
}

#: (BLAS threads, --threads) settings of the threads study.
THREAD_SETTINGS = ((1, 1), (1, 2), (2, 1))


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed experiment)."""


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def worker(args: list[str], blas: int, deadline: float) -> str:
    """Run ``worker.py`` in a fresh process; returns its standard output."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--blas", str(blas), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def source_identity() -> dict:
    """The git commit when there is one, and a digest of ``src`` always."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def cycle_rates(records: list[dict], plan: list[list[dict]]) -> list[float]:
    """Experiments per second of each cycle of the plan."""
    rates, start = [], 0
    for cycle in plan:
        chunk = records[start:start + len(cycle)]
        start += len(cycle)
        seconds = sum(r["seconds"] for r in chunk if r["seconds"] is not None)
        if seconds > 0:
            rates.append(len(chunk) / seconds)
    return rates


def end_to_end(result: dict, plan: list[list[dict]], setup_times: list[float]
               ) -> tuple[dict, dict]:
    records = result["untraced"]
    seconds = [r["seconds"] for r in records if r["seconds"] is not None]
    failed = sum(r["error"] is not None for r in records)
    tail, percentile, samples = stats.tail(seconds)
    values = {
        # Median over cycles: every cycle holds the same mix, and a stall in
        # one cycle does not move the median.
        "exp_per_s": statistics.median(cycle_rates(records, plan)),
        "exp_p50_s": statistics.median(seconds),
        "exp_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": (len(records) - failed) / len(records),
    }
    notes = {"exp_tail_s": f"p{percentile:.1f} of {samples} samples, "
                           f"{stats.TAIL_BEYOND} beyond",
             "pass_ratio": f"fail_ratio {failed}/{len(records)}"}
    return values, notes


def threads_study(deadline: float) -> tuple[dict, list[str]]:
    """Time one butterfly at each (BLAS, --threads) setting and compare the
    data bytes between settings."""
    timings, digests = {}, {}
    for blas, threads in THREAD_SETTINGS:
        out = WORK / "threads" / f"blas{blas}-threads{threads}"
        shutil.rmtree(out, ignore_errors=True)
        report = json.loads(worker(["butterfly", str(out), "--threads", str(threads)],
                                   blas, deadline))
        timings[(blas, threads)] = report["seconds"]
        digests[(blas, threads)] = report["digests"]
    # The README promises bytes independent of --threads: a difference there
    # is a failure.  A different BLAS thread count may move last bits; that
    # is counted, not failed.
    errors = [f"butterfly bytes at --threads {t} differ from --threads 1 (BLAS {b})"
              for (b, t), d in digests.items() if t != 1 and d != digests[(b, 1)]]
    values = {
        "cli.ordered_map_speedup": timings[(1, 1)] / timings[(1, 2)],
        "cli.blas2_speedup": timings[(1, 1)] / timings[(2, 1)],
        "cli.blas_bytes_changed": float(digests[(2, 1)] != digests[(1, 1)]),
    }
    return values, errors


def kernel_by_experiment(records: list[dict], experiments: list[dict]
                         ) -> list[tuple[float, str]]:
    """Kernel seconds per experiment key, largest first."""
    per_key: dict[str, float] = {}
    for record in records:
        if record["name"].startswith("kernel."):
            key = experiments[record["experiment"]]["key"]
            per_key[key] = per_key.get(key, 0.0) + record["end"] - record["start"]
    return sorted(((s, k) for k, s in per_key.items()), reverse=True)


def measure_end_to_end(plan: list[list[dict]], plan_path: Path, result_path: Path,
                       blas: int, deadline: float) -> tuple:
    """Untraced run: ``(result, metrics, units, summary lines, errors)``."""
    setup_times = [float(worker(["setup", str(plan_path)], blas, deadline).split()[-1])
                   for _ in range(SETUP_REPEATS)]
    worker(["run", str(plan_path), str(result_path)], blas, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    values, notes = end_to_end(result, plan, setup_times)
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    lines = [f"  {name:<12} {values[name]:.6g} {units[name]}"
             + (f"   ({notes[name]})" if name in notes else "") for name in units]
    return result, values, units, lines, []


def write_plan(stem: str, plan: list[list[dict]], warmup: list[dict]) -> Path:
    """The worker's plan file: an untimed warm-up cycle and the timed cycles."""
    path = WORK / f"plan-{stem}.json"
    path.write_text(json.dumps({"warmup": warmup, "cycles": plan}), encoding="utf-8")
    return path


def traced(plan: list[list[dict]], warmup: list[dict], stem: str, blas: int,
           deadline: float) -> tuple[dict, list[dict], dict]:
    """Run ``plan`` untraced and traced in a fresh worker: ``(result, spans,
    span-derived metrics)``."""
    plan_path = write_plan(stem, plan, warmup)
    result_path = WORK / f"result-{stem}.json"
    spans_path = WORK / f"spans-{stem}.json"
    worker(["run", str(plan_path), str(result_path), "--spans", str(spans_path)],
           blas, deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    span_records = json.loads(spans_path.read_text(encoding="utf-8"))
    values = spans.layer_metrics(span_records, len(result["traced"]))
    untraced_s = sum(r["seconds"] for r in result["untraced"] if r["seconds"])
    traced_s = sum(r["seconds"] for r in result["traced"] if r["seconds"])
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return result, span_records, values


def self_time_line(label: str, values: dict) -> str:
    """The per-experiment sum of module self times against the traced wall."""
    modules = sum(values[f"{m}.self_s"] for m in spans.MODULES) + values["cli.validate_s"]
    return (f"  {label}: module self times {modules:.6f} s + unwrapped "
            f"{values['trace.unwrapped_s']:.6f} s = traced wall {values['trace.wall_s']:.6f} s "
            f"per experiment")


def measure_layers(plan: list[list[dict]], warmup: list[dict], seed: int, stem: str,
                   blas: int, deadline: float) -> tuple:
    """Traced run, layer segment and threads study: ``(result, metrics,
    units, summary lines, errors)`` with the per-layer metrics."""
    result, span_records, values = traced(plan, warmup, stem, blas, deadline)
    # The segment is a single cycle, not warmed up: each of its experiments
    # is traced once and untraced once.
    segment, _, segment_values = traced(workloads.layer_segment(seed), [],
                                        f"{stem}-segment", blas, deadline)
    lines = [self_time_line("workload", values), self_time_line("layer segment", segment_values)]
    lines += [f"  kernel time {seconds:.4f} s in {key}"
              for seconds, key in kernel_by_experiment(span_records, result["traced"])[:3]]
    # The workloads never reach chern, qsh or optics: those metrics are per
    # experiment of the layer segment.
    values.update({name: segment_values[name] for name in spans.PER_LAYER
                   if name.split(".", 1)[0] in spans.SEGMENT_MODULES})
    for key in ("warmup", "untraced", "traced"):
        result[key] += segment[key]
    study, errors = threads_study(deadline)
    values.update(study)
    units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    lines += [f"  {name:<40} {values[name]:.6g} {units[name]}" for name in units]
    return result, values, units, lines, errors


def main() -> int:
    parser = argparse.ArgumentParser(description="oamphoton CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "oamphoton" / "cli.py").is_file():
        print(f"error: no oamphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan = workloads.generate(args.workload, args.seed, args.seconds)
    warmup = workloads.warmup_cycle(args.workload, args.seed)
    result_path = WORK / f"result-{stem}.json"
    blas = blas_threads()
    try:
        if args.trace:
            result, values, units, lines, errors = measure_layers(
                plan, warmup, args.seed, stem, blas, deadline)
        else:
            plan_path = write_plan(stem, plan, warmup)
            result, values, units, lines, errors = measure_end_to_end(
                plan, plan_path, result_path, blas, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)
        shutil.rmtree(WORK / "threads", ignore_errors=True)

    records = result["warmup"] + result["untraced"] + result["traced"]
    errors = [f"{r['key']}: {r['error']}" for r in records if r["error"] is not None] + errors
    attempted = len(records) + (len(THREAD_SETTINGS) if args.trace else 0)
    lines.insert(0, f"workload {args.workload}  seed {args.seed}  cycles {len(plan)}  "
                    f"experiments {sum(map(len, plan))} (+{len(warmup)} warm-up)  "
                    f"BLAS threads {blas}  --threads 1")
    lines += [f"  FAILED {e}" for e in errors]
    environment = {**source_identity(), **result["environment"], "blas_threads": blas}
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    result_path.write_text(json.dumps({**result, "environment": environment,
                                       "summary": summary, "errors": errors, "lines": lines}),
                           encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"environment": environment}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
