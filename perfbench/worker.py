"""Benchmark worker: one fresh process per measurement.

    python3 perfbench/worker.py --blas N setup PLAN
        time ``import oamphoton.cli`` plus ``validate_config`` on every config
    python3 perfbench/worker.py --blas N run PLAN RESULT [--spans FILE]
        run the plan's warm-up cycle untimed, then its cycles back to back
        through ``cli.run``; gate every output, and write per-experiment
        timings and peak RSS
    python3 perfbench/worker.py --blas N butterfly OUT --threads T
        time one butterfly experiment at ``--threads T``

The BLAS thread count is fixed in the environment before NumPy is
imported.  ``oamphoton`` is imported from the ``src`` directory of the
checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import oamphoton
    import oamphoton.cli as cli

    source = Path(oamphoton.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"oamphoton imported from {source}, not from {ROOT / 'src'}")
    return cli


def _load_plan(path: str) -> dict:
    """``{"warmup": cycle, "cycles": [cycle, ...]}``; a cycle is a list of
    ``{key, config}``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def setup(plan_path: str) -> None:
    start = time.perf_counter()
    cli = _import_cli()
    plan = _load_plan(plan_path)
    for cycle in [plan["warmup"], *plan["cycles"]]:
        for exp in cycle:
            if any(d.level == "fatal" for d in cli.validate_config(exp["config"])):
                raise SystemExit(f"invalid config for {exp['key']}")
    print(f"{time.perf_counter() - start!r}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {**{var: os.environ.get(var) for var in BLAS_VARS}, "cli_threads": 1},
        "loadavg": list(os.getloadavg()),
    }


def _bytes_written(manifest) -> int:
    return sum(o["bytes"] for o in manifest.outputs) + len(manifest.to_json_bytes())


def _run_one(cli, gate, references, exp: dict, out_dir: Path, tracer=None) -> dict:
    """One experiment: validate, time ``cli.run``, gate the outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    record = {"key": exp["key"], "kind": exp["config"]["kind"], "seconds": None, "error": None}
    span = tracer.begin("cli.validate") if tracer else None
    try:
        config = cli.ExperimentConfig.from_dict(exp["config"])
    except cli.ConfigError as exc:
        record["error"] = f"config rejected: {exc}"
        return record
    finally:
        if tracer:
            tracer.end(span)
    span = tracer.begin("cli.run") if tracer else None
    start = time.perf_counter()
    try:
        manifest = cli.run(config, out_dir, threads=1)
    except Exception as exc:  # any failure of the program counts against it
        record["error"] = f"{type(exc).__name__}: {exc}"
        manifest = None
    finally:
        record["seconds"] = time.perf_counter() - start
        if tracer:
            tracer.end(span)
    if manifest is not None:
        if tracer:
            tracer.spans[span][5] = {"bytes": _bytes_written(manifest)}
        record["error"] = gate.check(exp["key"], config.kind, out_dir, references)
    return record


def run(plan_path: str, result_path: str, spans_path: str | None) -> None:
    cli = _import_cli()
    import gate  # imports NumPy: only after the BLAS threads are set

    references = gate.load_references()
    plan = _load_plan(plan_path)
    out_root = Path(result_path).parent / "out"
    untraced, traced = [], []
    tracer = Tracer() if spans_path is not None else None

    def untraced_pass(cycle):
        for exp in cycle:
            untraced.append(_run_one(cli, gate, references, exp, out_root / exp["key"]))

    def traced_pass(cycle):
        restore = install(tracer)
        try:
            for exp in cycle:
                tracer.experiment = len(traced)
                root = tracer.begin("bench.experiment")
                traced.append(_run_one(cli, gate, references, exp, out_root / exp["key"], tracer))
                tracer.end(root)
        finally:
            restore()

    # Untimed: the first calls pay for lazy imports, BLAS thread start-up and
    # heap growth (a first probe cycle ran 10-25 % slower than the next ones).
    warmup = [_run_one(cli, gate, references, exp, out_root / exp["key"])
              for exp in plan["warmup"]]
    for number, cycle in enumerate(plan["cycles"]):
        if tracer is None:
            untraced_pass(cycle)
        elif number % 2 == 0:
            # Each cycle runs untraced and traced, in alternating order, so
            # warm-up does not bias the tracing overhead.
            untraced_pass(cycle)
            traced_pass(cycle)
        else:
            traced_pass(cycle)
            untraced_pass(cycle)
    result = {
        "environment": environment(),
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.records()), encoding="utf-8")


def butterfly(out_dir: str, threads: int) -> None:
    cli = _import_cli()
    config = cli.ExperimentConfig.from_dict(workloads.THREADS_STUDY_CONFIG)
    seconds = []
    for _ in range(workloads.THREADS_STUDY_REPEATS):
        start = time.perf_counter()
        manifest = cli.run(config, out_dir, threads=threads)
        seconds.append(time.perf_counter() - start)
    digests = {o["path"]: hashlib.sha256((Path(out_dir) / o["path"]).read_bytes()).hexdigest()
               for o in manifest.outputs}
    print(json.dumps({"seconds": statistics.median(seconds), "digests": digests}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blas", type=int, required=True, help="BLAS threads")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("plan")
    p = sub.add_parser("run")
    p.add_argument("plan")
    p.add_argument("result")
    p.add_argument("--spans")
    p = sub.add_parser("butterfly")
    p.add_argument("out")
    p.add_argument("--threads", type=int, required=True)
    args = parser.parse_args()
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas)
    if args.mode == "setup":
        setup(args.plan)
    elif args.mode == "run":
        run(args.plan, args.result, args.spans)
    else:
        butterfly(args.out, args.threads)


if __name__ == "__main__":
    main()
