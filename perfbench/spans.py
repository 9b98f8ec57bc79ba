"""Spans for the traced run: wrappers, self-time arithmetic, layer metrics.

The traced run replaces, for its own duration only, the functions each
caller in the library looks up by name (``oamphoton.cli.band_structure``,
``oamphoton.edge.transmission``, ``scipy.linalg.solve``, ...) with
wrappers that record a span: name, start, end, parent span and experiment
id, plus counts taken at the same boundary.  Spans stay in memory and are
written once when the run ends.

A span name is ``<module>.<operation>``; the module part names the layer.
A span's self time is its duration minus the part of it that its direct
children cover, so the self times of all spans of an experiment add up to
the duration of its root span.
"""

from __future__ import annotations

import importlib
import time

#: Layers whose spans make kernel calls count; elsewhere (band structures,
#: gap scans) the same LAPACK entry points run untraced.
KERNEL_SCOPE = ("scattering", "edge")

#: The library modules that own a span; ``bench`` is the benchmark's glue.
MODULES = ("kernel", "hamiltonians", "disorder", "scattering", "edge", "chern",
           "qsh", "optics", "cli")

#: Modules measured on the traced run's layer segment, not on the workload.
SEGMENT_MODULES = ("chern", "qsh", "optics")

#: Per-layer metrics: name -> (unit, better).  Counts and times are per
#: experiment of the traced pass.
PER_LAYER = {
    "kernel.eigh_calls": ("count", "lower"),
    "kernel.eigh_s": ("s", "lower"),
    "kernel.dense_solve_calls": ("count", "lower"),
    "kernel.dense_solve_s": ("s", "lower"),
    "kernel.sparse_lu_calls": ("count", "lower"),
    "kernel.sparse_lu_s": ("s", "lower"),
    "kernel.krylov_calls": ("count", "lower"),
    "kernel.krylov_iters": ("count", "lower"),
    "kernel.krylov_s": ("s", "lower"),
    "kernel.flops_computed": ("flop", "lower"),
    "kernel.self_s": ("s", "lower"),
    "hamiltonians.build_calls": ("count", "lower"),
    "hamiltonians.build_s": ("s", "lower"),
    "hamiltonians.dense_share": ("ratio", "lower"),
    "hamiltonians.stored_mb": ("MB", "lower"),
    "hamiltonians.self_s": ("s", "lower"),
    "disorder.sample_calls": ("count", "lower"),
    "disorder.sample_s": ("s", "lower"),
    "disorder.loss_draw_s": ("s", "lower"),
    "disorder.self_s": ("s", "lower"),
    "scattering.transmission_calls": ("count", "lower"),
    "scattering.spectrum_calls": ("count", "lower"),
    "scattering.columns_per_factorization": ("ratio", "higher"),
    "scattering.self_s": ("s", "lower"),
    "edge.displacement_calls": ("count", "lower"),
    "edge.map_calls": ("count", "lower"),
    "edge.self_s": ("s", "lower"),
    "chern.band_structure_s": ("s", "lower"),
    "chern.kpoints": ("count", "lower"),
    "chern.fukui_s": ("s", "lower"),
    "chern.phase_mismatch_s": ("s", "lower"),
    "chern.self_s": ("s", "lower"),
    "qsh.gap_scan_s": ("s", "lower"),
    "qsh.transition_s": ("s", "lower"),
    "qsh.self_s": ("s", "lower"),
    "optics.dispersion_calls": ("count", "lower"),
    "optics.dispersion_s": ("s", "lower"),
    "optics.self_s": ("s", "lower"),
    "cli.validate_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "cli.ordered_map_speedup": ("ratio", "higher"),
    "cli.blas2_speedup": ("ratio", "higher"),
    "cli.blas_bytes_changed": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unwrapped_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Records spans of one process; single-threaded (the CLI runs ``--threads 1``)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, experiment, counts]
        self.experiment: int | None = None
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.experiment, None])
        self._stack.append(index)
        module = name.split(".", 1)[0]
        self._open[module] = self._open.get(module, 0) + 1
        return index

    def end(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = counts
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")
        module = span[0].split(".", 1)[0]
        self._open[module] -= 1

    def inside(self, modules: tuple[str, ...]) -> bool:
        return any(self._open.get(m, 0) for m in modules)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "experiment": x,
                 "counts": c or {}} for n, s, e, p, x, c in self.spans]


def wrap(tracer: Tracer, name: str, fn, count=None, scope: tuple[str, ...] | None = None):
    """``fn`` with a span around each call; ``count(args, kwargs, result)``
    gives the span's counts.  With ``scope``, calls made outside those layers
    pass straight through."""

    def wrapper(*args, **kwargs):
        if scope is not None and not tracer.inside(scope):
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(index, count(args, kwargs, result) if count and result is not None else None)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_krylov(tracer: Tracer, fn):
    """bicgstab with an iteration counter injected through its callback."""

    def wrapper(A, b, *args, **kwargs):
        if not tracer.inside(KERNEL_SCOPE):
            return fn(A, b, *args, **kwargs)
        iters = [0]
        outer = kwargs.get("callback")

        def callback(xk):
            iters[0] += 1
            if outer is not None:
                outer(xk)

        kwargs["callback"] = callback
        index = tracer.begin("kernel.krylov")
        try:
            return fn(A, b, *args, **kwargs)
        finally:
            n = A.shape[0]
            tracer.end(index, {"iters": iters[0],
                               "flops": iters[0] * 2 * (8 * A.nnz + 6 * n)})

    wrapper.__wrapped__ = fn
    return wrapper


# -- counts taken at the span boundaries -------------------------------------

def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _matrix_counts(args, kwargs, H) -> dict:
    if H.is_dense:
        stored = H.data.nbytes
    else:
        stored = H.data.data.nbytes + H.data.indices.nbytes + H.data.indptr.nbytes
    return {"dense": int(H.is_dense), "stored_bytes": int(stored)}


def _spectrum_columns(args, kwargs, result) -> dict:
    inputs = _arg(args, kwargs, 2, "inputs")
    return {"columns": len(inputs) * len(result)}


def _displacement_columns(args, kwargs, result) -> dict:
    H, region = args[0], _arg(args, kwargs, 3, "region")
    spins = _arg(args, kwargs, 5, "input_spins")
    per_column = H.spec.spin_dim if spins is None else len(spins)
    return {"columns": len(region.columns(H.spec)) * per_column * len(result)}


def _one_column(args, kwargs, result) -> dict:
    return {"columns": 1}


def _eigh_flops(args, kwargs, result) -> dict:
    n = args[0].shape[-1]
    return {"flops": 16 * n**3}


def _solve_flops(args, kwargs, result) -> dict:
    n = args[0].shape[0]
    k = 1 if args[1].ndim == 1 else args[1].shape[1]
    return {"flops": (8 * n**3) // 3 + 8 * n * n * k}


def _kpoints(args, kwargs, result) -> dict:
    grid = args[0]
    return {"kpoints": grid.n_kx * grid.n_ky}


#: (module, attribute, span name, counts).  Each entry is the name a caller
#: looks up at call time: the CLI's imported names and the library modules'
#: imports from each other.
LIBRARY_PATCHES = (
    ("oamphoton.cli", "build_landau_hofstadter", "hamiltonians.build", _matrix_counts),
    ("oamphoton.cli", "build_oam_gauge_hofstadter", "hamiltonians.build", _matrix_counts),
    ("oamphoton.cli", "build_dirac", "hamiltonians.build", _matrix_counts),
    ("oamphoton.cli", "build_qsh", "hamiltonians.build", _matrix_counts),
    ("oamphoton.cli", "total_transmission_spectrum", "scattering.spectrum", _spectrum_columns),
    ("oamphoton.cli", "transmission_map", "edge.map", _one_column),
    ("oamphoton.cli", "displacement_spectrum", "edge.displacement", _displacement_columns),
    ("oamphoton.cli", "displacement_robustness", "disorder.robustness", None),
    ("oamphoton.disorder", "sample_disordered_hamiltonian", "disorder.sample", None),
    ("oamphoton.disorder", "loss_perturbed_decay", "disorder.loss_draw", None),
    ("oamphoton.disorder", "displacement_spectrum", "edge.displacement", _displacement_columns),
    ("oamphoton.edge", "transmission", "scattering.transmission", None),
    ("oamphoton.edge", "spectral_factorization", "scattering.spectral_factorization", None),
    ("oamphoton.scattering", "transmission", "scattering.transmission", None),
    ("oamphoton.scattering", "spectral_factorization", "scattering.spectral_factorization", None),
    ("oamphoton.cli", "band_structure", "chern.band_structure", _kpoints),
    ("oamphoton.cli", "fukui_hatsugai_chern", "chern.fukui", None),
    ("oamphoton.cli", "phase_mismatch_chern", "chern.phase_mismatch", None),
    ("oamphoton.cli", "qsh_gap_scan", "qsh.gap_scan", None),
    ("oamphoton.qsh", "qsh_gap_scan", "qsh.gap_scan", None),
    ("oamphoton.cli", "transition_detector", "qsh.transition", None),
    ("oamphoton.cli", "bloch_dispersion", "optics.dispersion", None),
    ("oamphoton.cli", "coupling_strength", "optics.coupling_strength", None),
)

#: The numpy/scipy attributes ``scattering`` calls through; bicgstab gets its
#: own wrapper to count iterations.
KERNEL_PATCHES = (
    ("numpy.linalg", "eigh", "kernel.eigh", _eigh_flops),
    ("scipy.linalg", "solve", "kernel.dense_solve", _solve_flops),
    ("scipy.sparse.linalg", "spsolve", "kernel.sparse_lu", None),
)


def install(tracer: Tracer):
    """Install every wrapper; returns a function that restores the originals."""
    saved = []

    def patch(module_name: str, attribute: str, replacement_for) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        saved.append((module, attribute, original))
        setattr(module, attribute, replacement_for(original))

    for module_name, attribute, name, count in LIBRARY_PATCHES:
        patch(module_name, attribute, lambda fn, n=name, c=count: wrap(tracer, n, fn, c))
    for module_name, attribute, name, count in KERNEL_PATCHES:
        patch(module_name, attribute,
              lambda fn, n=name, c=count: wrap(tracer, n, fn, c, scope=KERNEL_SCOPE))
    patch("scipy.sparse.linalg", "bicgstab", lambda fn: _wrap_krylov(tracer, fn))

    def restore() -> None:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)

    return restore


# -- analysis ------------------------------------------------------------------

def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(records: list[dict]) -> list[float]:
    """Each span's duration minus the union of its direct children's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append((record["start"], record["end"]))
    return [
        (r["end"] - r["start"]) - covered_length(children.get(i, []), r["start"], r["end"])
        for i, r in enumerate(records)
    ]


def layer_metrics(records: list[dict], experiments: int) -> dict[str, float]:
    """The span-derived per-layer metrics, each per traced experiment.

    The ``cli.*speedup`` and ``cli.blas_bytes_changed`` metrics come from the
    threads study and ``trace.overhead_frac`` from the untraced timings, not
    from spans.
    """
    selfs = self_times(records)
    calls: dict[str, int] = {}
    duration: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    module_self = dict.fromkeys(MODULES + ("bench",), 0.0)
    self_by_name: dict[str, float] = {}
    for record, own in zip(records, selfs):
        name = record["name"]
        calls[name] = calls.get(name, 0) + 1
        duration[name] = duration.get(name, 0.0) + record["end"] - record["start"]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        module_self[name.split(".", 1)[0]] += own
        bucket = counts.setdefault(name, {})
        for key, value in record["counts"].items():
            bucket[key] = bucket.get(key, 0) + value

    def n(name):
        return calls.get(name, 0) / experiments

    def s(name):
        return duration.get(name, 0.0) / experiments

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    builds = calls.get("hamiltonians.build", 0)
    factorizations = sum(calls.get(k, 0) for k in
                         ("kernel.eigh", "kernel.dense_solve", "kernel.sparse_lu", "kernel.krylov"))
    columns = sum(c(k, "columns") for k in ("scattering.spectrum", "edge.map", "edge.displacement"))
    flops = sum(c(k, "flops") for k in ("kernel.eigh", "kernel.dense_solve", "kernel.krylov"))
    metrics = {
        "kernel.eigh_calls": n("kernel.eigh"),
        "kernel.eigh_s": s("kernel.eigh"),
        "kernel.dense_solve_calls": n("kernel.dense_solve"),
        "kernel.dense_solve_s": s("kernel.dense_solve"),
        "kernel.sparse_lu_calls": n("kernel.sparse_lu"),
        "kernel.sparse_lu_s": s("kernel.sparse_lu"),
        "kernel.krylov_calls": n("kernel.krylov"),
        "kernel.krylov_iters": c("kernel.krylov", "iters") / experiments,
        "kernel.krylov_s": s("kernel.krylov"),
        "kernel.flops_computed": flops / experiments,
        "hamiltonians.build_calls": n("hamiltonians.build"),
        "hamiltonians.build_s": s("hamiltonians.build"),
        "hamiltonians.dense_share": c("hamiltonians.build", "dense") / builds if builds else 0.0,
        "hamiltonians.stored_mb": (c("hamiltonians.build", "stored_bytes") / builds / 1e6
                                   if builds else 0.0),
        "disorder.sample_calls": n("disorder.sample"),
        "disorder.sample_s": s("disorder.sample"),
        "disorder.loss_draw_s": s("disorder.loss_draw"),
        "scattering.transmission_calls": n("scattering.transmission"),
        "scattering.spectrum_calls": n("scattering.spectrum"),
        "scattering.columns_per_factorization": columns / factorizations if factorizations else 0.0,
        "edge.displacement_calls": n("edge.displacement"),
        "edge.map_calls": n("edge.map"),
        "chern.band_structure_s": s("chern.band_structure"),
        "chern.kpoints": c("chern.band_structure", "kpoints") / experiments,
        "chern.fukui_s": s("chern.fukui"),
        "chern.phase_mismatch_s": s("chern.phase_mismatch"),
        "qsh.gap_scan_s": s("qsh.gap_scan"),
        "qsh.transition_s": s("qsh.transition"),
        "optics.dispersion_calls": n("optics.dispersion"),
        "optics.dispersion_s": s("optics.dispersion"),
        "cli.validate_s": s("cli.validate"),
        "cli.bytes_written": c("cli.run", "bytes") / experiments,
        "trace.wall_s": s("bench.experiment"),
        "trace.unwrapped_s": module_self["bench"] / experiments,
        "trace.spans": len(records) / experiments,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module] / experiments
    # The CLI's own work is ``run`` minus its library children; validation
    # is reported on its own.
    metrics["cli.self_s"] = self_by_name.get("cli.run", 0.0) / experiments
    return metrics
