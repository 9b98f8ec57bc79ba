"""The names the benchmark reads from the library still exist there.

``perfbench/spans.py`` swaps library functions for timing wrappers by
``(module, attribute)``.  A name it lists that the library no longer has
makes every traced benchmark run fail, so this checks the list against the
package without running the tracer.  ``perfbench/make_references.py``
regenerates the benchmark's reference values; a name it imports that the
library no longer has breaks that, so its imports are checked too, from
its syntax tree, without running it.  The CLI binds the names of a kind's
modules when the kind first runs; an installed wrapper must survive that,
so one small config of every kind runs under the tracer as well.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from oamphoton import cli
from oamphoton.hamiltonians import HamiltonianMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_library_patch_target_exists():
    missing = [(module, attribute)
               for module, attribute, *_ in _spans().LIBRARY_PATCHES
               if not hasattr(importlib.import_module(module), attribute)]
    assert missing == []


def test_matrix_counts_read_the_storage_view():
    # The tracer's matrix counts read these two attributes.
    assert hasattr(HamiltonianMatrix, "is_dense")
    assert hasattr(HamiltonianMatrix, "data")


def test_every_reference_generator_import_exists():
    tree = ast.parse((PERFBENCH / "make_references.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "oamphoton"
               for alias in node.names]
    assert imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


_LATTICE = {"n_x": 4, "l_min": -4, "l_max": 4}
_LANDAU = {"builder": "landau", "phi0": [1, 4]}
_PROBE = {"lattice": _LATTICE, "model": _LANDAU, "decay": {"gamma": 0.2},
          "omega": {"values": [-2.2]}}

#: Kind -> (a small config, the spans its run must record).
TRACED_RUNS = {
    "spectrum": (dict(_PROBE, omega={"start": -3.0, "stop": 3.0, "num": 5}),
                 {"hamiltonians.build", "scattering.spectrum"}),
    "butterfly": ({"lattice": _LATTICE, "decay": {"gamma": 0.1},
                   "omega": {"values": [0.0, 1.0]}, "butterfly": {"q_max": 3}},
                  {"hamiltonians.build", "scattering.spectrum"}),
    "edge-map": (_PROBE, {"hamiltonians.build", "edge.map"}),
    "displacement": (dict(_PROBE, region={"depth": 2}),
                     {"hamiltonians.build", "edge.displacement"}),
    "disorder": (dict(_PROBE, region={"depth": 2},
                      disorder={"sigma_detuning": 0.1, "trials": 2}),
                 {"hamiltonians.build", "disorder.robustness", "disorder.sample"}),
    "chern": ({"model": _LANDAU, "sampling": {"k_points": 8}},
              {"chern.band_structure", "chern.fukui", "chern.phase_mismatch"}),
    "bands": ({"model": {"builder": "oam-gauge", "phi0": [1, 3]},
               "sampling": {"k_points": 6}}, {"chern.band_structure"}),
    "qsh": ({"lattice": {"n_x": 8, "l_min": -8, "l_max": 7, "spin_dim": 2},
             "model": {"builder": "qsh", "lambda0": 0.6},
             "qsh": {"beta0_values": [0.0, 0.1]}}, {"qsh.gap_scan"}),
    "dispersion-check": ({"optics": {"r_values": [0.3], "k_points": 4}},
                         {"optics.dispersion", "optics.coupling_strength"}),
}


@pytest.fixture
def tracer():
    spans = _spans()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        yield tracer
    finally:
        restore()


def test_every_kind_records_its_spans_under_the_tracer(tracer, tmp_path):
    assert sorted(TRACED_RUNS) == sorted(cli.EXPERIMENT_KINDS)
    for number, (kind, (raw, _)) in enumerate(TRACED_RUNS.items()):
        tracer.experiment = number
        cli.run(cli.ExperimentConfig.from_dict(dict(raw, kind=kind)), tmp_path / kind)
    recorded = {kind: {r["name"] for r in tracer.records() if r["experiment"] == number}
                for number, kind in enumerate(TRACED_RUNS)}
    assert all(expected <= recorded[kind] for kind, (_, expected) in TRACED_RUNS.items()), \
        recorded
