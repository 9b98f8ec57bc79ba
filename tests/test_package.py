"""The package's public names and what importing and running it loads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import oamphoton
from oamphoton import (
    chern, disorder, edge, hamiltonians, lattice, optics, qsh, scattering,
)
from oamphoton.cli import EXPERIMENT_KINDS

MODULES = (lattice, hamiltonians, scattering, edge, chern, optics, disorder, qsh)

_LATTICE = {"n_x": 4, "l_min": -4, "l_max": 4}
_LANDAU = {"builder": "landau", "phi0": [1, 4]}

#: One small config of every kind but ``chern``, whose Chern zero
#: refinement is the one caller of scipy.optimize.
SCIPY_FREE_RUNS = {
    "spectrum": {"lattice": _LATTICE, "model": _LANDAU, "decay": {"gamma": 0.2},
                 "omega": {"start": -3.0, "stop": 3.0, "num": 5}},
    "butterfly": {"lattice": _LATTICE, "decay": {"gamma": 0.1},
                  "omega": {"values": [0.0, 1.0]}, "butterfly": {"q_max": 3}},
    "edge-map": {"lattice": _LATTICE, "model": _LANDAU, "decay": {"gamma": 0.2},
                 "omega": {"values": [-2.2]}},
    "displacement": {"lattice": _LATTICE, "model": _LANDAU, "decay": {"gamma": 0.2},
                     "omega": {"values": [-2.2]}, "region": {"depth": 2}},
    "disorder": {"lattice": _LATTICE, "model": _LANDAU, "decay": {"gamma": 0.2},
                 "omega": {"values": [-2.2]}, "region": {"depth": 2},
                 "disorder": {"sigma_detuning": 0.1, "sigma_coupling_phase": 0.1,
                              "sigma_loss": 0.1, "trials": 2}},
    "bands": {"model": {"builder": "oam-gauge", "phi0": [1, 3]},
              "sampling": {"k_points": 6}},
    "qsh": {"lattice": {"n_x": 8, "l_min": -8, "l_max": 7, "spin_dim": 2},
            "model": {"builder": "qsh", "lambda0": 0.6},
            "qsh": {"beta0_values": [0.0, 0.1]}},
    "dispersion-check": {"optics": {"r_values": [0.3], "k_points": 4}},
}

RUNS = {**SCIPY_FREE_RUNS,
        "chern": {"model": _LANDAU, "sampling": {"k_points": 8}}}

#: The modules each kind loads beyond ``import oamphoton.cli``.
KIND_MODULES = {
    "spectrum": [], "butterfly": [], "edge-map": ["edge"], "displacement": ["edge"],
    "disorder": ["disorder", "edge"], "chern": ["chern"], "bands": ["chern"],
    "qsh": ["qsh"], "dispersion-check": ["optics"],
}

#: What ``import oamphoton.cli`` loads: the modules every run calls.
CLI_MODULES = ["oamphoton", "oamphoton.cli", "oamphoton.hamiltonians",
               "oamphoton.lattice", "oamphoton.scattering"]

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "oamphoton")
                  or m in ("argparse", "concurrent.futures"))

found = {}
import oamphoton
found["import oamphoton"] = loaded()
import oamphoton.cli as cli
found["import oamphoton.cli"] = loaded()
for kind, raw in json.loads(sys.argv[2]).items():
    raw = dict(raw, kind=kind)
    assert cli.validate_config(raw) == []
    found[f"validate {kind}"] = loaded()
    cli.run(cli.ExperimentConfig.from_dict(raw), f"{sys.argv[3]}/{kind}")
    found[f"run {kind}"] = loaded()
print(json.dumps(found))
"""


def _probe(runs: dict, out: Path) -> dict[str, list[str]]:
    """Step -> the modules loaded after it, in a fresh interpreter that
    imports the package and the CLI, then validates and runs ``runs``."""
    src = Path(oamphoton.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(src), json.dumps(runs), str(out)],
        capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    assert list(found) == ["import oamphoton", "import oamphoton.cli",
                           *(f"{step} {kind}" for kind in runs
                             for step in ("validate", "run"))]
    return found


def test_package_all_is_version_plus_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert oamphoton.__all__ == ["__version__", *names]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(oamphoton, name) is getattr(module, name)
    assert isinstance(oamphoton.__version__, str)


def test_import_and_every_run_but_chern_load_no_scipy(tmp_path):
    """A fresh interpreter imports the package and runs one config of each
    kind but ``chern``, loading no ``scipy*`` module at any step: the
    import is gone, not deferred into the first run."""
    assert sorted(SCIPY_FREE_RUNS) == sorted(set(EXPERIMENT_KINDS) - {"chern"})
    found = _probe(SCIPY_FREE_RUNS, tmp_path)
    scipy = {step: [m for m in modules if m.split(".")[0] == "scipy"]
             for step, modules in found.items()}
    assert scipy == {step: [] for step in found}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_each_kind_loads_only_the_modules_it_calls(kind, tmp_path):
    """A fresh interpreter loads no library module on ``import oamphoton``,
    the ones every run calls on ``import oamphoton.cli``, and the kind's
    own on validation; its run loads no more.  ``argparse`` and
    ``concurrent.futures`` (the CLI's parser and its thread pool) load at
    no step, except through the ``scipy.optimize`` a ``chern`` run imports:
    each module a kind does not call is avoided, not deferred."""
    assert sorted(RUNS) == sorted(EXPERIMENT_KINDS) == sorted(KIND_MODULES)
    assert KIND_MODULES["spectrum"] == KIND_MODULES["butterfly"] == []
    assert [k for k, modules in KIND_MODULES.items() if "chern" in modules] == [
        "chern", "bands"]
    found = _probe({kind: RUNS[kind]}, tmp_path)
    library = {step: [m for m in modules if m.split(".")[0] == "oamphoton"]
               for step, modules in found.items()}
    validated = sorted(CLI_MODULES + [f"oamphoton.{m}" for m in KIND_MODULES[kind]])
    assert library == {"import oamphoton": ["oamphoton"],
                       "import oamphoton.cli": CLI_MODULES,
                       f"validate {kind}": validated, f"run {kind}": validated}
    for step, modules in found.items():
        if not any(m.split(".")[0] == "scipy" for m in modules):
            assert "argparse" not in modules and "concurrent.futures" not in modules, step


def test_lazy_package_names_match_the_modules(tmp_path):
    """``oamphoton.<name>``, ``from oamphoton import <name>`` and ``import *``
    in a fresh interpreter give the modules' own objects."""
    src = Path(oamphoton.__file__).resolve().parent.parent
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import oamphoton
assert oamphoton.qsh_gap_scan is oamphoton.qsh.qsh_gap_scan
from oamphoton import chern, LatticeSpec
assert chern is sys.modules["oamphoton.chern"] and LatticeSpec is oamphoton.lattice.LatticeSpec
namespace = {}
exec("from oamphoton import *", namespace)
names = sorted(k for k in namespace if k != "__builtins__")
assert names == sorted(oamphoton.__all__), names
assert all(namespace[k] is getattr(oamphoton, k) for k in names)
try:
    oamphoton.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
print("ok")
"""
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "ok"
