"""The package's public names and what importing it loads."""

import json
import subprocess
import sys
from pathlib import Path

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

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

found = {}
import oamphoton
found["import oamphoton"] = loaded()
import oamphoton.cli as cli
found["import oamphoton.cli"] = loaded()
for kind, raw in json.loads(sys.argv[2]).items():
    cli.run(cli.ExperimentConfig.from_dict(dict(raw, kind=kind)), f"{sys.argv[3]}/{kind}")
    found[f"run {kind}"] = loaded()
print(json.dumps(found))
"""


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
    src = Path(oamphoton.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(src), json.dumps(SCIPY_FREE_RUNS),
         str(tmp_path)],
        capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    assert list(found) == ["import oamphoton", "import oamphoton.cli",
                           *(f"run {kind}" for kind in SCIPY_FREE_RUNS)]
    assert found == {step: [] for step in found}
