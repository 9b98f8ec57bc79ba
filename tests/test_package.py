"""The package's public names and what importing it loads."""

import subprocess
import sys
from pathlib import Path

import oamphoton
from oamphoton import (
    chern, disorder, edge, hamiltonians, lattice, optics, qsh, scattering,
)

MODULES = (lattice, hamiltonians, scattering, edge, chern, optics, disorder, qsh)


def test_package_all_is_version_plus_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert oamphoton.__all__ == ["__version__", *names]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(oamphoton, name) is getattr(module, name)
    assert isinstance(oamphoton.__version__, str)


def test_cli_import_does_not_load_scipy_optimize():
    """Only the Chern zero refinement needs scipy.optimize; it imports it itself."""
    src = Path(oamphoton.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oamphoton.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
