"""The package's public names come from its modules' ``__all__`` lists."""

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
