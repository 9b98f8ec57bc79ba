"""Desk-scale simulation of lattices of OAM-carrying photons under gauge fields.

The synthetic two-dimensional lattice has a cavity index along x and the
photon orbital angular momentum along y; hops can carry Abelian phases or
non-commuting polarization (Jones-matrix) unitaries.  The package builds
the lattice Hamiltonians, drives them through input-output scattering,
and extracts the transport and topology observables: transmission maps
and spectra, edge OAM displacement, Chern numbers by two lattice methods
and a transmission-only pipeline, disorder Monte Carlo statistics, the
polarization-pair phase transition, and the bridge from concrete
resonator optics (mirrors, beam splitters) to the lattice parameters.

Importing the package loads none of its modules: each loads on first use,
whether as ``oamphoton.<module>``, through a public name it exports
(``oamphoton.LatticeSpec``), or through ``__all__`` and ``import *``, which
load them all.  ``oamphoton.cli`` loads the modules of the experiment kinds
it validates and runs, and no others.

Units: the inter-cavity coupling is the energy unit; phases are given in
cycles (one cycle = 2*pi radians) unless a docstring says otherwise.
"""

import importlib

__version__ = "0.1.0"

#: The library modules, in the order their public names are listed.
_MODULES = ("lattice", "hamiltonians", "scattering", "edge", "chern", "optics",
            "disorder", "qsh")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    """Load a module, ``__all__`` or a public name on first use (PEP 562)."""
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        # Each module's __all__ is the one list of its public names.
        value = ["__version__"] + [n for m in _MODULES for n in _module(m).__all__]
    else:
        # Modules load in list order until one exports the name.
        owner = next((m for m in _MODULES if name in _module(m).__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(_module(owner), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULES) | set(__getattr__("__all__")))
