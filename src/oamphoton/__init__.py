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

Units: the inter-cavity coupling is the energy unit; phases are given in
cycles (one cycle = 2*pi radians) unless a docstring says otherwise.
"""

from . import chern, disorder, edge, hamiltonians, lattice, optics, qsh, scattering
from .lattice import *  # noqa: F401,F403
from .hamiltonians import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .edge import *  # noqa: F401,F403
from .chern import *  # noqa: F401,F403
from .optics import *  # noqa: F401,F403
from .disorder import *  # noqa: F401,F403
from .qsh import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__"] + [
    name
    for module in (lattice, hamiltonians, scattering, edge, chern, optics, disorder, qsh)
    for name in module.__all__
]
