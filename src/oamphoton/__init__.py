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

from .lattice import (
    Boundary,
    LatticeSpec,
    SiteIndex,
    column_of_index,
    flat_index,
    l_of_index,
    neighbors,
    site_of,
    spin_of_index,
)
from .hamiltonians import (
    DENSE_DIM_LIMIT,
    GaugeConfig,
    HamiltonianMatrix,
    SpinAxis,
    apply_onsite_disorder,
    build_dirac,
    build_landau_hofstadter,
    build_non_abelian,
    build_oam_gauge_hofstadter,
    build_qsh,
    jones_exp,
)
from .scattering import (
    DecaySpec,
    Resolvent,
    ScatteringResult,
    butterfly_scan,
    default_omega_grid,
    eig_transmission_vector,
    greens_apply,
    s_matrix_row,
    spectral_factorization,
    total_transmission_spectrum,
    transmission,
)
from .edge import (
    EdgeMode,
    EdgeModeSet,
    EdgeRegion,
    Side,
    analytic_gap_transmission,
    displacement_spectrum,
    harper_edge_modes,
    oam_displacement,
    transmission_map,
    transmission_maps,
)
from .chern import (
    BlochBandData,
    BZPartition,
    MagneticBZGrid,
    TransmissionBloch,
    auto_partition,
    band_gaps,
    band_structure,
    bloch_from_transmission,
    fukui_hatsugai_chern,
    magnetic_bloch_hamiltonian,
    phase_mismatch_chern,
)
from .optics import (
    OpticalParams,
    RayMatrix,
    bloch_dispersion,
    bs_transfer_matrix,
    coupling_strength,
    degenerate_mode_detuning,
    field_transfer_x,
    field_transfer_y,
)
from .disorder import (
    DisorderModel,
    DisorderScope,
    MonteCarloSummary,
    displacement_robustness,
    loss_perturbed_decay,
    sample_disordered_hamiltonian,
    saturating_oam_envelope,
)
from .qsh import (
    GapReport,
    PolarizedEdgeMaps,
    TransitionEstimate,
    edge_confined_weight,
    polarized_edge_maps,
    qsh_gap_scan,
    transition_detector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "Boundary",
    "LatticeSpec",
    "SiteIndex",
    "column_of_index",
    "flat_index",
    "l_of_index",
    "neighbors",
    "site_of",
    "spin_of_index",
    # hamiltonians
    "DENSE_DIM_LIMIT",
    "GaugeConfig",
    "HamiltonianMatrix",
    "SpinAxis",
    "apply_onsite_disorder",
    "build_dirac",
    "build_landau_hofstadter",
    "build_non_abelian",
    "build_oam_gauge_hofstadter",
    "build_qsh",
    "jones_exp",
    # scattering
    "DecaySpec",
    "Resolvent",
    "ScatteringResult",
    "butterfly_scan",
    "default_omega_grid",
    "eig_transmission_vector",
    "greens_apply",
    "s_matrix_row",
    "spectral_factorization",
    "total_transmission_spectrum",
    "transmission",
    # edge
    "EdgeMode",
    "EdgeModeSet",
    "EdgeRegion",
    "Side",
    "analytic_gap_transmission",
    "displacement_spectrum",
    "harper_edge_modes",
    "oam_displacement",
    "transmission_map",
    "transmission_maps",
    # chern
    "BlochBandData",
    "BZPartition",
    "MagneticBZGrid",
    "TransmissionBloch",
    "auto_partition",
    "band_gaps",
    "band_structure",
    "bloch_from_transmission",
    "fukui_hatsugai_chern",
    "magnetic_bloch_hamiltonian",
    "phase_mismatch_chern",
    # optics
    "OpticalParams",
    "RayMatrix",
    "bloch_dispersion",
    "bs_transfer_matrix",
    "coupling_strength",
    "degenerate_mode_detuning",
    "field_transfer_x",
    "field_transfer_y",
    # disorder
    "DisorderModel",
    "DisorderScope",
    "MonteCarloSummary",
    "displacement_robustness",
    "loss_perturbed_decay",
    "sample_disordered_hamiltonian",
    "saturating_oam_envelope",
    # qsh
    "GapReport",
    "PolarizedEdgeMaps",
    "TransitionEstimate",
    "edge_confined_weight",
    "polarized_edge_maps",
    "qsh_gap_scan",
    "transition_detector",
]
