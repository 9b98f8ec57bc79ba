"""Phase study of the polarization-pair lattice: gap scans and edge maps.

The spin lattice built by :func:`~oamphoton.hamiltonians.build_qsh` gives
its two polarization components opposite synthetic flux, offset by a
tunable ``beta0`` (in cycles).  Sweeping ``beta0`` closes and reopens the
bulk band gap near the probe frequency; across the closing, the pair of
counter-propagating polarized edge states present on the open side
disappears.  This module certifies that transition by direct measurement:

* :func:`qsh_gap_scan` tracks the bulk gap containing a target frequency
  from the four-cavity Bloch cell on the torus,
* :func:`polarized_edge_maps` probes the open-boundary lattice with one
  input per polarization and reports each map's OAM displacement and
  edge-confined transmitted weight,
* :func:`transition_detector` locates the gap-closing ``beta0`` on a grid.

No topological index is computed here; the phase distinction is certified
by gap reopening together with the presence or absence of edge transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .edge import EdgeRegion, Side, transmission_maps
from .hamiltonians import HamiltonianMatrix, build_qsh
from .lattice import Boundary, LatticeSpec, SiteIndex
from .scattering import DecaySpec

__all__ = [
    "GapReport",
    "PolarizedEdgeMaps",
    "TransitionEstimate",
    "edge_confined_weight",
    "polarized_edge_maps",
    "qsh_gap_scan",
    "transition_detector",
    "DEFAULT_ENERGY_TARGET",
    "GAP_K_SAMPLES",
    "FRAME_DEPTH",
    "INPUT_EXCLUSION_RADIUS",
    "PROBE_DEPTH",
]

TWO_PI = 2.0 * np.pi

#: Default frequency around which gaps are tracked (units of the coupling).
DEFAULT_ENERGY_TARGET = -1.6

#: Default number of Bloch-momentum samples per axis in gap scans.
GAP_K_SAMPLES = 96

#: Edge-confined weight counts modes within this many sites of an open boundary.
FRAME_DEPTH = 2

#: ... excluding modes within this Chebyshev distance of the input port.
INPUT_EXCLUSION_RADIUS = 3

#: Polarized OAM displacements sum over this many input-side cavity columns.
PROBE_DEPTH = 4


@dataclass(frozen=True)
class GapReport:
    """One bulk-gap measurement: the spectral gap containing a target energy.

    ``(e_low, e_high)`` brackets the target between the nearest computed
    torus levels below and above it; ``width`` is their separation.  When
    the bulk gap at the target is open, the window is that gap; when the
    target falls inside a band, the window degenerates to a level spacing
    of the sampled spectrum and the width is resolution-limited.
    """

    beta0: float
    e_low: float
    e_high: float
    energy_target: float

    def __post_init__(self) -> None:
        for name in ("beta0", "e_low", "e_high", "energy_target"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.e_high < self.e_low:
            raise ValueError(
                f"gap window must satisfy e_low <= e_high "
                f"(got [{self.e_low}, {self.e_high}])"
            )
        if self.width > 0 and not self.e_low <= self.energy_target <= self.e_high:
            raise ValueError(
                f"gap window [{self.e_low}, {self.e_high}] does not contain "
                f"the target energy {self.energy_target}"
            )

    @property
    def width(self) -> float:
        """Gap width ``e_high - e_low`` (nonnegative by construction)."""
        return self.e_high - self.e_low


@dataclass(frozen=True)
class TransitionEstimate:
    """Grid-resolution estimate of the gap-closing ``beta0``."""

    beta0: float
    uncertainty: float
    reports: tuple[GapReport, ...] = field(repr=False)


@dataclass(frozen=True)
class PolarizedEdgeMaps:
    """Edge transmission maps for the two input polarizations.

    ``maps[s]`` is the ``(n_x, n_l, 2)`` transmitted-power grid for the
    input at cavity 0, OAM 0, polarization ``s``; ``displacements[s]``
    and ``edge_weights[s]`` are the corresponding power-weighted OAM
    displacement over the input-side columns and the edge-confined
    transmitted weight (input neighborhood excluded).
    """

    beta0: float
    omega: float
    maps: tuple[np.ndarray, np.ndarray] = field(repr=False)
    displacements: tuple[float, float]
    edge_weights: tuple[float, float]


def _cell_bloch(kx: np.ndarray, ky: np.ndarray, beta0: float,
                lambda0: float) -> np.ndarray:
    """Bloch matrices of the four-cavity unit cell, batched over momenta.

    ``kx``/``ky`` are flat arrays of equal length; the result has shape
    ``(len(kx), 8, 8)`` in the basis (cavity-in-cell, polarization).
    ``kx`` is the per-cavity momentum, so the cell dispersion has period
    ``pi/2`` in ``kx`` and ``2 pi`` in ``ky``.
    """
    kx = np.atleast_1d(np.asarray(kx, dtype=float))
    ky = np.atleast_1d(np.asarray(ky, dtype=float))
    H = np.zeros((kx.shape[0], 8, 8), dtype=complex)
    ex = np.exp(-1j * kx)
    ey = np.exp(-1j * ky)
    for jc in range(4):
        theta = np.pi * jc / 2 + TWO_PI * beta0
        onsite = lambda0 * ((jc % 4) - 1.5)
        b = 2 * jc
        # OAM-axis hops are diagonal in polarization with opposite phases.
        H[:, b, b] = -2.0 * np.real(ey * np.exp(1j * theta)) + onsite
        H[:, b + 1, b + 1] = -2.0 * np.real(ey * np.exp(-1j * theta)) + onsite
        # Cavity-axis hop carries i sigma_x (polarization flip).
        a = 2 * ((jc + 1) % 4)
        H[:, a, b + 1] += -1j * ex
        H[:, a + 1, b] += -1j * ex
        H[:, b, a + 1] += 1j * np.conj(ex)
        H[:, b + 1, a] += 1j * np.conj(ex)
    return H


def _torus_levels(beta0: float, lambda0: float, k_samples: int) -> np.ndarray:
    """Sorted torus spectrum of the cell, sampled on a uniform k-grid."""
    kx = np.linspace(0.0, np.pi / 2, k_samples, endpoint=False)
    ky = np.linspace(0.0, TWO_PI, k_samples, endpoint=False)
    KX, KY = np.meshgrid(kx, ky, indexing="ij")
    H = _cell_bloch(KX.ravel(), KY.ravel(), beta0, lambda0)
    return np.sort(np.linalg.eigvalsh(H), axis=None)


def _validate_cell_structure(spec: LatticeSpec) -> None:
    if spec.spin_dim != 2:
        raise ValueError(
            f"polarization-pair analysis needs spin_dim=2, got {spec.spin_dim}"
        )
    if spec.n_x % 4 != 0:
        raise ValueError(
            f"cavity count must be a multiple of 4 (four-cavity unit cell), "
            f"got n_x={spec.n_x}"
        )


def qsh_gap_scan(
    spec: LatticeSpec,
    lambda0: float,
    beta0_list: Sequence[float],
    energy_target: float = DEFAULT_ENERGY_TARGET,
    *,
    k_samples: int = GAP_K_SAMPLES,
) -> list[GapReport]:
    """Track the bulk gap containing ``energy_target`` versus ``beta0``.

    The scan characterizes the translation-invariant bulk of the lattice
    described by ``spec`` (which must have the four-cavity cell structure
    intact), so the boundary conditions and OAM window of ``spec`` do not
    enter; each report brackets the target between the nearest torus
    levels below and above it.
    """
    _validate_cell_structure(spec)
    if not np.isfinite(lambda0):
        raise ValueError("lambda0 must be finite")
    if not np.isfinite(energy_target):
        raise ValueError("energy target must be finite")
    if k_samples < 4:
        raise ValueError(f"k_samples must be at least 4, got {k_samples}")
    betas = [float(b) for b in beta0_list]
    if not betas:
        raise ValueError("beta0_list must not be empty")
    if not all(np.isfinite(b) for b in betas):
        raise ValueError("beta0 values must be finite")

    reports = []
    for beta0 in betas:
        levels = _torus_levels(beta0, lambda0, k_samples)
        i = int(np.searchsorted(levels, energy_target))
        if i == 0 or i == levels.size:
            raise ValueError(
                f"energy target {energy_target} lies outside the computed "
                f"spectrum [{levels[0]:.4f}, {levels[-1]:.4f}]"
            )
        reports.append(
            GapReport(
                beta0=beta0,
                e_low=float(levels[i - 1]),
                e_high=float(levels[i]),
                energy_target=float(energy_target),
            )
        )
    return reports


def edge_confined_weight(
    spec: LatticeSpec,
    grid: np.ndarray,
    input: SiteIndex,
    *,
    depth: int = FRAME_DEPTH,
    exclusion_radius: int = INPUT_EXCLUSION_RADIUS,
) -> float:
    """Transmitted weight within ``depth`` sites of an open boundary.

    Sums the power grid over the boundary frame, excluding everything
    within Chebyshev distance ``exclusion_radius`` of the input port so
    that direct illumination of the input's neighborhood does not count
    as transported weight.  Distances respect each axis's boundary
    closure (periodic axes wrap and contribute no frame).
    """
    if depth < 1:
        raise ValueError(f"frame depth must be at least 1, got {depth}")
    if exclusion_radius < 0:
        raise ValueError(
            f"exclusion radius must be nonnegative, got {exclusion_radius}"
        )
    grid = np.asarray(grid)
    if grid.shape[:2] != (spec.n_x, spec.n_l) or grid.ndim not in (2, 3):
        raise ValueError(
            f"grid shape {grid.shape} does not match the lattice "
            f"({spec.n_x}, {spec.n_l}[, spin])"
        )

    js = np.arange(spec.n_x)[:, None]
    il = np.arange(spec.n_l)[None, :]
    frame = np.zeros((spec.n_x, spec.n_l), dtype=bool)
    if spec.bc_x is Boundary.OPEN:
        frame |= (js < depth) | (js >= spec.n_x - depth)
    if spec.bc_y is Boundary.OPEN:
        frame |= (il < depth) | (il >= spec.n_l - depth)

    dj = np.abs(js - input.j)
    if spec.bc_x is Boundary.PERIODIC:
        dj = np.minimum(dj, spec.n_x - dj)
    dl = np.abs(il - (input.l - spec.l_min))
    if spec.bc_y is Boundary.PERIODIC:
        dl = np.minimum(dl, spec.n_l - dl)
    keep = frame & (np.maximum(dj, dl) > exclusion_radius)

    if grid.ndim == 3:
        keep = keep[:, :, None]
    return float(np.sum(grid, where=keep, initial=0.0))


def _probe_displacement(grid: np.ndarray, spec: LatticeSpec,
                        columns: Sequence[int]) -> float:
    """Power-weighted OAM sum over the given cavity columns (all spins)."""
    ls = np.asarray(spec.l_values, dtype=float)
    sub = grid[np.asarray(columns)]
    return float(np.sum(sub * ls[None, :, None]))


def _scaled_coupling(H: HamiltonianMatrix, coupling: float) -> HamiltonianMatrix:
    """Rescale every hop amplitude, leaving the on-site terms unchanged."""
    values = np.where(H.rows != H.cols, H.values * coupling, H.values)
    return HamiltonianMatrix.from_entries(H.spec, H.rows, H.cols, values)


def polarized_edge_maps(
    spec: LatticeSpec,
    beta0: float,
    lambda0: float,
    decay: DecaySpec,
    omega: float = DEFAULT_ENERGY_TARGET,
    *,
    coupling: float = 1.0,
) -> PolarizedEdgeMaps:
    """Probe the lattice edge in both input polarizations.

    Sends a probe into cavity 0 at OAM 0 with polarization ``s`` for
    each ``s`` in (0, 1), both from one resolvent sweep, and collects the
    transmitted-power grid, its OAM displacement over the
    :data:`PROBE_DEPTH` input-side columns, and its edge-confined weight.
    On the gapped side of the transition the two displacements have
    opposite signs (counter-propagating polarized edge states); past it the
    edge weight collapses.

    ``coupling`` rescales every hop amplitude relative to the nominal
    coupling; ``0`` gives the decoupled-cavity limit, where each map is
    a single point at its input.
    """
    if spec.spin_dim != 2:
        raise ValueError(
            f"polarized edge maps need spin_dim=2, got {spec.spin_dim}"
        )
    if spec.bc_x is not Boundary.OPEN:
        raise ValueError("edge maps need an open cavity axis (bc_x=OPEN)")
    if not spec.l_min <= 0 <= spec.l_max:
        raise ValueError(
            f"the probe enters at OAM 0, outside the window "
            f"[{spec.l_min}, {spec.l_max}]"
        )
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    if not np.isfinite(coupling) or coupling < 0:
        raise ValueError(f"coupling must be a nonnegative number, got {coupling}")

    H = build_qsh(spec, beta0, lambda0)
    if coupling != 1.0:
        H = _scaled_coupling(H, coupling)
    columns = EdgeRegion(Side.LEFT, PROBE_DEPTH).columns(spec)

    inputs = [SiteIndex(0, 0, s) for s in (0, 1)]
    maps = transmission_maps(H, decay, omega, inputs)
    displacements = [_probe_displacement(grid, spec, columns) for grid in maps]
    weights = [edge_confined_weight(spec, grid, input)
               for grid, input in zip(maps, inputs)]
    return PolarizedEdgeMaps(
        beta0=float(beta0),
        omega=float(omega),
        maps=(maps[0], maps[1]),
        displacements=(displacements[0], displacements[1]),
        edge_weights=(weights[0], weights[1]),
    )


def transition_detector(
    spec: LatticeSpec,
    lambda0: float,
    beta0_grid: Sequence[float],
    energy_target: float = DEFAULT_ENERGY_TARGET,
    *,
    k_samples: int = GAP_K_SAMPLES,
) -> TransitionEstimate:
    """Locate the ``beta0`` that minimizes the bulk gap on a grid.

    Scans ``beta0_grid`` with :func:`qsh_gap_scan` and returns the grid
    point of minimum gap width (see :func:`_locate_transition`), with the
    local grid spacing as the uncertainty; refining the grid tightens the
    estimate accordingly.
    """
    grid = np.asarray(list(beta0_grid), dtype=float)
    if grid.size < 3:
        raise ValueError(
            f"need at least 3 grid points to bracket a minimum, got {grid.size}"
        )
    if not np.all(np.diff(grid) > 0):
        raise ValueError("beta0 grid must be strictly increasing")

    return _locate_transition(
        qsh_gap_scan(spec, lambda0, grid, energy_target, k_samples=k_samples)
    )


def _locate_transition(reports: Sequence[GapReport]) -> TransitionEstimate:
    """The minimum gap width of a scan over a strictly increasing grid.

    The minimum must be interior: a width profile that is monotone toward
    an endpoint means the grid does not bracket the closing, and raises
    ``ValueError``.
    """
    grid = np.array([r.beta0 for r in reports])
    i = int(np.argmin([r.width for r in reports]))
    if i == 0 or i == grid.size - 1:
        raise ValueError(
            f"no local minimum in the scanned range [{grid[0]}, {grid[-1]}]: "
            f"gap width is smallest at an endpoint"
        )
    return TransitionEstimate(
        beta0=float(grid[i]),
        uncertainty=float(max(grid[i] - grid[i - 1], grid[i + 1] - grid[i])),
        reports=tuple(reports),
    )
