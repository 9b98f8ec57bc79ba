"""Edge-state transport: maps, OAM displacement, and the cylinder-chain oracle.

The central observable is the average OAM displacement

``l_bar = sum_{j in region} sum_{outputs} |T_{(j,0) -> (j_o, l_o)}|^2 * l_o``,

with one probe entering each edge-region column at OAM 0 and the output sum
running over the whole lattice (both polarizations when present).  In a bulk
gap the displacement is quantized by the chiral edge modes; those modes are
independently available from the one-dimensional cylinder chain obtained by
Fourier transform along a periodic OAM axis, which also yields their group
velocities and an analytic prediction for the in-gap transmission profile.

An edge map (:func:`transmission_map`) is the power from one input mode to
every lattice mode at one frequency.  On the polarization-pair lattice, one
map per input polarization together with
:func:`~oamphoton.qsh.edge_confined_weight` certifies the phase transition:
the two maps displace in opposite OAM directions on the gapped side, and
their edge weight collapses past the gap closing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, SiteIndex, flat_index, l_of_index
from .optics import _refine_brackets
from .hamiltonians import HamiltonianMatrix
from .scattering import DecaySpec, Resolvent
# Unused here, but perfbench/spans.py patches these names when tracing.
from .scattering import spectral_factorization, transmission  # noqa: F401

__all__ = [
    "Side",
    "EdgeRegion",
    "EdgeMode",
    "EdgeModeSet",
    "transmission_map",
    "displacement_spectrum",
    "harper_edge_modes",
    "analytic_gap_transmission",
]


class Side(enum.Enum):
    """Which open boundary of the cavity axis a region or mode belongs to."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class EdgeRegion:
    """Edge-region probes: ``depth`` cavity columns on one side.

    On the RIGHT side (with this package's hop-phase sign conventions) the
    in-gap displacement below the spectrum center comes out positive; the
    LEFT region gives the same magnitudes with the opposite sign.
    :meth:`ports` names the probe modes at one input OAM; the displacement
    spectrum and the Monte Carlo driver both take their ports from it.
    """

    side: Side
    depth: int

    def columns(self, spec: LatticeSpec) -> list[int]:
        """The cavity columns this region comprises."""
        if not 1 <= self.depth <= spec.n_x // 2:
            raise ValueError(
                f"depth {self.depth} outside [1, {spec.n_x // 2}] for n_x={spec.n_x}"
            )
        if self.side is Side.LEFT:
            return list(range(self.depth))
        return list(range(spec.n_x - self.depth, spec.n_x))

    def ports(self, spec: LatticeSpec, input_l: int) -> list[int]:
        """Flat indices of the probes entering at OAM ``input_l``.

        One per region column and polarization, cavity-major, then
        polarization.
        """
        return [flat_index(spec, SiteIndex(j, input_l, s))
                for j in self.columns(spec) for s in range(spec.spin_dim)]


def transmission_map(
    H: HamiltonianMatrix,
    decay: DecaySpec,
    omega: float,
    input: SiteIndex,
) -> np.ndarray:
    """Transmitted power ``|T|^2`` from one edge input to every lattice mode.

    Returns shape ``(n_x, n_l)`` for scalar lattices and
    ``(n_x, n_l, spin_dim)`` for spinful ones.  The input must sit in an
    edge column.
    """
    spec = H.spec
    if input.j not in (0, spec.n_x - 1):
        raise ValueError(f"input column {input.j} is not an edge cavity")
    engine = Resolvent(H, decay)
    amplitudes = engine.transmission(omega, [flat_index(spec, input)])
    engine.log("one frequency, one edge input")
    grid = (np.abs(amplitudes[:, 0]) ** 2).reshape(spec.n_x, spec.n_l, spec.spin_dim)
    return grid[:, :, 0] if spec.spin_dim == 1 else grid


def displacement_spectrum(
    H: HamiltonianMatrix,
    decay: DecaySpec,
    omega_grid: np.ndarray,
    region: EdgeRegion,
    input_l: int = 0,
) -> np.ndarray:
    """Average OAM displacement for probes entering one edge region.

    Sums ``|T|^2 * l_o`` over all output modes, for one input per region
    column and polarization at OAM ``input_l``, at each frequency of
    ``omega_grid``.  Every region input shares one
    :class:`~oamphoton.scattering.Resolvent` sweep per frequency.
    """
    spec = H.spec
    omega_grid = np.asarray(omega_grid, dtype=float)
    in_rows = region.ports(spec, input_l)
    engine = Resolvent(H, decay)
    out = engine.transmitted_power(omega_grid, in_rows, l_of_index(spec))
    engine.log(f"{omega_grid.size} frequencies, {len(in_rows)} region ports")
    return out


@dataclass(frozen=True)
class EdgeMode:
    """One chiral edge branch at the probe frequency.

    ``ky`` is the resonant transverse momentum (radians per OAM step),
    ``velocity`` the group velocity dE/dky, ``side`` the localization
    side, ``weight`` the profile weight on that side's outer columns, and
    ``profile`` the cavity-axis amplitude vector.
    """

    ky: float
    velocity: float
    side: Side
    weight: float
    profile: np.ndarray


@dataclass(frozen=True)
class EdgeModeSet:
    """All edge branches resonant within the selection window at one omega."""

    omega: float
    modes: tuple[EdgeMode, ...]

    def on_side(self, side: Side) -> list[EdgeMode]:
        return [m for m in self.modes if m.side is side]

    def predicted_displacement(self, side: Side) -> int:
        """Net chirality ``sum_m sgn(v_m)`` of this side's branches.

        Equals the in-gap OAM displacement measured with probes on the
        same side (rounded), by bulk-boundary correspondence.
        """
        return int(sum(np.sign(m.velocity) for m in self.on_side(side)))


def _harper_matrix(phi0: float, n_x: int, ky: np.ndarray | float) -> np.ndarray:
    """The cylinder-chain matrices, shape ``np.shape(ky) + (n_x, n_x)``."""
    js = np.arange(n_x)
    m = np.zeros(np.shape(ky) + (n_x, n_x))
    m[..., js, js] = -2.0 * np.cos(np.asarray(ky)[..., None] - 2.0 * np.pi * js * phi0)
    m[..., js[1:], js[:-1]] = m[..., js[:-1], js[1:]] = -1.0
    return m


def harper_edge_modes(
    phi0: float,
    n_x: int,
    omega: float,
    gamma: float,
    ky_grid: np.ndarray | None = None,
) -> EdgeModeSet:
    """Edge branches of the cylinder chain resonant at ``omega``.

    Diagonalizes the ``n_x`` x ``n_x`` transverse-momentum chain
    ``-(psi_{j+1} + psi_{j-1}) - 2 cos(ky - 2*pi*j*phi0) psi_j = E psi_j``
    over the whole ``ky`` grid in one stacked call, and locates every
    branch crossing ``E_n(ky) = omega`` of a branch that comes within
    ``gamma`` of ``omega``, ordered by branch, then by ``ky``.  The grid
    must be strictly increasing.  Each crossing is bracketed by the two
    samples it lies between; the last sample is paired with the first
    (at ``ky_grid[0] + 2*pi``) only when the grid covers one period, that
    is when the arc from its last sample round to its first is positive
    and no wider than its widest step.  All crossings are refined
    together, eightfold per step, for 20 steps: the final bracket is
    ``8**-20`` of a grid step, below ``optics.ROOT_TOL`` and at the float
    spacing of ``ky``.  Each crossing within the window
    ``|E - omega| < gamma`` is classified by the localization side of its
    profile (weight > 0.5 on the outer 20% of columns; unlocalized
    branches are dropped).  Group velocities come from a centered
    difference with step ``2*pi/512``.
    """
    if ky_grid is None:
        ky_grid = np.linspace(-np.pi, np.pi, 513)[:-1]
    ky_grid = np.asarray(ky_grid, dtype=float)
    if ky_grid.ndim != 1 or ky_grid.size < 2 or not np.all(np.diff(ky_grid) > 0.0):
        raise ValueError("ky_grid must be a strictly increasing 1-D grid of at least 2 points")
    dky = 2.0 * np.pi / 512.0
    f = np.linalg.eigvalsh(_harper_matrix(phi0, n_x, ky_grid)).T - omega
    gap = ky_grid[0] + 2.0 * np.pi - ky_grid[-1]
    if 0.0 < gap <= np.diff(ky_grid).max() * (1.0 + 1e-9):
        ky_ends = np.append(ky_grid, ky_grid[0] + 2.0 * np.pi)
        f_ends = np.column_stack([f, f[:, 0]])
    else:
        ky_ends, f_ends = ky_grid, f
    near = np.abs(f).min(axis=1) < gamma
    crossing = (f_ends[:, :-1] == 0.0) | (f_ends[:, :-1] * f_ends[:, 1:] < 0.0)
    branch, a = np.nonzero(near[:, None] & crossing)

    def level(ky: np.ndarray) -> np.ndarray:
        """``E_n(ky) - omega`` on branch ``branch[i]`` at the points ``ky[i]``."""
        evals = np.linalg.eigvalsh(_harper_matrix(phi0, n_x, ky))
        return np.take_along_axis(evals, branch[:, None, None], axis=2)[..., 0] - omega

    ky_star = _refine_brackets(level, ky_ends[a], ky_ends[a + 1], f[branch, a], 20)
    rows = np.arange(branch.size)
    evals, evecs = np.linalg.eigh(_harper_matrix(phi0, n_x, ky_star))
    profiles = evecs[rows, :, branch]
    shifted = np.linalg.eigvalsh(
        _harper_matrix(phi0, n_x, ky_star[:, None] + np.array([dky, -dky]))
    )
    velocity = (shifted[rows, 0, branch] - shifted[rows, 1, branch]) / (2.0 * dky)
    n_outer = max(1, int(np.ceil(0.2 * n_x)))
    w_left = np.sum(np.abs(profiles[:, :n_outer]) ** 2, axis=1)
    w_right = np.sum(np.abs(profiles[:, -n_outer:]) ** 2, axis=1)
    left = w_left > 0.5
    weight = np.where(left, w_left, w_right)
    keep = (np.abs(evals[rows, branch] - omega) < gamma) & (weight > 0.5)
    modes = tuple(
        EdgeMode(float(k), float(v), Side.LEFT if on_left else Side.RIGHT, float(w), p)
        for k, v, on_left, w, p in zip(ky_star[keep], velocity[keep], left[keep],
                                       weight[keep], profiles[keep])
    )
    return EdgeModeSet(omega=omega, modes=modes)


def analytic_gap_transmission(
    mode_set: EdgeModeSet,
    gamma: float,
    l_o_values: np.ndarray,
    side: Side | None = None,
) -> np.ndarray:
    """In-gap transmission along the edge from the resonant-mode expansion.

    ``T(l_o) = -|psi_m[j]|^2 (gamma/v_m) Theta(l_o/v_m)
    exp(-(gamma/2)(l_o/v_m)) exp(i ky_m l_o)``,

    summed over one side's branches, with input and output on that side's
    outer column ``j``.  The step function enforces chirality
    (half weight exactly at ``l_o = 0``); every branch must have nonzero
    group velocity.
    """
    sides = {m.side for m in mode_set.modes}
    if side is None:
        if len(sides) != 1:
            raise ValueError("modes from both sides present; pass the side to use")
        side = next(iter(sides))
    modes = mode_set.on_side(side)
    if any(m.velocity == 0.0 for m in modes):
        raise ValueError("zero group velocity: analytic form invalid at a band edge")
    j = 0 if side is Side.LEFT else -1
    l_o_values = np.asarray(l_o_values, dtype=float)
    out = np.zeros(l_o_values.shape, dtype=complex)
    for m in modes:
        ratio = l_o_values / m.velocity
        step = np.where(ratio > 0, 1.0, np.where(ratio == 0, 0.5, 0.0))
        out -= (
            m.profile[j]
            * np.conj(m.profile[j])
            * (gamma / m.velocity)
            * step
            * np.exp(-0.5 * gamma * ratio)
            * np.exp(1j * m.ky * l_o_values)
        )
    return out
