"""Monte-Carlo disorder studies of the edge transport observable.

Fabrication imperfections enter as Gaussian perturbations of the lattice:
cavity resonance detunings, coupling-amplitude and coupling-phase errors
on the hops, and photon-loss imbalance between OAM modes.  The model
distinguishes three draw granularities (:class:`DisorderScope`):

* ``PER_CAVITY_LINK`` -- one coupling draw per cavity-axis link
  ``j -> j+1`` (the physical splitter is shared by every OAM mode
  crossing it); detunings are drawn per cavity.
* ``PER_OAM_LINK`` -- one coupling draw per OAM-axis link ``(j, l -> l+1)``,
  with the optional OAM envelope evaluated at the link midpoint
  ``l + 1/2`` scaling the error size; detunings are drawn per cavity.
* ``PER_SITE`` -- detunings drawn per lattice site; coupling errors are
  not defined at this granularity and are rejected.

Coupling errors are rejected, too, on a periodic perturbed axis shorter
than three sites: there a link is the diagonal (one site) or shares its
matrix entry with the link back (two sites), so one link's error has no
entry of its own.

The optional envelope also scales the per-mode loss imbalance (evaluated
at the mode's own ``l``); it never touches cavity-axis links or
detunings.  :func:`saturating_oam_envelope` provides the standard choice
``1 - exp(-(x/width)**2)``, vanishing at ``l = 0`` and saturating at 1
for ``|l|`` well beyond ``width``.

Randomness is counter-based for reproducibility: every consumer accepts
either an integer seed (one ``Philox`` stream) or a ready
``numpy.random.Generator``; the Monte-Carlo driver derives stream ``t``
for trial ``t`` with ``Philox(key=seed).jumped(t)``, so results are
independent of execution order and bitwise reproducible.

Coupling-phase sigmas are in radians (an angle error of the physical
element), unlike the gauge phases elsewhere in the package, which are in
cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hamiltonians import HamiltonianMatrix
from .lattice import Boundary, LatticeSpec, l_of_index
from .scattering import DecaySpec, Resolvent, _trials_per_chunk
from .edge import EdgeRegion
# Unused here, but perfbench/spans.py patches this name when tracing.
from .edge import displacement_spectrum  # noqa: F401

__all__ = [
    "DisorderScope",
    "DisorderModel",
    "MonteCarloSummary",
    "saturating_oam_envelope",
    "sample_disordered_hamiltonian",
    "loss_perturbed_decay",
    "displacement_robustness",
]

#: Attempts allowed for redrawing a loss vector before giving up.
MAX_LOSS_RESAMPLES = 100


class DisorderScope(enum.Enum):
    """Granularity at which disorder draws are made (see module docstring)."""

    PER_CAVITY_LINK = "per_cavity_link"
    PER_OAM_LINK = "per_oam_link"
    PER_SITE = "per_site"


def saturating_oam_envelope(x, width: float = 30.0):
    """Error envelope ``1 - exp(-(x/width)**2)``: zero at 0, saturating at 1.

    Models imperfections that grow with the OAM index and level off once
    ``|x|`` passes ``width``; e.g. ``width=30`` gives ``~2.8e-4`` at the
    first link midpoint ``x = 0.5`` and ``~0.895`` at ``x = 45``.
    """
    if width <= 0:
        raise ValueError(f"envelope width must be positive, got {width!r}")
    return 1.0 - np.exp(-np.square(np.asarray(x, dtype=float) / width))


@dataclass(frozen=True)
class DisorderModel:
    """Gaussian disorder strengths, their granularity, and the OAM envelope.

    ``sigma_detuning`` is the resonance-shift scale in coupling units;
    ``sigma_coupling_mag`` the relative coupling-amplitude error;
    ``sigma_coupling_phase`` the coupling-phase error in radians;
    ``sigma_loss`` the relative loss imbalance used by
    :func:`loss_perturbed_decay`.  ``oam_envelope`` (if given) must map
    real arrays into ``[0, 1]``.
    """

    sigma_detuning: float = 0.0
    sigma_coupling_mag: float = 0.0
    sigma_coupling_phase: float = 0.0
    sigma_loss: float = 0.0
    oam_envelope: Callable[[np.ndarray], np.ndarray] | None = None
    scope: DisorderScope = DisorderScope.PER_CAVITY_LINK

    def __post_init__(self) -> None:
        for name in (
            "sigma_detuning",
            "sigma_coupling_mag",
            "sigma_coupling_phase",
            "sigma_loss",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        if not isinstance(self.scope, DisorderScope):
            raise ValueError(f"scope must be a DisorderScope member, got {self.scope!r}")
        if self.scope is DisorderScope.PER_SITE and (
            self.sigma_coupling_mag > 0.0 or self.sigma_coupling_phase > 0.0
        ):
            raise ValueError(
                "coupling perturbations need a link scope (PER_CAVITY_LINK or "
                "PER_OAM_LINK); PER_SITE draws only detunings"
            )

    # -- presets ----------------------------------------------------------

    @classmethod
    def cavity_detuning(cls, sigma: float) -> "DisorderModel":
        """Resonance-shift disorder only: one draw per cavity."""
        return cls(sigma_detuning=sigma)

    @classmethod
    def oam_link_errors(
        cls,
        sigma_mag: float = 0.05,
        sigma_loss: float = 0.02,
        width: float = 30.0,
    ) -> "DisorderModel":
        """OAM-coupling amplitude errors plus loss imbalance, both enveloped."""
        return cls(
            sigma_coupling_mag=sigma_mag,
            sigma_loss=sigma_loss,
            oam_envelope=lambda x: saturating_oam_envelope(x, width),
            scope=DisorderScope.PER_OAM_LINK,
        )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Mean and sample standard deviation of the displacement over trials."""

    omega_grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    trials: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("omega_grid", "mean", "std"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if not (self.omega_grid.shape == self.mean.shape == self.std.shape):
            raise ValueError("omega_grid, mean and std must share one shape")
        if np.any(self.std < 0.0):
            raise ValueError("standard deviations must be nonnegative")


def _generator(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=seed))


def _envelope_values(model: DisorderModel, x: np.ndarray) -> np.ndarray:
    if model.oam_envelope is None:
        return np.ones(np.shape(x))
    values = np.asarray(model.oam_envelope(np.asarray(x, dtype=float)), dtype=float)
    if values.shape != np.shape(x):
        raise ValueError("oam_envelope must evaluate elementwise, shape preserved")
    if np.any(values < 0.0) or np.any(values > 1.0 + 1e-12):
        raise ValueError("oam_envelope values must lie in [0, 1]")
    return values


def _check_base(H: HamiltonianMatrix) -> None:
    if not isinstance(H, HamiltonianMatrix):
        raise TypeError(f"the base Hamiltonian must be a HamiltonianMatrix, "
                        f"got {type(H).__name__}")


def _link_entries(spec: LatticeSpec, scope: DisorderScope, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify matrix entries ``(rows, cols)`` by the link the scope perturbs.

    Returns ``(forward, backward, link)``: whether each entry lies on the
    ``dst <- src`` hop of a link along the perturbed axis (cavity links
    ``j -> j+1`` or OAM links ``l -> l+1``), whether it lies on the
    Hermitian partner of one, and the link's index in the flattened draw
    array (meaningful where ``forward``).
    """
    j_r, il_r = np.divmod(rows // spec.spin_dim, spec.n_l)
    j_c, il_c = np.divmod(cols // spec.spin_dim, spec.n_l)
    if scope is DisorderScope.PER_CAVITY_LINK:
        length, bc = spec.n_x, spec.bc_x
        same, step, link = il_r == il_c, j_r - j_c, j_c
    else:
        length, bc = spec.n_l, spec.bc_y
        same, step, link = j_r == j_c, il_r - il_c, j_c * spec.n_l + il_c
    back = -1
    if bc is Boundary.PERIODIC:
        step, back = step % length, length - 1
    return same & (step == 1), same & (step == back), link


def _check_coupling_axis(spec: LatticeSpec, model: DisorderModel) -> None:
    """Reject coupling errors on a periodic perturbed axis shorter than 3.

    There a link is the diagonal (one site) or shares its matrix entry with
    the link back (two sites), so one link's error has no entry of its own.
    """
    if model.sigma_coupling_mag == 0.0 and model.sigma_coupling_phase == 0.0:
        return
    if model.scope is DisorderScope.PER_CAVITY_LINK:
        axis, length, bc = "cavity", spec.n_x, spec.bc_x
    else:
        axis, length, bc = "OAM", spec.n_l, spec.bc_y
    if bc is Boundary.PERIODIC and length < 3:
        raise ValueError(
            f"coupling errors need a periodic {axis} axis of at least 3 "
            f"sites, got {length}: its links share matrix entries"
        )


def sample_disordered_hamiltonian(
    H: HamiltonianMatrix,
    model: DisorderModel,
    seed: "int | np.random.Generator",
) -> HamiltonianMatrix:
    """One Gaussian-perturbed copy of the base Hamiltonian ``H``.

    Draw protocol (fixed, so a seed fully determines the sample): first
    the detuning normals, then the coupling-amplitude normals, then the
    coupling-phase normals, each of a shape set by the lattice and the
    scope, not by which sigmas are zero.  Each perturbed hop is scaled
    once by ``(1 + sigma_mag * F * z_mag) * exp(1j * sigma_phase * F *
    z_phase)`` and its Hermitian partner is rewritten as the conjugate,
    so the sample stays exactly Hermitian.  With every sigma zero the
    base matrix is returned bit-identically.

    A periodic perturbed axis shorter than three sites has no distinct
    link entries (its two links share one entry, or its link is the
    diagonal), so coupling errors on it raise ``ValueError`` before any
    draw.
    """
    _check_base(H)
    spec = H.spec
    _check_coupling_axis(spec, model)
    rows, cols, values = H.rows, H.cols, H.values.copy()
    coupled = model.sigma_coupling_mag > 0.0 or model.sigma_coupling_phase > 0.0
    if coupled:  # the model admits coupling errors at link scopes only
        forward, backward, link = _link_entries(spec, model.scope, rows, cols)
    rng = _generator(seed)

    # detunings (drawn first, added to every diagonal entry of the unit)
    if model.scope is DisorderScope.PER_SITE:
        draws = rng.standard_normal(spec.n_x * spec.n_l)
        shifts = np.repeat(model.sigma_detuning * draws, spec.spin_dim)
    else:
        draws = rng.standard_normal(spec.n_x)
        shifts = np.repeat(model.sigma_detuning * draws, spec.n_l * spec.spin_dim)

    # couplings (magnitude draws, then phase draws, always in this order)
    links = {DisorderScope.PER_CAVITY_LINK: (spec.n_x,),
             DisorderScope.PER_OAM_LINK: (spec.n_x, spec.n_l)}.get(model.scope)
    if links is not None:
        mag = rng.standard_normal(links)
        phase = rng.standard_normal(links)
    if coupled:
        scale = 1.0
        if model.scope is DisorderScope.PER_OAM_LINK:
            scale = _envelope_values(model, spec.l_values + 0.5)[None, :]
        factors = (1.0 + model.sigma_coupling_mag * scale * mag) * np.exp(
            1j * model.sigma_coupling_phase * scale * phase
        )
        scaled = values[forward] * factors.reshape(-1)[link[forward]]
        values[forward] = scaled
        # Each partner entry is dropped and written anew as the conjugate.
        keep = ~backward
        rows, cols, values = (
            np.concatenate([rows[keep], cols[forward]]),
            np.concatenate([cols[keep], rows[forward]]),
            np.concatenate([values[keep], scaled.conj()]),
        )
    if model.sigma_detuning > 0.0:
        diagonal = np.arange(spec.dim)
        rows = np.concatenate([rows, diagonal])
        cols = np.concatenate([cols, diagonal])
        values = np.concatenate([values, shifts])
    return HamiltonianMatrix.from_entries(spec, rows, cols, values)


def loss_perturbed_decay(
    base_gamma: float,
    spec: LatticeSpec,
    model: DisorderModel,
    seed: "int | np.random.Generator",
) -> DecaySpec:
    """Per-mode decay rates ``gamma * (1 + sigma_loss * F(l) * z_n)``.

    The envelope is evaluated at each mode's own OAM index, so the
    ``l = 0`` modes keep exactly the base rate under the standard
    envelope.  A draw that would make any rate nonpositive is discarded
    and redrawn, up to :data:`MAX_LOSS_RESAMPLES` times.
    """
    if not base_gamma > 0.0:
        raise ValueError(f"base loss rate must be positive, got {base_gamma!r}")
    rng = _generator(seed)
    envelope = _envelope_values(model, l_of_index(spec).astype(float))
    for _ in range(MAX_LOSS_RESAMPLES):
        draws = rng.standard_normal(spec.dim)
        rates = base_gamma * (1.0 + model.sigma_loss * envelope * draws)
        if np.all(rates > 0.0):
            return DecaySpec.per_mode(rates)
    raise ValueError(
        f"could not draw positive loss rates in {MAX_LOSS_RESAMPLES} attempts; "
        f"sigma_loss={model.sigma_loss!r} is too large for base "
        f"gamma={base_gamma!r}"
    )


def displacement_robustness(
    H0: HamiltonianMatrix,
    model: DisorderModel,
    decay: DecaySpec,
    omega_grid: np.ndarray,
    region: EdgeRegion,
    trials: int = 100,
    seed: int = 0,
    input_l_values: Sequence[int] = (0,),
) -> MonteCarloSummary:
    """Monte-Carlo mean and spread of the edge OAM displacement.

    For each trial an independent ``Philox(key=seed).jumped(trial)``
    stream perturbs the Hamiltonian and, when ``sigma_loss > 0``, the
    decay rates; the displacement spectrum (as
    :func:`~oamphoton.edge.displacement_spectrum` computes it) is then
    averaged over the requested input OAM values (more than one models a
    source that is itself spread over OAM).  The power is linear in the
    inputs, so that average is the power of the region ports of every
    input OAM together, divided by their number.  Trials are sampled in
    order, in groups that fill one :class:`~oamphoton.scattering.Resolvent`
    chunk with all those ports; each group takes one engine call, with
    its (trial, frequency) pairs on the engine's batch axis.  Every row
    is reduced in the same order as a one-trial call, so the grouping
    does not change any bit.  Means and sample standard deviations
    (``ddof=1``) are taken trialwise in fixed order, so identical
    arguments give bitwise-identical summaries.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a spread, got {trials!r}")
    if not input_l_values:
        raise ValueError("input_l_values must name at least one input OAM")
    if model.sigma_loss > 0.0 and not decay.is_uniform:
        raise ValueError(
            "loss disorder perturbs a uniform base rate; supply a uniform "
            "DecaySpec when sigma_loss > 0"
        )
    _check_base(H0)
    spec = H0.spec
    omega_grid = np.asarray(omega_grid, dtype=float)
    ports = [row for input_l in input_l_values for row in region.ports(spec, input_l)]
    weights = l_of_index(spec)
    group = _trials_per_chunk(H0, len(ports), omega_grid.size)
    samples = np.empty((trials, omega_grid.size))
    for first in range(0, trials, group):
        batch = range(first, min(first + group, trials))
        Hs, decays = [], []
        for trial in batch:
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(trial))
            Hs.append(sample_disordered_hamiltonian(H0, model, rng))
            decays.append(loss_perturbed_decay(decay.gamma, spec, model, rng)
                          if model.sigma_loss > 0.0 else decay)
        engine = Resolvent(Hs, decays)
        power = engine.transmitted_power(omega_grid, ports, weights)
        engine.log(f"{len(batch)} trials x {omega_grid.size} frequencies, "
                   f"{len(ports)} region ports at {len(input_l_values)} input OAM")
        samples[batch.start:batch.stop] = power / len(input_l_values)
    return MonteCarloSummary(
        omega_grid=omega_grid,
        mean=samples.mean(axis=0),
        std=samples.std(axis=0, ddof=1),
        trials=trials,
        seed=seed,
    )
