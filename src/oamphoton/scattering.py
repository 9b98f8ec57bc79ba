"""Steady-state input-output transmission through the lattice.

A monochromatic drive entering one mode ``n`` at detuning ``omega`` leaves
the system through every mode ``n'`` with amplitude

``T_{n'n} = -i [sqrt(G) (omega - H + i G/2)^{-1} sqrt(G)]_{n'n}``,

where ``G = diag(gamma_n)`` collects the input/output coupling rates.  The
full scattering row adds the direct reflection ``delta_{n'n}``; for uniform
rates and Hermitian ``H`` that row is exactly unit norm.

Solvers: one resolvent engine, :class:`Resolvent`, serves every
consumer that needs few frequencies.  It stores ``-H + i G/2`` in CSC form
once per ``(H, decay)`` and, per frequency, factorizes ``omega - H + i G/2``
by sparse LU once for all input ports (one block right-hand side), with a
residual bound on every column.  A full frequency sweep at uniform decay on
a dense ``H`` instead diagonalizes ``H`` once and evaluates the same
resolvent in the eigenbasis (exact).  Each engine call logs one DEBUG
record to the ``oamphoton`` logger: the path taken and why, the number of
factorizations, and the worst relative residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .lattice import LatticeSpec, SiteIndex, flat_index
from .hamiltonians import HamiltonianMatrix

__all__ = [
    "DecaySpec",
    "Resolvent",
    "ScatteringResult",
    "default_omega_grid",
    "greens_apply",
    "transmission",
    "s_matrix_row",
    "total_transmission_spectrum",
    "butterfly_scan",
    "spectral_factorization",
    "eig_transmission_vector",
]

RESIDUAL_RTOL = 1e-10
"""Relative residual bound enforced on every linear solve."""

_LOG = logging.getLogger("oamphoton")


def _log_engine_call(path: str, reason: str, factorizations: int,
                     worst_residual: float | None) -> None:
    """One DEBUG record per engine call; ``None`` marks a path without solves."""
    _LOG.debug(
        "resolvent path=%s (%s): %d factorization(s), worst relative residual %s",
        path, reason, factorizations,
        "n/a" if worst_residual is None else f"{worst_residual:.3e}",
        extra={"solver_path": path, "solver_reason": reason,
               "factorizations": factorizations,
               "worst_residual": worst_residual},
    )


@dataclass(frozen=True)
class DecaySpec:
    """Input/output coupling rates, uniform or per mode (units of the hop).

    Use :meth:`uniform` or :meth:`per_mode`; all rates must be positive.
    """

    gamma: float | None = None
    rates: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.gamma is None) == (self.rates is None):
            raise ValueError("specify exactly one of a uniform rate or a rate vector")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"decay rate must be positive, got {self.gamma}")
        if self.rates is not None:
            rates = np.asarray(self.rates, dtype=float)
            if rates.ndim != 1 or not np.all(rates > 0):
                raise ValueError("per-mode rates must be a vector of positive values")
            object.__setattr__(self, "rates", rates)

    @classmethod
    def uniform(cls, gamma: float) -> "DecaySpec":
        return cls(gamma=float(gamma))

    @classmethod
    def per_mode(cls, rates: np.ndarray) -> "DecaySpec":
        return cls(rates=np.asarray(rates, dtype=float))

    @property
    def is_uniform(self) -> bool:
        return self.gamma is not None

    def rate_vector(self, dim: int) -> np.ndarray:
        """All coupling rates as a length-``dim`` vector."""
        if self.is_uniform:
            return np.full(dim, self.gamma)
        if self.rates.shape[0] != dim:
            raise ValueError(
                f"rate vector length {self.rates.shape[0]} != dimension {dim}"
            )
        return self.rates


@dataclass(frozen=True)
class ScatteringResult:
    """Transmission amplitudes from one input mode to every mode at one ``omega``.

    ``amplitudes[n']`` is ``T_{n', input}``; the direct-reflection delta is
    excluded when ``includes_reflection_delta`` is False (the default).
    """

    omega: float
    input: SiteIndex
    amplitudes: np.ndarray
    includes_reflection_delta: bool = False


def default_omega_grid(n: int = 400, span: float = 4.5) -> np.ndarray:
    """The default probe grid: ``n`` points spanning ``[-span, span]``.

    The grid is symmetric about 0 and contains ``omega = 0`` only when ``n``
    is odd; the default of 400 brackets it by the pair ``+-span / (n - 1)``.
    """
    return np.linspace(-span, span, n)


class Resolvent:
    """The resolvent ``(omega - H + i G/2)^{-1}`` of one ``(H, decay)`` pair.

    ``-H + i G/2`` is converted to CSC once, with every diagonal slot
    stored; each frequency writes ``omega + i gamma_n/2 - H_nn`` into those
    slots and solves all requested ports with one sparse LU factorization
    (a single :func:`scipy.sparse.linalg.spsolve` call on a block
    right-hand side).  Every column's relative residual must stay within
    :data:`RESIDUAL_RTOL`, otherwise the solve raises.  ``factorizations``
    and ``worst_residual`` accumulate over the object's solves.
    """

    def __init__(self, H: HamiltonianMatrix, decay: DecaySpec):
        self.rates = decay.rate_vector(H.dim)
        # The diagonal i*gamma_n/2 is nonzero, so the sum stores every slot.
        A = (scipy.sparse.diags(0.5j * self.rates, format="csc")
             - scipy.sparse.csc_matrix(H.data)).tocsc()
        # Canonical order now, so spsolve never reorders .data under the
        # recorded diagonal positions.
        A.sum_duplicates()
        column_of = np.repeat(np.arange(H.dim), np.diff(A.indptr))
        self._diagonal = np.flatnonzero(A.indices == column_of)
        self._diagonal_base = A.data[self._diagonal].copy()
        self._A = A
        self.factorizations = 0
        self.worst_residual = 0.0

    def solve(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Resolvent columns ``G(omega) e_r`` for each flat index in ``rows``.

        Returns shape ``(dim, len(rows))``.
        """
        if not np.isfinite(omega):
            raise ValueError(f"omega must be finite, got {omega!r}")
        if len(rows) == 0:
            raise ValueError("need at least one input port")
        A = self._A
        A.data[self._diagonal] = omega + self._diagonal_base
        rhs = np.zeros((A.shape[0], len(rows)), dtype=complex)
        rhs[np.asarray(rows), np.arange(len(rows))] = 1.0
        x = scipy.sparse.linalg.spsolve(A, rhs).reshape(rhs.shape)
        self.factorizations += 1
        # Each right-hand side has unit norm: these are relative residuals.
        residual = float(np.max(np.linalg.norm(A @ x - rhs, axis=0)))
        if not residual <= RESIDUAL_RTOL:
            raise RuntimeError(
                f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.3e} "
                f"(dim={A.shape[0]}, omega={omega})"
            )
        self.worst_residual = max(self.worst_residual, residual)
        return x

    def transmission(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Amplitudes ``T_{n', r} = -i sqrt(gamma_n') G_{n' r} sqrt(gamma_r)``.

        Column ``k`` holds every output for input ``rows[k]``.
        """
        x = self.solve(omega, rows)
        return -1j * np.sqrt(self.rates)[:, None] * x * np.sqrt(self.rates[rows])

    def log(self, reason: str) -> None:
        """Record this engine call (path ``sparse-lu``) on the logger."""
        _log_engine_call("sparse-lu", reason, self.factorizations,
                         self.worst_residual)


def greens_apply(H: HamiltonianMatrix, decay: DecaySpec, omega: float,
                 input: SiteIndex) -> np.ndarray:
    """The resolvent column ``(omega - H + i G/2)^{-1} e_input``."""
    engine = Resolvent(H, decay)
    x = engine.solve(omega, [flat_index(H.spec, input)])[:, 0]
    engine.log("one frequency, one port")
    return x


def transmission(H: HamiltonianMatrix, decay: DecaySpec, omega: float,
                 input: SiteIndex) -> ScatteringResult:
    """Transmission amplitudes ``-i sqrt(G) G(omega) sqrt(G) e_input``."""
    engine = Resolvent(H, decay)
    amplitudes = engine.transmission(omega, [flat_index(H.spec, input)])[:, 0]
    engine.log("one frequency, one port")
    return ScatteringResult(omega=omega, input=input, amplitudes=amplitudes)


def s_matrix_row(H: HamiltonianMatrix, decay: DecaySpec, omega: float,
                 input: SiteIndex) -> np.ndarray:
    """One scattering-matrix row ``delta_{n'n} + T_{n'n}``.

    For uniform decay and Hermitian ``H`` the row has 2-norm 1 (checked in
    the test suite, not here); with per-mode rates it is still computed
    but no unitarity holds.
    """
    result = transmission(H, decay, omega, input)
    row = result.amplitudes.copy()
    row[flat_index(H.spec, input)] += 1.0
    return row


def spectral_factorization(H: HamiltonianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a dense Hermitian ``H`` (ascending)."""
    return np.linalg.eigh(H.toarray())


def eig_transmission_vector(evals: np.ndarray, evecs: np.ndarray, gamma: float,
                            omega: float, input_index: int) -> np.ndarray:
    """Uniform-decay transmission via the eigenbasis (exact fast path).

    ``T = -i gamma V diag(1/(omega - E + i gamma/2)) V^dag e_in``.
    """
    c = evecs[input_index, :].conj() / (omega - evals + 0.5j * gamma)
    return -1j * gamma * (evecs @ c)


def total_transmission_spectrum(
    H: HamiltonianMatrix,
    decay: DecaySpec,
    inputs: list[SiteIndex],
    omega_grid: np.ndarray | None = None,
) -> np.ndarray:
    """Total transmitted power ``sum_in sum_out |T|^2`` over a probe grid.

    The sum runs over every output mode (the same-mode term included, the
    reflection delta excluded).  With uniform decay and a dense ``H`` the
    sweep uses the eigenbasis identity
    ``sum_out |T|^2 = gamma^2 sum_m |V[in, m]|^2 / ((omega-E_m)^2 + gamma^2/4)``;
    otherwise each frequency takes one :class:`Resolvent` factorization for
    all inputs.
    """
    if omega_grid is None:
        omega_grid = default_omega_grid()
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise ValueError("probe grid must be nonempty")
    if not np.all(np.isfinite(omega_grid)):
        raise ValueError("probe grid must hold finite frequencies")
    if len(inputs) == 0:
        raise ValueError("input port list must be nonempty")
    in_rows = [flat_index(H.spec, s) for s in inputs]
    if decay.is_uniform and H.is_dense:
        evals, evecs = spectral_factorization(H)
        weights = np.zeros(H.dim)
        for r in in_rows:
            weights += np.abs(evecs[r, :]) ** 2
        gamma = decay.gamma
        lorentz = 1.0 / (
            (omega_grid[:, None] - evals[None, :]) ** 2 + 0.25 * gamma**2
        )
        _log_engine_call(
            "eigenbasis",
            f"uniform decay on dense H: one eigh for {omega_grid.size} frequencies",
            1, None,
        )
        return gamma**2 * (lorentz @ weights)
    engine = Resolvent(H, decay)
    out = np.array([
        float(np.sum(np.abs(engine.transmission(float(omega), in_rows)) ** 2))
        for omega in omega_grid
    ])
    cause = "sparse H" if decay.is_uniform else "per-mode decay"
    engine.log(f"{cause}: one LU per frequency for {len(in_rows)} ports")
    return out


def butterfly_scan(
    spec: LatticeSpec,
    phi0_list: np.ndarray,
    omega_grid: np.ndarray | None = None,
    decay: DecaySpec | None = None,
    inputs: list[SiteIndex] | None = None,
) -> np.ndarray:
    """Total-transmission rows over a flux list (one lattice per flux).

    Builds the cavity-phase uniform-flux lattice for each ``phi0`` and
    records its :func:`total_transmission_spectrum`; by default the probes
    enter every cavity at OAM 0.
    """
    from .hamiltonians import build_landau_hofstadter

    if decay is None:
        decay = DecaySpec.uniform(0.1)
    if omega_grid is None:
        omega_grid = default_omega_grid()
    if inputs is None:
        inputs = [SiteIndex(j, 0, 0) for j in range(spec.n_x)]
    rows = np.empty((len(phi0_list), np.asarray(omega_grid).size))
    for i, phi0 in enumerate(phi0_list):
        H = build_landau_hofstadter(spec, float(phi0))
        rows[i] = total_transmission_spectrum(H, decay, inputs, omega_grid)
    return rows
