"""Steady-state input-output transmission through the lattice.

A monochromatic drive entering one mode ``n`` at detuning ``omega`` leaves
the system through every mode ``n'`` with amplitude

``T_{n'n} = -i [sqrt(G) (omega - H + i G/2)^{-1} sqrt(G)]_{n'n}``,

where ``G = diag(gamma_n)`` collects the input/output coupling rates.  The
full scattering row adds the direct reflection ``delta_{n'n}``; for uniform
rates and Hermitian ``H`` that row is exactly unit norm.

Solver: one resolvent engine, :class:`Resolvent`, serves every consumer.
Every builder couples OAM ``l`` only to ``l +- 1``, so over OAM slices
(all cavities and polarizations at one ``l``) ``omega - H + i G/2`` is
block-tridiagonal; a periodic OAM axis is folded into the same form.  The
engine solves it by recursive Green's functions (Thouless & Kirkpatrick,
J. Phys. C 14, 235 (1981); Lewenkopf & Mucciolo, J. Comput. Electron. 12,
203 (2013)): Schur-complement sweeps from both ends toward the port
slices, batched over a chunk of frequencies, then back-substitution for
full resolvent columns.  The cost is linear in the number of slices and
exact, with a residual bound on every returned column.  Each engine call
logs one DEBUG record to the ``oamphoton`` logger: the path and why, the
number of frequencies solved, the slice count, block size and frequency
chunk, and the worst relative residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse

from .lattice import Boundary, LatticeSpec, SiteIndex, flat_index
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
"""Relative residual bound enforced on every resolvent column."""

_CHUNK_BYTES = 16 * 2**20
"""Working memory of one frequency chunk: its slice solves and columns."""

_LOG = logging.getLogger("oamphoton")


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


def _oam_blocks(spec: LatticeSpec) -> np.ndarray:
    """Flat indices of each sweep block, shape ``(blocks, block_size)``.

    Block ``k`` is OAM slice ``k``, its sites ordered by cavity, then
    polarization.  A periodic OAM axis of three or more slices is folded:
    block ``k`` holds slices ``k`` and ``n_l - 1 - k``, which puts the ring
    coupling inside block 0 and keeps the chain block-tridiagonal; the
    middle slice of an odd ring is padded with ``-1`` (decoupled sites).
    """
    n_l, sd = spec.n_l, spec.spin_dim
    cavity_base = np.arange(spec.n_x)[:, None] * n_l * sd + np.arange(sd)
    slices = (np.arange(n_l)[:, None, None] * sd + cavity_base).reshape(n_l, -1)
    if spec.bc_y is not Boundary.PERIODIC or n_l < 3:
        return slices
    half = (n_l + 1) // 2
    mirror = np.full((half, slices.shape[1]), -1)
    mirror[: n_l // 2] = slices[::-1][: n_l // 2]
    return np.concatenate([slices[:half], mirror], axis=1)


def _positions(blocks: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Block and position within the block of every flat index."""
    real = blocks >= 0
    block_of = np.empty(dim, dtype=np.intp)
    pos_of = np.empty(dim, dtype=np.intp)
    block_of[blocks[real]], pos_of[blocks[real]] = np.nonzero(real)
    return block_of, pos_of


def _widen(blocks: np.ndarray, width: int) -> np.ndarray:
    """Join every ``width`` consecutive blocks into one (the last one padded)."""
    n, b = blocks.shape
    joined = np.full((-(-n // width) * width, b), -1)
    joined[:n] = blocks
    return joined.reshape(-1, width * b)


def _block_distance(H: HamiltonianMatrix, block_of: np.ndarray) -> int:
    """The largest block distance between two sites that ``H`` couples."""
    if H.is_dense:
        rows, cols = np.nonzero(H.data)
    else:
        coo = H.data.tocoo()
        coupled = coo.data != 0
        rows, cols = coo.row[coupled], coo.col[coupled]
    return int(np.max(np.abs(block_of[rows] - block_of[cols]), initial=0))


def _slice_blocks(H: HamiltonianMatrix, blocks: np.ndarray,
                  block_of: np.ndarray, pos_of: np.ndarray):
    """Slice ``H`` over ``blocks`` into diagonal blocks ``D_k``, upper
    couplings ``U_k = H[k, k+1]`` and lower ones ``L_k = H[k+1, k]``.

    Dense storage is fancy-indexed at the blocks only; canonical CSR is
    assigned entry by entry.  Also returns ``H`` as CSR for residual checks:
    the CSR input itself, or the blocks reassembled when ``H`` is dense.
    Returns None when a nonzero entry of ``H`` lies outside the blocks,
    found by counting: every entry of ``H`` has at most one block slot.
    """
    n, b = blocks.shape
    real = blocks >= 0
    if H.is_dense:
        site = np.where(real, blocks, 0)

        def gather(rows, cols):
            keep = real[rows][:, :, None] & real[cols][:, None, :]
            values = H.data[site[rows][:, :, None], site[cols][:, None, :]]
            return np.where(keep, values, 0)

        head, tail = slice(None, -1), slice(1, None)
        D, U, L = gather(slice(None), slice(None)), gather(head, tail), gather(tail, head)
        parts = []
        for M, row_shift, col_shift in ((D, 0, 0), (U, 0, 1), (L, 1, 0)):
            k, r, c = np.nonzero(M)
            parts.append((blocks[k + row_shift, r], blocks[k + col_shift, c], M[k, r, c]))
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        if np.count_nonzero(H.data) != vals.size:
            return None
        csr = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=H.data.shape)
        return D, U, L, csr
    csr = H.data
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(H.dim), np.diff(csr.indptr))
    br, bc = block_of[rows], block_of[csr.indices]
    pr, pc = pos_of[rows], pos_of[csr.indices]
    D = np.zeros((n, b, b), dtype=complex)
    U = np.zeros((n - 1, b, b), dtype=complex)
    L = np.zeros((n - 1, b, b), dtype=complex)
    inside = np.zeros(csr.nnz, dtype=bool)
    # Canonical CSR holds each (row, col) once, so assignment is exact.
    for target, block, select in ((D, br, br == bc), (U, br, bc == br + 1),
                                  (L, bc, br == bc + 1)):
        target[block[select], pr[select], pc[select]] = csr.data[select]
        inside |= select
    if np.count_nonzero(csr.data[~inside]):
        return None
    return D, U, L, csr


class Resolvent:
    """The resolvent ``(omega - H + i G/2)^{-1}`` of one ``(H, decay)`` pair.

    The constructor slices ``H`` over OAM blocks (see :func:`_oam_blocks`)
    into diagonal blocks ``D_k`` and couplings ``U_k``/``L_k``.  A nonzero
    entry outside them (a coupling that skips OAM slices, as in an
    arbitrary dense ``H``) is never dropped: the blocks are then widened to
    ``width`` slices each, the largest slice distance ``H`` couples.  Per
    chunk of frequencies the engine runs the left and right
    Schur-complement sweeps toward the port blocks, storing the transfer
    matrices ``h_k`` so that back-substitution costs one matmul per block;
    it solves each port block's ``G_{k0,k0}`` once for all its ports and
    checks every returned column: ``||(omega - H + i G/2) x - e|| <=``
    :data:`RESIDUAL_RTOL`, against ``H`` itself (CSR) or its blocks (dense;
    the nonzero count proves they hold all of ``H``), so NaN fails too.
    ``factorizations`` (one per frequency), ``worst_residual`` and
    ``omega_chunk`` accumulate over the object's solves.
    """

    def __init__(self, H: HamiltonianMatrix, decay: DecaySpec):
        self.rates = decay.rate_vector(H.dim)
        self.dim = H.dim
        blocks = _oam_blocks(H.spec)
        block_of, pos_of = _positions(blocks, H.dim)
        sliced = _slice_blocks(H, blocks, block_of, pos_of)
        self.width = 1
        if sliced is None:
            self.width = _block_distance(H, block_of)
            blocks = _widen(blocks, self.width)
            block_of, pos_of = _positions(blocks, H.dim)
            sliced = _slice_blocks(H, blocks, block_of, pos_of)
        self._D, self._U, self._L, self._H = sliced
        self._block_of, self._pos_of = block_of, pos_of
        self.slices, self.block_size = blocks.shape
        # A_k(omega) = omega * mask + shift - D_k; a pad site solves 1 * x = 0.
        real = blocks >= 0
        self._mask = real.astype(float)
        self._shift = np.where(real, 0.5j * self.rates[np.where(real, blocks, 0)], 1.0)
        self.factorizations = 0
        self.worst_residual = 0.0
        self.omega_chunk = 0

    def columns(self, omegas: np.ndarray, rows: Sequence[int]
                ) -> Iterator[tuple[slice, np.ndarray]]:
        """Resolvent columns ``G(omega) e_r`` over a frequency grid.

        Yields ``(part, x)`` per frequency chunk, where ``x[:, i, p]`` is the
        column for ``omegas[part][i]`` and ``rows[p]``: shape
        ``(dim, chunk, len(rows))``, C-contiguous.
        """
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        bad = omegas[~np.isfinite(omegas)]
        if bad.size:
            raise ValueError(f"omega must be finite, got {bad[0]!r}")
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if rows.size == 0:
            raise ValueError("need at least one input port")
        n, b = self.slices, self.block_size
        per_omega = 16 * n * b * (b + 6 * rows.size)
        chunk = max(1, min(_CHUNK_BYTES // per_omega, omegas.size))
        self.omega_chunk = max(self.omega_chunk, chunk)
        for start in range(0, omegas.size, chunk):
            part = slice(start, min(start + chunk, omegas.size))
            yield part, self._sweep(omegas[part], rows)

    def solve(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Resolvent columns at one frequency, shape ``(dim, len(rows))``."""
        return next(self.columns(np.array([omega]), rows))[1][:, 0]

    def transmission(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Amplitudes ``T_{n', r} = -i sqrt(gamma_n') G_{n' r} sqrt(gamma_r)``.

        Column ``k`` holds every output for input ``rows[k]``.
        """
        scale = np.sqrt(self.rates)
        return -1j * scale[:, None] * self.solve(omega, rows) * scale[np.asarray(rows)]

    def transmitted_power(self, omegas: np.ndarray, rows: Sequence[int],
                          weights: np.ndarray | None = None) -> np.ndarray:
        """``sum_r sum_n' weights[n'] |T_{n', r}|^2`` at each frequency.

        The power sums over every input in ``rows`` and every output mode
        (unit weights by default), reduced from the resolvent columns.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        out_weight = self.rates if weights is None else self.rates * weights
        # |T|^2 = gamma_n' gamma_r (Re^2 + Im^2) of the column entries.
        in_weight = np.repeat(self.rates[rows], 2)
        power = np.empty(np.size(omegas))
        for part, x in self.columns(omegas, rows):
            parts = x.view(float)
            power[part] = out_weight @ ((parts * parts) @ in_weight)
        return power

    def _sweep(self, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One frequency chunk: sweeps, port solves, back-substitution, check.

        Returns the columns in flat order, shape ``(dim, len(omegas), ports)``.
        """
        n, b, w = self.slices, self.block_size, omegas.size
        D, U, L = self._D, self._U, self._L
        # A[k] = omega + i G/2 - D_k for every block and frequency.
        A = np.repeat(-D[:, None], w, axis=1)
        diagonal = omegas[:, None] * self._mask[:, None] + self._shift[:, None]
        A.reshape(n, w, b * b)[..., :: b + 1] += diagonal
        upper = np.broadcast_to(U[:, None], (n - 1, w, b, b))
        lower = np.broadcast_to(L[:, None], (n - 1, w, b, b))
        port_block = self._block_of[rows]
        first, last = int(port_block.min()), int(port_block.max())
        # Transfer matrices: h_left[k] = -g^L_k A_{k,k+1} carries X_{k+1} to
        # X_k left of the ports, h_right[k] = -g^R_k A_{k,k-1} carries X_{k-1}
        # to X_k right of them (g^L, g^R: left- and right-connected blocks).
        h_left, h_right = [None] * n, [None] * n
        columns, order = [], []
        try:
            for k in range(last):
                S = A[k] - L[k - 1] @ h_left[k - 1] if k else A[k]
                h_left[k] = np.linalg.solve(S, upper[k])
            for k in range(n - 1, first, -1):
                S = A[k] - U[k] @ h_right[k + 1] if k < n - 1 else A[k]
                h_right[k] = np.linalg.solve(S, lower[k - 1])
            for k0 in np.unique(port_block):
                ports = np.flatnonzero(port_block == k0)
                S = A[k0].copy()
                if k0:
                    S -= L[k0 - 1] @ h_left[k0 - 1]
                if k0 < n - 1:
                    S -= U[k0] @ h_right[k0 + 1]
                E = np.zeros((w, b, ports.size))
                E[:, self._pos_of[rows[ports]], np.arange(ports.size)] = 1.0
                X = np.empty((n, w, b, ports.size), dtype=complex)
                X[k0] = np.linalg.solve(S, E)  # the columns of G_{k0,k0}
                for k in range(k0 + 1, n):
                    np.matmul(h_right[k], X[k - 1], out=X[k])
                for k in range(k0 - 1, -1, -1):
                    np.matmul(h_left[k], X[k + 1], out=X[k])
                columns.append(X[self._block_of, :, self._pos_of])
                order.append(ports)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"solve residual unbounded: singular slice block ({exc}) at "
                f"omega in [{omegas.min()}, {omegas.max()}]"
            ) from None
        self.factorizations += w
        x = columns[0] if len(columns) == 1 else np.take(
            np.concatenate(columns, axis=2), np.argsort(np.concatenate(order)), axis=2)
        # r = e - (omega - H + i G/2) x; each e has unit norm, so the
        # column norms of r are relative residuals.
        r = (self._H @ x.reshape(self.dim, -1)).reshape(x.shape)
        r -= (omegas[:, None] + 0.5j * self.rates[:, None, None]) * x
        r[rows, :, np.arange(rows.size)] += 1.0
        parts = r.reshape(self.dim, -1).view(float)
        squares = np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1)
        residual = float(np.sqrt(np.max(squares)))
        if not residual <= RESIDUAL_RTOL:
            raise RuntimeError(
                f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.3e} "
                f"(dim={self.dim}, omega in [{omegas.min()}, {omegas.max()}])"
            )
        self.worst_residual = max(self.worst_residual, residual)
        return x

    def log(self, reason: str) -> None:
        """One DEBUG record for this engine call (path ``oam-rgf``)."""
        if self.width > 1:
            reason += (f"; H couples OAM slices {self.width} apart, so each "
                       f"block joins {self.width} slices")
        _LOG.debug(
            "resolvent path=oam-rgf (%s): %d factorization(s) over %d slices "
            "of size %d in chunks of %d, worst relative residual %.3e",
            reason, self.factorizations, self.slices, self.block_size,
            self.omega_chunk, self.worst_residual,
            extra={"solver_path": "oam-rgf", "solver_reason": reason,
                   "factorizations": self.factorizations,
                   "worst_residual": self.worst_residual,
                   "slices": self.slices, "block_size": self.block_size,
                   "omega_chunk": self.omega_chunk},
        )


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
    """Eigenvalues and eigenvectors of a dense Hermitian ``H`` (ascending).

    A reference oracle for tests; the library's solves do not use it.
    """
    return np.linalg.eigh(H.toarray())


def eig_transmission_vector(evals: np.ndarray, evecs: np.ndarray, gamma: float,
                            omega: float, input_index: int) -> np.ndarray:
    """Uniform-decay transmission via the eigenbasis (a reference oracle).

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
    reflection delta excluded), reduced from the :class:`Resolvent`
    columns of all inputs, which share one sweep per frequency.
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
    engine = Resolvent(H, decay)
    out = engine.transmitted_power(omega_grid, in_rows)
    engine.log(f"{omega_grid.size} frequencies, {len(in_rows)} ports")
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
