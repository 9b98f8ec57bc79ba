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
203 (2013)): Schur-complement sweeps from both ends toward the last port
slice, the left one carrying the ports below it, batched over a chunk of
frequencies; one solve there, then back-substitution outward for full
resolvent columns.  The cost is linear in the number of slices and
exact, with a residual bound on every returned column; the memory is
``H``'s entries plus one work array per frequency chunk.  Each engine call
logs one DEBUG record to the ``oamphoton`` logger: the path and why, the
number of frequencies solved, the slice count, block size, coupling block
and frequency chunk, the bytes of one chunk's work array, and the worst
relative residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

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

    Use :meth:`uniform` or :meth:`per_mode`; all rates must be positive and
    finite.  A rate vector is copied and stored read-only, so the caller's
    array and the spec never share memory.
    """

    gamma: float | None = None
    rates: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.gamma is None) == (self.rates is None):
            raise ValueError("specify exactly one of a uniform rate or a rate vector")
        if self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ValueError(f"decay rate must be positive and finite, got {self.gamma}")
        if self.rates is not None:
            rates = np.array(self.rates, dtype=float)
            if rates.ndim != 1 or not np.all((rates > 0) & (rates < np.inf)):
                raise ValueError("per-mode rates must be a vector of positive finite values")
            rates.flags.writeable = False
            object.__setattr__(self, "rates", rates)

    @classmethod
    def uniform(cls, gamma: float) -> "DecaySpec":
        return cls(gamma=float(gamma))

    @classmethod
    def per_mode(cls, rates: np.ndarray) -> "DecaySpec":
        return cls(rates=rates)

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


def _coupling_block(b: int, pr: np.ndarray, pc: np.ndarray) -> int:
    """The smallest ``c`` dividing ``b`` for which every coupling entry, at
    positions ``pr``, ``pc`` of its two blocks, joins two sites of one
    ``c``-block: the couplings are then block-diagonal in ``c x c`` blocks."""
    return next(c for c in range(1, b + 1)
                if b % c == 0 and np.array_equal(pr // c, pc // c))


class Resolvent:
    """The resolvent ``(omega - H + i G/2)^{-1}`` of one ``(H, decay)`` pair.

    The constructor reads ``H``'s entries over OAM blocks (see
    :func:`_oam_blocks`).  A nonzero entry that skips blocks (a coupling
    between OAM slices ``width`` apart, as in an arbitrary ``H``) is never
    dropped: each block then joins ``width`` slices.  The engine keeps no
    dense copy of ``H``: the diagonal blocks ``D_k`` stay COO entries
    (block, position in the block, value), and the couplings
    ``U_k = H[k, k+1]`` and ``L_k = H[k+1, k]`` are stored as per-cavity
    ``c x c`` blocks, shape ``(slices - 1, block_size / c, c, c)``.  The
    ``coupling_block`` ``c`` is read from ``H`` (see
    :func:`_coupling_block`): an OAM hop never leaves its cavity, so ``c``
    is 1 for scalar hops and 2 for 2x2 Jones blocks (on a folded even ring
    too); a coupling that joins two cavities, the middle slice of a folded
    odd ring or widened blocks make ``c`` the ``block_size``, one dense
    block per slice.

    Per chunk of frequencies the engine allocates one work array of shape
    ``(slices, chunk, block_size, block_size)`` holding
    ``A_k = omega + i G/2 - D_k``.  With ``k0`` the last block holding a
    port, Schur-complement sweeps from block 0 and from the last block
    toward ``k0`` overwrite slot ``k`` with its transfer matrix ``h_k``, so
    that back-substitution costs one matmul per block; from the first port
    block on, the left sweep also carries the unit columns of the ports
    below ``k0``.  One solve at ``k0`` serves every port, back-substitution
    runs outward from it, and every returned column is checked against
    ``H``'s own entries:
    ``||(omega - H + i G/2) x - e|| <=`` :data:`RESIDUAL_RTOL`, so NaN
    fails too.
    ``factorizations`` (one per frequency), ``worst_residual``,
    ``omega_chunk`` and ``work_bytes`` (the largest work array)
    accumulate over the object's solves.
    """

    def __init__(self, H: HamiltonianMatrix, decay: DecaySpec):
        self.rates = decay.rate_vector(H.dim)
        self.dim = H.dim
        self._H = H
        blocks = _oam_blocks(H.spec)
        block_of, pos_of = _positions(blocks, H.dim)
        br, bc = block_of[H.rows], block_of[H.cols]
        # The largest block distance between two sites that H couples.
        self.width = int(np.max(np.abs(br - bc), initial=1))
        if self.width > 1:
            blocks = _widen(blocks, self.width)
            block_of, pos_of = _positions(blocks, H.dim)
            br, bc = block_of[H.rows], block_of[H.cols]
        self._block_of, self._pos_of = block_of, pos_of
        self.slices, self.block_size = n, b = blocks.shape
        pr, pc = pos_of[H.rows], pos_of[H.cols]
        inside = br == bc
        # A chunk scatters -D_k, so the values are negated once here.
        self._diagonal = br[inside], pr[inside], pc[inside], -H.values[inside]
        off = ~inside
        pr, pc = pr[off], pc[off]
        self.coupling_block = c = _coupling_block(b, pr, pc)
        # U_k = H[k, k+1] and L_k = H[k+1, k], each entry at its block k,
        # c-group and place in the c x c block; H holds each (row, col)
        # once, so assignment is exact.
        lower = br[off] > bc[off]
        group, row = np.divmod(pr, c)
        flat = (((lower * (n - 1) + np.minimum(br[off], bc[off])) * (b // c)
                 + group) * c + row) * c + pc % c
        couplings = np.zeros((2, n - 1, b // c, c, c), dtype=complex)
        couplings.reshape(-1)[flat] = H.values[off]
        self._U, self._L = couplings
        # A_k(omega) = omega * mask + shift - D_k; a pad site solves 1 * x = 0.
        real = blocks >= 0
        self._mask = real.astype(float)
        self._shift = np.where(real, 0.5j * self.rates[np.where(real, blocks, 0)], 1.0)
        self.factorizations = 0
        self.worst_residual = 0.0
        self.omega_chunk = 0
        self.work_bytes = 0

    def _port_rows(self, rows: Sequence[int]) -> np.ndarray:
        """``rows`` as a flat index array, each an integer in ``[0, dim)``."""
        rows = np.asarray(rows).reshape(-1)
        if rows.size == 0:
            raise ValueError("input port list must be nonempty")
        if not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"port rows must be integers, got {rows.tolist()}")
        bad = rows[(rows < 0) | (rows >= self.dim)]
        if bad.size:
            raise ValueError(f"port row {bad[0]} outside 0..{self.dim - 1}")
        return rows.astype(np.intp)

    def columns(self, omegas: np.ndarray, rows: Sequence[int]
                ) -> Iterator[tuple[slice, np.ndarray]]:
        """Resolvent columns ``G(omega) e_r`` over a frequency grid.

        Yields ``(part, x)`` per frequency chunk, where ``x[:, i, p]`` is the
        column for ``omegas[part][i]`` and ``rows[p]``: shape
        ``(dim, chunk, len(rows))``, C-contiguous.  Each row must be an
        integer index into ``H``; the rows are checked on the call, the
        frequencies (nonempty and finite) when the first chunk is drawn.
        """
        return self._chunks(omegas, self._port_rows(rows))

    def _chunks(self, omegas: np.ndarray, rows: np.ndarray
                ) -> Iterator[tuple[slice, np.ndarray]]:
        """:meth:`columns` for rows already checked by :meth:`_port_rows`."""
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        if omegas.size == 0:
            raise ValueError("frequency grid must be nonempty")
        bad = omegas[~np.isfinite(omegas)]
        if bad.size:
            raise ValueError(f"omega must be finite, got {bad[0]!r}")
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
        x = self.solve(omega, rows)  # checks the rows
        scale = np.sqrt(self.rates)
        return -1j * scale[:, None] * x * scale[np.asarray(rows)]

    def transmitted_power(self, omegas: np.ndarray, rows: Sequence[int],
                          weights: np.ndarray | None = None) -> np.ndarray:
        """``sum_r sum_n' weights[n'] |T_{n', r}|^2`` at each frequency.

        The power sums over every input in ``rows`` and every output mode
        (unit weights by default), reduced from the resolvent columns in
        one fixed order per frequency, so the bits do not depend on how
        the grid is chunked.
        """
        rows = self._port_rows(rows)
        out_weight = self.rates if weights is None else self.rates * weights
        # |T|^2 = gamma_n' gamma_r (Re^2 + Im^2) of the column entries.
        in_weight = np.repeat(self.rates[rows], 2)
        power = np.empty(np.size(omegas))
        for part, x in self._chunks(omegas, rows):
            parts = x.view(float)
            np.multiply(parts, parts, out=parts)
            # Each sum runs along a contiguous last axis, first over the
            # ports of one site and frequency, then over the sites of one
            # frequency: the order is the same whatever the chunk holds.
            per_site = np.einsum("ijk,k->ij", parts, in_weight)
            per_site *= out_weight[:, None]
            power[part] = np.ascontiguousarray(per_site.T).sum(axis=1)
        return power

    def _sweep(self, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One frequency chunk: sweeps, the solve at the last port block,
        back-substitution and the residual check.

        Returns the columns in flat order, shape ``(dim, len(omegas), ports)``.
        """
        try:
            X = self._block_columns(omegas, rows)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"solve residual unbounded: singular slice block ({exc}) at "
                f"omega in [{omegas.min()}, {omegas.max()}]"
            ) from None
        self.factorizations += omegas.size
        x = X[self._block_of, :, self._pos_of]
        del X
        # r = e - (omega - H + i G/2) x; each e has unit norm, so the
        # column norms of r are relative residuals.
        r = self._H.matvec(x, shift=omegas[:, None] + 0.5j * self.rates[:, None, None])
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

    def _block_columns(self, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The columns of one frequency chunk block by block, shape
        ``(slices, len(omegas), block_size, len(rows))``.

        The chunk's work array lives only inside this call, so it is freed
        before the caller gathers the columns.
        """
        n, b, w, p = self.slices, self.block_size, omegas.size, rows.size
        U, L, c = self._U, self._L, self.coupling_block
        m = b // c
        # work[k] = A_k = omega + i G/2 - D_k for every block and frequency.
        work = np.zeros((n, w, b, b), dtype=complex)
        block, row, col, value = self._diagonal
        work[block, :, row, col] = value[:, None]
        diagonal = omegas[:, None] * self._mask[:, None] + self._shift[:, None]
        work.reshape(n, w, b * b)[..., :: b + 1] += diagonal
        self.work_bytes = max(self.work_bytes, work.nbytes)
        # Rows in groups of c: a block-diagonal coupling times slot k is one
        # matmul over its c x c blocks, coupling @ grouped[k].
        grouped = work.reshape(n, w, m, c, b)
        # One dense right-hand side for every sweep solve: the coupling is
        # written into its diagonal c x c blocks, the rest stays zero.
        rhs = np.zeros((b, b), dtype=complex)
        rhs_blocks = np.lib.stride_tricks.as_strided(
            rhs, shape=(m, c, c), strides=((b + 1) * c * 16, b * 16, 16))
        # Broadcast explicitly: NumPy 1.x solve reads a 2-D b as a stack of vectors.
        rhs_stack = np.broadcast_to(rhs, (w, b, b))

        def dense(coupling):
            rhs_blocks[...] = coupling
            return rhs_stack

        def coupled(coupling, h):
            """``coupling @ h``, one matmul over the c x c blocks."""
            return np.matmul(coupling, h.reshape(w, m, c, -1)).reshape(w, b, -1)

        # E[k] holds the unit columns of the ports on block k.
        port_block = self._block_of[rows]
        first, k0 = int(port_block.min()), int(port_block.max())
        E = np.zeros((n, b, p))
        E[port_block, self._pos_of[rows], np.arange(p)] = 1.0
        X = np.empty((n, w, b, p), dtype=complex)

        def carried(k):
            """E_k plus the ports carried up from below, L_{k-1} X[k-1]."""
            if k == first:
                return np.broadcast_to(E[k], (w, b, p))
            return E[k] + coupled(L[k - 1], X[k - 1])

        # The sweeps eliminate toward k0, the last port block, and overwrite
        # slot k with its transfer matrix: h_left[k] = S_k^-1 U_k carries
        # X_{k+1} to X_k below k0, h_right[k] = S_k^-1 L_{k-1} carries X_{k-1}
        # to X_k above it (S_k: the Schur complement of block k).  From the
        # first port block on, the left sweep also keeps X[k] =
        # S_k^-1 carried(k), the part of X_k that the ports at and below
        # block k drive; back-substitution adds h_left[k] X_{k+1} to it.
        for k in range(k0):
            if k:
                grouped[k] -= np.matmul(L[k - 1], grouped[k - 1])
            if k >= first:
                X[k] = np.linalg.solve(work[k], carried(k))
            work[k] = np.linalg.solve(work[k], dense(U[k]))
        for k in range(n - 1, k0, -1):
            if k < n - 1:
                grouped[k] -= np.matmul(U[k], grouped[k + 1])
            work[k] = np.linalg.solve(work[k], dense(L[k - 1]))
        S = work[k0]
        if k0:
            S -= coupled(L[k0 - 1], work[k0 - 1])
        if k0 < n - 1:
            S -= coupled(U[k0], work[k0 + 1])
        X[k0] = np.linalg.solve(S, carried(k0))
        for k in range(k0 + 1, n):
            np.matmul(work[k], X[k - 1], out=X[k])
        for k in range(k0 - 1, first - 1, -1):
            X[k] += np.matmul(work[k], X[k + 1])
        for k in range(first - 1, -1, -1):
            np.matmul(work[k], X[k + 1], out=X[k])
        return X

    def log(self, reason: str) -> None:
        """One DEBUG record for this engine call (path ``oam-rgf``)."""
        if self.width > 1:
            reason += (f"; H couples OAM slices {self.width} apart, so each "
                       f"block joins {self.width} slices")
        _LOG.debug(
            "resolvent path=oam-rgf (%s): %d factorization(s) over %d slices "
            "of size %d with %dx%d coupling blocks, in chunks of %d on a "
            "%d-byte work array, worst relative residual %.3e",
            reason, self.factorizations, self.slices, self.block_size,
            self.coupling_block, self.coupling_block, self.omega_chunk,
            self.work_bytes, self.worst_residual,
            extra={"solver_path": "oam-rgf", "solver_reason": reason,
                   "factorizations": self.factorizations,
                   "worst_residual": self.worst_residual,
                   "slices": self.slices, "block_size": self.block_size,
                   "omega_chunk": self.omega_chunk,
                   "coupling_block": self.coupling_block,
                   "work_bytes": self.work_bytes},
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
    """Eigenvalues and eigenvectors of ``H`` from its dense array (ascending).

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
