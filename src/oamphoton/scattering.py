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
slice, run as one loop over a side axis, the left one carrying the ports
below it; one solve there, then back-substitution outward for full
resolvent columns.  Each solve is batched over (trial, frequency) pairs:
one ``H`` over a chunk of frequencies, or a stack of Monte Carlo trials
on one lattice, each with its own decay rates, over their frequencies.
The cost is linear in the number of slices and exact, with a residual
bound on every returned column, checked against its own trial's ``H``;
the memory is the trials' entries plus one work array per chunk.  Each
engine call logs one DEBUG record to the ``oamphoton`` logger: the path
and why, the factorizations (one per trial and frequency), the trials,
the ``np.linalg.solve`` calls, the slice count, block size, coupling
block and chunk, the bytes of one chunk's work array, and the worst
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

    ``amplitudes[n']`` is ``T_{n', input}``, without the direct-reflection
    delta (:func:`s_matrix_row` adds it).
    """

    omega: float
    input: SiteIndex
    amplitudes: np.ndarray


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


def _row_bytes(slices: int, block_size: int, ports: int) -> int:
    """Working memory of one (trial, frequency) row of a chunk."""
    return 16 * slices * block_size * (block_size + 6 * ports)


def _trials_per_chunk(H: HamiltonianMatrix, ports: int, omegas: int) -> int:
    """How many trials sampled from ``H``, each with ``omegas`` frequencies
    and ``ports`` ports, fill one chunk budget (at least one).

    A trial takes its rows of the chunk and the storage of its own ``H``:
    the sample's entries, the engine's copy of them and the sample's
    matvec diagonals, about three times ``H``'s entry bytes.  Counts plain
    OAM slices (see :func:`_oam_blocks`); an ``H`` whose couplings skip
    slices has larger blocks, so its trials then take more than one chunk.
    """
    n, b = _oam_blocks(H.spec).shape
    trial = 3 * (H.rows.nbytes + H.cols.nbytes + H.values.nbytes)
    return max(1, _CHUNK_BYTES // (omegas * _row_bytes(n, b, ports) + trial))


def _shared_pattern(Hs: Sequence[HamiltonianMatrix]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trials' entries on one pattern: ``rows``, ``cols`` and values of
    shape ``(trials, entries)``.

    Trials sampled from one lattice share its pattern; otherwise the
    pattern is the union of theirs, with zeros where a trial has no entry.
    """
    rows, cols = Hs[0].rows, Hs[0].cols
    if all(np.array_equal(h.rows, rows) and np.array_equal(h.cols, cols) for h in Hs):
        return rows, cols, np.stack([h.values for h in Hs])
    dim = Hs[0].dim
    keys = [h.rows * dim + h.cols for h in Hs]
    union = np.sort(np.concatenate(keys))
    union = union[np.append(True, union[1:] != union[:-1])]
    values = np.zeros((len(Hs), union.size), dtype=complex)
    for t, (h, key) in enumerate(zip(Hs, keys)):
        values[t, np.searchsorted(union, key)] = h.values
    rows, cols = np.divmod(union, dim)
    return rows, cols, values


class Resolvent:
    """The resolvents ``(omega - H_t + i G_t/2)^{-1}`` of a stack of
    ``(H_t, decay_t)`` trials on one lattice.

    ``H`` is one :class:`~oamphoton.hamiltonians.HamiltonianMatrix` (one
    trial) or a sequence of them on one lattice; ``decay`` is one
    :class:`DecaySpec` for every trial or a sequence of one per trial.  The
    batch axis of every solve holds (trial, frequency) pairs, trial-major.
    Results for a single ``H`` have no trial axis.

    The constructor reads every trial's entries over OAM blocks (see
    :func:`_oam_blocks`).  A nonzero entry that skips blocks (a coupling
    between OAM slices ``width`` apart, as in an arbitrary ``H``) is never
    dropped: each block then joins ``width`` slices.  The engine keeps no
    dense copy of any ``H``.  The trials share one pattern of entries (see
    :func:`_shared_pattern`): the diagonal blocks ``D_k`` stay COO entries
    (block, position in the block, one value per trial), and the couplings
    ``U_k = H[k, k+1]`` and ``L_k = H[k+1, k]`` are stored as per-cavity
    ``c x c`` blocks, each trial's in its own contiguous slots.  The
    ``coupling_block`` ``c`` is read from the entries of all trials (see
    :func:`_coupling_block`): an OAM hop never leaves its cavity, so ``c``
    is 1 for scalar hops and 2 for 2x2 Jones blocks (on a folded even ring
    too); a coupling that joins two cavities, the middle slice of a folded
    odd ring or widened blocks make ``c`` the ``block_size``, one dense
    block per slice.

    The batch is cut into chunks of whole trials (or of one trial's
    frequencies, where its grid alone overflows a chunk), each with one
    work array of shape ``(slices, trials, frequencies, block_size,
    block_size)`` holding ``A_k = omega + i G/2 - D_k``.  With ``k0`` the
    last block holding a port, Schur-complement sweeps from block 0 and
    from the last block toward ``k0`` overwrite slot ``k`` with its
    transfer matrix, so that back-substitution costs one matmul per block.
    The two sweeps run as one loop over a side axis: while both have
    blocks left, each step makes one solve, one Schur matmul and, on the
    way back, one back-substitution matmul for both.  From the first port
    block on, the left sweep also carries the unit columns of the ports
    below ``k0``, stacked beside its coupling in the same solve.  One solve
    at ``k0`` serves every port, back-substitution runs outward from it,
    and every returned column is checked against its own trial's ``H``:
    ``||(omega - H + i G/2) x - e|| <=`` :data:`RESIDUAL_RTOL`, so NaN
    fails too.  ``factorizations`` (one per trial and frequency),
    ``solves`` (``np.linalg.solve`` calls), ``worst_residual``,
    ``omega_chunk`` (the (trial, frequency) rows of the largest chunk) and
    ``work_bytes`` (the largest work array) accumulate over the object's
    solves.
    """

    def __init__(self, H: HamiltonianMatrix | Sequence[HamiltonianMatrix],
                 decay: DecaySpec | Sequence[DecaySpec]):
        self._single = isinstance(H, HamiltonianMatrix)
        self._Hs = Hs = [H] if self._single else list(H)
        if not Hs:
            raise ValueError("need at least one Hamiltonian")
        spec = Hs[0].spec
        if any(h.spec != spec for h in Hs):
            raise ValueError("every Hamiltonian of one engine must share one lattice")
        self.trials = T = len(Hs)
        self.dim = dim = spec.dim
        if isinstance(decay, DecaySpec):
            self.rates = np.broadcast_to(decay.rate_vector(dim), (T, dim))
        else:
            decays = list(decay)
            if len(decays) != T:
                raise ValueError(f"{len(decays)} decay specs for {T} Hamiltonians")
            self.rates = np.array([d.rate_vector(dim) for d in decays])
        rows, cols, values = _shared_pattern(Hs)
        blocks = _oam_blocks(spec)
        block_of, pos_of = _positions(blocks, dim)
        br, bc = block_of[rows], block_of[cols]
        # The largest block distance between two sites that H couples.
        self.width = int(np.max(np.abs(br - bc), initial=1))
        if self.width > 1:
            blocks = _widen(blocks, self.width)
            block_of, pos_of = _positions(blocks, dim)
            br, bc = block_of[rows], block_of[cols]
        self._block_of, self._pos_of = block_of, pos_of
        self.slices, self.block_size = n, b = blocks.shape
        pr, pc = pos_of[rows], pos_of[cols]
        inside = np.flatnonzero(br == bc)
        off = np.flatnonzero(br != bc)
        # A chunk scatters -D_k, so the values are negated once here.
        self._diagonal = br[inside], pr[inside], pc[inside], -values[:, inside]
        br, bc, pr, pc = br[off], bc[off], pr[off], pc[off]
        self.coupling_block = c = _coupling_block(b, pr, pc)
        m = b // c
        # down[k] = H[k, k-1] and up[k] = H[k, k+1] (zero past the ends),
        # each entry at its block, trial, c-group and place in the c x c
        # block; the pattern holds each (row, col) once, so assignment is
        # exact.
        group, row = np.divmod(pr, c)
        down_up = np.zeros((2 * n, T, m * c * c), dtype=complex)
        down_up[(br < bc) * n + br, :, (group * c + row) * c + pc % c] = values[:, off].T
        down, up = down_up.reshape(2, n, T, m, c, c)
        # Side 0 is the left sweep at block s, side 1 the right sweep at
        # block n - 1 - s: _outer[side, s] couples that block to the one
        # its sweep comes from, _inner[side, s] to the one toward the pivot.
        self._outer = np.stack([down, up[::-1]])
        self._inner = np.stack([up, down[::-1]])
        # A_k(omega) = omega * mask + shift - D_k; a pad site solves 1 * x = 0.
        real = blocks >= 0
        self._mask = real.astype(float)
        self._shift = np.where(real[:, None], 0.5j * np.moveaxis(
            self.rates[:, np.where(real, blocks, 0)], 0, 1), 1.0)
        self.factorizations = 0
        self.solves = 0
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
        """Resolvent columns ``G_t(omega) e_r`` over a frequency grid.

        Yields ``(part, x)`` per chunk, where ``part`` slices the trial-major
        batch (row ``t * len(omegas) + i`` is trial ``t`` at ``omegas[i]``;
        for one trial, the grid itself) and ``x[:, j, p]`` is the column for
        batch row ``part.start + j`` and ``rows[p]``: shape ``(dim, rows in
        part, len(rows))``, C-contiguous.  Each row must be an integer index
        into ``H``; the rows are checked on the call, the frequencies
        (nonempty and finite) when the first chunk is drawn.
        """
        rows = self._port_rows(rows)
        size = np.size(omegas)
        return ((slice(trials.start * size + part.start,
                       (trials.stop - 1) * size + part.stop), x)
                for trials, part, x in self._chunks(omegas, rows))

    def _chunks(self, omegas: np.ndarray, rows: np.ndarray
                ) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """``(trials, part, x)`` per chunk for rows already checked by
        :meth:`_port_rows`: the columns of ``trials`` at ``omegas[part]``."""
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        if omegas.size == 0:
            raise ValueError("frequency grid must be nonempty")
        bad = omegas[~np.isfinite(omegas)]
        if bad.size:
            raise ValueError(f"omega must be finite, got {bad[0]!r}")
        batch = max(1, _CHUNK_BYTES // _row_bytes(self.slices, self.block_size,
                                                  rows.size))
        if batch >= omegas.size:  # whole trials per chunk
            per_chunk, chunk = min(self.trials, batch // omegas.size), omegas.size
        else:  # one trial's grid in parts
            per_chunk, chunk = 1, batch
        self.omega_chunk = max(self.omega_chunk, per_chunk * chunk)
        for first in range(0, self.trials, per_chunk):
            trials = slice(first, min(first + per_chunk, self.trials))
            for start in range(0, omegas.size, chunk):
                part = slice(start, min(start + chunk, omegas.size))
                yield trials, part, self._sweep(trials, omegas[part], rows)

    def _at(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Resolvent columns at one frequency, shape ``(dim, trials, len(rows))``."""
        return np.concatenate([x for _, x in self.columns(np.array([omega]), rows)],
                              axis=1)

    def solve(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Resolvent columns at one frequency, shape ``(dim, trials,
        len(rows))``, or ``(dim, len(rows))`` for a single ``H``."""
        x = self._at(omega, rows)
        return x[:, 0] if self._single else x

    def transmission(self, omega: float, rows: Sequence[int]) -> np.ndarray:
        """Amplitudes ``T_{n', r} = -i sqrt(gamma_n') G_{n' r} sqrt(gamma_r)``.

        Shaped as :meth:`solve`: the last axis holds every output for input
        ``rows[k]``.
        """
        scale = np.sqrt(self.rates)
        # _at checks the rows before they index the scales.
        t = -1j * scale.T[:, :, None] * self._at(omega, rows) * scale[:, np.asarray(rows)]
        return t[:, 0] if self._single else t

    def transmitted_power(self, omegas: np.ndarray, rows: Sequence[int],
                          weights: np.ndarray | None = None) -> np.ndarray:
        """``sum_r sum_n' weights[n'] |T_{n', r}|^2`` per trial and frequency.

        Shape ``(trials, len(omegas))``, ``(len(omegas),)`` for a single
        ``H``.  The power sums over every input in ``rows`` and every output
        mode (unit weights by default), reduced from the resolvent columns
        in one fixed order per (trial, frequency) row, so the bits do not
        depend on how the batch is chunked.
        """
        rows = self._port_rows(rows)
        out_weight = self.rates if weights is None else self.rates * weights
        # |T|^2 = gamma_n' gamma_r (Re^2 + Im^2) of the column entries.
        in_weight = np.repeat(self.rates[:, rows], 2, axis=1)
        power = np.empty((self.trials, np.size(omegas)))
        for trials, part, x in self._chunks(omegas, rows):
            parts = x.view(float)
            np.multiply(parts, parts, out=parts)
            # Each sum runs along a contiguous last axis, first over the
            # ports of one site and row, then over the sites of one row:
            # the order is the same whatever the chunk holds.
            count = trials.stop - trials.start
            per_site = np.einsum("itwk,tk->itw",
                                 parts.reshape(self.dim, count, -1, parts.shape[-1]),
                                 in_weight[trials])
            per_site *= out_weight[trials].T[:, :, None]
            power[trials, part] = np.ascontiguousarray(
                per_site.reshape(self.dim, -1).T).sum(axis=1).reshape(count, -1)
        return power[0] if self._single else power

    def _sweep(self, trials: slice, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One chunk: sweeps, the solve at the last port block,
        back-substitution and each trial's residual check.

        Returns the columns in flat order, shape ``(dim, trials x
        len(omegas), ports)``.
        """
        try:
            X = self._block_columns(trials, omegas, rows)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"solve residual unbounded: singular slice block ({exc}) in "
                f"trials {trials.start}..{trials.stop - 1} at omega in "
                f"[{omegas.min()}, {omegas.max()}]"
            ) from None
        w = omegas.size
        self.factorizations += (trials.stop - trials.start) * w
        x = X.reshape(self.slices, -1, self.block_size, rows.size)[
            self._block_of, :, self._pos_of]
        del X
        for i, t in enumerate(range(trials.start, trials.stop)):
            # r = e - (omega - H + i G/2) x; each e has unit norm, so the
            # column norms of r are relative residuals.
            r = self._Hs[t].matvec(x[:, i * w:(i + 1) * w], shift=omegas[:, None]
                                   + 0.5j * self.rates[t][:, None, None])
            r[rows, :, np.arange(rows.size)] += 1.0
            parts = r.reshape(self.dim, -1).view(float)
            squares = np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1)
            residual = float(np.sqrt(np.max(squares)))
            if not residual <= RESIDUAL_RTOL:
                raise RuntimeError(
                    f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.3e} in "
                    f"trial {t} (dim={self.dim}, omega in "
                    f"[{omegas.min()}, {omegas.max()}])"
                )
            self.worst_residual = max(self.worst_residual, residual)
        return x

    def _block_columns(self, trials: slice, omegas: np.ndarray, rows: np.ndarray
                       ) -> np.ndarray:
        """The columns of one chunk block by block, shape ``(slices,
        trials, len(omegas), block_size, len(rows))``.

        The chunk's work array lives only inside this call, so it is freed
        before the caller gathers the columns.
        """
        n, b, p = self.slices, self.block_size, rows.size
        count, w, c = trials.stop - trials.start, omegas.size, self.coupling_block
        m = b // c
        # work[k] = A_k = omega + i G/2 - D_k for every block, trial and frequency.
        work = np.zeros((n, count, w, b, b), dtype=complex)
        block, row, col, value = self._diagonal
        work[block, :, :, row, col] = value[trials].T[:, :, None]
        diagonal = omegas[:, None] * self._mask[:, None, None] + self._shift[:, trials, None]
        work.reshape(n, count, w, b * b)[..., :: b + 1] += diagonal
        self.work_bytes = max(self.work_bytes, work.nbytes)
        # Rows in groups of c: a block-diagonal coupling times slot k is one
        # matmul over its c x c blocks, coupling @ grouped[k].
        grouped = work.reshape(n, count, w, m, c, b)
        outer = self._outer[:, :, trials, None]
        inner = self._inner[:, :, trials, None]
        down, up = outer[0], inner[0]  # H[k, k-1] and H[k, k+1] by block
        # One dense right-hand side per side and trial for every sweep
        # solve: the coupling is written into its diagonal c x c blocks,
        # the rest stays zero.  Broadcast explicitly: NumPy 1.x solve reads
        # a right-hand side of fewer dimensions than its matrices as a
        # stack of vectors.
        rhs = np.zeros((2, count, 1, b, b), dtype=complex)
        rhs_blocks = np.lib.stride_tricks.as_strided(
            rhs, shape=(2, count, 1, m, c, c),
            strides=rhs.strides[:3] + ((b + 1) * c * 16, b * 16, 16))
        rhs_stack = np.broadcast_to(rhs, (2, count, w, b, b))

        def coupled(coupling, h):
            """``coupling @ h``, one matmul over the c x c blocks."""
            return np.matmul(coupling, h.reshape(count, w, m, c, -1)).reshape(
                count, w, b, -1)

        # E[k] holds the unit columns of the ports on block k.
        port_block = self._block_of[rows]
        first, k0 = int(port_block.min()), int(port_block.max())
        E = np.zeros((n, b, p))
        E[port_block, self._pos_of[rows], np.arange(p)] = 1.0
        X = np.empty((n, count, w, b, p), dtype=complex)

        def carried(k):
            """E_k plus the ports carried up from below, L_{k-1} X[k-1]."""
            if k == first:
                return np.broadcast_to(E[k], (count, w, b, p))
            return E[k] + coupled(down[k], X[k - 1])

        # The sweeps eliminate toward k0, the last port block, and overwrite
        # slot k with its transfer matrix: h_left[k] = S_k^-1 U_k carries
        # X_{k+1} to X_k below k0, h_right[k] = S_k^-1 L_{k-1} carries X_{k-1}
        # to X_k above it (S_k: the Schur complement of block k).  From the
        # first port block on, the left sweep also keeps X[k] =
        # S_k^-1 carried(k), the part of X_k that the ports at and below
        # block k drive, from the same solve (the right side's columns
        # there are zero); back-substitution adds h_left[k] X_{k+1} to it.
        # Step s eliminates block s of the left sweep and block n - 1 - s of
        # the right one, each while it lies before k0.  Per step: the sides
        # still sweeping, their blocks, the blocks they come from and the
        # blocks toward k0, as slices over the block axis (one block where
        # a side has finished, or where both sides' next block is k0).
        steps = []
        for s in range(max(k0, n - 1 - k0)):
            if s < k0 < n - 1 - s:
                gap = n - 1 - 2 * s
                steps.append((slice(0, 2), slice(s, n - s, gap),
                              slice(s - 1, n - s + 1, gap + 2),
                              slice(s + 1, n - 1 - s, max(gap - 2, 1))))
            elif s < k0:
                steps.append((slice(0, 1), slice(s, s + 1), slice(s - 1, s),
                              slice(s + 1, s + 2)))
            else:
                k = n - 1 - s
                steps.append((slice(1, 2), slice(k, k + 1), slice(k + 1, k + 2),
                              slice(k - 1, k)))
        for s, (sides, blocks, behind, _) in enumerate(steps):
            if s:
                grouped[blocks] -= np.matmul(outer[sides, s], grouped[behind])
            rhs_blocks[sides] = inner[sides, s]
            if first <= s < k0:
                stacked = np.zeros(rhs_stack[sides].shape[:-1] + (b + p,), dtype=complex)
                stacked[..., :b] = rhs_stack[sides]
                stacked[0, ..., b:] = carried(s)
                solved = np.linalg.solve(work[blocks], stacked)
                work[blocks], X[s] = solved[..., :b], solved[0, ..., b:]
            else:
                work[blocks] = np.linalg.solve(work[blocks], rhs_stack[sides])
        S = work[k0]
        if k0:
            S -= coupled(down[k0], work[k0 - 1])
        if k0 < n - 1:
            S -= coupled(up[k0], work[k0 + 1])
        X[k0] = np.linalg.solve(S, carried(k0))
        self.solves += len(steps) + 1
        for s in reversed(range(len(steps))):
            _, blocks, _, ahead = steps[s]
            if first <= s < k0:
                product = np.matmul(work[blocks], X[ahead])
                X[s] += product[0]
                X[blocks][1:] = product[1:]
            else:
                np.matmul(work[blocks], X[ahead], out=X[blocks])
        return X

    def log(self, reason: str) -> None:
        """One DEBUG record for this engine call (path ``oam-rgf``)."""
        if self.width > 1:
            reason += (f"; H couples OAM slices {self.width} apart, so each "
                       f"block joins {self.width} slices")
        _LOG.debug(
            "resolvent path=oam-rgf (%s): %d factorization(s) for %d trial(s) "
            "in %d solve call(s) over %d slices of size %d with %dx%d coupling "
            "blocks, in chunks of %d on a %d-byte work array, worst relative "
            "residual %.3e",
            reason, self.factorizations, self.trials, self.solves, self.slices,
            self.block_size, self.coupling_block, self.coupling_block,
            self.omega_chunk, self.work_bytes, self.worst_residual,
            extra={"solver_path": "oam-rgf", "solver_reason": reason,
                   "factorizations": self.factorizations,
                   "trials": self.trials, "solves": self.solves,
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
