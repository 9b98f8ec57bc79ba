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
resolvent columns.  Three exact reductions are one problem, a +-1 signing
of a signed graph, which one pass decides (:func:`_signing`).  The engine
labels the connected components of ``H``'s entries once and sweeps only
the sectors that hold a port, each over its own blocks, writing exact
zeros elsewhere: ``qsh`` and ``dirac`` split into two sectors with half of
every slice in each, so a port's sweep runs on half-width blocks.  Where
``omega - H + i G/2`` is its own transpose up to reversing the slice order
and a diagonal signature ``S``, derived from the signs of the entries'
mirror images (``S = 1`` under uniform loss on the flux lattices, ``+-(-1)^s``
on ``qsh``, ``+-(-1)^j`` on ``dirac`` over an even number of blocks), the
right sweep follows from the left one, and only the left blocks are
factorized.  Each solve is batched over (trial, frequency) pairs:
one ``H`` over a chunk of frequencies, or a stack of Monte Carlo trials
on one lattice, each with its own decay rates, over their frequencies.
The cost is linear in the number of slices and exact.  A chunk's one
work array holds ``A_k``, then the transfer matrices, then the columns,
each over the last; total power and the residual check of every column
against its own trial's ``H`` are reduced from it in block order, and
only callers that need columns gather them into flat order.  So the
memory is the trials' entries plus one work array per chunk.  Each
engine call logs one DEBUG record to the ``oamphoton`` logger, which
explains its path, sectors, mirror, solves, chunks and worst residual
(see :meth:`Resolvent.log`).

Two exact identities halve a total-power spectrum's work.  Where a +-1
diagonal ``C`` gives ``C H C = -H`` (every entry joins two sublattices, as
on the flux lattices with even rings and on ``dirac``, whose hops all flip
the polarization), ``G(-omega) = -C G(omega)^dagger C``; with the optical
theorem the total power is even in ``omega`` for any positive rates, and
:func:`total_transmission_spectrum` solves one point of each ``+-omega``
pair.  ``H(1 - phi) = conj H(phi)``, so ``G(1 - phi) = G(phi)^T`` and the
total power at ``1 - phi`` equals that at ``phi``; the CLI's butterfly
computes each ``phi <= 1/2`` once.  Mode-resolved maps obey neither.
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
    "transmission",
    "total_transmission_spectrum",
    "spectral_factorization",
    "eig_transmission_vector",
]

RESIDUAL_RTOL = 1e-10
"""Relative residual bound enforced on every resolvent column."""

_CHUNK_BYTES = 5 * 2**20
"""Working memory of one chunk (see :func:`_row_bytes`)."""

_TILE_BYTES = 256 * 2**10
"""Columns the residual check copies into flat block order at once."""

_COUPLING_COND_LIMIT = 1e3
"""Bound on ``max|U| max|U^-1|`` for each ``c x c`` coupling block ``U`` that
the mirrored sweep inverts, a product within a factor ``c^2`` of ``U``'s
condition number; a block beyond it counts as singular."""

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
    delta ``delta_{n', input}`` of the scattering row.
    """

    omega: float
    input: SiteIndex
    amplitudes: np.ndarray


def default_omega_grid(n: int = 400, span: float = 4.5) -> np.ndarray:
    """The default probe grid: ``n`` points spanning ``[-span, span]``.

    The grid is symmetric about 0 and contains ``omega = 0`` only when ``n``
    is odd; the default of 400 brackets it by the pair ``+-span / (n - 1)``.
    Its points are negatives of one another to within rounding, so on a
    chiral lattice :func:`total_transmission_spectrum` solves the points
    below 0 (and 0 itself) and copies each one's power to its partner.
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


def _row_bytes(slices: int, block_size: int, ports: int, carried: int = 0) -> int:
    """Working memory of one (trial, frequency) row of a chunk: per block a
    work array slot, the copy of fewer columns than it holds and two power
    sums; and the partial columns of ``carried`` blocks below ``k0``."""
    columns = block_size + ports if ports < block_size else ports
    return 16 * block_size * (slices * (columns + 1) + carried * ports)


def _trials_per_chunk(H: HamiltonianMatrix, ports: int, omegas: int) -> int:
    """How many trials sampled from ``H``, each with ``omegas`` frequencies
    and ``ports`` ports on one OAM block, fill one chunk budget (at least
    one).

    A trial takes its rows of the chunk, sized for the widest sector of
    ``H`` (see :func:`_sectors`) over plain OAM slices, and the storage of
    its own ``H``: the sample's entries, the engine's copy and the residual
    check's diagonals, about three times ``H``'s entry bytes.
    """
    blocks = _oam_blocks(H.spec)
    sector = _sectors(H.dim, H.rows, H.cols)
    b = max(_sector_blocks(blocks, sector == g).shape[1] for g in range(sector.max() + 1))
    trial = 3 * (H.rows.nbytes + H.cols.nbytes + H.values.nbytes)
    return max(1, _CHUNK_BYTES // (omegas * _row_bytes(blocks.shape[0], b, ports) + trial))


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


def _signing(dim: int, rows: np.ndarray, cols: np.ndarray,
             negative: np.ndarray | bool = False
             ) -> tuple[np.ndarray, np.ndarray, int | None]:
    """A +-1 signing ``S`` of the graph on ``dim`` sites whose edges, the
    entries ``(rows, cols)`` with their transposes, ask ``S_row S_col = -1``
    where ``negative`` holds and ``+1`` elsewhere: each site's component
    label (its smallest site), ``S`` (``+1`` on each label) and the first
    entry ``S`` breaks, or ``None``.  A signing exists exactly when every
    cycle holds an even number of negative entries (Harary, Michigan Math.
    J. 2, 143 (1953)), unique up to each component's sign.

    Min-label propagation keyed ``2 label + parity``, for ``S_site =
    S_label (-1)^parity`` (unsigned, the label alone): each site takes the
    smallest key of its own and its neighbours' (the parity flipped across
    a negative entry), then keys jump to their label's, adding its parity,
    about ``log2 d`` times on a chain of ``d``; until every entry joins one
    label.  Unsigned, the flux lattices stop after one step: every site but
    0 has a smaller neighbour there, so all lead to 0.
    """
    signed = int(np.any(negative))
    flip = np.broadcast_to(np.asarray(negative, dtype=np.intp), np.shape(rows)) if signed else 0
    key = np.arange(dim) << signed  # unsigned, the label alone
    np.minimum.at(key, rows, key[cols] ^ flip)
    if not signed and np.all(key[1:] < np.arange(1, dim)):
        return np.zeros(dim, dtype=np.intp), np.ones(dim, dtype=np.intp), None
    while True:
        while True:
            jumped = key[key >> signed] ^ (key & signed)
            if np.array_equal(jumped, key):
                break
            key = jumped
        broken = np.flatnonzero(key[rows] != key[cols] ^ flip)
        if np.array_equal(key[rows[broken]] >> signed, key[cols[broken]] >> signed):
            return key >> signed, 1 - 2 * (key & signed), int(broken[0]) if broken.size else None
        np.minimum.at(key, rows, key[cols] ^ flip)


def _sectors(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The sector of every site: its connected component in the graph of
    the entries ``(rows, cols)`` (see :func:`_signing`), numbered from 0 in
    the order of their smallest sites."""
    label = _signing(dim, rows, cols)[0]
    return np.unique(label, return_inverse=True)[1] if label.any() else label


def _sector_blocks(blocks: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``blocks`` restricted to the sites where ``inside`` holds: each block
    keeps those sites in their order, padded with ``-1`` to the widest."""
    keep = (blocks >= 0) & inside[blocks]
    order = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max()]
    return np.where(np.take_along_axis(keep, order, axis=1),
                    np.take_along_axis(blocks, order, axis=1), -1)


def _offset_diagonals(size: int, rows: np.ndarray, cols: np.ndarray,
                      values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """A ``size x size`` matrix's entries by diagonals: the offsets ``col -
    row`` that hold entries, and ``diagonals[k][i]``, the entry at ``(i, i
    + offsets[k])`` or zero."""
    shifted = cols - rows + size - 1
    present = np.flatnonzero(np.bincount(shifted, minlength=2 * size - 1))
    index = np.zeros(2 * size - 1, dtype=np.intp)
    index[present] = np.arange(present.size)
    diagonals = np.zeros((present.size, size), dtype=complex)
    diagonals[index[shifted], rows] = values
    return (present - (size - 1)).tolist(), diagonals


def _diagonal_product(y: np.ndarray, x: np.ndarray, offsets: Sequence[int],
                      diagonals: np.ndarray, start: int, x_start: int,
                      scratch: np.ndarray) -> None:
    """Add rows ``start ..`` of the matrix of ``offsets`` and ``diagonals``
    (see :func:`_offset_diagonals`) times ``x``, which holds rows ``x_start
    ..`` (the others count as 0), to ``y``: each entry scales one contiguous
    row of ``x`` (many columns) into ``scratch``, as large as ``y``."""
    stop, x_stop = start + len(y), x_start + len(x)
    for offset, diagonal in zip(offsets, diagonals):
        lo, hi = max(start, x_start - offset), min(stop, x_stop - offset)
        if lo < hi:
            part, target = scratch[: hi - lo], y[lo - start: hi - start]
            np.multiply(diagonal[lo:hi, None], x[lo + offset - x_start: hi + offset - x_start],
                        out=part)
            np.add(target, part, out=target)


class _Layout:
    """One sector's sweep: its blocks, its trials' entries on them, and its
    mirror.

    ``blocks`` (see :func:`_oam_blocks`) holds the sector's flat indices,
    ``-1`` on pad sites, and ``positions`` is ``(block_of, pos_of)`` for
    them; ``sites`` lists the sector's flat indices, or is ``None`` where
    the sector is the whole lattice.  ``entries`` are the ``rows``, ``cols``
    and values (one row per trial) of the sector's sites, and ``rates``
    every trial's full rate vector.
    """

    def __init__(self, blocks: np.ndarray, positions: tuple[np.ndarray, np.ndarray],
                 sites: np.ndarray | None,
                 entries: tuple[np.ndarray, np.ndarray, np.ndarray], rates: np.ndarray):
        rows, cols, values = entries
        block_of, self.pos_of = pos = positions
        self.sites = sites
        self.size = rates.shape[1] if sites is None else sites.size
        # Each site's (block, position), in the order the columns are returned.
        self.gather = pos if sites is None else (block_of[sites], self.pos_of[sites])
        n, b = blocks.shape
        self.block_size = b
        self.blocks = blocks
        real = blocks >= 0
        # Each site's place q = block * b + position in block order, or -1.
        self.q_of = np.full(rates.shape[1], -1)
        self.q_of[blocks[real]] = np.flatnonzero(real)
        self._operators: dict[int, tuple[list[int], np.ndarray, np.ndarray]] = {}
        br, bc = block_of[rows], block_of[cols]
        pr, pc = self.pos_of[rows], self.pos_of[cols]
        inside = np.flatnonzero(br == bc)
        off = np.flatnonzero(br != bc)
        # A chunk scatters -D_k, so the values are negated once here.
        self.diagonal = br[inside], pr[inside], pc[inside], -values[:, inside]
        br, bc, pr, pc = br[off], bc[off], pr[off], pc[off]
        self.coupling_block = c = _coupling_block(b, pr, pc)
        m = b // c
        # down[k] = H[k, k-1] and up[k] = H[k, k+1] (zero past the ends),
        # each entry at its block, trial, c-group and place in the c x c
        # block; the pattern holds each (row, col) once, so assignment is
        # exact.
        group, row = np.divmod(pr, c)
        coupling = values[:, off]
        down_up = np.zeros((2 * n, values.shape[0], m * c * c), dtype=complex)
        down_up[(br < bc) * n + br, :, (group * c + row) * c + pc % c] = coupling.T
        down, up = down_up.reshape(2, n, -1, m, c, c)
        # Side 0 is the left sweep at block s, side 1 the right sweep at
        # block n - 1 - s: outer[side, s] couples that block to the one its
        # sweep comes from, inner[side, s] to the one toward the pivot.
        self.outer = np.stack([down, up[::-1]])
        self.inner = np.stack([up, down[::-1]])
        # A_k(omega) = omega * mask + shift - D_k; a pad site solves 1 * x = 0.
        self.mask = real.astype(float)
        self.shift = np.where(real[:, None], 0.5j * np.moveaxis(
            rates[:, np.where(real, blocks, 0)], 0, 1), 1.0)
        (self.mirror, self.mirror_down, self.sign, self.signature,
         self.mirror_reason) = self._mirror_factors(down_up, (br, bc, pr, pc, coupling))
        self.mirrored = self.mirror is not None

    def operator(self, t: int, H: HamiltonianMatrix
                 ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Trial ``t``'s own ``H`` and rates in flat block order, built on
        first use and kept: the offsets and diagonals of the sector's
        entries (see :func:`_offset_diagonals`), and ``shift[:, t]``:
        ``i gamma/2`` on each site, 1 on pads, which solve ``1 * x = 0``."""
        if t not in self._operators:
            keep = slice(None) if self.sites is None else np.flatnonzero(self.q_of[H.rows] >= 0)
            self._operators[t] = (
                *_offset_diagonals(self.blocks.size, self.q_of[H.rows[keep]],
                                   self.q_of[H.cols[keep]], H.values[keep]),
                self.shift[:, t].reshape(-1))
        return self._operators[t]

    def _mirror_factors(self, down_up: np.ndarray, couplings: tuple[np.ndarray, ...]
                        ) -> tuple:
        """The factors of the mirrored right blocks, the signature ``S`` (see
        :meth:`_signature`) and its name, and why: ``S_s (U_s^-1)^T`` and
        ``S_{s+1} L_{s+1}`` (``S_k``, ``S`` on block ``k``, scaling the rows)
        for every step whose right block can be mirrored, each of shape
        ``((slices - 1) // 2, trials, b/c, c, c)``; ``None`` for all four
        where the mirror fails for some trial."""
        n, c = self.shift.shape[0], self.coupling_block
        none = None, None, None, None
        if n < 3:
            return *none, "not mirrored: fewer than three slices"
        sign, why = self._signature(down_up, couplings)
        if why:
            return *none, f"not mirrored: {why}"
        steps = (n - 1) // 2
        coupling = down_up[n: n + steps].reshape(steps, down_up.shape[1], -1, c, c)
        with np.errstate(all="ignore"):
            try:
                # A 1 x 1 block's inverse is its reciprocal, far cheaper than
                # one LAPACK call per block.
                inverse = 1 / coupling if c == 1 else np.linalg.inv(coupling)
            except np.linalg.LinAlgError:
                inverse = np.full_like(coupling, np.nan)
            size = np.abs(coupling).max(axis=(-2, -1)) * np.abs(inverse).max(axis=(-2, -1))
        # A zero or NaN block fails too.
        if not np.all(size <= _COUPLING_COND_LIMIT):
            return *none, "not mirrored: a coupling block U_k is singular"
        # A view of the stored L_k, so that down and up can be freed.
        mirror, mirror_down = inverse.swapaxes(-1, -2), self.outer[0, 1: steps + 1]
        if sign is None:
            return (mirror, mirror_down, None, "S = 1",
                    "mirrored: J M J = M^T, so the left sweep gives the right one")
        name = f"S = -1 on {np.count_nonzero(sign < 0)} of {self.size} sites"
        rows_sign = sign.reshape(n, 1, -1, c, 1)
        return (rows_sign[:steps] * mirror, rows_sign[1: steps + 1] * mirror_down, sign, name,
                f"mirrored: (J S) M (J S) = M^T with {name}, so the left sweep "
                f"gives the right one")

    def _signature(self, down_up: np.ndarray, couplings: tuple[np.ndarray, ...]
                   ) -> tuple[np.ndarray | None, str]:
        """``S`` with ``(J S) M (J S) = M^T`` in every trial, shape
        ``(slices, block_size)``, ``None`` for ``S = 1``; or why none exists.

        ``J`` keeps a site's position in its block, and ``S`` is constant on
        the orbits ``{a, Ja}``.  So the rates must be mirror images, and each
        entry ``H[r, c] = S_r S_c H[Jc, Jr]`` exactly, with one sign in every
        trial: a relation between two orbits, for :func:`_signing`.  The
        couplings compare as ``L_k`` with ``L_{n-k}^T`` and ``U_k`` with
        ``U_{n-2-k}^T`` in ``down_up``, the entries of ``D_k`` with
        ``D_{n-1-k}^T`` by sorting; where all are equal, ``S = 1`` without a
        pass.  The cheapest comparisons, of the pads and the rates, run first.
        """
        n, b = self.mask.shape
        c = self.coupling_block
        down, up = down_up.reshape(2, n, -1, b // c, c, c)
        br, bc, pr, pc, coupling = couplings

        def compare(value, image):
            """Where each entry equals its image, and the first not +- it."""
            # Contiguous (trial, entry) arrays reduce over trials far faster.
            value, image = np.ascontiguousarray(value), np.ascontiguousarray(image)
            same = np.all(value == image, axis=0)
            if same.all():
                return same, None
            bad = np.flatnonzero(~(same | np.all(value == -image, axis=0)))
            return same, bad[0] if bad.size else None

        def unmatched(rb, rp, cb, cp):
            return f"H[{self.blocks[rb, rp]}, {self.blocks[cb, cp]}] is not +- its mirror image"

        if not np.array_equal(self.mask, self.mask[::-1]):
            return None, "the pad sites are not mirror images"
        if not np.array_equal(self.shift, self.shift[::-1]):
            return None, "the decay rates are not mirror images"
        same = np.ones(br.size, dtype=bool)
        if not (np.array_equal(down[:0:-1], down[1:].swapaxes(-1, -2))
                and np.array_equal(up[-2::-1], up[:-1].swapaxes(-1, -2))):
            # H[Jc, Jr] is the coupling of the same side at block n - 1 - bc.
            image = down_up[(br < bc) * n + n - 1 - bc, :, (pr - pr % c + pc % c) * c + pr % c]
            same, bad = compare(coupling, image.T)
            if bad is not None:
                return None, unmatched(br[bad], pr[bad], bc[bad], pc[bad])
        block, row, col, value = self.diagonal
        key, image_key = (block * b + row) * b + col, ((n - 1 - block) * b + col) * b + row
        # Both come in sorted runs, which a stable sort merges quickly.
        order, image_order = np.argsort(key, kind="stable"), np.argsort(image_key, kind="stable")
        if not np.array_equal(key[order], image_key[image_order]):
            e = np.flatnonzero(~np.isin(image_key, key))[0]  # its image holds no entry
            return None, unmatched(block[e], row[e], block[e], col[e])
        inside, bad = compare(value[:, order], value[:, image_order])
        if bad is not None:
            e = order[bad]
            return None, unmatched(block[e], row[e], block[e], col[e])
        if same.all() and inside.all():
            return None, ""
        # One node per orbit: blocks k and n - 1 - k share the lower one's.
        fold = np.minimum(np.arange(n), np.arange(n)[::-1])
        rb, rp, cb, cp = (np.concatenate(pair) for pair in
                          ((br, block[order]), (pr, row[order]), (bc, block[order]), (pc, col[order])))
        negative = ~np.concatenate([same, inside])
        rows, cols = fold[rb] * b + rp, fold[cb] * b + cp
        # An entry and its image H[Jc, Jr] give one relation, the other way
        # round, and so do their transposes: the entries whose blocks sum
        # below n - 1 hold each relation once each way, and on the middle
        # blocks, where the sum is n - 1, the block itself and its upward
        # coupling do.
        once = np.flatnonzero((rb + cb < n - 1) | ((rb + cb == n - 1) & (rb <= cb)))
        _, sign, broken = _signing((n + 1) // 2 * b, rows[once], cols[once], negative[once])
        if broken is not None:
            # The first of all entries that S breaks, as each one's image does.
            e = np.flatnonzero(sign[rows] * sign[cols] != 1 - 2 * negative)[0]
            return None, (f"no signature fits every entry (some cycle holds an odd number "
                          f"of negated mirror images; H[{self.blocks[rb[e], rp[e]]}, "
                          f"{self.blocks[cb[e], cp[e]]}] breaks the one derived)")
        return sign.reshape(-1, b)[fold], ""


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
    :func:`_shared_pattern`).

    Sectors: the constructor labels the connected components of that
    pattern once (see :func:`_sectors`).  The paper's spinful lattices,
    ``qsh`` and ``dirac``, split into two sectors with half of every slice
    in each; a port reaches only its own, so ``G`` is exactly 0 between
    them.  Each call groups its ports by sector and sweeps each sector that
    holds one over that sector's own layout: the OAM blocks restricted to
    its sites, padded with ``-1`` where a block holds fewer (see
    :func:`_sector_blocks`), built on first use and kept.  Every other site
    gets exact zeros.  A connected lattice is the one-sector case: its
    layout is the OAM blocks themselves, built in the constructor.

    Within a layout the diagonal blocks ``D_k`` stay COO entries (block,
    position in the block, one value per trial), and the couplings ``U_k =
    H[k, k+1]`` and ``L_k = H[k+1, k]`` are stored as per-cavity ``c x c``
    blocks, each trial's in its own contiguous slots.  The
    ``coupling_block`` ``c`` is read from the entries of all trials (see
    :func:`_coupling_block`): an OAM hop never leaves its cavity, so ``c``
    is 1 for scalar hops and for a sector of ``qsh`` or ``dirac`` (one site
    per cavity and slice) and 2 for 2x2 Jones blocks (on a folded even ring
    too); a coupling that joins two cavities, the middle slice of a folded
    odd ring or widened blocks make ``c`` the ``block_size``, one dense
    block per slice.

    The batch is cut into chunks of whole trials (or of one trial's
    frequencies, where its grid alone overflows a chunk), sized by
    :func:`_row_bytes`.  Each sector swept holds one work array at a time,
    of shape ``(slices, trials, frequencies, block_size, max(block_size,
    ports))``, whose slot ``k`` first holds ``A_k = omega + i G/2 - D_k``.
    With ``k0`` the last block holding a port, Schur-complement sweeps from
    block 0 and from the last block toward ``k0`` overwrite slot ``k`` with
    its transfer matrix, so that back-substitution costs one matmul per
    block and writes the columns ``X_k`` over it.  The two sweeps run as
    one loop over a side axis: while both have blocks left, each step makes
    one solve, one Schur matmul and, on the way back, one
    back-substitution matmul for both.  From the first port block on, the
    left sweep also carries the unit columns of the ports below ``k0``,
    stacked beside its coupling in the same solve, and keeps their partial
    columns aside.  One solve at ``k0`` serves every port.  Every column,
    at full dimension, is then checked against its own trial's ``H`` in
    block order: ``||(omega - H + i G/2) x - e|| <=``
    :data:`RESIDUAL_RTOL`, so NaN fails too.  :meth:`transmitted_power`
    reduces the power from the same array; only :meth:`columns`,
    :meth:`solve` and :meth:`transmission` gather columns into flat order.

    Mirror: with ``J`` the reversal of the block order (each block's sites
    kept in place) and ``S`` a diagonal signature of +-1, where ``M = omega
    + i G/2 - H`` satisfies ``(J S) M (J S) = M^T``, the right sweep's Schur
    complements are ``S_k`` times the transposes of the left sweep's, so
    ``h_right[n-1-s] = S_s (L_{s+1} h_left[s] U_s^-1)^T S_{s+1}`` needs no
    factorization.  Each layout decides this once for all trials, by exact
    comparison of every entry with its mirror image, and derives ``S`` from
    their signs or names the entry that no ``S`` fits (see
    :meth:`_Layout._signature`); a ``c x c`` block of ``U_s`` beyond
    :data:`_COUPLING_COND_LIMIT` counts as singular.  ``S = 1`` holds for
    ``landau`` on any window, ``oam-gauge`` on a symmetric one and a
    ``dirac`` sector on an odd number of blocks, ``S = +-(-1)^s`` for
    ``qsh`` (folded even rings too) and ``S = +-(-1)^j`` for a ``dirac``
    sector on an even number of blocks, under uniform loss, clean or with
    per-cavity detuning; per-mode random loss, coupling disorder and folded
    odd rings fail (``mirrored``, ``mirror_reason``).  While both sweeps
    are active, a mirrored layout's steps factorize the left block alone,
    and one product writes the right blocks whole; every other step is
    unchanged.

    ``sectors`` counts the components and ``slices`` the sweep blocks (the
    same in every sector).  ``block_size``, ``coupling_block``,
    ``mirrored`` and ``mirror_reason`` describe every sector's layout (the
    largest sizes, whether all are mirrored, each distinct reason), and
    reading them builds any layout not yet built.  ``factorizations`` (one
    per trial and frequency), ``block_factorizations`` (slice blocks
    factorized), ``solves`` (``np.linalg.solve`` calls), ``worst_residual``,
    ``chunks``, ``omega_chunk`` (the (trial, frequency) rows of the
    largest chunk), ``work_bytes`` (the largest work array),
    ``chunk_bytes`` (the largest work array with the partial columns kept
    beside it) and the sectors swept accumulate over the object's solves.
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
        # The largest block distance between two sites that H couples.
        self.width = int(np.max(np.abs(block_of[rows] - block_of[cols]), initial=1))
        if self.width > 1:
            blocks = _widen(blocks, self.width)
            block_of, pos_of = _positions(blocks, dim)
        self._block_of, self._pos_of = block_of, pos_of
        self.slices = blocks.shape[0]
        self._sector = _sectors(dim, rows, cols)
        self.sectors = int(self._sector.max()) + 1
        if self.sectors == 1:
            self._layouts = {0: _Layout(blocks, (block_of, pos_of), None,
                                        (rows, cols, values), self.rates)}
        else:
            self._layouts = {}
            self._blocks, self._entries = blocks, (rows, cols, values)
        self._swept: set[int] = set()
        self.factorizations = 0
        self.block_factorizations = 0
        self.solves = 0
        self.worst_residual = 0.0
        self.omega_chunk = 0
        self.chunks = 0
        self.work_bytes = 0
        self.chunk_bytes = 0

    def _layout(self, sector: int) -> _Layout:
        """The layout of one sector, built on first use."""
        if sector not in self._layouts:
            rows, cols, values = self._entries
            inside = self._sector == sector
            blocks = _sector_blocks(self._blocks, inside)
            keep = np.flatnonzero(inside[rows])
            self._layouts[sector] = _Layout(
                blocks, _positions(blocks, self.dim), np.flatnonzero(inside),
                (rows[keep], cols[keep], values[:, keep]), self.rates)
        return self._layouts[sector]

    def _all_layouts(self) -> list[_Layout]:
        return [self._layout(g) for g in range(self.sectors)]

    @property
    def block_size(self) -> int:
        """The largest sweep block of any sector."""
        return max(layout.block_size for layout in self._all_layouts())

    @property
    def coupling_block(self) -> int:
        """The largest coupling block of any sector."""
        return max(layout.coupling_block for layout in self._all_layouts())

    @property
    def mirrored(self) -> bool:
        """Whether every sector's right sweep is mirrored from its left one."""
        return all(layout.mirrored for layout in self._all_layouts())

    @property
    def mirror_reason(self) -> str:
        """Why each sector is mirrored or not: its distinct reasons."""
        return _distinct(layout.mirror_reason for layout in self._all_layouts())

    def _groups(self, rows: np.ndarray) -> list[tuple[int, _Layout, np.ndarray]]:
        """``(sector, layout, ports)`` for each sector holding a port, with
        ``ports`` indexing ``rows``."""
        if self.sectors == 1:
            return [(0, self._layouts[0], np.arange(rows.size))]
        sector = self._sector[rows]
        # A count, not np.unique: under NumPy 2.4 the first np.unique call
        # keeps about 0.5 MB allocated for the life of the process.
        held = np.flatnonzero(np.bincount(sector, minlength=self.sectors))
        return [(g, self._layout(g), np.flatnonzero(sector == g)) for g in held.tolist()]

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
        part, len(rows))``, C-contiguous, gathered into flat order.  Each
        row must be an integer index into ``H``; the rows are checked on the
        call, the frequencies (nonempty and finite) when the first chunk is
        drawn.
        """
        rows = self._port_rows(rows)
        size = np.size(omegas)
        return ((slice(trials.start * size + part.start,
                       (trials.stop - 1) * size + part.stop),
                 self._gather(sectors, (trials.stop - trials.start) * (part.stop - part.start),
                              rows.size))
                for trials, part, sectors in self._chunks(omegas, rows))

    def _gather(self, sectors: Iterator[tuple[_Layout, np.ndarray, np.ndarray]],
                batch: int, ports: int) -> np.ndarray:
        """One chunk's columns in flat order, shape ``(dim, batch, ports)``,
        exactly 0 outside the ports' sectors."""
        x = np.zeros((self.dim, batch, ports), dtype=complex) if self.sectors > 1 else None
        for layout, group, X in sectors:
            block, position = layout.gather
            part = X.reshape(self.slices, batch, layout.block_size, group.size)[
                block, :, position]
            del X  # this sector's columns, before the next sector is swept
            if x is None:
                x = part
            else:
                x[layout.sites[:, None, None], np.arange(batch)[:, None], group] = part
        return x

    def _chunks(self, omegas: np.ndarray, rows: np.ndarray
                ) -> Iterator[tuple[slice, slice, Iterator]]:
        """``(trials, part, sectors)`` per chunk for rows already checked by
        :meth:`_port_rows`: the columns of ``trials`` at ``omegas[part]``,
        one sector at a time (see :meth:`_sweep`)."""
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        if omegas.size == 0:
            raise ValueError("frequency grid must be nonempty")
        bad = omegas[~np.isfinite(omegas)]
        if bad.size:
            raise ValueError(f"omega must be finite, got {bad[0]!r}")
        b = max(layout.block_size for _, layout, _ in self._groups(rows))
        port_block = self._block_of[rows]
        carried = int(port_block.max() - port_block.min())
        batch = max(1, _CHUNK_BYTES // _row_bytes(self.slices, b, rows.size, carried))
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
        mode (unit weights by default), reduced in block order in one fixed
        order per (trial, frequency) row, so the bits do not depend on how
        the batch is chunked.
        """
        rows = self._port_rows(rows)
        out_weight = self.rates if weights is None else self.rates * weights
        # |T|^2 = gamma_n' gamma_r (Re^2 + Im^2) of the column entries.
        in_weight = np.repeat(self.rates[:, rows], 2, axis=1).reshape(self.trials, -1, 2)
        power = np.empty((self.trials, np.size(omegas)))
        for trials, part, sectors in self._chunks(omegas, rows):
            count = trials.stop - trials.start
            sums = []
            for layout, ports, X in sectors:
                parts = X.view(float)
                np.multiply(parts, parts, out=parts)
                # Each sum runs along a contiguous last axis, over the ports
                # of one site and row, then over a row's sites, sector by
                # sector in block order: the same whatever the chunk holds.
                per_site = np.einsum("ktwij,tj->ktwi", parts,
                                     in_weight[trials][:, ports].reshape(count, -1))
                del X, parts  # this sector's work array, before the next one is built
                per_site *= (out_weight[trials][:, layout.blocks] * layout.mask).swapaxes(
                    0, 1)[:, :, None]
                sums.append(per_site.transpose(1, 2, 0, 3).reshape(-1, layout.blocks.size))
            power[trials, part] = np.concatenate(sums, axis=1).sum(axis=1).reshape(count, -1)
        return power[0] if self._single else power

    def _sweep(self, trials: slice, omegas: np.ndarray, rows: np.ndarray
               ) -> Iterator[tuple[_Layout, np.ndarray, np.ndarray]]:
        """One chunk, one sector at a time: yields ``(layout, ports, X)`` for
        each sector holding a port, once its columns passed the check.
        ``ports`` indexes ``rows``, and ``X`` holds their columns in block
        order, shape ``(slices, trials, len(omegas), block_size,
        len(ports))``; the caller drops it before drawing the next sector.
        """
        for g, layout, ports in self._groups(rows):
            try:
                X = self._block_columns(layout, trials, omegas, rows[ports])
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(
                    f"solve residual unbounded: singular slice block ({exc}) in "
                    f"trials {trials.start}..{trials.stop - 1} at omega in "
                    f"[{omegas.min()}, {omegas.max()}]"
                ) from None
            self._check(layout, trials, omegas, rows[ports], X)
            self._swept.add(g)
            yield layout, ports, X
            del X  # before the next sector's work array is built
        self.factorizations += (trials.stop - trials.start) * omegas.size
        self.chunks += 1

    def _check(self, layout: _Layout, trials: slice, omegas: np.ndarray,
               rows: np.ndarray, X: np.ndarray) -> None:
        """Raise unless every column ``x`` in ``X`` (see :meth:`_sweep`) has
        ``||e - (omega - H + i G/2) x|| <=`` :data:`RESIDUAL_RTOL` against
        its own trial's ``H`` (see :meth:`_Layout.operator`), so NaN fails
        too.  Each ``e`` has unit norm, so these are relative residuals.

        No entry joins two sectors, so off its sector a column's residual
        is exactly 0.  The check runs in flat block order, a row per site
        holding every column of a trial, over tiles of whole blocks (about
        :data:`_TILE_BYTES`) copied with a halo of one block on either side,
        where every entry of the tile's rows lands.
        """
        n, b, w, p = *layout.blocks.shape, omegas.size, rows.size
        port, mask = layout.q_of[rows], layout.mask.reshape(-1)
        trial = range(trials.start, trials.stop)
        # Each trial's own H in block order, built before the tiles.
        operators = [layout.operator(t, self._Hs[t]) for t in trial]
        step = max(1, _TILE_BYTES // (16 * w * p * b))
        tile = np.empty((min(step + 2, n) * b, w * p), dtype=complex)
        r, scratch = np.empty((2, min(step, n) * b, w * p), dtype=complex)
        for i, (t, (offsets, diagonals, constant)) in enumerate(zip(trial, operators)):
            squares = np.zeros(2 * w * p)
            for k in range(0, n, step):
                lo, hi = max(k - 1, 0), min(k + step + 1, n)
                start, stop = k * b, min(k + step, n) * b
                x = tile[: (hi - lo) * b]
                np.copyto(x.reshape(hi - lo, b, w, p), X[lo:hi, i].transpose(0, 2, 1, 3))
                y = r[: stop - start]
                # r = e - (omega + i G/2) x + H x
                shift = omegas * mask[start:stop, None] + constant[start:stop, None]
                np.multiply(x[start - lo * b: stop - lo * b].reshape(-1, w, p),
                            -shift[:, :, None], out=y.reshape(-1, w, p))
                _diagonal_product(y, x, offsets, diagonals, start, lo * b, scratch)
                hit = np.flatnonzero((port >= start) & (port < stop))
                y.reshape(-1, w, p)[port[hit] - start, :, hit] += 1.0
                parts = y.view(float)
                squares += np.einsum("ij,ij->j", parts, parts)
            residual = float(np.sqrt(np.max(squares.reshape(-1, 2).sum(axis=1))))
            if not residual <= RESIDUAL_RTOL:
                raise RuntimeError(
                    f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.3e} in "
                    f"trial {t} (dim={self.dim}, omega in "
                    f"[{omegas.min()}, {omegas.max()}])"
                )
            self.worst_residual = max(self.worst_residual, residual)

    def _block_columns(self, layout: _Layout, trials: slice, omegas: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
        """The columns of one chunk on one sector's ``layout``, block by
        block, shape ``(slices, trials, len(omegas), block_size,
        len(rows))``: a view of the work array, whose slot ``k`` holds
        ``A_k``, then the transfer matrix ``h_k``, then the columns ``X_k``,
        each over the last, or a copy of fewer columns than a block."""
        n, b, p = self.slices, layout.block_size, rows.size
        count, w, c = trials.stop - trials.start, omegas.size, layout.coupling_block
        m = b // c
        port_block = self._block_of[rows]
        first, k0 = int(port_block.min()), int(port_block.max())
        # How many steps mirror their right block instead of factorizing
        # it: all those on which both sweeps are active.
        pairs = min(k0, n - 1 - k0) if layout.mirrored else 0
        # The first b columns of slot k: A_k = omega + i G/2 - D_k for every
        # trial and frequency (its diagonal through a strided view), on each
        # block but the mirrored ones, which are written whole.
        built = n - pairs
        work = np.zeros((n, count, w, b, max(b, p)), dtype=complex)
        square, X = work[..., :b], work[..., :p]
        block, row, col, value = layout.diagonal
        value = value[trials]
        if pairs:
            keep = np.flatnonzero(block < built)
            block, row, col, value = block[keep], row[keep], col[keep], value[:, keep]
        square[block, :, :, row, col] = value.T[:, :, None]
        diagonal = (omegas[:, None] * layout.mask[:built, None, None]
                    + layout.shift[:built, trials, None])
        np.lib.stride_tricks.as_strided(
            work, shape=(built, count, w, b),
            strides=work.strides[:3] + (work.strides[3] + 16,))[...] += diagonal
        # Rows in groups of c: a block-diagonal coupling times slot k is one
        # matmul over its c x c blocks, coupling @ grouped[k].
        grouped = square.reshape(n, count, w, m, c, b)
        outer = layout.outer[:, :, trials, None]
        inner = layout.inner[:, :, trials, None]
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
        E = np.zeros((n, b, p))
        E[port_block, layout.pos_of[rows], np.arange(p)] = 1.0
        carry = np.empty((k0 - first, count, w, b, p), dtype=complex)
        self.work_bytes = max(self.work_bytes, work.nbytes)
        self.chunk_bytes = max(self.chunk_bytes, work.nbytes + carry.nbytes)

        def carried(k):
            """E_k plus the ports carried up from below, L_{k-1} X[k-1]."""
            if k == first:
                return np.broadcast_to(E[k], (count, w, b, p))
            return E[k] + coupled(down[k], carry[k - 1 - first])

        # The sweeps eliminate toward k0, the last port block, and overwrite
        # slot k with its transfer matrix: h_left[k] = S_k^-1 U_k carries
        # X_{k+1} to X_k below k0, h_right[k] = S_k^-1 L_{k-1} carries X_{k-1}
        # to X_k above it (S_k: the Schur complement of block k).  From the
        # first port block on, the left sweep also keeps carry[k - first] =
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
        # The first `pairs` steps eliminate their left block alone; the last
        # of them writes the right sweep's blocks from theirs.
        matrices = 1
        for s, (sides, blocks, behind, _) in enumerate(steps):
            if s < pairs:
                sides, blocks, behind = slice(0, 1), slice(s, s + 1), slice(s - 1, s)
            if s:
                grouped[blocks] -= np.matmul(outer[sides, s], grouped[behind])
            rhs_blocks[sides] = inner[sides, s]
            if first <= s < k0:
                stacked = np.zeros(rhs_stack[sides].shape[:-1] + (b + p,), dtype=complex)
                stacked[..., :b] = rhs_stack[sides]
                stacked[0, ..., b:] = carried(s)
                solved = np.linalg.solve(square[blocks], stacked)
                square[blocks], carry[s - first] = solved[..., :b], solved[0, ..., b:]
            else:
                square[blocks] = np.linalg.solve(square[blocks], rhs_stack[sides])
            matrices += sides.stop - sides.start
            if s == pairs - 1:
                # h_right[n-1-s] = S_s (L_{s+1} h_left[s] U_s^-1)^T S_{s+1}
                # for every s < pairs, by c x c blocks: entry [g a, h b] is
                # the sum over z, y of (S_s (U_s^-1)^T)[g]_{a z} h_left[s][h
                # y, g z] (S_{s+1} L_{s+1})[h]_{b y}.
                shape = (pairs, count, w, m, c, m, c)
                np.einsum("stgaz,stwhygz,sthby->stwgahb",
                          layout.mirror[s::-1, trials], square[s::-1].reshape(shape),
                          layout.mirror_down[s::-1, trials],
                          out=square[n - pairs:].reshape(shape))
        self.block_factorizations += matrices * count * w
        S = square[k0]
        if k0:
            S -= coupled(down[k0], square[k0 - 1])
        if k0 < n - 1:
            S -= coupled(up[k0], square[k0 + 1])
        X[k0] = np.linalg.solve(S, carried(k0))
        self.solves += len(steps) + 1
        for s in reversed(range(len(steps))):
            _, blocks, _, ahead = steps[s]
            # X_k = h_k X_{k+-1}, plus the carried part, over h_k in slot k.
            product = np.matmul(square[blocks], X[ahead])
            if first <= s < k0:
                product[0] += carry[s - first]
            X[blocks] = product
        return X.copy() if p < b else X  # a copy leaves the spent h_k behind


    def log(self, reason: str) -> None:
        """One DEBUG record for this engine call (path ``oam-rgf``), on the
        sectors swept so far: why, the sectors and sites solved, the mirror
        and its signature, the factorizations, trials and solve calls, the
        sizes, the chunks with their rows and bytes, and the worst
        residual, each also an ``extra`` field of the record."""
        swept = [self._layouts[g] for g in sorted(self._swept)]
        mirrored = bool(swept) and all(layout.mirrored for layout in swept)
        signature = _distinct(layout.signature for layout in swept
                              if layout.mirrored) or "none"
        sites = sum(layout.size for layout in swept)
        block_size = max((layout.block_size for layout in swept), default=0)
        coupling_block = max((layout.coupling_block for layout in swept), default=0)
        if self.width > 1:
            reason += (f"; H couples OAM slices {self.width} apart, so each "
                       f"block joins {self.width} slices")
        reason += (f"; {len(swept)} of {self.sectors} sector(s) swept, {sites} of "
                   f"{self.dim} sites solved, signature {signature}; "
                   + _distinct(layout.mirror_reason for layout in swept))
        _LOG.debug(
            "resolvent path=oam-rgf (%s): %d factorization(s) of %d slice "
            "block(s) for %d trial(s) in %d solve call(s) over %d slices of "
            "size %d with %dx%d coupling blocks, in %d chunk(s) of up to %d "
            "row(s), each on a %d-byte work array (%d live bytes), worst "
            "relative residual %.3e",
            reason, self.factorizations, self.block_factorizations, self.trials,
            self.solves, self.slices, block_size, coupling_block, coupling_block,
            self.chunks, self.omega_chunk, self.work_bytes, self.chunk_bytes,
            self.worst_residual,
            extra={"solver_path": "oam-rgf", "solver_reason": reason,
                   "factorizations": self.factorizations,
                   "block_factorizations": self.block_factorizations,
                   "mirrored": mirrored, "signature": signature,
                   "sectors": self.sectors, "sectors_swept": len(swept),
                   "sites_solved": sites, "dim": self.dim,
                   "trials": self.trials, "solves": self.solves,
                   "worst_residual": self.worst_residual,
                   "slices": self.slices, "block_size": block_size,
                   "omega_chunk": self.omega_chunk, "chunks": self.chunks,
                   "coupling_block": coupling_block,
                   "work_bytes": self.work_bytes, "chunk_bytes": self.chunk_bytes},
        )


def _distinct(reasons: Iterator[str]) -> str:
    """The distinct ``reasons`` in their order, joined by ``"; "``."""
    return "; ".join(dict.fromkeys(reasons))


def transmission(H: HamiltonianMatrix, decay: DecaySpec, omega: float,
                 input: SiteIndex) -> ScatteringResult:
    """Transmission amplitudes ``-i sqrt(G) G(omega) sqrt(G) e_input``."""
    engine = Resolvent(H, decay)
    amplitudes = engine.transmission(omega, [flat_index(H.spec, input)])[:, 0]
    engine.log("one frequency, one port")
    return ScatteringResult(omega=omega, input=input, amplitudes=amplitudes)


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


def _nearest(ordered: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the entry of ``ordered`` (ascending) nearest each ``x``, the
    lower one on a tie."""
    j = np.searchsorted(ordered, x)
    below = np.maximum(j - 1, 0)
    above = np.minimum(j, ordered.size - 1)
    return np.where(np.abs(ordered[above] - x) < np.abs(x - ordered[below]),
                    above, below)


def _omega_partners(omegas: np.ndarray) -> np.ndarray:
    """For each grid point, the index whose power it takes: its own, or
    the first index of its ``+-omega`` pair.

    Each ``omega < 0`` and ``omega' > 0`` whose magnitudes are one
    another's nearest and lie within 4 ulp of the grid's largest magnitude
    form a pair, so the pairs are one to one; a ``linspace`` grid
    symmetric about 0 pairs every point.  ``omega = 0``, unpaired points
    and a grid with a non-finite point keep their own index.
    """
    source = np.arange(omegas.size)
    if not np.all(np.isfinite(omegas)):
        return source
    order = np.argsort(np.abs(omegas), kind="stable")
    negative, positive = order[omegas[order] < 0], order[omegas[order] > 0]
    if not (negative.size and positive.size):
        return source
    low, high = -omegas[negative], omegas[positive]
    up = _nearest(high, low)
    tolerance = 4 * np.spacing(np.abs(omegas).max())
    pair = ((_nearest(low, high)[up] == np.arange(low.size))
            & (np.abs(high[up] - low) <= tolerance))
    a, b = negative[pair], positive[up[pair]]
    source[np.maximum(a, b)] = np.minimum(a, b)
    return source


def total_transmission_spectrum(
    H: HamiltonianMatrix,
    decay: DecaySpec,
    inputs: list[SiteIndex],
    omega_grid: np.ndarray,
) -> np.ndarray:
    """Total transmitted power ``sum_in sum_out |T|^2`` over a probe grid.

    The sum runs over every output mode (the same-mode term included, the
    reflection delta excluded), reduced from the :class:`Resolvent`
    columns of all inputs, which share one sweep per frequency.

    Frequency mirror: where every entry of ``H`` joins the two sublattices
    of ``C = (-1)^(j+l)`` (``C H C = -H``, as on every flux lattice with
    even rings), ``G(-omega) = -C G(omega)^dagger C``.  The optical
    theorem, ``sum_n' gamma_n' |G_n'r|^2 = sum_n' gamma_n' |G_rn'|^2 =
    -2 Im G_rr`` for any positive rates, then makes each input's power
    even in ``omega``: ``T(-omega) = T(omega)``.  So only the first point
    of each ``+-omega`` pair on the grid (see :func:`_omega_partners`) is
    solved, and its power is copied to the other; every other point is
    solved as without the mirror, with the same bits.  An ``H`` with a
    diagonal entry (detuning, ``qsh`` on-site terms) or a hop within one
    sublattice (an odd ring) is solved on the whole grid.  The DEBUG
    record says whether the mirror applied, with the rows computed and
    copied, or why not.
    """
    omega_grid = np.asarray(omega_grid, dtype=float).reshape(-1)
    in_rows = [flat_index(H.spec, s) for s in inputs]
    # C H C = -H for a +-1 diagonal C: every entry asks C_r C_c = -1.
    broken = _signing(H.dim, H.rows, H.cols, True)[2]
    source = _omega_partners(omega_grid) if broken is None else np.arange(omega_grid.size)
    computed = np.flatnonzero(source == np.arange(source.size))
    copied = source.size - computed.size
    if broken is not None:
        why = (f"no omega mirror: H joins two sites of one sublattice in every "
               f"bipartition (H[{H.rows[broken]}, {H.cols[broken]}] breaks the one derived)")
    elif not copied:
        why = "no omega mirror: no partners on the grid"
    else:
        why = (f"omega mirror: H is chiral, so T(-omega) = T(omega); "
               f"{computed.size} row(s) computed, {copied} copied")
    engine = Resolvent(H, decay)
    power = np.empty(omega_grid.size)
    power[computed] = engine.transmitted_power(omega_grid[computed], in_rows)
    engine.log(f"{omega_grid.size} frequencies, {len(in_rows)} ports; {why}")
    return power[source]
