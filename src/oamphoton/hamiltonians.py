"""Tight-binding Hamiltonian builders for gauge-field lattices.

All Hamiltonians are Hermitian matrices over the flat site basis of
:mod:`oamphoton.lattice`, in units of the nearest-neighbor coupling
``kappa = 1``.  Phases are specified in cycles and enter as
``exp(i*2*pi*phase)``; spinful hops carry 2x2 Jones matrices
``exp(i*2*pi*(phase + angle * sigma.n))``.

Builders provided:

* :func:`build_landau_hofstadter` -- uniform flux with the phase on the
  OAM-axis hops, winding with the cavity index.
* :func:`build_oam_gauge_hofstadter` -- the same flux with the phase on
  the cavity-axis hops, winding with the OAM value (gauge-equivalent on
  commensurate tori).
* :func:`build_non_abelian` -- general spinful lattice with Jones-matrix
  hop phases and per-cavity on-site energies.
* :func:`build_dirac` -- lattice regularization of a two-component Dirac
  point, optionally threaded by a uniform flux.
* :func:`build_qsh` -- the staggered-flux spin lattice whose band gap
  closes and reopens as the polarization-splitting offset is tuned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .lattice import Boundary, LatticeSpec

__all__ = [
    "DENSE_DIM_LIMIT",
    "SpinAxis",
    "GaugeConfig",
    "HamiltonianMatrix",
    "jones_exp",
    "build_landau_hofstadter",
    "build_oam_gauge_hofstadter",
    "build_non_abelian",
    "build_dirac",
    "build_qsh",
]

DENSE_DIM_LIMIT = 4096
""":attr:`HamiltonianMatrix.data` is dense up to this dimension, CSR above."""

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])
"""``cos(k*pi/2)`` for ``k = 0..3``."""


@dataclass(frozen=True)
class SpinAxis:
    """A unit 3-vector selecting a Pauli combination ``sigma . n``."""

    n: tuple[float, float, float]

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.n))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be unit norm, got |n| = {norm}")

    @classmethod
    def x(cls) -> "SpinAxis":
        return cls((1.0, 0.0, 0.0))

    @classmethod
    def y(cls) -> "SpinAxis":
        return cls((0.0, 1.0, 0.0))

    @classmethod
    def z(cls) -> "SpinAxis":
        return cls((0.0, 0.0, 1.0))

    def sigma(self) -> np.ndarray:
        """The 2x2 Hermitian matrix ``sigma . n``."""
        return sum(c * p for c, p in zip(self.n, _PAULI))


def jones_exp(phi: float | np.ndarray, axis: SpinAxis) -> np.ndarray:
    """Jones matrix ``exp(i*2*pi*phi*(sigma.n))`` for a phase in cycles.

    Equals ``cos(2*pi*phi) I + i sin(2*pi*phi) (sigma.n)``; unitary with
    determinant 1.  At quarter turns (``4*phi`` an integer) the cosine and
    sine are exactly 0 and +-1, so a coupling the model sets to zero is not
    stored as a rounding residue of ``cos(pi/2)``.  An array of phases
    gives a stack of matrices, shape ``phi.shape + (2, 2)``.
    """
    if not isinstance(axis, SpinAxis):
        axis = SpinAxis(tuple(axis))
    turns = 4.0 * np.asarray(phi, dtype=float)[..., None, None]
    quarter = np.isfinite(turns) & (turns == np.round(turns))
    k = np.mod(np.where(quarter, turns, 0.0), 4.0).astype(int)
    angle = 0.5 * np.pi * turns  # the product 2 pi phi, rounded once as before
    cos = np.where(quarter, _QUARTER_COS[k], np.cos(angle))
    sin = np.where(quarter, _QUARTER_COS[(k - 1) % 4], np.sin(angle))
    return cos * np.eye(2, dtype=complex) + 1j * sin * axis.sigma()


def _per_cavity(values: Mapping[int, float] | Callable[[int], float] | float | None,
                n_x: int, default: float = 0.0) -> np.ndarray:
    """Normalize a per-cavity parameter to a length-``n_x`` float vector."""
    if values is None:
        return np.full(n_x, default)
    if callable(values):
        return np.array([float(values(j)) for j in range(n_x)])
    if isinstance(values, Mapping):
        out = np.full(n_x, default)
        for j, v in values.items():
            if not 0 <= int(j) < n_x:
                raise ValueError(f"cavity index {j} outside [0, {n_x})")
            out[int(j)] = float(v)
        return out
    return np.full(n_x, float(values))


@dataclass(frozen=True)
class GaugeConfig:
    """Hop phases and on-site energies of the general spinful lattice.

    All phases are in cycles.  Cavity-axis hops ``j -> j+1`` carry
    ``exp(i*2*pi*(phi_x + alpha * sigma.axis1))``; OAM-axis hops
    ``l -> l+1`` inside cavity ``j`` carry
    ``exp(i*2*pi*(phi_y(j) + beta(j) * sigma.axis2))``; every mode of
    cavity ``j`` is detuned by ``onsite(j)``.
    """

    phi_x: float = 0.0
    phi_y: Mapping[int, float] | Callable[[int], float] | float | None = None
    alpha: float = 0.0
    beta: Mapping[int, float] | Callable[[int], float] | float | None = None
    axis1: SpinAxis = SpinAxis.x()
    axis2: SpinAxis = SpinAxis.z()
    onsite: Mapping[int, float] | Callable[[int], float] | float | None = None


def _canonical(dim: int, rows, cols, values
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triples in canonical order: row-major, each ``(row, col)`` once,
    no zeros.

    A stable sort carries ``rows``, ``cols`` and ``values`` together and
    keeps duplicates in input order; each is added to the running sum in
    that order, as scipy's ``sum_duplicates`` does.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    values = np.asarray(values, dtype=complex).reshape(-1)
    if not rows.size == cols.size == values.size:
        raise ValueError(f"entry arrays differ in length: {rows.size} rows, "
                         f"{cols.size} columns, {values.size} values")
    if rows.size and not (0 <= min(rows.min(), cols.min())
                          and max(rows.max(), cols.max()) < dim):
        raise ValueError(f"entry index outside the lattice dimension {dim}")
    key = rows * dim + cols
    order = np.argsort(key, kind="stable")
    key, rows, cols, values = key[order], rows[order], cols[order], values[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    later = np.flatnonzero(~first)
    if later.size:
        group = np.cumsum(first)[later] - 1
        rank = later - np.flatnonzero(first)[group]
        rows, cols, summed = rows[first], cols[first], values[first]
        # One pass per duplicate rank: the r-th copy of every entry at once.
        for r in range(1, int(rank.max()) + 1):
            at = rank == r
            summed[group[at]] += values[later[at]]
        values = summed
    keep = values != 0
    if not keep.all():
        rows, cols, values = rows[keep], cols[keep], values[keep]
    return rows, cols, values


@dataclass(frozen=True, init=False, eq=False)
class HamiltonianMatrix:
    """A Hermitian lattice Hamiltonian with its geometry.

    The matrix is stored once, as canonical COO arrays ``rows``, ``cols``
    and ``values``: row-major order, each ``(row, col)`` once, no explicit
    zeros.  The lattices here have nearest-neighbor hops only, a handful of
    nonzeros per row.  The arrays are read-only, so consumers share them;
    one that rewrites values works on a copy.  ``HamiltonianMatrix(spec,
    matrix)`` accepts a dense array or any scipy sparse matrix (through its
    ``tocoo()``) and copies it; :meth:`from_entries` takes COO triples.
    :meth:`tocsr` exports a fresh scipy CSR matrix, importing scipy only
    then, and :meth:`toarray` a fresh dense array.  ``data`` is a view
    computed on each access: a dense array for dimensions up to
    :data:`DENSE_DIM_LIMIT`, CSR above that.  Energies are in units of the
    nearest-neighbor coupling.
    """

    spec: LatticeSpec
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __init__(self, spec: LatticeSpec, matrix) -> None:
        if hasattr(matrix, "tocoo"):  # any scipy sparse matrix or array
            matrix = matrix.tocoo()
        else:
            matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (spec.dim, spec.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match the lattice "
                f"dimension {spec.dim}"
            )
        if isinstance(matrix, np.ndarray):
            rows, cols = np.nonzero(matrix)
            entries = rows, cols, matrix[rows, cols]
        else:
            entries = matrix.row, matrix.col, matrix.data
        self._store(spec, *entries)

    @classmethod
    def from_entries(cls, spec: LatticeSpec, rows, cols, values
                     ) -> "HamiltonianMatrix":
        """From COO triples: duplicates are summed in order, zeros dropped."""
        H = cls.__new__(cls)
        H._store(spec, rows, cols, values)
        return H

    def _store(self, spec: LatticeSpec, rows, cols, values) -> None:
        object.__setattr__(self, "spec", spec)
        for name, array in zip(("rows", "cols", "values"),
                               _canonical(spec.dim, rows, cols, values)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def is_dense(self) -> bool:
        """Whether :attr:`data` is a dense array (else CSR)."""
        return self.dim <= DENSE_DIM_LIMIT

    @property
    def data(self):
        """A fresh dense array up to :data:`DENSE_DIM_LIMIT`, CSR above."""
        return self.toarray() if self.is_dense else self.tocsr()

    def tocsr(self):
        """The matrix as a fresh canonical ``scipy.sparse.csr_matrix``."""
        import scipy.sparse  # an export format only: the library never needs it

        indptr = np.zeros(self.dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.rows, minlength=self.dim), out=indptr[1:])
        csr = scipy.sparse.csr_matrix((self.values, self.cols, indptr),
                                      shape=(self.dim, self.dim), copy=True)
        csr.has_canonical_format = True
        return csr

    def toarray(self) -> np.ndarray:
        """The Hamiltonian as a fresh dense complex array."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.rows, self.cols] = self.values
        return out

    def hermiticity_defect(self) -> float:
        """Max-norm of ``H - H^dagger`` (should be < 1e-12).

        Each entry meets its partner ``(col, row)``, found by a search in
        the canonical order; an absent partner counts as zero.
        """
        key = self.rows * self.dim + self.cols
        mirror = self.cols * self.dim + self.rows
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        partner = np.where(key[at] == mirror, self.values[at].conj(), 0.0)
        return float(np.abs(self.values - partner).max(initial=0.0))


def _hops(spec: LatticeSpec, axis: str):
    """Every hop along one axis, as index arrays ``(src, dst, j, l)``.

    ``axis="x"`` gives the cavity hops ``j -> j+1`` and ``axis="y"`` the
    OAM hops ``l -> l+1``; a periodic axis adds the hop that wraps around.
    ``src`` and ``dst`` are the flat indices of polarization 0 at either
    end, ``j`` and ``l`` the cavity and OAM value of the source.
    """
    site = np.arange(spec.n_x * spec.n_l)
    j, il = np.divmod(site, spec.n_l)
    if axis == "x":
        along, length, bc = j, spec.n_x, spec.bc_x
        dst = (j + 1) % spec.n_x * spec.n_l + il
    else:
        along, length, bc = il, spec.n_l, spec.bc_y
        dst = j * spec.n_l + (il + 1) % spec.n_l
    keep = (along < length - 1) | (bc is Boundary.PERIODIC)
    sd = spec.spin_dim
    return site[keep] * sd, dst[keep] * sd, j[keep], il[keep] + spec.l_min


def _assemble(spec: LatticeSpec, hops, onsite: np.ndarray | None = None
              ) -> HamiltonianMatrix:
    """Sum hop blocks, their Hermitian partners and on-site terms into ``H``.

    ``hops`` holds one ``(src, dst, blocks)`` triple per axis: ``blocks``
    (one value or ``spin_dim x spin_dim`` block, or one per hop) maps the
    modes at ``src`` to those at ``dst``.  ``onsite`` detunes every mode of
    cavity ``j`` by ``onsite[j]``.  Exact zeros of the blocks (half of a
    quarter-turn Jones block) and of ``onsite`` are left out and the other
    entries keep their order: ``H`` is bitwise that of assembling them all.
    """
    sd = spec.spin_dim
    spin = np.arange(sd)
    rows, cols, vals = [], [], []
    for src, dst, blocks in hops:
        shape = (src.size, sd, sd)
        blocks = np.reshape(blocks, (-1, sd, sd))
        zero = blocks == 0
        blocks = np.broadcast_to(blocks, shape)
        if zero.any():
            hop, i, k = np.nonzero(~np.broadcast_to(zero, shape))
            into, out_of, blocks = dst[hop] + i, src[hop] + k, blocks[hop, i, k]
        else:
            into = np.broadcast_to(dst[:, None, None] + spin[:, None], shape)
            out_of = np.broadcast_to(src[:, None, None] + spin, shape)
        rows += [into, out_of]
        cols += [out_of, into]
        vals += [blocks, blocks.conj()]
    if onsite is not None:
        diagonal = np.repeat(onsite, spec.n_l * sd)
        site = np.flatnonzero(diagonal)
        rows.append(site)
        cols.append(site)
        vals.append(diagonal[site])
    rows, cols, vals = (np.concatenate(part, axis=None)
                        for part in (rows, cols, vals))
    return HamiltonianMatrix.from_entries(spec, rows, cols, vals)


def build_landau_hofstadter(spec: LatticeSpec, phi0: float | Fraction) -> HamiltonianMatrix:
    """Uniform-flux lattice with cavity-indexed phases on the OAM-axis hops.

    ``H = -sum_{j,l} ( exp(i*2*pi*j*phi0) a^dag_{j,l+1} a_{j,l}
    + a^dag_{j+1,l} a_{j,l} + h.c. )`` with ``phi0`` flux quanta per
    plaquette, in units of the hop amplitude.  Requires a scalar lattice.
    """
    if spec.spin_dim != 1:
        raise ValueError("scalar builder requires spin_dim = 1")
    phi0 = float(phi0)
    x_src, x_dst, _, _ = _hops(spec, "x")
    y_src, y_dst, j, _ = _hops(spec, "y")
    return _assemble(spec, [(x_src, x_dst, -1.0),
                            (y_src, y_dst, -np.exp(2j * np.pi * j * phi0))])


def build_oam_gauge_hofstadter(spec: LatticeSpec, phi0: float | Fraction) -> HamiltonianMatrix:
    """Uniform-flux lattice with OAM-indexed phases on the cavity-axis hops.

    ``H = -sum_{j,l} ( a^dag_{j,l+1} a_{j,l}
    + exp(-i*2*pi*l*phi0) a^dag_{j+1,l} a_{j,l} + h.c. )``.  Carries the
    same flux per plaquette as :func:`build_landau_hofstadter`; on tori
    whose dimensions are multiples of the flux denominator the two share
    a spectrum.  This gauge keeps a periodic OAM axis seamless only when
    the window length times ``phi0`` is an integer.
    """
    if spec.spin_dim != 1:
        raise ValueError("scalar builder requires spin_dim = 1")
    phi0 = float(phi0)
    x_src, x_dst, _, l = _hops(spec, "x")
    y_src, y_dst, _, _ = _hops(spec, "y")
    return _assemble(spec, [(x_src, x_dst, -np.exp(-2j * np.pi * l * phi0)),
                            (y_src, y_dst, -1.0)])


def build_non_abelian(spec: LatticeSpec, cfg: GaugeConfig) -> HamiltonianMatrix:
    """General spinful lattice with Jones-matrix hop phases.

    Cavity-axis hops carry ``exp(i*2*pi*(phi_x + alpha*sigma.axis1))``,
    OAM-axis hops in cavity ``j`` carry
    ``exp(i*2*pi*(phi_y(j) + beta(j)*sigma.axis2))``, and each cavity is
    detuned by ``onsite(j)``; hop amplitude ``-1``.
    """
    if spec.spin_dim != 2:
        raise ValueError("spinful builder requires spin_dim = 2")
    phi_y = _per_cavity(cfg.phi_y, spec.n_x)
    beta = _per_cavity(cfg.beta, spec.n_x)
    u_x = np.exp(2j * np.pi * cfg.phi_x) * jones_exp(cfg.alpha, cfg.axis1)
    u_y = np.exp(2j * np.pi * phi_y)[:, None, None] * jones_exp(beta, cfg.axis2)
    x_src, x_dst, _, _ = _hops(spec, "x")
    y_src, y_dst, j, _ = _hops(spec, "y")
    return _assemble(spec, [(x_src, x_dst, -u_x), (y_src, y_dst, -u_y[j])],
                     _per_cavity(cfg.onsite, spec.n_x))


def build_dirac(spec: LatticeSpec, phi0: float | Fraction = 0.0) -> HamiltonianMatrix:
    """Two-component lattice with a conical (Dirac) spectrum at zero flux.

    OAM-axis hops carry ``i exp(i*2*pi*j*phi0) sigma_x`` and cavity-axis
    hops ``i sigma_y`` (amplitude ``-1``), so at ``phi0 = 0`` the torus
    dispersion is ``E = +/- 2 sqrt(sin^2 kx + sin^2 ky)``.
    """
    phi0 = float(phi0)
    cfg = GaugeConfig(
        alpha=0.25, axis1=SpinAxis.y(),
        beta=0.25, axis2=SpinAxis.x(),
        phi_y=lambda j: j * phi0,
    )
    return build_non_abelian(spec, cfg)


def qsh_onsite(lambda0: float) -> Callable[[int], float]:
    """Per-cavity staircase detuning ``lambda0 * (mod(j,4) - 1.5)``."""
    return lambda j: lambda0 * ((j % 4) - 1.5)


def build_qsh(spec: LatticeSpec, beta0: float, lambda0: float) -> HamiltonianMatrix:
    """Staggered-flux spin lattice with a tunable polarization offset.

    OAM-axis hops in cavity ``j`` carry
    ``exp(i*(pi*j/2 + 2*pi*beta0) sigma_z)`` (i.e. opposite flux
    ``+/- 1/4`` for the two polarizations, offset by ``beta0`` cycles),
    cavity-axis hops carry ``i sigma_x``, and the on-site staircase is
    ``lambda0 * (mod(j,4) - 1.5)``.  Sweeping ``beta0`` from 0 to 0.125
    closes and reopens the low-frequency band gap.
    """
    cfg = GaugeConfig(
        alpha=0.25, axis1=SpinAxis.x(),
        beta=lambda j: j / 4.0 + beta0, axis2=SpinAxis.z(),
        onsite=qsh_onsite(lambda0),
    )
    return build_non_abelian(spec, cfg)
