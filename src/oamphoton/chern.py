"""Magnetic band structure and Chern numbers, by two routes plus measurement.

For flux ``p/q`` (in cycles, reduced) the periodic lattice folds into a
magnetic Brillouin zone with a ``q``-component Bloch Hamiltonian; its bands
carry integer Chern numbers.  This module computes them three ways:

* :func:`fukui_hatsugai_chern` -- lattice field strength summed over
  plaquettes, using determinant-valued links so that touching bands can be
  treated as one multiplet.
* :func:`phase_mismatch_chern` -- the zone is split into a slab ``B1``
  (where the first vector component never vanishes) and its complement
  ``B2`` (where a reference component ``l*`` never vanishes); the winding
  of the phase mismatch between the two smooth gauges along the two slab
  boundaries gives the same integer.
* :func:`bloch_from_transmission` -- the same phase-mismatch analysis
  applied to Bloch vectors reconstructed from a steady-state transmission
  table, i.e. from data a detector array would measure.

Momenta are in radians here (not cycles): ``kx`` spans ``[-pi, pi)`` and
``ky`` one reduced period ``[0, 2*pi/q)``.  Crossing that reduced period
relabels the components by the diagonal ``exp(-i*2*pi*l_q/q)``, which both
Chern routes account for explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Boundary, LatticeSpec

__all__ = [
    "MagneticBZGrid",
    "BlochBandData",
    "BZPartition",
    "TransmissionBloch",
    "magnetic_bloch_hamiltonian",
    "band_structure",
    "band_gaps",
    "fukui_hatsugai_chern",
    "auto_partition",
    "phase_mismatch_chern",
    "bloch_from_transmission",
]

TWO_PI = 2.0 * np.pi

#: Zero-detection threshold for vector components when building partitions.
DEFAULT_ZERO_TOL = 1e-3

#: A computed invariant must sit within this distance of an integer.
INTEGER_TOL = 1e-6

#: Bands closer than this many machine epsilons of the largest energy touch.
_ROUNDING_EPS = 64 * np.finfo(float).eps


def _check_reduced_flux(p: int, q: int) -> None:
    if q < 1:
        raise ValueError(f"flux denominator must be positive, got q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(
            f"flux fraction {p}/{q} is not reduced; divide out gcd={math.gcd(p, q)}"
        )


@dataclass(frozen=True)
class MagneticBZGrid:
    """Uniform sample of the magnetic Brillouin zone for flux ``p/q``.

    ``kx`` runs over ``n_kx`` points in ``[-pi, pi)`` and ``ky`` over
    ``n_ky`` points in one reduced period ``[0, 2*pi/q)``, both without the
    endpoint (the closing edges are identified, up to the component relabel
    along ``ky``).
    """

    p: int
    q: int
    n_kx: int = 64
    n_ky: int = 64

    def __post_init__(self) -> None:
        _check_reduced_flux(self.p, self.q)
        if self.n_kx < 4 or self.n_ky < 4:
            raise ValueError(
                f"grid must have at least 4 points per axis, got {self.n_kx}x{self.n_ky}"
            )

    @property
    def kx_values(self) -> np.ndarray:
        return np.linspace(-np.pi, np.pi, self.n_kx, endpoint=False)

    @property
    def ky_values(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI / self.q, self.n_ky, endpoint=False)


def magnetic_bloch_hamiltonian(
    p: int, q: int, kx: float | np.ndarray, ky: float | np.ndarray
) -> np.ndarray:
    """The ``q x q`` Bloch Hamiltonian of the flux-``p/q`` square lattice.

    Component ``l_q`` sees the shifted cavity-axis dispersion
    ``-2*cos(kx + 2*pi*l_q*p/q)`` and hops to ``l_q +- 1`` (cyclically)
    with amplitude ``-exp(+-i*ky)``.  ``kx`` and ``ky`` may be scalars or
    arrays; they broadcast, and the matrices fill the last two axes.
    Eigenvalues over the grid of :class:`MagneticBZGrid` sweep out the
    ``q`` magnetic bands.
    """
    _check_reduced_flux(p, q)
    kx = np.asarray(kx, dtype=float)[..., None]
    ky = np.asarray(ky, dtype=float)[..., None]
    lq = np.arange(q)
    up = (lq + 1) % q
    m = np.zeros(np.broadcast(kx, ky).shape[:-1] + (q, q), dtype=complex)
    m[..., lq, lq] = -2.0 * np.cos(kx + TWO_PI * lq * p / q)
    m[..., lq, up] += -np.exp(1j * ky)
    m[..., up, lq] += -np.exp(-1j * ky)
    return m


@dataclass(frozen=True)
class BlochBandData:
    """Eigenvalues and eigenvectors of the Bloch Hamiltonian over a grid.

    ``energies[m, a, b]`` is the ``m``-th band (ascending) at
    ``(kx_values[a], ky_values[b])``; ``vectors[m, a, b, :]`` is the
    corresponding orthonormal eigenvector over the ``q`` components.
    """

    grid: MagneticBZGrid
    energies: np.ndarray
    vectors: np.ndarray

    @property
    def q(self) -> int:
        return self.grid.q


def band_structure(grid: MagneticBZGrid) -> BlochBandData:
    """Diagonalize the Bloch Hamiltonian on every grid point."""
    blocks = magnetic_bloch_hamiltonian(
        grid.p, grid.q, grid.kx_values[:, None], grid.ky_values[None, :]
    )
    evals, evecs = np.linalg.eigh(blocks)
    energies = np.moveaxis(evals, -1, 0)
    vectors = np.moveaxis(evecs, -1, 0)
    return BlochBandData(grid=grid, energies=energies, vectors=vectors)


def _gap(data: BlochBandData, m: int) -> tuple[float, float] | None:
    """``(top of band m, bottom of band m+1)``, or None where they touch.

    Bands separated by no more than rounding (a small multiple of the
    machine epsilon times the largest energy, the accuracy of ``eigh``)
    touch: at flux 1/2 the two bands meet at E = 0, sampled as +-1e-16.
    """
    lo = float(data.energies[m].max())
    hi = float(data.energies[m + 1].min())
    rounding = _ROUNDING_EPS * float(np.abs(data.energies).max())
    return (lo, hi) if hi - lo > rounding else None


def band_gaps(data: BlochBandData) -> list[tuple[float, float]]:
    """Open energy intervals between consecutive bands (touching omitted).

    Returns ``(top of band m, bottom of band m+1)`` for every ``m`` where
    that interval is wider than rounding, in ascending order.
    """
    gaps = (_gap(data, m) for m in range(data.q - 1))
    return [gap for gap in gaps if gap is not None]


def _normalize_bands(bands: int | Sequence[int], q: int) -> tuple[int, ...]:
    if isinstance(bands, (int, np.integer)):
        bands = (int(bands),)
    bands = tuple(int(m) for m in bands)
    if not bands:
        raise ValueError("need at least one band index")
    if any(m < 0 or m >= q for m in bands):
        raise ValueError(f"band indices {bands} out of range for q={q}")
    if sorted(bands) != list(range(min(bands), max(bands) + 1)):
        raise ValueError(f"band multiplet {bands} must be a contiguous range")
    return tuple(sorted(bands))


def fukui_hatsugai_chern(data: BlochBandData, bands: int | Sequence[int]) -> int:
    """Chern number of a band (or contiguous multiplet) from plaquette fluxes.

    Link variables are determinants of the frame overlaps between adjacent
    grid points, so degeneracies *inside* the multiplet are harmless; the
    multiplet as a whole must stay gapped from the rest of the spectrum.
    The closing ``ky`` edge applies the component relabel of the reduced
    period before overlapping.  The plaquette field strengths are summed
    and must each stay below pi in magnitude, else the grid cannot resolve
    the curvature and an error is raised.
    """
    bands = _normalize_bands(bands, data.q)
    q = data.q
    # u[a, b, component, band-in-multiplet]
    u = np.moveaxis(data.vectors[list(bands)], 0, -1)
    relabel = np.exp(-1j * TWO_PI * np.arange(q) / q)
    u = np.concatenate([u, u[:, :1] * relabel[None, None, :, None]], axis=1)
    u = np.concatenate([u, u[:1]], axis=0)

    def link(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        overlap = np.einsum("xycm,xycn->xymn", a.conj(), b)
        return np.linalg.det(overlap)

    l1 = link(u[:-1, :-1], u[1:, :-1])
    l2 = link(u[1:, :-1], u[1:, 1:])
    l3 = link(u[:-1, 1:], u[1:, 1:])
    l4 = link(u[:-1, :-1], u[:-1, 1:])
    modulus = np.stack([np.abs(l1), np.abs(l2), np.abs(l3), np.abs(l4)])
    if modulus.min() < 1e-12:
        raise ValueError(
            "vanishing link overlap: the multiplet is degenerate with a band "
            "outside it (enlarge the multiplet) or the grid hits a singularity"
        )
    field = np.angle(l1 * l2 / (l3 * l4))
    if np.abs(field).max() >= np.pi * (1.0 - 1e-9):
        raise ValueError(
            "grid too coarse: a plaquette field strength reached pi, so the "
            "lattice curvature sum is no longer guaranteed to be the invariant"
        )
    total = field.sum() / TWO_PI
    return _as_integer(total, "plaquette field-strength sum")


def _as_integer(value: float, label: str) -> int:
    nearest = round(value)
    if abs(value - nearest) > INTEGER_TOL:
        raise ValueError(f"{label} = {value!r} is not close to an integer")
    return int(nearest)


@dataclass(frozen=True)
class BZPartition:
    """A kx-slab split of the magnetic zone for the phase-mismatch route.

    ``B1`` is the set of kx grid columns from ``column_lo`` to ``column_hi``
    inclusive, walking in the +kx direction on the kx circle (the slab may
    wrap through the zone edge); ``B2`` is the complement.  A valid
    partition has a slab of at least two columns; the zeros of the first
    vector component lie strictly inside ``B2``; the reference component
    ``reference_component`` stays away from zero on ``B2``; and both stay
    clear of zero on the two slab boundary columns.
    :func:`phase_mismatch_chern` validates a supplied partition, and
    :func:`auto_partition` returns only partitions that pass the same check.

    A ``trivial`` partition (``B2`` empty) records that the first component
    never vanishes anywhere, which fixes a smooth global phase choice and
    forces the invariant to zero.
    """

    column_lo: int
    column_hi: int
    reference_component: int
    trivial: bool = False

    def slab_columns(self, n_kx: int) -> np.ndarray:
        """Grid columns of ``B1`` in +kx walking order."""
        span = (self.column_hi - self.column_lo) % n_kx
        return (self.column_lo + np.arange(span + 1)) % n_kx

    def complement_columns(self, n_kx: int) -> np.ndarray:
        """Grid columns of ``B2`` in +kx walking order."""
        if self.trivial:
            return np.array([], dtype=int)
        span = (self.column_lo - 1 - self.column_hi) % n_kx
        return (self.column_hi + 1 + np.arange(span)) % n_kx

    @classmethod
    def from_kx_bounds(
        cls,
        grid: MagneticBZGrid,
        kx_lo: float,
        kx_hi: float,
        reference_component: int,
    ) -> "BZPartition":
        """The partition whose slab is the columns with kx in [kx_lo, kx_hi]."""
        kxs = grid.kx_values
        inside = np.where((kxs >= kx_lo) & (kxs <= kx_hi))[0]
        if inside.size < 2:
            raise ValueError(
                f"kx interval [{kx_lo}, {kx_hi}] covers fewer than two grid columns"
            )
        if inside.size == grid.n_kx:
            raise ValueError("kx interval covers the whole zone; complement is empty")
        return cls(
            column_lo=int(inside[0]),
            column_hi=int(inside[-1]),
            reference_component=int(reference_component),
        )


def _component_minima(u: np.ndarray, component: int) -> np.ndarray:
    """Per-kx-column minimum of ``|u[component]|`` over ky."""
    return np.abs(u[:, :, component]).min(axis=1)


#: Grid-local minima of a component magnitude below this value are refined
#: off-grid to decide whether they hide a true zero between samples.
REFINE_CANDIDATE_LEVEL = 0.3


def _refined_component_minima(
    data: BlochBandData, m: int, component: int
) -> list[tuple[float, float, float]]:
    """Continuously refined local minima of one component's magnitude.

    Grid sampling can miss a zero that falls between samples (the sampled
    minimum then scales with the grid step instead of vanishing), so every
    grid-local minimum below :data:`REFINE_CANDIDATE_LEVEL` is polished by
    a derivative-free descent on the exact Bloch eigenvector.  Returns
    ``(kx, ky, |u|)`` triples; kx is reduced to ``[-pi, pi)``.
    """
    # Imported here: scipy.optimize costs about 0.3 s and 27 MB on import,
    # and nothing else in the package needs it.
    from scipy.optimize import minimize

    p, q = data.grid.p, data.grid.q
    field = np.abs(data.vectors[m][:, :, component])
    kxs, kys = data.grid.kx_values, data.grid.ky_values
    shifts = [(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1) if (da, db) != (0, 0)]
    lowest_neighbor = np.min([np.roll(field, s, axis=(0, 1)) for s in shifts], axis=0)
    candidates = np.argwhere(
        (field < REFINE_CANDIDATE_LEVEL) & (field <= lowest_neighbor)
    )

    def magnitude(k: np.ndarray) -> float:
        _, vecs = np.linalg.eigh(magnetic_bloch_hamiltonian(p, q, k[0], k[1]))
        return float(np.abs(vecs[component, m]))

    found: list[tuple[float, float, float]] = []
    for a, b in candidates:
        result = minimize(
            magnitude,
            np.array([kxs[a], kys[b]]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14},
        )
        kx = float((result.x[0] + np.pi) % TWO_PI - np.pi)
        ky = float(result.x[1])
        if all(abs(kx - ox) > 1e-4 or abs(ky - oy) > 1e-4 for ox, oy, _ in found):
            found.append((kx, ky, float(result.fun)))
    return found


def _zero_columns(data: BlochBandData, m: int) -> np.ndarray:
    """Mask of the kx columns touched by a zero of the first component.

    A column is touched if the sampled magnitude dips below
    :data:`DEFAULT_ZERO_TOL` in it, or if it bounds the grid cell holding a
    refined off-grid zero.
    """
    touched = _component_minima(data.vectors[m], 0) < DEFAULT_ZERO_TOL
    step = TWO_PI / data.grid.n_kx
    for kx, _, value in _refined_component_minima(data, m, 0):
        if value < DEFAULT_ZERO_TOL:
            a = int(np.floor((kx + np.pi) / step))
            touched[[a % data.grid.n_kx, (a + 1) % data.grid.n_kx]] = True
    return touched


def _arc_contains(kx: float, lo: float, hi: float) -> bool:
    """Whether ``kx`` lies on the +kx arc from ``lo`` to ``hi`` (circle)."""
    return (kx - lo) % TWO_PI <= (hi - lo) % TWO_PI


def _single_band(data: BlochBandData, band: int | Sequence[int]) -> int:
    """The index of one band isolated from its neighbors by a gap."""
    bands = _normalize_bands(band, data.q)
    if len(bands) != 1:
        raise ValueError("the phase-mismatch route handles one band at a time")
    m = bands[0]
    if m > 0 and _gap(data, m - 1) is None:
        raise ValueError(f"band {m} touches band {m - 1}; treat them as a multiplet")
    if m < data.q - 1 and _gap(data, m) is None:
        raise ValueError(f"band {m} touches band {m + 1}; treat them as a multiplet")
    return m


def auto_partition(data: BlochBandData, band: int) -> BZPartition:
    """Choose a valid kx-slab partition for one band automatically.

    ``B1`` is the longest wrapping kx-arc of columns untouched by zeros of
    the first component (sampled or refined off-grid), less a one-column
    margin on each side; with no zero at all the partition is trivial.
    Reference components are tried in descending order of their sampled
    magnitude floor over ``B2``, and the first partition that the
    validator of :func:`phase_mismatch_chern` accepts is returned.  Raises
    if the band is not isolated, if every kx column is touched by a zero,
    or if no candidate is valid (as happens for bands whose component
    zeros interlock across the zone -- those admit no slab partition).
    """
    m = _single_band(data, band)
    zero_columns = _zero_columns(data, m)
    n_kx = data.grid.n_kx
    if not zero_columns.any():
        candidates = [BZPartition(0, n_kx - 1, reference_component=0, trivial=True)]
    else:
        clear_lo, clear_hi = _longest_clear_arc(zero_columns)
        clear = (clear_hi - clear_lo) % n_kx + 1
        if clear - 2 < 2:
            raise ValueError(
                f"zeros of the first vector component leave band {m} a clear "
                f"kx-arc of only {clear} columns; less a one-column margin on "
                "each side, that is below the two-column slab minimum (refine "
                "the kx grid)"
            )
        lo, hi = (clear_lo + 1) % n_kx, (clear_hi - 1) % n_kx
        complement = BZPartition(lo, hi, 0).complement_columns(n_kx)
        floors = np.abs(data.vectors[m][complement]).min(axis=(0, 1), initial=np.inf)
        order = sorted(range(data.q), key=lambda c: -floors[c])
        candidates = [BZPartition(lo, hi, reference_component=lq) for lq in order]
    reasons = []
    for partition in candidates:
        try:
            _validate_partition(data, m, partition, zero_columns)
            return partition
        except ValueError as exc:
            reasons.append(str(exc))
    raise ValueError(
        f"no valid slab partition for band {m}, so the phase-mismatch route "
        "cannot evaluate it (its plaquette-sum invariant is still available); "
        f"with reference component {candidates[0].reference_component}: {reasons[0]}"
    )


def _longest_clear_arc(bad: np.ndarray) -> tuple[int, int]:
    """First and last index of the longest run of False on the circle.

    Ties go to the run that starts first; a mask with no False raises.
    """
    if bad.all():
        raise ValueError(
            "the first vector component reaches zero in every kx column; "
            "no slab partition exists for this band"
        )
    n = bad.size
    # Runs of the doubled mask that start in the first copy cover every
    # run on the circle, wrapping ones included.
    edges = np.diff(np.concatenate([[1], np.tile(bad, 2), [1]]).astype(int))
    starts = np.flatnonzero(edges == -1)
    ends = np.flatnonzero(edges == 1) - 1
    first = starts < n
    starts, ends = starts[first], ends[first]
    best = int(np.argmax(ends - starts))
    return int(starts[best]) % n, int(ends[best]) % n


def _validate_partition(
    data: BlochBandData,
    m: int,
    partition: BZPartition,
    zero_columns: np.ndarray,
) -> None:
    """Check the partition invariants for one band, with refined zeros.

    ``zero_columns`` is the mask of :func:`_zero_columns` for band ``m``.
    This is the one definition of a valid partition.
    """
    u = data.vectors[m]
    n_kx = data.grid.n_kx
    q = data.q
    ref = partition.reference_component
    if not 0 <= ref < q:
        raise ValueError(f"reference component {ref} out of range for q={q}")
    if partition.trivial:
        if zero_columns.any():
            raise ValueError(
                "trivial partition invalid: the first component has zeros"
            )
        return
    slab = partition.slab_columns(n_kx)
    complement = partition.complement_columns(n_kx)
    if complement.size == 0:
        raise ValueError("partition complement is empty but not marked trivial")
    if slab.size < 2:
        raise ValueError("the slab must span at least two kx columns")
    offending = np.setdiff1d(np.flatnonzero(zero_columns), complement[1:-1])
    if offending.size:
        raise ValueError(
            "zeros of the first vector component must lie strictly inside the "
            f"slab complement; offending kx columns: {offending.tolist()}"
        )
    ref_floor = float(_component_minima(u[complement], ref).min())
    if ref_floor > DEFAULT_ZERO_TOL:
        # The samples clear the threshold; a zero may still hide between
        # them.  The complement arc is widened by half a cell, since the
        # gauge must stay smooth up to the region boundary.
        half_step = np.pi / n_kx
        kxs = data.grid.kx_values
        lo = kxs[complement[0]] - half_step
        hi = kxs[complement[-1]] + half_step
        for kx, _, value in _refined_component_minima(data, m, ref):
            if _arc_contains(kx, lo, hi):
                ref_floor = min(ref_floor, value)
    if ref_floor <= DEFAULT_ZERO_TOL:
        raise ValueError(
            f"reference component {ref} reaches {ref_floor:.2e} on the slab "
            f"complement (threshold {DEFAULT_ZERO_TOL:.1e}); choose a "
            "different reference component or slab"
        )
    # The windings are evaluated on the slab boundary columns, so both gauge
    # references must be clear of zero there as well.
    for col in (slab[0], slab[-1]):
        for comp in (0, ref):
            floor = np.abs(u[col, :, comp]).min()
            if floor <= DEFAULT_ZERO_TOL:
                raise ValueError(
                    f"component {comp} dips to {floor:.2e} on slab boundary "
                    f"column {col}; move the slab boundary"
                )


def _column_winding(column: np.ndarray, reference: int, q: int) -> float:
    """Winding of the gauge mismatch along one ky circle at fixed kx.

    ``column`` has shape (n_ky, q).  The mismatch angle is the phase of the
    reference component relative to the first component, which is invariant
    under any per-k phase choice.  Crossing the reduced ky period relabels
    the components, shifting the mismatch by ``-2*pi*reference/q``; the
    closing step accounts for that, and the same shift is added back so the
    result is the integer winding of the underlying full-period loop.
    """
    chi = np.angle(column[:, reference] * column[:, 0].conj())
    steps = np.diff(chi)
    closing = (chi[0] - TWO_PI * reference / q) - chi[-1]
    steps = np.append(steps, closing)
    steps = (steps + np.pi) % TWO_PI - np.pi
    if np.abs(steps).max() >= np.pi * (1.0 - 1e-3):
        raise ValueError(
            "ky grid too coarse along a slab boundary: a phase step reached "
            "pi and the winding branch is ambiguous"
        )
    return float((steps.sum() + TWO_PI * reference / q) / TWO_PI)


def _winding_difference(
    vectors: np.ndarray, column_lo: int, column_hi: int, reference: int, q: int
) -> int:
    """Invariant of the slab between two kx columns of ``vectors[kx, ky, :]``.

    The mismatch winding along the +kx-side boundary minus the one along
    the -kx-side boundary.
    """
    w_hi = _column_winding(vectors[column_hi], reference, q)
    w_lo = _column_winding(vectors[column_lo], reference, q)
    return _as_integer(w_hi - w_lo, "gauge-mismatch winding difference")


def phase_mismatch_chern(
    data: BlochBandData,
    band: int,
    partition: BZPartition | None = None,
) -> int:
    """Chern number of one isolated band from gauge-mismatch windings.

    With a smooth phase choice tied to the first component on the slab and
    to the reference component on the complement, the invariant equals the
    difference of the mismatch windings along the two slab boundaries
    (the +kx-side boundary minus the -kx-side one).  If ``partition`` is
    omitted one is constructed by :func:`auto_partition`; a supplied
    partition is validated first.
    """
    m = _single_band(data, band)
    if partition is None:
        partition = auto_partition(data, m)
    else:
        _validate_partition(data, m, partition, _zero_columns(data, m))
    if partition.trivial:
        return 0
    slab = partition.slab_columns(data.grid.n_kx)
    return _winding_difference(
        data.vectors[m], slab[0], slab[-1], partition.reference_component, data.q
    )


@dataclass(frozen=True)
class TransmissionBloch:
    """Bloch vectors reconstructed from a torus transmission table.

    ``vectors[a, b, :]`` is the normalized ``q``-component vector at
    ``(kx_values[a], ky_values[b])``; up to an overall per-k phase it
    matches the Bloch eigenvector of the band the drive sits in, so the
    gauge-mismatch analysis of :func:`phase_mismatch_chern` applies to it
    unchanged via :meth:`chern`.
    """

    p: int
    q: int
    kx_values: np.ndarray
    ky_values: np.ndarray
    vectors: np.ndarray

    def column_winding(self, column: int, reference_component: int) -> float:
        """Gauge-mismatch winding along ky at one kx column."""
        return _column_winding(self.vectors[column], reference_component, self.q)

    def chern(
        self, column_lo: int, column_hi: int, reference_component: int
    ) -> int:
        """Winding difference between two kx columns bounding a slab.

        ``column_lo`` and ``column_hi`` are the extreme kx columns *inside*
        the slab (chosen from ideal band data or prior knowledge of where
        the first component vanishes).
        """
        return _winding_difference(
            self.vectors, column_lo, column_hi, reference_component, self.q
        )


def bloch_from_transmission(
    amplitudes: np.ndarray,
    lattice: LatticeSpec,
    p: int,
    q: int,
    omega: float,
    gamma: float,
) -> TransmissionBloch:
    """Reconstruct Bloch vectors from transmission off a periodic lattice.

    ``amplitudes`` is the flat transmission vector measured at every cavity
    and OAM output of a fully periodic (torus) scalar lattice driven at one
    site with frequency ``omega`` and uniform decay ``gamma``.  A discrete
    Fourier transform over cavity index and OAM value, restricted to OAM
    values congruent to each residue mod ``q``, gives one ``q``-component
    vector per momentum; each is normalized to unit length.  The drive must
    sit in a single band: if more than one band (or none) of the ideal
    spectrum comes within ``3*gamma`` of ``omega``, an error is raised.

    Momenta: ``kx = 2*pi*j/n_x`` for the ``n_x`` cavities and
    ``ky = 2*pi*m/n_l`` for ``m = 0 .. n_l/q - 1``, one reduced period.
    """
    _check_reduced_flux(p, q)
    if lattice.bc_x is not Boundary.PERIODIC or lattice.bc_y is not Boundary.PERIODIC:
        raise ValueError("transmission reconstruction requires a torus lattice")
    if lattice.spin_dim != 1:
        raise ValueError("transmission reconstruction handles scalar lattices only")
    if lattice.n_l % q != 0:
        raise ValueError(
            f"OAM window size {lattice.n_l} is not a multiple of q={q}; the "
            "reduced ky period does not close"
        )
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape != (lattice.dim,):
        raise ValueError(
            f"amplitude vector has shape {amplitudes.shape}, expected ({lattice.dim},)"
        )
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    _require_single_band_at(p, q, omega, gamma)

    n_x, n_l = lattice.n_x, lattice.n_l
    table = amplitudes.reshape(n_x, n_l)
    l_values = lattice.l_values
    n_ky = n_l // q
    kx_values = TWO_PI * np.arange(n_x) / n_x
    ky_values = TWO_PI * np.arange(n_ky) / n_l
    # DFT over the cavity axis for every OAM row at once.
    cavity_phase = np.exp(-1j * np.outer(kx_values, np.arange(n_x)))
    table_kx = cavity_phase @ table  # (n_kx, n_l)
    vectors = np.zeros((n_x, n_ky, q), dtype=complex)
    for lq in range(q):
        sel = np.where(np.mod(l_values, q) == lq)[0]
        oam_phase = np.exp(-1j * np.outer(ky_values, l_values[sel]))
        vectors[:, :, lq] = table_kx[:, sel] @ oam_phase.T
    norms = np.linalg.norm(vectors, axis=2, keepdims=True)
    if norms.min() == 0:
        raise ValueError("transmission table has no weight at some momentum")
    vectors = vectors / norms
    return TransmissionBloch(
        p=p, q=q, kx_values=kx_values, ky_values=ky_values, vectors=vectors
    )


def _require_single_band_at(p: int, q: int, omega: float, gamma: float) -> None:
    data = band_structure(MagneticBZGrid(p=p, q=q, n_kx=48, n_ky=max(4, 48 // q)))
    near = []
    for m in range(q):
        lo, hi = float(data.energies[m].min()), float(data.energies[m].max())
        distance = max(lo - omega, omega - hi, 0.0)
        if distance < 3.0 * gamma:
            near.append(m)
    if len(near) != 1:
        raise ValueError(
            f"band not isolated at omega={omega}: {len(near)} bands come within "
            f"3*gamma={3 * gamma:.3g} of the drive (need exactly one)"
        )
