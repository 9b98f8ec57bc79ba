"""Transfer-matrix optics for the cavity network behind the lattice model.

The lattice sites are realized as degenerate optical cavities coupled by
beam splitters through auxiliary arms.  This module carries the bridge
between that hardware picture and the tight-binding abstraction used by
the rest of the package:

* :func:`bs_transfer_matrix` and :func:`field_transfer_x` /
  :func:`field_transfer_y` -- the 2x2 field transfer matrices of a single
  beam splitter and of one full coupling arm (splitter, arm propagation
  with its phase bias, splitter again, flanked by quarter-segment
  propagation in the main cavity).
* :func:`bloch_dispersion` -- the exact network dispersion: for a Bloch
  phase pair ``(kx, ky)`` the four traveling-wave amplitudes around one
  unit cell admit a nontrivial solution only at discrete wave numbers;
  the detuning of the root nearest the carrier is returned.
* :func:`coupling_strength` -- the weak-coupling hopping rate
  ``omega0 * r_mag**2 / (4*pi)`` that makes the network dispersion match
  the tight-binding cosine band.
* :func:`degenerate_mode_detuning` -- the round-trip resonance residual of
  a transverse mode in an ABCD ray-matrix description, used to check when
  a cavity is degenerate (all transverse modes resonant together).

Arm phase biases ``phi_x, phi_y`` are in cycles, like the flux parameters
elsewhere in the package.  Geometric units put the speed of light to one,
so wave number and angular frequency coincide when ``omega0`` keeps its
default value ``2*pi/s_c``; supplying a physical ``omega0`` rescales the
returned detunings and coupling strength accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OpticalParams",
    "RayMatrix",
    "bs_transfer_matrix",
    "field_transfer_x",
    "field_transfer_y",
    "bloch_dispersion",
    "coupling_strength",
    "degenerate_mode_detuning",
]

TWO_PI = 2.0 * np.pi

#: Samples per free spectral range in the dispersion root scan.
SCAN_SAMPLES = 384

#: Absolute wave-number tolerance of the refined dispersion root.
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class OpticalParams:
    """Geometry and coupling parameters of the cavity network.

    ``r_mag`` is the beam-splitter reflection magnitude (the reflection
    amplitude is ``1j * r_mag``, the transmission ``sqrt(1 - r_mag**2)``).
    ``k_wave`` is the carrier wave number; ``s_c`` and ``s_a`` are the
    round-trip path lengths of the main cavity and of one coupling arm.
    ``phi_x`` and ``phi_y`` are the arm phase biases in cycles.  ``omega0``
    is the free spectral range of the main cavity as an angular frequency;
    by default it is ``2*pi/s_c`` (speed of light = 1).  Bloch momenta are
    in units of the inverse lattice constant.

    ``r_mag = 0`` is accepted as the decoupled limit -- the coupling
    strength is then zero -- but the transfer matrices themselves diverge
    there and refuse it.
    """

    r_mag: float
    k_wave: float
    s_c: float = 8.0
    s_a: float = 3.0
    phi_x: float = 0.0
    phi_y: float = 0.0
    omega0: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_mag < 1.0) or not math.isfinite(self.r_mag):
            raise ValueError(
                "beam-splitter reflection magnitude must lie in [0, 1), "
                f"got {self.r_mag!r}"
            )
        for name in ("k_wave", "s_c", "s_a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.omega0 is None:
            object.__setattr__(self, "omega0", TWO_PI / self.s_c)
        elif not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(
                f"free spectral range omega0 must be positive, got {self.omega0!r}"
            )

    @property
    def t_mag(self) -> float:
        """Beam-splitter transmission magnitude ``sqrt(1 - r_mag**2)``."""
        return math.sqrt(1.0 - self.r_mag * self.r_mag)


@dataclass(frozen=True)
class RayMatrix:
    """Real ABCD ray-transfer matrix of one cavity round trip.

    Entries are row-major: ``[[a, b], [c, d]]``.  A lossless paraxial
    round trip has unit determinant, which is enforced at construction.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ray-matrix entry {name} must be finite")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-9:
            raise ValueError(
                f"ray matrix must have unit determinant, got {det!r}"
            )

    @property
    def half_trace(self) -> float:
        """``(a + d) / 2``, the stability parameter of the round trip."""
        return 0.5 * (self.a + self.d)


def bs_transfer_matrix(r_mag: float) -> np.ndarray:
    """Field transfer matrix of one beam splitter.

    With reflection amplitude ``1j*r_mag`` and transmission
    ``t = sqrt(1 - r_mag**2)`` the transfer form (relating the fields on
    one side to those on the other) is::

        [[ 1/(-1j*r),  t/(1j*r) ],
         [ t/(-1j*r),  1/(1j*r) ]]

    Its determinant is exactly 1 for every ``r_mag`` in ``(0, 1)``; the
    entries diverge as ``1/r_mag`` in the weak-coupling limit.
    """
    if not (0.0 < r_mag < 1.0):
        raise ValueError(
            "beam-splitter reflection magnitude must lie strictly between 0 "
            f"and 1 to form a transfer matrix, got {r_mag!r}"
        )
    t = math.sqrt(1.0 - r_mag * r_mag)
    ir = 1j * r_mag
    return np.array([[1.0 / -ir, t / ir], [t / -ir, 1.0 / ir]])


def _arm_transfer(
    k: np.ndarray, s_c: float, s_a: float, phi: float, splitter: np.ndarray
) -> np.ndarray:
    """Transfer matrices of one coupling arm for an array of wave numbers.

    Composition, outermost first: an eighth of the main-cavity round trip,
    the first beam splitter, half the arm round trip carrying the phase
    bias ``phi`` (cycles), the second beam splitter, and the closing
    eighth of the main cavity.  Returns shape ``(len(k), 2, 2)``.

    The bias multiplies the arm propagation by the global phase
    ``exp(-1j*2*pi*phi)`` -- the gauge content of the coupling -- so the
    composed determinant is ``exp(-1j*4*pi*phi)``: exactly one at zero
    bias, unimodular always.
    """
    k = np.asarray(k, dtype=float)
    outer = np.zeros(k.shape + (2, 2), dtype=complex)
    outer[..., 0, 0] = np.exp(-1j * k * s_c / 8.0)
    outer[..., 1, 1] = np.exp(1j * k * s_c / 8.0)
    inner = np.zeros_like(outer)
    inner[..., 0, 0] = np.exp(-1j * (k * s_a / 2.0 + TWO_PI * phi))
    inner[..., 1, 1] = np.exp(1j * (k * s_a / 2.0 - TWO_PI * phi))
    return outer @ splitter @ inner @ splitter @ outer


def field_transfer_x(params: OpticalParams) -> np.ndarray:
    """2x2 transfer matrix of one x-direction coupling arm at the carrier."""
    splitter = bs_transfer_matrix(params.r_mag)
    return _arm_transfer(
        np.array([params.k_wave]), params.s_c, params.s_a, params.phi_x, splitter
    )[0]


def field_transfer_y(params: OpticalParams) -> np.ndarray:
    """2x2 transfer matrix of one y-direction coupling arm at the carrier."""
    splitter = bs_transfer_matrix(params.r_mag)
    return _arm_transfer(
        np.array([params.k_wave]), params.s_c, params.s_a, params.phi_y, splitter
    )[0]


def _mode_condition(
    params: OpticalParams, k: np.ndarray, kx: np.ndarray | float, ky: np.ndarray | float
) -> np.ndarray:
    """Determinant whose zeros in ``k`` are the Bloch modes at ``(kx, ky)``.

    ``k`` is 1-D; ``kx`` and ``ky`` broadcast against it, so one call
    evaluates many wave numbers at one Bloch point or one wave number per
    Bloch point.  The four traveling-wave amplitudes ``(a, b, c, d)`` in
    one unit cell satisfy four linear relations through the x- and y-arm
    transfer matrices and the Bloch phases; a nontrivial solution exists
    where the 4x4 system matrix is singular.  The determinant is rescaled
    by ``r_mag**4`` so its magnitude stays of order one as ``r_mag -> 0``.
    """
    k = np.asarray(k, dtype=float)
    splitter = bs_transfer_matrix(params.r_mag)
    m_x = _arm_transfer(k, params.s_c, params.s_a, params.phi_x, splitter)
    m_y = _arm_transfer(k, params.s_c, params.s_a, params.phi_y, splitter)
    bloch_x = np.exp(1j * np.asarray(kx))
    bloch_y = np.exp(1j * np.asarray(ky))
    shape = np.broadcast_shapes(k.shape, bloch_x.shape, bloch_y.shape)
    system = np.zeros(shape + (4, 4), dtype=complex)
    system[..., 0, 0] = 1.0
    system[..., 0, 1] = -bloch_x * m_x[..., 0, 0]
    system[..., 0, 2] = -bloch_x * m_x[..., 0, 1]
    system[..., 1, 1] = -bloch_x * m_x[..., 1, 0]
    system[..., 1, 2] = -bloch_x * m_x[..., 1, 1]
    system[..., 1, 3] = 1.0
    system[..., 2, 0] = -bloch_y * m_y[..., 0, 0]
    system[..., 2, 1] = -bloch_y * m_y[..., 0, 1]
    system[..., 2, 3] = 1.0
    system[..., 3, 0] = -bloch_y * m_y[..., 1, 0]
    system[..., 3, 1] = -bloch_y * m_y[..., 1, 1]
    system[..., 3, 2] = 1.0
    return np.linalg.det(system) * params.r_mag**4


def _refine_brackets(g, lo, hi, g_lo, steps: int) -> np.ndarray:
    """Shrink every bracket ``[lo[i], hi[i]]`` around a zero of ``g`` at once.

    ``g`` maps an ``(n, 7)`` array whose row ``i`` holds points of bracket
    ``i`` to the values there; ``g_lo`` holds the values at ``lo``.  Each
    step evaluates ``g`` once, at the 7 interior points that cut every
    bracket into eighths, and keeps the first eighth whose upper end
    satisfies ``Re(g * conj(g_lo)) <= 0`` against the value at its lower
    end.  For real ``g`` that is a sign change; for a complex ``g`` with a
    smooth overall phase it is the phase flip of a zero.  After ``steps``
    steps each bracket is ``8**-steps`` of its width; the midpoints are
    returned.
    """
    cuts = np.arange(1, 8) / 8.0
    rows = np.arange(lo.size)
    for _ in range(steps):
        points = np.column_stack([lo, lo[:, None] + (hi - lo)[:, None] * cuts, hi])
        values = np.column_stack([g_lo, g(points[:, 1:-1])])
        flip = (values[:, 1:] * np.conj(g_lo)[:, None]).real <= 0.0
        eighth = np.where(flip.any(axis=1), flip.argmax(axis=1), 7)
        lo, hi = points[rows, eighth], points[rows, eighth + 1]
        g_lo = values[rows, eighth]
    return 0.5 * (lo + hi)


def bloch_dispersion(
    params: OpticalParams, kx: np.ndarray | float, ky: np.ndarray | float
) -> np.ndarray | float:
    """Detuning of the network Bloch mode nearest the carrier.

    Scans one free spectral range centered on ``params.k_wave`` for zeros
    of the mode condition at Bloch phases ``(kx, ky)`` (radians per site),
    refines every bracket at once eightfold per step until it is at most
    ``ROOT_TOL`` wide, and returns the detuning ``(k_root - k_wave)`` of
    the bracket midpoint nearest the carrier, converted to angular
    frequency through ``omega0`` (with the default ``omega0`` the two
    coincide).  ``kx`` and ``ky`` broadcast against each other: scalars
    give a ``float``, arrays an array of their broadcast shape.  In the
    weak-coupling regime this reproduces the tight-binding band
    ``-2*kappa*(cos(kx - 2*pi*phi_x) + cos(ky - 2*pi*phi_y))`` with
    ``kappa = coupling_strength(params)``.

    Raises :class:`ValueError` if no mode lies within the scanned free
    spectral range of some Bloch point.
    """
    kx, ky = np.broadcast_arrays(np.asarray(kx, float), np.asarray(ky, float))
    shape = kx.shape
    kx, ky = kx.ravel(), ky.ravel()
    fsr_k = TWO_PI / params.s_c
    k_grid = np.linspace(
        params.k_wave - 0.5 * fsr_k, params.k_wave + 0.5 * fsr_k, SCAN_SAMPLES
    )
    values = np.broadcast_to(  # one scan row per Bloch point
        _mode_condition(params, k_grid, kx[:, None], ky[:, None]),
        (kx.size, SCAN_SAMPLES),
    )
    # "<= 0" also brackets a sample that is an exact zero, from both sides.
    point, index = np.nonzero((values[:, 1:] * np.conj(values[:, :-1])).real <= 0.0)
    missing = np.setdiff1d(np.arange(kx.size), point)
    if missing.size:
        raise ValueError(
            "no dispersion root in the free spectral range around the carrier "
            f"(k_wave={params.k_wave!r}, kx={float(kx[missing[0]])!r}, "
            f"ky={float(ky[missing[0]])!r})"
        )

    def condition(k: np.ndarray) -> np.ndarray:
        """The mode condition at ``k[i, :]`` for Bloch point ``point[i]``."""
        at = np.repeat(point, k.shape[1])
        return _mode_condition(params, k.ravel(), kx[at], ky[at]).reshape(k.shape)

    steps = math.ceil(math.log((k_grid[1] - k_grid[0]) / ROOT_TOL, 8))
    roots = _refine_brackets(condition, k_grid[index], k_grid[index + 1],
                             values[point, index], steps)
    order = np.lexsort((np.abs(roots - params.k_wave), point))
    first = np.r_[True, np.diff(point[order]) != 0]
    nearest = roots[order][first]
    scale = params.omega0 * params.s_c / TWO_PI
    detuning = ((nearest - params.k_wave) * scale).reshape(shape)
    return float(detuning) if detuning.ndim == 0 else detuning


def coupling_strength(params: OpticalParams) -> float:
    """Tight-binding hopping rate ``omega0 * r_mag**2 / (4*pi)``.

    This is the coefficient that maps the weak-coupling network dispersion
    onto ``-2*kappa*(cos kx + cos ky)``; it vanishes with the reflection
    and grows with its square (doubling ``r_mag`` quadruples it).
    """
    return params.omega0 * params.r_mag**2 / (4.0 * math.pi)


def degenerate_mode_detuning(
    p_idx: int, l: int, cavity_length: float, k_wave: float, ray: RayMatrix
) -> float:
    """Round-trip phase residual of transverse mode ``(p_idx, l)``.

    For a cavity of round-trip length ``cavity_length`` whose round-trip
    ray matrix is ``ray``, the mode with radial index ``p_idx`` and
    azimuthal index ``l`` is resonant when
    ``k_wave * cavity_length - (2*p_idx + |l| + 1) * arccos(half_trace)``
    is a multiple of ``2*pi``; the residual is returned in ``[0, 2*pi)``.
    The residual is independent of ``(p_idx, l)`` exactly when the ray
    matrix is the identity (``half_trace == 1``): the degenerate-cavity
    condition.

    Raises :class:`ValueError` for an unstable round trip
    (``|half_trace| > 1``), where no confined transverse modes exist.
    """
    if p_idx < 0:
        raise ValueError(f"radial mode index must be nonnegative, got {p_idx!r}")
    if not (math.isfinite(cavity_length) and cavity_length > 0.0):
        raise ValueError(
            f"cavity round-trip length must be positive, got {cavity_length!r}"
        )
    if not math.isfinite(k_wave) or k_wave <= 0.0:
        raise ValueError(f"wave number must be positive, got {k_wave!r}")
    half_trace = ray.half_trace
    if abs(half_trace) > 1.0:
        raise ValueError(
            "cavity round trip is unstable: |(a + d)/2| = "
            f"{abs(half_trace)!r} exceeds 1, so transverse modes are not "
            "confined"
        )
    gouy = math.acos(half_trace)
    order = 2 * p_idx + abs(l) + 1
    return float(np.mod(k_wave * cavity_length - order * gouy, TWO_PI))
