"""Transfer-matrix optics against closed forms and the cosine band law."""

import math

import numpy as np
import pytest

from oamphoton import optics
from oamphoton.optics import (
    OpticalParams,
    RayMatrix,
    bloch_dispersion,
    bs_transfer_matrix,
    coupling_strength,
    degenerate_mode_detuning,
    field_transfer_x,
    field_transfer_y,
)

TWO_PI = 2.0 * np.pi
CARRIER = np.pi  # resonant for s_c=8 (8*pi round trip), anti-resonant for s_a=3


def default_params(r_mag, **overrides):
    return OpticalParams(r_mag=r_mag, k_wave=CARRIER, **overrides)


# ---------------------------------------------------------------------------
# beam splitter


def test_beam_splitter_entry_magnitudes_at_balanced_reflectivity():
    matrix = bs_transfer_matrix(1.0 / math.sqrt(2.0))
    expected = np.array([[math.sqrt(2.0), 1.0], [1.0, math.sqrt(2.0)]])
    np.testing.assert_allclose(np.abs(matrix), expected, rtol=1e-12)


@pytest.mark.parametrize("r_mag", [0.05, 0.3, 1.0 / math.sqrt(2.0), 0.9, 0.999])
def test_beam_splitter_determinant_is_unity(r_mag):
    det = np.linalg.det(bs_transfer_matrix(r_mag))
    assert abs(det - 1.0) < 1e-12


@pytest.mark.parametrize("r_mag", [0.0, 1.0, -0.1, 1.3])
def test_beam_splitter_rejects_out_of_range_reflectivity(r_mag):
    with pytest.raises(ValueError, match="between 0"):
        bs_transfer_matrix(r_mag)


def test_beam_splitter_entries_diverge_in_weak_coupling_limit():
    matrix = bs_transfer_matrix(1e-4)
    assert abs(matrix[0, 0]) == pytest.approx(1e4, rel=1e-8)
    assert abs(matrix[1, 1]) == pytest.approx(1e4, rel=1e-8)


# ---------------------------------------------------------------------------
# parameters and arm transfer matrices


def test_optical_params_defaults_and_transmission():
    params = default_params(0.6)
    assert params.omega0 == pytest.approx(TWO_PI / params.s_c, rel=1e-15)
    assert params.r_mag**2 + params.t_mag**2 == pytest.approx(1.0, abs=1e-15)
    assert params.spacing == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_mag": -0.2},
        {"r_mag": 1.0},
        {"r_mag": float("nan")},
        {"k_wave": 0.0},
        {"k_wave": -1.0},
        {"s_c": -8.0},
        {"s_a": 0.0},
        {"spacing": -1.0},
        {"omega0": -5.0},
    ],
)
def test_optical_params_validation(kwargs):
    base = {"r_mag": 0.1, "k_wave": CARRIER}
    base.update(kwargs)
    with pytest.raises(ValueError):
        OpticalParams(**base)


def test_params_accept_decoupled_limit_but_transfer_does_not():
    params = default_params(0.0)
    assert coupling_strength(params) == 0.0
    with pytest.raises(ValueError, match="between 0"):
        field_transfer_x(params)


@pytest.mark.parametrize("r_mag", [0.3, 0.8])
def test_field_transfer_unit_determinant_at_zero_bias(r_mag):
    params = default_params(r_mag)
    for matrix in (field_transfer_x(params), field_transfer_y(params)):
        assert abs(np.linalg.det(matrix) - 1.0) < 1e-12


@pytest.mark.parametrize("r_mag", [0.05, 0.1, 0.3, 0.8])
@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.21, 0.67)])
def test_field_transfer_determinant_is_arm_bias_phase(r_mag, phases):
    # the arm bias multiplies the arm propagation by exp(-1j*2*pi*phi)
    # globally, so the composed determinant is that phase squared; it stays
    # unimodular for every bias.  Tolerance covers the 1/r_mag**2 entry
    # growth at weak coupling (determinant conditioning ~ entries**2 * eps).
    params = default_params(r_mag, phi_x=phases[0], phi_y=phases[1])
    for matrix, phi in (
        (field_transfer_x(params), phases[0]),
        (field_transfer_y(params), phases[1]),
    ):
        det = np.linalg.det(matrix)
        assert abs(det - np.exp(-1j * 2.0 * TWO_PI * phi)) < 1e-9
        assert abs(abs(det) - 1.0) < 1e-9


def test_field_transfer_real_at_antiresonant_arm():
    # carrier * s_a = 3*pi, an odd multiple of pi, with zero phase bias:
    # the arm matrix is real up to one global phase
    matrix = field_transfer_x(default_params(0.3))
    pivot = matrix[np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)]
    dephased = matrix * (abs(pivot) / pivot)
    assert np.max(np.abs(dephased.imag)) < 1e-12


def test_field_transfer_axes_use_their_own_phase_bias():
    params = default_params(0.2, phi_x=0.3, phi_y=0.1)
    only_x = default_params(0.2, phi_x=0.3)
    only_y = default_params(0.2, phi_y=0.1)
    np.testing.assert_allclose(field_transfer_x(params), field_transfer_x(only_x))
    np.testing.assert_allclose(field_transfer_y(params), field_transfer_y(only_y))
    assert not np.allclose(field_transfer_x(params), field_transfer_y(params))


# ---------------------------------------------------------------------------
# coupling strength


def test_coupling_strength_arithmetic_example():
    params = OpticalParams(r_mag=0.1, k_wave=CARRIER, omega0=TWO_PI * 1e9)
    assert coupling_strength(params) == pytest.approx(5e6, rel=1e-12)


def test_coupling_strength_vanishes_without_reflection():
    assert coupling_strength(default_params(0.0)) == 0.0


def test_coupling_strength_quadruples_when_reflection_doubles():
    single = coupling_strength(default_params(0.1))
    double = coupling_strength(default_params(0.2))
    assert double == pytest.approx(4.0 * single, rel=1e-12)


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_zone_center_detuning_near_minus_four_kappa():
    params = default_params(0.1)
    kappa = coupling_strength(params)
    detuning = bloch_dispersion(params, 0.0, 0.0)
    assert detuning < 0.0
    assert abs(detuning / (-4.0 * kappa) - 1.0) < 2.5e-3  # measured 1.26e-3


def test_dispersion_zone_center_deviation_scales_as_reflection_squared():
    rels = {}
    for r_mag in (0.05, 0.1):
        params = default_params(r_mag)
        kappa = coupling_strength(params)
        detuning = bloch_dispersion(params, 0.0, 0.0)
        rels[r_mag] = abs(detuning / (-4.0 * kappa) - 1.0)
    ratio = rels[0.1] / rels[0.05]
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("r_mag", [0.05, 0.1, 0.2])
def test_dispersion_matches_cosine_band_law(r_mag):
    params = default_params(r_mag)
    kappa = coupling_strength(params)
    kx_values = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    ky_values = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    numeric = np.empty((kx_values.size, ky_values.size))
    for i, kx in enumerate(kx_values):
        for j, ky in enumerate(ky_values):
            numeric[i, j] = bloch_dispersion(params, kx, ky)
    law = -2.0 * kappa * np.add.outer(np.cos(kx_values), np.cos(ky_values))
    deviation = np.max(np.abs(numeric - law)) / (4.0 * kappa)
    assert deviation < r_mag**2

    design = np.column_stack([law.ravel() / (-2.0 * kappa), np.ones(law.size)])
    slope, _offset = np.linalg.lstsq(design, numeric.ravel(), rcond=None)[0]
    kappa_fit = -slope / 2.0
    assert abs(kappa_fit / kappa - 1.0) < r_mag**2


def test_dispersion_phase_bias_shifts_bloch_phases_exactly():
    base = default_params(0.1)
    biased = default_params(0.1, phi_x=0.15, phi_y=0.35)
    for kx, ky in [(0.3, 0.7), (-1.2, 2.1)]:
        shifted = bloch_dispersion(base, kx - TWO_PI * 0.15, ky - TWO_PI * 0.35)
        assert bloch_dispersion(biased, kx, ky) == pytest.approx(
            shifted, abs=1e-10
        )


def test_dispersion_half_cycle_bias_translates_surface_by_pi():
    base = default_params(0.1)
    flipped = default_params(0.1, phi_x=0.5)
    assert bloch_dispersion(flipped, 0.4, 1.1) == pytest.approx(
        bloch_dispersion(base, 0.4 - np.pi, 1.1), abs=1e-10
    )


def test_dispersion_scales_with_physical_free_spectral_range():
    geometric = default_params(0.1)
    physical = default_params(0.1, omega0=TWO_PI * 1e9)
    ratio = physical.omega0 / geometric.omega0
    a = bloch_dispersion(geometric, 0.9, -0.4)
    b = bloch_dispersion(physical, 0.9, -0.4)
    assert b == pytest.approx(a * ratio, rel=1e-9)
    # and the detuning-to-coupling ratio is invariant
    assert b / coupling_strength(physical) == pytest.approx(
        a / coupling_strength(geometric), rel=1e-9
    )


def test_dispersion_root_satisfies_mode_condition():
    params = default_params(0.1)
    detuning = bloch_dispersion(params, 0.9, -0.4)
    residual = abs(
        optics._mode_condition(params, np.array([CARRIER + detuning]), 0.9, -0.4)[0]
    )
    fsr = TWO_PI / params.s_c
    scan = np.linspace(CARRIER - fsr / 2, CARRIER + fsr / 2, 200)
    scale = np.max(np.abs(optics._mode_condition(params, scan, 0.9, -0.4)))
    assert residual < 1e-9 * scale


def test_dispersion_broadcasts_like_scalar_calls():
    params = default_params(0.3, phi_x=0.15, phi_y=0.35)
    kx = np.array([-2.0, 0.0, 0.9])
    ky = np.array([-0.4, 1.1])
    surface = bloch_dispersion(params, kx[:, None], ky)
    assert surface.shape == (3, 2)
    scalar = [[bloch_dispersion(params, a, b) for b in ky] for a in kx]
    assert surface.tolist() == scalar
    assert type(scalar[0][0]) is float


def test_refine_brackets_finds_sign_changes_and_phase_flips():
    cos_roots = optics._refine_brackets(
        np.cos, np.array([1.5, 4.5]), np.array([1.6, 4.8]), np.cos([1.5, 4.5]), 18
    )
    np.testing.assert_allclose(cos_roots, [np.pi / 2, 3 * np.pi / 2], atol=1e-15)

    def turning(k):  # a zero at 0.7 under a smooth overall phase
        return np.exp(0.3j * k) * (k - 0.7)

    root = optics._refine_brackets(
        turning, np.array([0.6]), np.array([0.8]), turning(np.array([0.6])), 18
    )
    assert abs(root[0] - 0.7) < 1e-15


def test_dispersion_is_deterministic():
    params = default_params(0.1)
    assert bloch_dispersion(params, 0.3, 0.7) == bloch_dispersion(params, 0.3, 0.7)


def test_dispersion_errors_when_no_root_in_scan(monkeypatch):
    # A lossless network keeps at least one mode per free spectral range, so
    # this branch is defensive; starve the scan to exercise the contract.
    monkeypatch.setattr(
        optics, "_mode_condition", lambda params, k, kx, ky: np.ones(len(k), complex)
    )
    with pytest.raises(ValueError, match="free spectral range"):
        bloch_dispersion(default_params(0.1), 0.0, 0.0)


# ---------------------------------------------------------------------------
# ray matrix and degenerate-cavity condition


def test_ray_matrix_requires_unit_determinant():
    with pytest.raises(ValueError, match="unit determinant"):
        RayMatrix(1.0, 1.0, 1.0, 1.0)


def test_degenerate_cavity_residual_independent_of_mode_indices():
    ray = RayMatrix(1.0, 0.7, 0.0, 1.0)  # half_trace == 1
    residuals = {
        degenerate_mode_detuning(p_idx, l, 12.0, 3.0, ray)
        for p_idx, l in [(0, 0), (3, -2), (7, 5)]
    }
    reference = residuals.pop()
    assert all(abs(r - reference) < 1e-12 for r in residuals)


def test_marginal_ray_matrix_gives_quarter_turn_mode_spacing():
    ray = RayMatrix(0.0, 1.0, -1.0, 0.0)  # half_trace == 0, arccos == pi/2
    gaps = []
    for l in (0, 1, 2):
        lo = degenerate_mode_detuning(0, l, 12.0, 3.0, ray)
        hi = degenerate_mode_detuning(0, l + 1, 12.0, 3.0, ray)
        gaps.append(np.mod(lo - hi, TWO_PI))
    assert all(abs(gap - np.pi / 2.0) < 1e-12 for gap in gaps)
    # one radial quantum costs two azimuthal quanta
    p_gap = np.mod(
        degenerate_mode_detuning(0, 0, 12.0, 3.0, ray)
        - degenerate_mode_detuning(1, 0, 12.0, 3.0, ray),
        TWO_PI,
    )
    assert abs(p_gap - np.pi) < 1e-12


def test_inverting_ray_matrix_alternates_resonance_combs():
    ray = RayMatrix(-1.0, 0.0, 0.0, -1.0)  # half_trace == -1, arccos == pi
    comb_even = degenerate_mode_detuning(0, 0, 12.0, 3.0, ray)
    comb_odd = degenerate_mode_detuning(0, 1, 12.0, 3.0, ray)
    comb_next = degenerate_mode_detuning(0, 2, 12.0, 3.0, ray)
    assert abs(np.mod(comb_even - comb_odd, TWO_PI) - np.pi) < 1e-12
    assert abs(comb_even - comb_next) < 1e-12


def test_unstable_cavity_errors():
    ray = RayMatrix(2.0, 3.0, 1.0, 2.0)  # det = 1, half_trace = 2
    with pytest.raises(ValueError, match="unstable"):
        degenerate_mode_detuning(0, 0, 12.0, 3.0, ray)


def test_degenerate_mode_detuning_validates_inputs():
    ray = RayMatrix(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        degenerate_mode_detuning(-1, 0, 12.0, 3.0, ray)
    with pytest.raises(ValueError, match="positive"):
        degenerate_mode_detuning(0, 0, -2.0, 3.0, ray)
    with pytest.raises(ValueError, match="positive"):
        degenerate_mode_detuning(0, 0, 12.0, 0.0, ray)
