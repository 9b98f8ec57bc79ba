"""Gap scans, polarized edge maps, and transition detection on the spin lattice.

The polarized edge maps are the ones the ``edge-map`` CLI kind writes: one
:func:`~oamphoton.edge.transmission_map` per input polarization at cavity 0,
OAM 0.
"""

import numpy as np
import pytest

from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex
from oamphoton.hamiltonians import build_qsh
from oamphoton.edge import transmission_map
from oamphoton.scattering import DecaySpec
from oamphoton.qsh import (
    GapReport,
    TransitionEstimate,
    edge_confined_weight,
    qsh_gap_scan,
    transition_detector,
    _cell_bloch,
)

LAMBDA0 = 0.6
TARGET = -1.6


def cell_spec(n_x=8, l_min=-20, l_max=20, **kw):
    kw.setdefault("spin_dim", 2)
    kw.setdefault("bc_y", Boundary.PERIODIC)
    return LatticeSpec(n_x, l_min, l_max, **kw)


# ---------------------------------------------------------------------------
# Bloch cell vs real-space builder
# ---------------------------------------------------------------------------


def test_cell_bloch_matches_real_space_torus():
    """The 8x8 cell at the allowed momenta reproduces the exact torus spectrum."""
    spec = LatticeSpec(8, 0, 5, spin_dim=2,
                       bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC)
    H = build_qsh(spec, beta0=0.03, lambda0=LAMBDA0)
    direct = np.sort(np.linalg.eigvalsh(H.toarray()))

    blocks = []
    for kx in (0.0, np.pi / 4):  # 8 cavities = 2 cells -> 2 momentum classes
        for n in range(6):
            cell = _cell_bloch(kx, 2 * np.pi * n / 6, 0.03, LAMBDA0)[0]
            blocks.append(np.linalg.eigvalsh(cell))
    folded = np.sort(np.concatenate(blocks))

    assert direct.size == folded.size == spec.dim
    assert np.max(np.abs(direct - folded)) < 1e-12


def test_cell_bloch_is_hermitian():
    rng_k = np.linspace(0.1, 1.4, 5)
    H = _cell_bloch(rng_k, rng_k[::-1], 0.04, 0.3)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, 1, 2)))) < 1e-14


# ---------------------------------------------------------------------------
# Gap scan
# ---------------------------------------------------------------------------


def test_gap_scan_frozen_headline_values():
    reports = qsh_gap_scan(cell_spec(), LAMBDA0, [0.0, 0.075, 0.125])
    widths = [r.width for r in reports]
    assert widths == pytest.approx(
        [0.640075677142, 0.006627450501, 0.526513152549], abs=1e-9
    )
    assert reports[0].e_low == pytest.approx(-2.061422493156, abs=1e-9)
    assert reports[0].e_high == pytest.approx(-1.421346816014, abs=1e-9)
    assert reports[2].e_low == pytest.approx(-1.900535474043, abs=1e-9)
    assert reports[2].e_high == pytest.approx(-1.374022321494, abs=1e-9)


def test_gap_scan_closing_and_reopening_bounds():
    open_gap, closing, reopened = qsh_gap_scan(
        cell_spec(), LAMBDA0, [0.0, 0.075, 0.125]
    )
    assert open_gap.width > 0.3
    assert closing.width < 0.05
    assert reopened.width > 0.2


def test_gap_windows_contain_target():
    grid = np.arange(0.0, 0.1501, 0.025)
    for report in qsh_gap_scan(cell_spec(), LAMBDA0, grid):
        assert report.width >= 0
        if report.width > 0:
            assert report.e_low <= TARGET <= report.e_high
        assert report.energy_target == TARGET


def test_gap_scan_resolution_robustness():
    """A coarser k-grid shifts the resolution-limited closing but not the verdict."""
    widths = [
        r.width
        for r in qsh_gap_scan(cell_spec(), LAMBDA0, [0.0, 0.075, 0.125],
                              k_samples=48)
    ]
    assert widths == pytest.approx(
        [0.640075677142, 0.039804828491, 0.532634609677], abs=1e-9
    )
    assert widths[0] > 0.3 and widths[1] < 0.05 and widths[2] > 0.2


def test_gap_scan_continuity_on_grid():
    """No width jump exceeds 4x the larger of its neighboring differences."""
    grid = np.arange(0.0, 0.1501, 0.025)
    widths = np.array([r.width for r in qsh_gap_scan(cell_spec(), LAMBDA0, grid)])
    diffs = np.abs(np.diff(widths))
    for i in range(1, diffs.size - 1):
        assert diffs[i] <= 4 * max(diffs[i - 1], diffs[i + 1])


def test_gap_scan_is_a_bulk_property():
    """Boundary conditions and the OAM window of the spec do not enter."""
    a = qsh_gap_scan(cell_spec(8, -20, 20), LAMBDA0, [0.0, 0.1])
    b = qsh_gap_scan(
        LatticeSpec(12, 0, 5, spin_dim=2,
                    bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC),
        LAMBDA0, [0.0, 0.1],
    )
    for ra, rb in zip(a, b):
        assert ra.width == pytest.approx(rb.width, abs=1e-15)
        assert ra.e_low == pytest.approx(rb.e_low, abs=1e-15)


def test_gap_report_invariants():
    ok = GapReport(beta0=0.0, e_low=-2.0, e_high=-1.4, energy_target=TARGET)
    assert ok.width == pytest.approx(0.6)
    # Zero width carries no containment requirement.
    GapReport(beta0=0.0, e_low=-1.0, e_high=-1.0, energy_target=TARGET)
    with pytest.raises(ValueError, match="e_low <= e_high"):
        GapReport(beta0=0.0, e_low=-1.0, e_high=-2.0, energy_target=TARGET)
    with pytest.raises(ValueError, match="does not contain"):
        GapReport(beta0=0.0, e_low=-2.0, e_high=-1.9, energy_target=TARGET)
    with pytest.raises(ValueError, match="finite"):
        GapReport(beta0=np.nan, e_low=-2.0, e_high=-1.4, energy_target=TARGET)


def test_gap_scan_validations():
    spec = cell_spec()
    with pytest.raises(ValueError, match="multiple of 4"):
        qsh_gap_scan(cell_spec(n_x=6), LAMBDA0, [0.0])
    with pytest.raises(ValueError, match="spin_dim=2"):
        qsh_gap_scan(LatticeSpec(8, -20, 20), LAMBDA0, [0.0])
    with pytest.raises(ValueError, match="not be empty"):
        qsh_gap_scan(spec, LAMBDA0, [])
    with pytest.raises(ValueError, match="at least 4"):
        qsh_gap_scan(spec, LAMBDA0, [0.0], k_samples=2)
    with pytest.raises(ValueError, match="lambda0"):
        qsh_gap_scan(spec, np.inf, [0.0])
    with pytest.raises(ValueError, match="beta0 values must be finite"):
        qsh_gap_scan(spec, LAMBDA0, [0.0, np.nan])
    with pytest.raises(ValueError, match="outside the computed spectrum"):
        qsh_gap_scan(spec, LAMBDA0, [0.0], energy_target=99.0)


# ---------------------------------------------------------------------------
# Transition detector
# ---------------------------------------------------------------------------


def test_transition_detector_locates_closing():
    est = transition_detector(cell_spec(), LAMBDA0, np.arange(0.0, 0.1501, 0.025))
    assert isinstance(est, TransitionEstimate)
    assert est.beta0 == pytest.approx(0.075)
    assert est.uncertainty == pytest.approx(0.025)
    assert len(est.reports) == 7


def test_transition_detector_refined_grid_halves_uncertainty():
    est = transition_detector(
        cell_spec(), LAMBDA0, np.arange(0.05, 0.1001, 0.0125)
    )
    assert est.beta0 == pytest.approx(0.075)
    assert est.uncertainty == pytest.approx(0.0125)


def test_transition_detector_requires_interior_minimum():
    with pytest.raises(ValueError, match="no local minimum"):
        transition_detector(cell_spec(), LAMBDA0, [0.0, 0.025, 0.05])


def test_transition_detector_grid_validations():
    spec = cell_spec()
    with pytest.raises(ValueError, match="at least 3 grid points"):
        transition_detector(spec, LAMBDA0, [0.0, 0.1])
    with pytest.raises(ValueError, match="strictly increasing"):
        transition_detector(spec, LAMBDA0, [0.0, 0.1, 0.05])


def test_transition_detector_uniform_lattice_smoke():
    """Without the on-site staircase the scan still runs; behavior recorded."""
    est = transition_detector(cell_spec(), 0.0, np.arange(0.0, 0.1501, 0.025))
    assert est.beta0 == pytest.approx(0.125)
    assert all(r.width >= 0 for r in est.reports)


# ---------------------------------------------------------------------------
# Polarized edge maps
# ---------------------------------------------------------------------------


def polarized_maps(spec, beta0, decay):
    """Both polarizations' edge maps at the target frequency, with each map's
    OAM displacement over the four input-side columns and its edge-confined
    weight."""
    H = build_qsh(spec, beta0, LAMBDA0)
    probes = [SiteIndex(0, 0, s) for s in (0, 1)]
    maps = [transmission_map(H, decay, TARGET, probe) for probe in probes]
    ls = np.asarray(spec.l_values, dtype=float)
    displacements = [float(np.sum(grid[:4] * ls[None, :, None])) for grid in maps]
    weights = [edge_confined_weight(spec, grid, probe)
               for grid, probe in zip(maps, probes)]
    return maps, displacements, weights


@pytest.fixture(scope="module")
def small_maps():
    spec = cell_spec()
    decay = DecaySpec(gamma=0.1)
    return {beta0: polarized_maps(spec, beta0, decay) for beta0 in (0.0, 0.125)}


def test_polarized_maps_shapes_and_totals(small_maps):
    maps, _, _ = small_maps[0.0]
    for grid in maps:
        assert grid.shape == (8, 41, 2)
        assert np.all(grid >= 0)
        assert float(grid.sum()) == pytest.approx(0.070959318040, abs=1e-9)


def test_polarized_maps_counter_propagation(small_maps):
    d0, d1 = small_maps[0.0][1]
    assert d0 == pytest.approx(0.215914883736, abs=1e-9)
    assert d1 == pytest.approx(-0.215914883736, abs=1e-9)
    assert d0 > 0 > d1
    # Swapping the input polarization negates the displacement (exactly here;
    # the design symmetry demands it within 10%).
    assert abs(d0 + d1) <= 0.1 * max(abs(d0), abs(d1))
    assert abs(d0 + d1) < 1e-9


def test_polarized_maps_edge_weight_collapse(small_maps):
    w_open = small_maps[0.0][2]
    w_closed = small_maps[0.125][2]
    for s in (0, 1):
        assert w_open[s] == pytest.approx(0.049571712461, abs=1e-9)
        assert w_closed[s] == pytest.approx(0.001912294634, abs=1e-9)
    for s in (0, 1):
        assert w_closed[s] < 0.2 * w_open[s]
    # Past the transition the residual displacement is negligible as well.
    assert max(abs(d) for d in small_maps[0.125][1]) < 1e-3


def test_polarized_maps_full_scale():
    """The production-size lattice shows the same transition signatures."""
    spec = cell_spec(10, -50, 50)
    decay = DecaySpec(gamma=0.1)
    _, d_open, w_open = polarized_maps(spec, 0.0, decay)
    _, _, w_closed = polarized_maps(spec, 0.125, decay)
    assert d_open[0] == pytest.approx(0.517077227129, abs=1e-9)
    assert d_open[1] == pytest.approx(-0.517077227129, abs=1e-9)
    assert w_open[0] == pytest.approx(0.035277494405, abs=1e-9)
    for s in (0, 1):
        ratio = w_closed[s] / w_open[s]
        assert ratio == pytest.approx(0.0542824, abs=1e-4)
        assert ratio < 0.2


# ---------------------------------------------------------------------------
# Edge-confined weight
# ---------------------------------------------------------------------------


def test_edge_confined_weight_frame_and_exclusion():
    spec = cell_spec(8, -3, 3)  # n_l = 7, periodic OAM axis
    probe = SiteIndex(0, 0, 0)
    grid = np.zeros((8, 7, 2))

    grid[7, 3, 0] = 1.0  # far edge column: counts
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)

    grid[0, 3, 0] = 5.0  # the input cell itself: excluded
    grid[0, 0, 1] = 7.0  # periodic OAM distance min(3, 4) = 3 <= radius: excluded
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)

    grid[4, 0, 0] = 11.0  # interior column: not part of the frame
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)

    grid[1, 0, 1] = 2.0  # j=1 in frame, OAM distance 3 but Chebyshev uses max -> 3, excluded
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)
    grid[1, 6, 1] = 2.0  # OAM distance 3 the other way: also excluded
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)

    grid[6, 1, 0] = 0.5  # j=6 in frame, Chebyshev 6 > radius: counts
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.5)


def test_edge_confined_weight_periodic_wrap_exclusion():
    spec = cell_spec(8, -5, 5)  # n_l = 11
    probe = SiteIndex(0, 5, 0)  # input at the OAM window end, il = 10
    grid = np.zeros((8, 11, 2))
    grid[1, 0, 0] = 1.0  # direct OAM distance 10, wrapped distance 1: excluded
    assert edge_confined_weight(spec, grid, probe) == 0.0
    grid[1, 0, 0] = 0.0
    grid[1, 5, 0] = 1.0  # wrapped distance min(5, 6) = 5 > radius: counts
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)


def test_edge_confined_weight_open_oam_frame():
    spec = cell_spec(8, -3, 3, bc_y=Boundary.OPEN)
    probe = SiteIndex(0, 0, 0)
    grid = np.zeros((8, 7, 2))
    grid[4, 0, 0] = 1.0  # interior column but OAM boundary row: in frame, cheb 4
    assert edge_confined_weight(spec, grid, probe) == pytest.approx(1.0)
    # With a periodic OAM axis the same cell is not frame.
    assert edge_confined_weight(cell_spec(8, -3, 3), grid, probe) == 0.0


def test_edge_confined_weight_radius_zero_and_depth():
    spec = cell_spec(8, -3, 3)
    probe = SiteIndex(0, 0, 0)
    grid = np.zeros((8, 7, 2))
    grid[0, 3, 0] = 5.0  # input cell
    grid[1, 3, 0] = 1.0  # neighbor in frame
    assert edge_confined_weight(spec, grid, probe, exclusion_radius=0) \
        == pytest.approx(1.0)
    assert edge_confined_weight(spec, grid, probe, exclusion_radius=1) == 0.0
    # Depth 1 frame drops j=1.
    assert edge_confined_weight(spec, grid, probe, depth=1,
                                exclusion_radius=0) == 0.0


def test_edge_confined_weight_validations():
    spec = cell_spec(8, -3, 3)
    probe = SiteIndex(0, 0, 0)
    with pytest.raises(ValueError, match="does not match"):
        edge_confined_weight(spec, np.zeros((4, 7, 2)), probe)
    with pytest.raises(ValueError, match="depth"):
        edge_confined_weight(spec, np.zeros((8, 7, 2)), probe, depth=0)
    with pytest.raises(ValueError, match="radius"):
        edge_confined_weight(spec, np.zeros((8, 7, 2)), probe,
                             exclusion_radius=-1)


def test_edge_confined_weight_accepts_scalar_grid():
    spec = LatticeSpec(8, -3, 3, bc_y=Boundary.PERIODIC)
    grid = np.zeros((8, 7))
    grid[7, 0] = 2.0
    assert edge_confined_weight(spec, grid, SiteIndex(0, 0, 0)) \
        == pytest.approx(2.0)
