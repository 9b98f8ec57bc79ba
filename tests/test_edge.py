"""Edge-transport tests: displacement plateaus, chain oracle, analytic profile."""

from fractions import Fraction

import numpy as np
import pytest

from oamphoton.chern import MagneticBZGrid, band_structure, fukui_hatsugai_chern
from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex
from oamphoton.hamiltonians import HamiltonianMatrix, build_landau_hofstadter
from oamphoton.scattering import DecaySpec
from oamphoton.edge import (
    EdgeRegion,
    Side,
    analytic_gap_transmission,
    displacement_spectrum,
    harper_edge_modes,
    transmission_map,
)

PHI0 = 1.0 / 6.0


def displacement(H, decay, omega, region):
    """The displacement at one frequency."""
    return displacement_spectrum(H, decay, [omega], region)[0]


def cylinder(n_x=10, l_half=50):
    return LatticeSpec(
        n_x=n_x, l_min=-l_half, l_max=l_half, bc_y=Boundary.PERIODIC
    )


@pytest.fixture(scope="module")
def sixth_flux_cylinder():
    return build_landau_hofstadter(cylinder(), PHI0)


# ------------------------------------------------------------------- regions

def test_region_columns_both_sides():
    spec = cylinder()
    assert EdgeRegion(Side.LEFT, 2).columns(spec) == [0, 1]
    assert EdgeRegion(Side.RIGHT, 3).columns(spec) == [7, 8, 9]
    with pytest.raises(ValueError):
        EdgeRegion(Side.LEFT, 6).columns(spec)
    with pytest.raises(ValueError):
        EdgeRegion(Side.LEFT, 0).columns(spec)


def test_region_ports_are_cavity_major_then_polarization():
    spec = LatticeSpec(n_x=4, l_min=-2, l_max=2, spin_dim=2)
    # flat index (j * 5 + l + 2) * 2 + s
    assert EdgeRegion(Side.RIGHT, 2).ports(spec, -1) == [22, 23, 32, 33]
    assert EdgeRegion(Side.LEFT, 1).ports(spec, 2) == [8, 9]
    scalar = LatticeSpec(n_x=6, l_min=0, l_max=3)
    assert EdgeRegion(Side.RIGHT, 3).ports(scalar, 1) == [13, 17, 21]


# ---------------------------------------------------------- transmission_map

def test_map_requires_edge_input():
    spec = LatticeSpec(n_x=4, l_min=-2, l_max=2)
    H = build_landau_hofstadter(spec, PHI0)
    with pytest.raises(ValueError):
        transmission_map(H, DecaySpec.uniform(0.1), 0.0, SiteIndex(2, 0, 0))


def test_map_zero_hop_lattice_single_point():
    spec = LatticeSpec(n_x=4, l_min=-2, l_max=2)
    H = HamiltonianMatrix(spec, np.zeros((spec.dim, spec.dim), dtype=complex))
    grid = transmission_map(H, DecaySpec.uniform(0.2), 0.0, SiteIndex(0, 1, 0))
    assert grid.shape == (4, 5)
    mask = np.zeros_like(grid, dtype=bool)
    mask[0, 1 - spec.l_min] = True
    assert grid[mask][0] > 1.0
    np.testing.assert_allclose(grid[~mask], 0.0, atol=1e-20)


def test_map_first_gap_boundary_concentration(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    grid = transmission_map(H, DecaySpec.uniform(0.1), -2.2, SiteIndex(0, 0, 0))
    total = grid.sum()
    boundary = grid[:2, :].sum() + grid[8:, :].sum()
    assert boundary > 0.8 * total


def test_map_second_gap_oscillations_along_edge(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    grid = transmission_map(H, DecaySpec.uniform(0.1), -1.0, SiteIndex(0, 0, 0))
    total = grid.sum()
    assert grid[:2, :].sum() + grid[8:, :].sum() > 0.6 * total
    # Two co-propagating branches beat against each other along the edge.
    edge_line = grid[0, :]
    chiral = edge_line[50 - 40:50 - 2]  # l in [-40, -3] on the input column
    interior = chiral[1:-1]
    n_max = int(np.sum((interior > chiral[:-2]) & (interior > chiral[2:])))
    assert n_max >= 3


def test_map_interior_weight_small_in_gap(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    grid = transmission_map(H, DecaySpec.uniform(0.2), -2.2, SiteIndex(0, 0, 0))
    interior = grid[4:6, :].sum()  # columns farther than 3 from both edges
    assert interior < 0.05 * grid.sum()


# ------------------------------------------------------------- displacement

def test_displacement_zero_hop_lattice():
    spec = LatticeSpec(n_x=6, l_min=-3, l_max=3)
    H = HamiltonianMatrix(spec, np.zeros((spec.dim, spec.dim), dtype=complex))
    assert displacement(H, DecaySpec.uniform(0.2), 0.0, EdgeRegion(Side.RIGHT, 2)) == 0.0


def test_displacement_first_and_second_gap_values(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    assert abs(displacement(H, decay, -2.2, EdgeRegion(Side.RIGHT, 2)) - 1.0) < 0.2
    # The shallower second-gap edge states need a deeper probe region to
    # capture both branches.
    assert abs(displacement(H, decay, -1.0, EdgeRegion(Side.RIGHT, 4)) - 2.0) < 0.3


def test_displacement_left_region_mirrors_sign(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    left = displacement(H, decay, -2.2, EdgeRegion(Side.LEFT, 2))
    right = displacement(H, decay, -2.2, EdgeRegion(Side.RIGHT, 2))
    np.testing.assert_allclose(left, -right, atol=0.05)


def test_displacement_spectrum_antisymmetric(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, 2)
    omegas = np.array([-2.2, -1.0, 1.0, 2.2])
    vals = displacement_spectrum(H, decay, omegas, region)
    np.testing.assert_allclose(vals[:2], -vals[:1:-1], atol=0.05)


def test_displacement_spectrum_matches_pointwise(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, 2)
    grid = np.array([-2.3, -2.1])
    vals = displacement_spectrum(H, decay, grid, region)
    for k, omega in enumerate(grid):
        assert abs(vals[k] - displacement(H, decay, float(omega), region)) < 1e-12


def test_displacement_eig_path_matches_direct_solve():
    spec = LatticeSpec(n_x=6, l_min=-8, l_max=8, bc_y=Boundary.PERIODIC)
    H = build_landau_hofstadter(spec, PHI0)
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, 2)
    fast = displacement(H, decay, -2.2, region)
    # Force the solve path through a per-mode decay with equal rates.
    slow = displacement(
        H, DecaySpec.per_mode(np.full(H.dim, 0.2)), -2.2, region
    )
    np.testing.assert_allclose(fast, slow, atol=1e-10)


# ------------------------------------------------------------- chain oracle

def test_harper_modes_first_gap(sixth_flux_cylinder):
    modes = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=0.2)
    left = modes.on_side(Side.LEFT)
    right = modes.on_side(Side.RIGHT)
    assert len(left) == 1 and len(right) == 1
    assert modes.predicted_displacement(Side.LEFT) == -1
    assert modes.predicted_displacement(Side.RIGHT) == 1
    for m in modes.modes:
        assert m.weight > 0.5


def test_harper_modes_second_gap():
    modes = harper_edge_modes(PHI0, 10, omega=-1.0, gamma=0.2)
    assert len(modes.on_side(Side.LEFT)) == 2
    assert len(modes.on_side(Side.RIGHT)) == 2
    assert modes.predicted_displacement(Side.LEFT) == -2
    assert modes.predicted_displacement(Side.RIGHT) == 2


def test_harper_prediction_matches_direct_displacement(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    for omega in (-2.2, -1.0):
        modes = harper_edge_modes(PHI0, 10, omega=omega, gamma=0.2)
        for side in (Side.LEFT, Side.RIGHT):
            measured = displacement(H, decay, omega, EdgeRegion(side, 2))
            assert modes.predicted_displacement(side) == round(measured)


def test_harper_crossings_sit_on_the_probe_frequency():
    for omega in (-2.2, -1.0):
        for m in harper_edge_modes(PHI0, 10, omega=omega, gamma=0.2).modes:
            js = np.arange(10)
            chain = (np.diag(-2.0 * np.cos(m.ky - 2.0 * np.pi * js * PHI0))
                     - np.eye(10, k=1) - np.eye(10, k=-1))
            assert np.abs(np.linalg.eigvalsh(chain) - omega).min() < 1e-12
            np.testing.assert_allclose(chain @ m.profile, omega * m.profile,
                                       atol=1e-12)


def test_harper_partial_grid_finds_only_its_own_crossings():
    """A grid short of a period is not wrapped round from its last sample."""
    modes = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=0.2,
                              ky_grid=np.linspace(-2.0, -0.5, 40))
    assert [m.side for m in modes.modes] == [Side.LEFT]
    assert modes.modes[0].ky == pytest.approx(-0.5564, abs=1e-4)
    assert modes.predicted_displacement(Side.LEFT) == -1


@pytest.mark.parametrize("warp", [0.1, -0.1])
def test_harper_non_uniform_grid_matches_the_default_grid(warp):
    """Each crossing is bracketed by its own samples, whatever the steps."""
    t = np.linspace(0.0, 1.0, 301)[:-1]
    grid = -np.pi + 2.0 * np.pi * (t + warp * np.sin(2.0 * np.pi * t))
    for omega in (-2.2, -1.0):
        want = harper_edge_modes(PHI0, 10, omega=omega, gamma=0.2).modes
        got = harper_edge_modes(PHI0, 10, omega=omega, gamma=0.2, ky_grid=grid).modes
        assert [m.side for m in got] == [m.side for m in want]
        np.testing.assert_allclose([m.ky for m in got], [m.ky for m in want], atol=1e-12)
    partial = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=0.2,
                                ky_grid=-2.0 + 1.5 * np.linspace(0.0, 1.0, 31) ** 2)
    assert [m.side for m in partial.modes] == [Side.LEFT]
    assert partial.modes[0].ky == pytest.approx(-0.5564, abs=1e-4)


def test_harper_rejects_a_grid_that_is_not_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        harper_edge_modes(PHI0, 10, omega=-2.2, gamma=0.2, ky_grid=np.array([0.5, 0.1, 0.2]))


def test_three_routes_agree_on_every_open_gap():
    """Bulk Chern sum, TKNN Diophantine integer and edge chirality coincide.

    For flux p/q the gap above r bands carries t_r from r = s*q + t*p with
    |t| <= q/2 (Thouless et al. 1982); the Chern numbers of the bands below
    it sum to t_r, and the cylinder chain's edge branches at mid-gap have
    net chirality t_r on the right edge and -t_r on the left (Hatsugai
    1993).  Gaps narrower than 0.1 are left out: the closed central gaps
    of even q, and the four 0.02-wide gaps at q = 7, where no edge crossing
    falls within the selection window.
    """
    checked = 0
    for q in range(3, 8):
        for p in range(1, q):
            if Fraction(p, q).denominator != q:
                continue
            data = band_structure(MagneticBZGrid(p, q, 32, 32))
            for r in range(1, q):
                lo = data.energies[r - 1].max()
                hi = data.energies[r].min()
                if hi - lo < 0.1:
                    continue
                fukui = fukui_hatsugai_chern(data, range(r))
                (tknn,) = [t for t in range(-(q // 2), q // 2 + 1)
                           if (r - t * p) % q == 0]
                modes = harper_edge_modes(p / q, 4 * q, 0.5 * (lo + hi), (hi - lo) / 6)
                right = modes.predicted_displacement(Side.RIGHT)
                assert fukui == tknn == right, (p, q, r)
                assert modes.predicted_displacement(Side.LEFT) == -right, (p, q, r)
                checked += 1
    assert checked == 64


def test_harper_zero_flux_outside_band_empty():
    modes = harper_edge_modes(0.0, 10, omega=-4.5, gamma=0.2)
    assert len(modes.modes) == 0


def test_mid_gap_plateau_flatness(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, 2)
    # Central halves of the two bulk gaps below the spectrum center.
    for lo, hi in ((-2.45, -1.95), (-1.15, -0.85)):
        vals = displacement_spectrum(H, decay, np.linspace(lo, hi, 5), region)
        assert np.ptp(vals) < 0.1


# ------------------------------------------------- analytic in-gap profile

def test_analytic_single_mode_chirality_and_slope(sixth_flux_cylinder):
    gamma = 0.1
    modes = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=gamma)
    l_o = np.arange(-30, 31)
    T = analytic_gap_transmission(modes, gamma, l_o, side=Side.RIGHT)
    power = np.abs(T) ** 2
    v = modes.on_side(Side.RIGHT)[0].velocity
    assert v > 0
    np.testing.assert_allclose(power[l_o < 0], 0.0, atol=1e-30)
    decaying = power[(l_o >= 6) & (l_o <= 26)]
    slope = np.polyfit(l_o[(l_o >= 6) & (l_o <= 26)], np.log(decaying), 1)[0]
    np.testing.assert_allclose(slope, -gamma / v, rtol=1e-10)


def test_analytic_slope_matches_direct_map(sixth_flux_cylinder):
    H = sixth_flux_cylinder
    gamma = 0.1
    modes = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=gamma)
    v = modes.on_side(Side.RIGHT)[0].velocity
    grid = transmission_map(H, DecaySpec.uniform(gamma), -2.2, SiteIndex(9, 0, 0))
    sel = np.arange(6, 27)
    direct = grid[9, 50 + sel]
    slope = np.polyfit(sel, np.log(direct), 1)[0]
    np.testing.assert_allclose(slope, -gamma / v, rtol=0.1)


def test_analytic_two_mode_beat_wavelength():
    gamma = 0.2
    modes = harper_edge_modes(PHI0, 10, omega=-1.0, gamma=gamma)
    right = modes.on_side(Side.RIGHT)
    assert len(right) == 2
    dk = abs(right[0].ky - right[1].ky)
    dk = min(dk % (2 * np.pi), 2 * np.pi - dk % (2 * np.pi))
    expected_period = 2 * np.pi / dk
    l_o = np.arange(0, 81)
    power = np.abs(analytic_gap_transmission(modes, gamma, l_o, side=Side.RIGHT)) ** 2
    interior = power[1:-1]
    minima = (interior < power[:-2]) & (interior < power[2:])
    positions = l_o[1:-1][minima]
    spacing = np.diff(positions).astype(float)
    assert len(spacing) >= 3
    np.testing.assert_allclose(spacing.mean(), expected_period, rtol=0.25)


def test_analytic_rejects_mixed_sides_without_choice():
    modes = harper_edge_modes(PHI0, 10, omega=-2.2, gamma=0.2)
    with pytest.raises(ValueError):
        analytic_gap_transmission(modes, 0.2, np.arange(5))
