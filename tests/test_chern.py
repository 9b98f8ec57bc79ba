"""Magnetic band structure and both Chern routes, against closed forms."""

from fractions import Fraction

import numpy as np
import pytest

from oamphoton.chern import (
    BlochBandData,
    BZPartition,
    MagneticBZGrid,
    auto_partition,
    band_gaps,
    band_structure,
    bloch_from_transmission,
    fukui_hatsugai_chern,
    magnetic_bloch_hamiltonian,
    phase_mismatch_chern,
)
from oamphoton.hamiltonians import build_oam_gauge_hofstadter
from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex
from oamphoton.scattering import DecaySpec, transmission


@pytest.fixture(scope="module")
def data_by_q():
    return {
        (p, q): band_structure(MagneticBZGrid(p, q, 64, 64))
        for (p, q) in [(1, 3), (1, 4), (1, 6)]
    }


def isolated_bands(data):
    e = data.energies
    q = data.q
    return [
        m
        for m in range(q)
        if (m == 0 or e[m].min() - e[m - 1].max() > 0)
        and (m == q - 1 or e[m + 1].min() - e[m].max() > 0)
    ]


def test_free_lattice_bloch_value():
    rng = np.random.default_rng(7)
    for _ in range(5):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        h = magnetic_bloch_hamiltonian(0, 1, kx, ky)
        assert h.shape == (1, 1)
        assert np.allclose(h[0, 0], -2 * (np.cos(kx) + np.cos(ky)), atol=1e-12)


def test_half_flux_closed_form_eigenvalues():
    rng = np.random.default_rng(8)
    for _ in range(5):
        kx = rng.uniform(-np.pi, np.pi)
        ky = rng.uniform(0, np.pi)
        evals = np.linalg.eigvalsh(magnetic_bloch_hamiltonian(1, 2, kx, ky))
        root = 2 * np.sqrt(np.cos(kx) ** 2 + np.cos(ky) ** 2)
        assert np.allclose(evals, [-root, root], atol=1e-12)


def test_bloch_hamiltonian_hermitian():
    rng = np.random.default_rng(9)
    for _ in range(4):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        h = magnetic_bloch_hamiltonian(2, 5, kx, ky)
        assert np.abs(h - h.conj().T).max() < 1e-14


def test_non_reduced_flux_rejected():
    with pytest.raises(ValueError, match="not reduced"):
        magnetic_bloch_hamiltonian(2, 4, 0.0, 0.0)
    with pytest.raises(ValueError, match="not reduced"):
        MagneticBZGrid(3, 6, 16, 16)
    with pytest.raises(ValueError, match="positive"):
        MagneticBZGrid(1, 0, 16, 16)
    with pytest.raises(ValueError, match="at least 4"):
        MagneticBZGrid(1, 3, 2, 16)


def test_band_structure_orthonormal_ascending_consistent(data_by_q):
    data = data_by_q[(1, 6)]
    rng = np.random.default_rng(10)
    for _ in range(6):
        a = rng.integers(0, data.grid.n_kx)
        b = rng.integers(0, data.grid.n_ky)
        vecs = data.vectors[:, a, b, :]
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(6)).max() < 1e-10
        energies = data.energies[:, a, b]
        assert np.all(np.diff(energies) >= 0)
        kx = data.grid.kx_values[a]
        ky = data.grid.ky_values[b]
        direct = np.linalg.eigvalsh(magnetic_bloch_hamiltonian(1, 6, kx, ky))
        assert np.allclose(energies, direct, atol=1e-12)


def test_band_energies_trace_free(data_by_q):
    # q > 2: the Bloch matrix diagonal sums to zero at every k.
    data = data_by_q[(1, 3)]
    total = data.energies.sum(axis=0)
    assert np.abs(total).max() < 1e-12
    # q = 1: the single band averages to zero over the endpoint-free grid.
    free = band_structure(MagneticBZGrid(0, 1, 16, 16))
    assert abs(free.energies.mean()) < 1e-13


def test_extreme_bands_narrow_q6(data_by_q):
    energies = data_by_q[(1, 6)].energies
    for band, center in [(0, -3.09), (5, 3.09)]:
        assert abs(energies[band].min() - center) < 0.1
        assert abs(energies[band].max() - center) < 0.1


def test_band_gaps_q6(data_by_q):
    gaps = band_gaps(data_by_q[(1, 6)])
    assert len(gaps) == 4  # the central touching pair contributes no gap
    centers = [(lo + hi) / 2 for lo, hi in gaps]
    assert np.allclose(centers, [-2.3344, -1.0301, 1.0301, 2.3344], atol=5e-3)
    assert all(hi > lo for lo, hi in gaps)


def test_band_gaps_q4(data_by_q):
    gaps = band_gaps(data_by_q[(1, 4)])
    assert len(gaps) == 2
    centers = [(lo + hi) / 2 for lo, hi in gaps]
    assert np.allclose(centers, [-1.8478, 1.8478], atol=5e-3)


def test_band_gaps_q3(data_by_q):
    gaps = band_gaps(data_by_q[(1, 3)])
    assert len(gaps) == 2
    centers = [(lo + hi) / 2 for lo, hi in gaps]
    assert np.allclose(centers, [-1.366, 1.366], atol=5e-3)


def test_half_flux_bands_touch_at_rounding_level():
    # The two bands meet at E = 0, sampled as -1.5e-16 and 0.0: that is
    # rounding, not a gap, so neither band is isolated.
    data = band_structure(MagneticBZGrid(1, 2))
    assert band_gaps(data) == []
    with pytest.raises(ValueError, match="band 0 touches band 1"):
        phase_mismatch_chern(data, 0)


def test_fukui_q3_band_values(data_by_q):
    data = data_by_q[(1, 3)]
    values = [fukui_hatsugai_chern(data, m) for m in range(3)]
    assert values == [1, -2, 1]
    assert sum(values) == 0


def test_fukui_q4_values_with_touching_multiplet(data_by_q):
    data = data_by_q[(1, 4)]
    values = [
        fukui_hatsugai_chern(data, 0),
        fukui_hatsugai_chern(data, (1, 2)),
        fukui_hatsugai_chern(data, 3),
    ]
    assert values == [1, -2, 1]
    assert sum(values) == 0


def test_fukui_q6_values_with_touching_multiplet(data_by_q):
    data = data_by_q[(1, 6)]
    values = [fukui_hatsugai_chern(data, m) for m in (0, 1)]
    values.append(fukui_hatsugai_chern(data, (2, 3)))
    values += [fukui_hatsugai_chern(data, m) for m in (4, 5)]
    assert values == [1, 1, -4, 1, 1]
    assert sum(values) == 0


def test_half_flux_total_multiplet_trivial():
    data = band_structure(MagneticBZGrid(1, 2, 32, 32))
    assert fukui_hatsugai_chern(data, (0, 1)) == 0


def test_fukui_rejects_non_contiguous_multiplet(data_by_q):
    with pytest.raises(ValueError, match="contiguous"):
        fukui_hatsugai_chern(data_by_q[(1, 6)], (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        fukui_hatsugai_chern(data_by_q[(1, 6)], 6)


def test_fukui_coarse_grid_error():
    # A phase vortex confined to one grid cell drives that plaquette's
    # Wilson loop onto the branch cut: the grid cannot resolve the
    # curvature and the routine must refuse rather than round.
    grid = MagneticBZGrid(1, 2, 4, 4)
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    phase = np.exp(1j * np.arctan2(b - 1.5, a - 1.5))
    vectors = np.zeros((2, 4, 4, 2), dtype=complex)
    vectors[0, :, :, 0] = 1 / np.sqrt(2)
    vectors[0, :, :, 1] = phase / np.sqrt(2)
    vectors[1, :, :, 0] = -phase.conj() / np.sqrt(2)
    vectors[1, :, :, 1] = 1 / np.sqrt(2)
    energies = np.stack([-np.ones((4, 4)), np.ones((4, 4))])
    synthetic = BlochBandData(grid=grid, energies=energies, vectors=vectors)
    with pytest.raises(ValueError, match="grid too coarse"):
        fukui_hatsugai_chern(synthetic, 0)


def test_free_band_trivial_partition():
    data = band_structure(MagneticBZGrid(0, 1, 16, 16))
    partition = auto_partition(data, 0)
    assert partition.trivial
    assert partition.complement_columns(16).size == 0
    assert phase_mismatch_chern(data, 0) == 0
    assert fukui_hatsugai_chern(data, 0) == 0


def test_phase_mismatch_example_partition_q6(data_by_q):
    # Lowest band, slab kx in [-0.4 pi, 0.4 pi], reference component 3.
    data = data_by_q[(1, 6)]
    partition = BZPartition.from_kx_bounds(data.grid, -0.4 * np.pi, 0.4 * np.pi, 3)
    assert phase_mismatch_chern(data, 0, partition) == 1


def test_auto_partition_q6_lowest_band(data_by_q):
    data = data_by_q[(1, 6)]
    partition = auto_partition(data, 0)
    assert not partition.trivial
    assert partition.reference_component == 3
    slab_kx = data.grid.kx_values[partition.slab_columns(64)]
    assert slab_kx.min() <= -0.4 * np.pi
    assert slab_kx.max() >= 0.4 * np.pi
    assert phase_mismatch_chern(data, 0, partition) == 1


@pytest.mark.parametrize("p", [1, 6])
def test_auto_partition_names_a_clear_arc_too_short_for_a_slab(p):
    # On a 16-point grid the zeros of band 3's first component at flux p/7
    # leave a clear kx-arc of 2 columns; the margins leave no slab.
    data = band_structure(MagneticBZGrid(p, 7, 16, 16))
    with pytest.raises(ValueError, match="clear kx-arc of only 2 columns"):
        auto_partition(data, 3)


def test_methods_agree_on_edge_bands(data_by_q):
    for (p, q), bands in [((1, 3), (0, 2)), ((1, 4), (0, 3)), ((1, 6), (0, 5))]:
        data = data_by_q[(p, q)]
        for m in bands:
            assert phase_mismatch_chern(data, m) == fukui_hatsugai_chern(data, m)


def test_every_isolated_band_agrees_or_is_partition_free(data_by_q):
    # The slab route either reproduces the plaquette result or refuses
    # with the documented no-valid-partition error; it never returns a
    # different integer.  The refusals are exactly the mid bands whose
    # component zeros interlock across the zone.
    expected_refusals = {(1, 3): {1}, (1, 4): set(), (1, 6): {1, 4}}
    for (p, q), data in data_by_q.items():
        refused = set()
        for m in isolated_bands(data):
            try:
                assert phase_mismatch_chern(data, m) == fukui_hatsugai_chern(data, m)
            except ValueError:
                refused.add(m)
        assert refused == expected_refusals[(p, q)]


def test_phase_mismatch_rejects_touching_band(data_by_q):
    with pytest.raises(ValueError, match="multiplet"):
        phase_mismatch_chern(data_by_q[(1, 4)], 1)


def test_partition_validation_rejects_zero_in_slab(data_by_q):
    # The first component of the lowest band vanishes at kx = -pi; a slab
    # that wraps through the zone edge would contain that zero.
    data = data_by_q[(1, 6)]
    bad = BZPartition(column_lo=40, column_hi=20, reference_component=3)
    with pytest.raises(ValueError, match="strictly inside"):
        phase_mismatch_chern(data, 0, bad)


def test_partition_validation_rejects_vanishing_reference(data_by_q):
    # Component 1 of the lowest band vanishes at kx = +2 pi/3, inside the
    # complement of the example slab, so it cannot fix the gauge there.
    data = data_by_q[(1, 6)]
    partition = BZPartition.from_kx_bounds(data.grid, -0.4 * np.pi, 0.4 * np.pi, 1)
    with pytest.raises(ValueError, match="reference component 1"):
        phase_mismatch_chern(data, 0, partition)


def test_from_kx_bounds_validation(data_by_q):
    grid = data_by_q[(1, 6)].grid
    with pytest.raises(ValueError, match="whole zone"):
        BZPartition.from_kx_bounds(grid, -4.0, 4.0, 3)
    with pytest.raises(ValueError, match="fewer than two"):
        BZPartition.from_kx_bounds(grid, 0.0, 1e-6, 3)


def test_gauge_invariance(data_by_q):
    # Multiplying every eigenvector by a smooth per-k phase leaves both
    # routes unchanged.
    data = data_by_q[(1, 6)]
    kx = data.grid.kx_values[:, None]
    ky = data.grid.ky_values[None, :]
    field = 0.8 * np.sin(kx) + 1.3 * np.cos(6 * ky) + 0.4
    rotated = BlochBandData(
        grid=data.grid,
        energies=data.energies,
        vectors=data.vectors * np.exp(1j * field)[None, :, :, None],
    )
    assert fukui_hatsugai_chern(rotated, 0) == fukui_hatsugai_chern(data, 0)
    assert fukui_hatsugai_chern(rotated, (2, 3)) == fukui_hatsugai_chern(data, (2, 3))
    partition = auto_partition(data, 0)
    assert auto_partition(rotated, 0) == partition
    assert phase_mismatch_chern(rotated, 0, partition) == phase_mismatch_chern(
        data, 0, partition
    )


@pytest.fixture(scope="module")
def sixth_flux_torus_transmission():
    spec = LatticeSpec(
        n_x=10, l_min=-48, l_max=47, bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC
    )
    ham = build_oam_gauge_hofstadter(spec, Fraction(1, 6))
    result = transmission(ham, DecaySpec(gamma=0.1), -3.09, SiteIndex(0, 0))
    return spec, result


def test_transmission_bloch_pipeline(sixth_flux_torus_transmission, data_by_q):
    spec, result = sixth_flux_torus_transmission
    tb = bloch_from_transmission(result.amplitudes, spec, 1, 6, -3.09, 0.1)
    # Winding difference across the slab bounded by kx = -+0.4 pi
    # (columns 8 and 2 of the 10-column kx grid), reference component 3.
    assert tb.chern(8, 2, 3) == 1
    # Reconstructed magnitudes match the Bloch eigenvectors on the slab.
    reference = band_structure(MagneticBZGrid(1, 6, 10, 16))
    assert np.allclose(tb.ky_values, reference.grid.ky_values, atol=1e-12)
    worst = 0.0
    for column in (8, 9, 0, 1, 2):
        kx = tb.kx_values[column]
        deltas = np.abs((reference.grid.kx_values - kx + np.pi) % (2 * np.pi) - np.pi)
        mirror = int(np.argmin(deltas))
        diff = np.abs(tb.vectors[column]) - np.abs(reference.vectors[0, mirror])
        worst = max(worst, np.abs(diff).max())
    assert worst < 0.05


def test_transmission_bloch_flat_phase_at_zero_flux():
    spec = LatticeSpec(
        n_x=8, l_min=-8, l_max=7, bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC
    )
    ham = build_oam_gauge_hofstadter(spec, Fraction(0, 1))
    result = transmission(ham, DecaySpec(gamma=0.2), -3.5, SiteIndex(0, 0))
    tb = bloch_from_transmission(result.amplitudes, spec, 0, 1, -3.5, 0.2)
    assert tb.chern(6, 2, 0) == 0


def test_transmission_bloch_requires_isolated_band(sixth_flux_torus_transmission):
    spec, result = sixth_flux_torus_transmission
    # Drive parked in the first gap: no band within reach.
    with pytest.raises(ValueError, match="band not isolated"):
        bloch_from_transmission(result.amplitudes, spec, 1, 6, -2.3344, 0.1)
    # Decay so large that several bands overlap the drive.
    with pytest.raises(ValueError, match="band not isolated"):
        bloch_from_transmission(result.amplitudes, spec, 1, 6, -3.09, 2.5)


def test_transmission_bloch_input_validation(sixth_flux_torus_transmission):
    spec, result = sixth_flux_torus_transmission
    open_spec = LatticeSpec(
        n_x=10, l_min=-48, l_max=47, bc_x=Boundary.OPEN, bc_y=Boundary.PERIODIC
    )
    with pytest.raises(ValueError, match="torus"):
        bloch_from_transmission(result.amplitudes, open_spec, 1, 6, -3.09, 0.1)
    with pytest.raises(ValueError, match="multiple of q"):
        bloch_from_transmission(
            result.amplitudes[: 10 * 95],
            LatticeSpec(
                n_x=10,
                l_min=-48,
                l_max=46,
                bc_x=Boundary.PERIODIC,
                bc_y=Boundary.PERIODIC,
            ),
            1,
            6,
            -3.09,
            0.1,
        )
    with pytest.raises(ValueError, match="shape"):
        bloch_from_transmission(result.amplitudes[:-1], spec, 1, 6, -3.09, 0.1)
    with pytest.raises(ValueError, match="gamma"):
        bloch_from_transmission(result.amplitudes, spec, 1, 6, -3.09, -0.1)
