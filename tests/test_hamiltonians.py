"""Builder tests: algebraic oracles, flux bookkeeping, and symmetries."""

import numpy as np
import pytest

from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex, flat_index
from oamphoton.hamiltonians import (
    GaugeConfig,
    HamiltonianMatrix,
    SpinAxis,
    build_dirac,
    build_landau_hofstadter,
    build_non_abelian,
    build_oam_gauge_hofstadter,
    build_qsh,
    jones_exp,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _from_dense(spec, A):
    rows, cols = np.nonzero(A)
    return HamiltonianMatrix.from_entries(spec, rows, cols, A[rows, cols])


def torus(n_x, n_l, spin_dim=1):
    return LatticeSpec(
        n_x=n_x, l_min=0, l_max=n_l - 1, spin_dim=spin_dim,
        bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC,
    )


# ---------------------------------------------------------------- jones_exp

def test_jones_exp_zero_phase_is_identity():
    for axis in (SpinAxis.x(), SpinAxis.y(), SpinAxis.z()):
        np.testing.assert_allclose(jones_exp(0.0, axis), np.eye(2), atol=1e-15)


def test_jones_exp_quarter_cycle_z():
    np.testing.assert_allclose(
        jones_exp(0.25, SpinAxis.z()), np.diag([1j, -1j]), atol=1e-15
    )


def test_jones_exp_quarter_cycle_results_anticommute():
    a = jones_exp(0.25, SpinAxis.x())
    b = jones_exp(0.25, SpinAxis.z())
    np.testing.assert_allclose(a @ b, -b @ a, atol=1e-15)


def test_jones_exp_unitary_unit_determinant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=3)
        axis = SpinAxis(tuple(v / np.linalg.norm(v)))
        u = jones_exp(rng.uniform(-1, 1), axis)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_jones_exp_inverse_phase():
    axis = SpinAxis.y()
    u = jones_exp(0.3, axis) @ jones_exp(-0.3, axis)
    np.testing.assert_allclose(u, np.eye(2), atol=1e-14)


def test_jones_exp_is_exact_at_quarter_turns():
    cos, sin = [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]
    turns = np.arange(-5, 6)
    for axis in (SpinAxis.x(), SpinAxis.y(), SpinAxis.z(), SpinAxis((0.6, 0.0, 0.8))):
        expected = np.array([cos[k % 4] * np.eye(2) + 1j * sin[k % 4] * axis.sigma()
                             for k in turns])
        np.testing.assert_array_equal(jones_exp(turns / 4, axis), expected)
        for k in turns:
            np.testing.assert_array_equal(jones_exp(k / 4, axis), expected[k + 5])
    # Other phases keep the rounded cosine and sine of 2 pi phi.
    for phi in (0.3, -0.1, 0.126, 1.0 / 6.0):
        angle = 2.0 * np.pi * phi
        np.testing.assert_array_equal(
            jones_exp(phi, SpinAxis.y()),
            np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * SpinAxis.y().sigma())


def test_spinful_builders_store_no_rounding_residue():
    # Quarter-turn Jones blocks (i sigma) have exactly zero entries where
    # cos(pi/2) used to leave 6.1e-17 couplings.
    qsh_spec = LatticeSpec(n_x=12, l_min=-50, l_max=50, spin_dim=2)
    dirac_spec = LatticeSpec(n_x=10, l_min=-50, l_max=50, spin_dim=2)
    for H in (build_qsh(qsh_spec, 0.0, 0.6), build_qsh(qsh_spec, 0.03, 0.6),
              build_dirac(dirac_spec), build_dirac(dirac_spec, 1.0 / 6.0)):
        assert np.abs(H.values).min() > 1e-12


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        SpinAxis((1.0, 1.0, 0.0))


# ------------------------------------------------------- free-lattice oracle

def free_torus_energies(n_x, n_l):
    """Closed-form eigenvalues -2(cos kx + cos ky) on a discrete torus."""
    kx = 2 * np.pi * np.arange(n_x) / n_x
    ky = 2 * np.pi * np.arange(n_l) / n_l
    return np.sort((-2 * (np.cos(kx)[:, None] + np.cos(ky)[None, :])).ravel())


def test_zero_flux_torus_matches_free_dispersion():
    spec = torus(4, 4)
    H = build_landau_hofstadter(spec, 0.0)
    evals = np.linalg.eigvalsh(H.toarray())
    np.testing.assert_allclose(evals, free_torus_energies(4, 4), atol=1e-12)


def test_half_flux_spectrum_symmetric_and_touching():
    spec = torus(8, 8)
    evals = np.linalg.eigvalsh(build_landau_hofstadter(spec, 0.5).toarray())
    np.testing.assert_allclose(evals, -evals[::-1], atol=1e-12)
    assert np.min(np.abs(evals)) < 1e-9


def test_sixth_flux_lowest_band_location():
    spec = LatticeSpec(n_x=10, l_min=-50, l_max=50, bc_y=Boundary.PERIODIC)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    evals = np.linalg.eigvalsh(H.toarray())
    assert abs(evals.min() - (-3.09)) < 0.15
    lowest_band = evals[evals < -2.8]
    assert len(lowest_band) > 50


def test_zero_flux_gauges_coincide():
    spec = LatticeSpec(n_x=3, l_min=-2, l_max=2)
    a = build_landau_hofstadter(spec, 0.0).toarray()
    b = build_oam_gauge_hofstadter(spec, 0.0).toarray()
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_gauge_equivalence_on_commensurate_torus():
    spec = torus(12, 12)
    ev_a = np.linalg.eigvalsh(build_landau_hofstadter(spec, 1.0 / 6.0).toarray())
    ev_b = np.linalg.eigvalsh(build_oam_gauge_hofstadter(spec, 1.0 / 6.0).toarray())
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


def plaquette_flux(H, spec, j, l):
    """Directed hop-phase product around the plaquette at (j, l), +y side first."""
    m = H.toarray()
    a = flat_index(spec, SiteIndex(j, l))
    b = flat_index(spec, SiteIndex(j, l + 1))
    c = flat_index(spec, SiteIndex(j + 1, l + 1))
    d = flat_index(spec, SiteIndex(j + 1, l))
    loop = m[b, a] * m[c, b] * m[d, c] * m[a, d]
    return loop / np.abs(loop)


def test_plaquette_flux_uniform_both_gauges():
    spec = LatticeSpec(n_x=5, l_min=-3, l_max=3)
    phi0 = 1.0 / 6.0
    for build in (build_landau_hofstadter, build_oam_gauge_hofstadter):
        H = build(spec, phi0)
        for j in range(spec.n_x - 1):
            for l in range(spec.l_min, spec.l_max):
                np.testing.assert_allclose(
                    plaquette_flux(H, spec, j, l),
                    np.exp(-2j * np.pi * phi0),
                    atol=1e-12,
                )


# ------------------------------------------------------------ spinful builders

def test_zero_jones_angles_decouple_into_scalar_copies():
    spec = LatticeSpec(n_x=3, l_min=0, l_max=2, spin_dim=2)
    scalar_spec = LatticeSpec(n_x=3, l_min=0, l_max=2, spin_dim=1)
    H = build_non_abelian(spec, GaugeConfig()).toarray()
    H_scalar = build_landau_hofstadter(scalar_spec, 0.0).toarray()
    for s in (0, 1):
        np.testing.assert_allclose(H[s::2, s::2], H_scalar, atol=1e-15)
    np.testing.assert_allclose(H[0::2, 1::2], 0.0, atol=1e-15)


def test_quarter_cycle_hop_matrices_do_not_commute():
    u_x = jones_exp(0.25, SpinAxis.x())
    u_y = jones_exp(0.25, SpinAxis.z())
    np.testing.assert_allclose(u_x, 1j * SX, atol=1e-15)
    np.testing.assert_allclose(u_y, 1j * SZ, atol=1e-15)
    assert np.abs(u_x @ u_y - u_y @ u_x).max() > 1.0


def test_staircase_onsite_values():
    spec = LatticeSpec(n_x=8, l_min=0, l_max=0, spin_dim=2)
    cfg = GaugeConfig(onsite=lambda j: 0.6 * ((j % 4) - 1.5))
    H = build_non_abelian(spec, cfg).toarray()
    diag = np.real(np.diag(H)).reshape(8, 2)
    expected = np.array([-0.9, -0.3, 0.3, 0.9, -0.9, -0.3, 0.3, 0.9])
    np.testing.assert_allclose(diag[:, 0], expected, atol=1e-12)
    np.testing.assert_allclose(diag[:, 1], expected, atol=1e-12)


def dirac_bloch_energies(kx, ky):
    """Closed-form two-band torus dispersion of the conical lattice."""
    return 2.0 * np.sqrt(np.sin(kx) ** 2 + np.sin(ky) ** 2)


def test_dirac_zero_flux_dispersion():
    n = 6
    spec = torus(n, n, spin_dim=2)
    evals = np.sort(np.linalg.eigvalsh(build_dirac(spec, 0.0).toarray()))
    expected = []
    for kx in 2 * np.pi * np.arange(n) / n:
        for ky in 2 * np.pi * np.arange(n) / n:
            e = dirac_bloch_energies(kx, ky)
            expected += [-e, e]
    np.testing.assert_allclose(evals, np.sort(expected), atol=1e-12)


def test_dirac_zero_energy_momenta_count():
    n = 8
    zero_count = 0
    for kx in 2 * np.pi * np.arange(n) / n:
        for ky in 2 * np.pi * np.arange(n) / n:
            if dirac_bloch_energies(kx, ky) < 1e-12:
                zero_count += 1
                assert np.isclose(np.sin(kx), 0) and np.isclose(np.sin(ky), 0)
    assert zero_count == 4


def test_dirac_hop_blocks():
    spec = LatticeSpec(n_x=2, l_min=0, l_max=1, spin_dim=2)
    H = build_dirac(spec, 0.0).toarray()

    def block(dst_site, src_site):
        r = flat_index(spec, SiteIndex(*dst_site))
        c = flat_index(spec, SiteIndex(*src_site))
        return H[r:r + 2, c:c + 2]

    np.testing.assert_allclose(block((0, 1, 0), (0, 0, 0)), -1j * SX, atol=1e-14)
    np.testing.assert_allclose(block((1, 0, 0), (0, 0, 0)), -1j * SY, atol=1e-14)


def test_qsh_hop_blocks_and_onsite():
    spec = LatticeSpec(n_x=5, l_min=0, l_max=1, spin_dim=2)
    beta0, lambda0 = 0.05, 0.6
    H = build_qsh(spec, beta0, lambda0).toarray()

    def block(dst_site, src_site):
        r = flat_index(spec, SiteIndex(*dst_site))
        c = flat_index(spec, SiteIndex(*src_site))
        return H[r:r + 2, c:c + 2]

    for j in range(4):
        angle = np.pi * j / 2 + 2 * np.pi * beta0
        expected = -np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
        np.testing.assert_allclose(block((j, 1, 0), (j, 0, 0)), expected, atol=1e-14)
    np.testing.assert_allclose(block((1, 0, 0), (0, 0, 0)), -1j * SX, atol=1e-14)
    diag = np.real(H[np.arange(H.shape[0]), np.arange(H.shape[0])]).reshape(5, 4)
    np.testing.assert_allclose(diag[:, 0], lambda0 * (np.arange(5) % 4 - 1.5))


def test_qsh_torus_double_degeneracy():
    spec = torus(8, 8, spin_dim=2)
    for beta0 in (0.0, 0.05, 0.11):
        evals = np.linalg.eigvalsh(build_qsh(spec, beta0, 0.6).toarray())
        np.testing.assert_allclose(evals[0::2], evals[1::2], atol=1e-10)


# ------------------------------------------------------------ generic checks

@pytest.mark.parametrize("build", [
    lambda s: build_landau_hofstadter(s, 1.0 / 6.0),
    lambda s: build_oam_gauge_hofstadter(s, 1.0 / 6.0),
])
def test_builders_hermitian_scalar(build):
    for spec in (
        LatticeSpec(n_x=4, l_min=-3, l_max=3),
        torus(6, 6),
        LatticeSpec(n_x=4, l_min=-3, l_max=2, bc_y=Boundary.PERIODIC),
    ):
        assert build(spec).hermiticity_defect() < 1e-12


def test_builders_hermitian_spinful():
    spec = LatticeSpec(n_x=6, l_min=-4, l_max=4, spin_dim=2, bc_y=Boundary.PERIODIC)
    assert build_dirac(spec, 0.05).hermiticity_defect() < 1e-12
    assert build_qsh(spec, 0.075, 0.6).hermiticity_defect() < 1e-12


def test_hermiticity_defect_of_an_entry_without_partner():
    # H[2, 0] = 3 + 4i has no H[0, 2], so (H - H^dagger)[2, 0] = 3 + 4i.
    A = np.array([[1.0, 2 - 1j, 0], [2 + 1j, 0, 0], [3 + 4j, 0, -1.0]])
    H = _from_dense(LatticeSpec(n_x=3, l_min=0, l_max=0), A)
    assert H.hermiticity_defect() == 5.0 == np.abs(A - A.conj().T).max()


def test_hermiticity_defect_of_a_partner_with_the_wrong_value():
    # H[1, 0] should be conj(2 - i) = 2 + i; 2 + 3i leaves 2i either side.
    A = np.array([[1.0, 2 - 1j, 0], [2 + 3j, 0, 0], [0, 0, -1.0]])
    H = _from_dense(LatticeSpec(n_x=3, l_min=0, l_max=0), A)
    assert H.hermiticity_defect() == 2.0 == np.abs(A - A.conj().T).max()


def test_only_nearest_neighbor_blocks_nonzero():
    spec = LatticeSpec(n_x=4, l_min=-2, l_max=2, spin_dim=2)
    H = build_qsh(spec, 0.03, 0.6).toarray()
    for r in range(H.shape[0]):
        for c in range(H.shape[1]):
            if H[r, c] == 0:
                continue
            a, b = r // 2, c // 2
            ja, ila = divmod(a, spec.n_l)
            jb, ilb = divmod(b, spec.n_l)
            assert abs(ja - jb) + abs(ila - ilb) <= 1


def test_large_lattice_is_sparse():
    spec = LatticeSpec(n_x=50, l_min=-50, l_max=50)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    assert not H.is_dense
    assert H.hermiticity_defect() < 1e-12
