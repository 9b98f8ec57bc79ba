"""Input-output solver tests: closed forms, unitarity, and solver cross-checks."""

import logging
from fractions import Fraction

import numpy as np
import pytest

from oamphoton.disorder import DisorderModel, sample_disordered_hamiltonian
from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex, flat_index
from oamphoton.hamiltonians import (
    HamiltonianMatrix,
    build_dirac,
    build_landau_hofstadter,
    build_oam_gauge_hofstadter,
    build_qsh,
)
from oamphoton.scattering import (
    DecaySpec,
    Resolvent,
    _omega_partners,
    default_omega_grid,
    eig_transmission_vector,
    spectral_factorization,
    total_transmission_spectrum,
    transmission,
)


def single_site(h00=0.0):
    spec = LatticeSpec(n_x=1, l_min=0, l_max=0)
    return HamiltonianMatrix.from_entries(spec, [0], [0], [h00])


def two_site_chain():
    spec = LatticeSpec(n_x=2, l_min=0, l_max=0)
    return HamiltonianMatrix.from_entries(spec, [0, 1], [1, 0], [-1.0, -1.0])


def butterfly_row(spec, phi0, grid, decay):
    """The total power of the cavity-phase lattice at flux ``phi0``, with a
    probe entering every cavity at OAM 0, as a butterfly run computes it."""
    H = build_landau_hofstadter(spec, phi0)
    inputs = [SiteIndex(j, 0, 0) for j in range(spec.n_x)]
    return total_transmission_spectrum(H, decay, inputs, grid)


def column(H, decay, omega, site):
    """The resolvent column ``(omega - H + i G/2)^{-1} e_site``."""
    (_, x), = Resolvent(H, decay).columns([omega], [flat_index(H.spec, site)])
    return x[:, 0, 0]


def s_row(H, decay, omega, site):
    """One scattering-matrix row ``delta_{n'n} + T_{n'n}`` for input ``n``."""
    row = transmission(H, decay, omega, site).amplitudes.copy()
    row[flat_index(H.spec, site)] += 1.0
    return row


# ----------------------------------------------------------------- DecaySpec

def test_decay_spec_validation():
    with pytest.raises(ValueError):
        DecaySpec(gamma=0.0)
    with pytest.raises(ValueError):
        DecaySpec(gamma=-0.1)
    with pytest.raises(ValueError):
        DecaySpec.per_mode(np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        DecaySpec(gamma=0.1, rates=np.array([0.1]))
    assert DecaySpec(gamma=0.2).rate_vector(3).tolist() == [0.2, 0.2, 0.2]
    with pytest.raises(ValueError):
        DecaySpec.per_mode(np.array([0.1, 0.2])).rate_vector(3)


def test_decay_spec_copies_the_rate_vector():
    rates = np.array([0.1, 0.2])
    for decay in (DecaySpec.per_mode(rates), DecaySpec(rates=rates)):
        rates[0] = -5.0
        assert decay.rates.tolist() == [0.1, 0.2]
        assert decay.rate_vector(2).tolist() == [0.1, 0.2]
        with pytest.raises(ValueError, match="read-only"):
            decay.rates[0] = -5.0
        rates[0] = 0.1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_decay_spec_rejects_non_finite_rates(bad):
    with pytest.raises(ValueError, match="finite"):
        DecaySpec(gamma=bad)
    with pytest.raises(ValueError, match="finite"):
        DecaySpec.per_mode(np.array([0.1, bad]))


# ------------------------------------------------------- resolvent columns

def test_greens_single_site_scalar_inverse():
    H = single_site()
    gamma = 0.3
    for omega in (-1.0, 0.0, 0.7):
        x = column(H, DecaySpec(gamma=gamma), omega, SiteIndex(0, 0, 0))
        np.testing.assert_allclose(x[0], 1.0 / (omega + 0.5j * gamma), rtol=1e-12)


def test_greens_far_detuned_neumann_limit():
    spec = LatticeSpec(n_x=3, l_min=0, l_max=2)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    omega = 1e6
    x = column(H, DecaySpec(gamma=0.1), omega, SiteIndex(1, 1, 0))
    expected = np.zeros(H.dim, dtype=complex)
    expected[flat_index(spec, SiteIndex(1, 1, 0))] = 1.0 / omega
    np.testing.assert_allclose(x, expected, atol=1e-11)


def test_greens_two_site_hand_inverse():
    H = two_site_chain()
    gamma = 0.4
    # (omega - H + i*gamma/2) at omega=0 is [[i*g/2, 1], [1, i*g/2]];
    # its first column of the inverse is [i*g/2, -1] / (-(g/2)^2 - 1).
    det = -((gamma / 2.0) ** 2) - 1.0
    expected = np.array([0.5j * gamma, -1.0]) / det
    x = column(H, DecaySpec(gamma=gamma), 0.0, SiteIndex(0, 0, 0))
    np.testing.assert_allclose(x, expected, rtol=1e-12)


def test_greens_residual_contract_on_random_instances():
    rng = np.random.default_rng(11)
    spec = LatticeSpec(n_x=4, l_min=-3, l_max=3)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    rates = DecaySpec.per_mode(rng.uniform(0.05, 0.5, size=H.dim))
    for omega in rng.uniform(-4, 4, size=5):
        x = column(H, rates, float(omega), SiteIndex(2, 0, 0))
        A = (omega + 0.5j * rates.rates) * np.eye(H.dim) - H.toarray()
        assert np.linalg.norm(A @ x - np.eye(H.dim)[flat_index(spec, SiteIndex(2, 0, 0))]) < 1e-10


# -------------------------------------------------------------- transmission

def test_single_site_resonant_transmission():
    H = single_site()
    gamma = 0.25
    result = transmission(H, DecaySpec(gamma=gamma), 0.0, SiteIndex(0, 0, 0))
    np.testing.assert_allclose(result.amplitudes[0], -2.0, rtol=1e-12)
    row = s_row(H, DecaySpec(gamma=gamma), 0.0, SiteIndex(0, 0, 0))
    np.testing.assert_allclose(row[0], -1.0, rtol=1e-12)


def test_single_site_lorentzian_lineshape():
    H = single_site()
    gamma = 0.3
    for omega in np.linspace(-1, 1, 7):
        result = transmission(H, DecaySpec(gamma=gamma), float(omega), SiteIndex(0, 0, 0))
        np.testing.assert_allclose(
            np.abs(result.amplitudes[0]) ** 2,
            gamma**2 / (omega**2 + gamma**2 / 4.0),
            rtol=1e-12,
        )


def test_decoupled_lattice_per_site_lorentzians():
    spec = LatticeSpec(n_x=3, l_min=0, l_max=1)
    detunings = np.array([0.0, 0.3, -0.2, 0.1, 0.5, -0.4])
    H = HamiltonianMatrix.from_entries(spec, np.arange(spec.dim), np.arange(spec.dim),
                                       detunings)
    gamma = 0.2
    for omega in (-0.3, 0.0, 0.4):
        for n in range(spec.dim):
            site = SiteIndex(n // 2, n % 2, 0)
            result = transmission(H, DecaySpec(gamma=gamma), omega, site)
            expected = np.zeros(spec.dim)
            expected[n] = gamma**2 / ((omega - detunings[n]) ** 2 + gamma**2 / 4)
            np.testing.assert_allclose(
                np.abs(result.amplitudes) ** 2, expected, atol=1e-14
            )


def test_edge_input_concentrates_on_boundary_in_gap():
    spec = LatticeSpec(n_x=10, l_min=-50, l_max=50, bc_y=Boundary.PERIODIC)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    result = transmission(H, DecaySpec(gamma=0.1), -2.2, SiteIndex(0, 0, 0))
    power = np.abs(result.amplitudes) ** 2
    cols = np.repeat(np.arange(10), spec.n_l)
    boundary = (cols <= 1) | (cols >= 8)
    assert power[boundary].sum() > 0.8 * power.sum()


def test_reciprocity_for_real_hop_lattice():
    spec = LatticeSpec(n_x=3, l_min=0, l_max=2)
    H = build_landau_hofstadter(spec, 0.0)
    decay = DecaySpec(gamma=0.15)
    a, b = SiteIndex(0, 0, 0), SiteIndex(2, 2, 0)
    for omega in (-1.3, 0.2, 2.4):
        t_ab = transmission(H, decay, omega, a).amplitudes[flat_index(spec, b)]
        t_ba = transmission(H, decay, omega, b).amplitudes[flat_index(spec, a)]
        np.testing.assert_allclose(abs(t_ab), abs(t_ba), rtol=1e-10)


# -------------------------------------------------------- physics identities

FLUX_BUILDERS = {"landau": (build_landau_hofstadter, 1),
                 "oam-gauge": (build_oam_gauge_hofstadter, 1),
                 "dirac": (build_dirac, 2)}


def _identity_lattice(name, bc_y):
    build, spin_dim = FLUX_BUILDERS[name]
    spec = LatticeSpec(n_x=6, l_min=-15, l_max=16, spin_dim=spin_dim, bc_y=bc_y)
    inputs = [SiteIndex(j, l, s) for j in (0, 2, 5) for l in (0, 3) for s in range(spin_dim)]
    rng = np.random.default_rng(11)
    decays = (DecaySpec(gamma=0.2),
              DecaySpec.per_mode(0.2 * (1.0 + 0.3 * rng.random(spec.dim))))
    return build, spec, inputs, decays


@pytest.mark.parametrize("name", sorted(FLUX_BUILDERS))
@pytest.mark.parametrize("bc_y", [Boundary.OPEN, Boundary.PERIODIC])
def test_flux_mirror_leaves_the_spectrum(name, bc_y):
    """``H(1 - phi) = conj H(phi)`` for the scalar builders (and the Dirac
    lattice up to a gauge), so ``G(1 - phi)`` has the diagonal of
    ``G(phi)``; with the optical theorem the total power from any inputs
    is the same: ``T(1 - phi, omega) = T(phi, omega)``."""
    build, spec, inputs, decays = _identity_lattice(name, bc_y)
    grid = np.linspace(-4.5, 4.5, 41)
    for phi in (Fraction(1, 6), Fraction(2, 5), Fraction(3, 7)):
        for decay in decays:
            power = total_transmission_spectrum(build(spec, phi), decay, inputs, grid)
            mirror = total_transmission_spectrum(build(spec, 1 - phi), decay, inputs, grid)
            np.testing.assert_allclose(mirror, power, rtol=0, atol=1e-13 * power.max())


@pytest.mark.parametrize("name", sorted(FLUX_BUILDERS))
@pytest.mark.parametrize("bc_y", [Boundary.OPEN, Boundary.PERIODIC])
def test_frequency_mirror_at_nonzero_flux(name, bc_y):
    """Every builder hops between the two sublattices of ``(-1)^(j+l)``
    (an even ring keeps them), so ``S H S = -H`` at any flux and
    ``G(-omega) = -S G(omega)^dagger S``.  The optical theorem,
    ``sum_n' gamma_n' |G_n'r|^2 = sum_n' gamma_n' |G_rn'|^2 = -2 Im G_rr``
    for any rates, then makes the total power even in ``omega``.  Each sign
    is solved in its own call: a one-signed grid has no ``-omega``
    partners, so neither side is copied from the other."""
    build, spec, inputs, decays = _identity_lattice(name, bc_y)
    half = np.linspace(0.05, 4.5, 20)
    for phi in (Fraction(1, 6), Fraction(2, 5)):
        for decay in decays:
            H = build(spec, phi)
            above = total_transmission_spectrum(H, decay, inputs, half)
            below = total_transmission_spectrum(H, decay, inputs, -half)
            np.testing.assert_allclose(below, above, rtol=0, atol=1e-13 * above.max())


# ---------------------------------------------------------- frequency mirror

def _spectrum_records(caplog, H, decay, inputs, grid):
    """The spectrum and its engine's DEBUG record."""
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        power = total_transmission_spectrum(H, decay, inputs, grid)
    return power, [r for r in caplog.records if r.name == "oamphoton"][-1]


def _full_grid(H, decay, inputs, grid):
    """The engine's total power on every grid point, with no mirror."""
    rows = [flat_index(H.spec, s) for s in inputs]
    return Resolvent(H, decay).total_power(grid, rows)


_HALF = np.linspace(0.05, 4.5, 20)
MIRROR_GRIDS = {"linspace": np.linspace(-4.5, 4.5, 40),
                "antisymmetric": np.concatenate([-_HALF[::-1], _HALF])}


@pytest.mark.parametrize("name", sorted(FLUX_BUILDERS))
@pytest.mark.parametrize("bc_y", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("grid_name", sorted(MIRROR_GRIDS))
def test_chiral_spectrum_solves_one_of_each_pair(name, bc_y, grid_name, caplog):
    """On a chiral lattice the first half of a symmetric grid is solved,
    bit for bit as on the whole grid, and copied to the second half, which
    then agrees with its own solve to rounding."""
    build, spec, inputs, decays = _identity_lattice(name, bc_y)
    grid = MIRROR_GRIDS[grid_name]
    for decay in decays:
        H = build(spec, Fraction(2, 7))
        power, record = _spectrum_records(caplog, H, decay, inputs, grid)
        full = _full_grid(H, decay, inputs, grid)
        np.testing.assert_array_equal(power[:20], full[:20])
        np.testing.assert_array_equal(power[20:], power[19::-1])
        np.testing.assert_allclose(power, full, rtol=0, atol=1e-13 * full.max())
        assert record.factorizations == 20
        assert "omega mirror: H is chiral" in record.solver_reason
        assert "20 row(s) computed, 20 copied" in record.solver_reason


def _non_chiral(name):
    if name == "qsh":
        return build_qsh(LatticeSpec(n_x=4, l_min=-3, l_max=4, spin_dim=2), 0.1, 0.6)
    if name == "odd ring":
        spec = LatticeSpec(n_x=3, l_min=-4, l_max=4, bc_y=Boundary.PERIODIC)
        return build_landau_hofstadter(spec, Fraction(1, 3))
    clean = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-5, l_max=5), 0.25)
    return sample_disordered_hamiltonian(clean, DisorderModel.cavity_detuning(0.1), 3)


@pytest.mark.parametrize("name", ["qsh", "odd ring", "model A"])
def test_non_chiral_spectrum_solves_every_point(name, caplog):
    H = _non_chiral(name)
    inputs = [SiteIndex(0, 0, 0), SiteIndex(1, 1, 0)]
    grid = np.linspace(-3.0, 3.0, 12)
    power, record = _spectrum_records(caplog, H, DecaySpec(gamma=0.2), inputs, grid)
    np.testing.assert_array_equal(power, _full_grid(H, DecaySpec(gamma=0.2), inputs, grid))
    assert record.factorizations == grid.size
    assert "no omega mirror: H joins two sites of one sublattice" in record.solver_reason


def test_omega_partners_pair_each_point_at_most_once():
    # An odd linspace: 0 is solved itself, each point below it is the first
    # of its pair.
    grid = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_array_equal(_omega_partners(grid),
                                  np.r_[np.arange(21), np.arange(19, -1, -1)])
    # Points without a partner within 4 ulp of the largest magnitude keep
    # their own index; the first index of a pair is computed, whichever
    # sign it has.
    asymmetric = np.array([3.0, -1.0, 0.5, 1.0, -3.0 - 1e-9, 2.0])
    np.testing.assert_array_equal(_omega_partners(asymmetric), [0, 1, 2, 1, 4, 5])
    assert np.array_equal(_omega_partners(-_HALF), np.arange(20))
    # A repeated point pairs once; its repeat is computed.
    repeated = np.array([1.0, -1.0, 1.0, 0.5])
    np.testing.assert_array_equal(_omega_partners(repeated), [0, 0, 2, 3])
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(_omega_partners(np.array([np.nan, -1.0, 1.0])),
                                      [0, 1, 2])


def test_pairing_edge_cases_match_the_full_grid(caplog):
    build, spec, inputs, decays = _identity_lattice("landau", Boundary.OPEN)
    H = build(spec, Fraction(1, 6))
    cases = {"odd linspace": (np.linspace(-2.0, 2.0, 41), 21),
             "asymmetric": (np.array([3.0, -1.0, 0.5, 1.0, -3.0 - 1e-9, 2.0]), 5),
             "one-signed": (-_HALF, 20),
             "repeated": (np.array([1.0, -1.0, 1.0, 0.5]), 3)}
    for label, (grid, computed) in cases.items():
        power, record = _spectrum_records(caplog, H, decays[1], inputs, grid)
        full = _full_grid(H, decays[1], inputs, grid)
        np.testing.assert_allclose(power, full, rtol=0, atol=1e-13 * full.max(),
                                   err_msg=label)
        own = _omega_partners(grid) == np.arange(grid.size)
        np.testing.assert_array_equal(power[own], full[own], err_msg=label)
        assert record.factorizations == computed, label
        assert ("no omega mirror: no partners on the grid" in record.solver_reason
                ) == (label == "one-signed"), label


def test_desk_spectrum_factorizes_half_its_grid(caplog):
    H = build_landau_hofstadter(LatticeSpec(n_x=10, l_min=-50, l_max=50), 0.3)
    inputs = [SiteIndex(j, 0, 0) for j in range(10)]
    _, record = _spectrum_records(caplog, H, DecaySpec(gamma=0.1), inputs,
                                  default_omega_grid())
    assert record.factorizations == 200
    assert "200 row(s) computed, 200 copied" in record.solver_reason


# ------------------------------------------------------------ S-matrix rows

def test_s_row_unitarity_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n_x = int(rng.integers(2, 5))
        n_l = int(rng.integers(2, 6))
        spec = LatticeSpec(n_x=n_x, l_min=0, l_max=n_l - 1)
        H = build_landau_hofstadter(spec, float(rng.uniform(0, 1)))
        omega = float(rng.uniform(-4, 4))
        gamma = float(rng.uniform(0.05, 0.6))
        site = SiteIndex(int(rng.integers(n_x)), int(rng.integers(n_l)), 0)
        row = s_row(H, DecaySpec(gamma=gamma), omega, site)
        np.testing.assert_allclose(np.linalg.norm(row), 1.0, atol=1e-9)


def test_s_row_far_detuned_is_delta():
    H = two_site_chain()
    row = s_row(H, DecaySpec(gamma=0.2), 1e8, SiteIndex(0, 0, 0))
    np.testing.assert_allclose(row, [1.0, 0.0], atol=1e-7)


def test_s_row_per_mode_computed_without_unitarity():
    H = two_site_chain()
    decay = DecaySpec.per_mode(np.array([0.1, 0.4]))
    row = s_row(H, decay, 0.0, SiteIndex(0, 0, 0))
    assert row.shape == (2,)
    assert np.all(np.isfinite(row))


# ------------------------------------------------- total spectrum & butterfly

def test_single_site_total_transmission_resonance():
    H = single_site()
    spectrum = total_transmission_spectrum(
        H, DecaySpec(gamma=0.2), [SiteIndex(0, 0, 0)], np.array([0.0])
    )
    np.testing.assert_allclose(spectrum[0], 4.0, rtol=1e-12)


def test_eig_fast_path_matches_direct_solves():
    spec = LatticeSpec(n_x=4, l_min=-3, l_max=3)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    decay = DecaySpec(gamma=0.17)
    inputs = [SiteIndex(0, 0, 0), SiteIndex(2, -2, 0)]
    grid = np.linspace(-4, 4, 9)
    fast = total_transmission_spectrum(H, decay, inputs, grid)
    slow = np.zeros_like(fast)
    for k, omega in enumerate(grid):
        for site in inputs:
            amp = transmission(H, decay, float(omega), site).amplitudes
            slow[k] += float(np.sum(np.abs(amp) ** 2))
    np.testing.assert_allclose(fast, slow, rtol=1e-10)


def test_eig_transmission_vector_matches_direct():
    spec = LatticeSpec(n_x=3, l_min=-2, l_max=2)
    H = build_landau_hofstadter(spec, 1.0 / 4.0)
    gamma, omega = 0.21, -1.1
    evals, evecs = spectral_factorization(H)
    site = SiteIndex(1, 0, 0)
    fast = eig_transmission_vector(evals, evecs, gamma, omega, flat_index(spec, site))
    slow = transmission(H, DecaySpec(gamma=gamma), omega, site).amplitudes
    np.testing.assert_allclose(fast, slow, atol=1e-11)


def test_spectrum_peaks_near_eigenvalues():
    spec = LatticeSpec(n_x=4, l_min=-4, l_max=4)
    H = build_landau_hofstadter(spec, 1.0 / 3.0)
    gamma = 0.1
    evals = np.linalg.eigvalsh(H.toarray())
    grid = np.linspace(-4.5, 4.5, 1200)
    spectrum = total_transmission_spectrum(
        H, DecaySpec(gamma=gamma),
        [SiteIndex(j, 0, 0) for j in range(4)], grid,
    )
    interior = slice(1, -1)
    peaks = (
        (spectrum[interior] > spectrum[:-2]) & (spectrum[interior] > spectrum[2:])
    ).nonzero()[0] + 1
    assert len(peaks) > 0
    for p in peaks:
        assert np.min(np.abs(evals - grid[p])) < gamma


def test_empty_probe_grid_rejected():
    H = single_site()
    with pytest.raises(ValueError):
        total_transmission_spectrum(
            H, DecaySpec(gamma=0.1), [SiteIndex(0, 0, 0)], np.array([])
        )


def test_butterfly_zero_flux_row_support():
    spec = LatticeSpec(n_x=8, l_min=-8, l_max=8)
    grid = default_omega_grid(200)
    row = butterfly_row(spec, 0.0, grid, DecaySpec(gamma=0.1))
    # Band edges of the finite open lattice sit near +/-3.85; the support at
    # a 3% threshold should hug them within a few linewidths either way.
    support = grid[row > 3e-2 * row.max()]
    assert support.min() > -4.35 and support.max() < 4.35
    assert support.min() < -3.7 and support.max() > 3.7


def test_butterfly_half_flux_gapless_and_symmetric():
    spec = LatticeSpec(n_x=8, l_min=-8, l_max=8)
    grid = np.linspace(-4.5, 4.5, 301)
    decay = DecaySpec(gamma=0.1)
    row = butterfly_row(spec, 0.5, grid, decay)
    # The reference: the omega < 0 and omega > 0 halves in two calls, each
    # grid without +-omega partners, so every point of both is solved.
    low = butterfly_row(spec, 0.5, grid[grid < 0], decay)
    high = butterfly_row(spec, 0.5, grid[grid > 0], decay)
    np.testing.assert_allclose(high, low[::-1], rtol=1e-8)
    np.testing.assert_allclose(row[grid < 0], low, rtol=1e-8)
    np.testing.assert_allclose(row[grid > 0], high, rtol=1e-8)
    mid = row[np.abs(grid) < 0.5]
    assert mid.min() > 1e-2 * row.max()


def test_krylov_path_above_direct_limit():
    spec = LatticeSpec(n_x=61, l_min=-50, l_max=50, bc_y=Boundary.PERIODIC)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    assert H.dim > 6000 and not H.is_dense
    result = transmission(H, DecaySpec(gamma=0.2), -2.2, SiteIndex(0, 0, 0))
    power = np.abs(result.amplitudes) ** 2
    cols = np.repeat(np.arange(61), spec.n_l)
    assert power[cols <= 1].sum() > 0.8 * power.sum()


def test_dirac_total_spectrum_dip_and_peaks():
    spec = LatticeSpec(n_x=10, l_min=-20, l_max=20, spin_dim=2,
                       bc_y=Boundary.PERIODIC)
    H = build_dirac(spec, 0.0)
    inputs = [SiteIndex(j, 0, s) for j in range(10) for s in (0, 1)]
    grid = np.linspace(-3.0, 3.0, 121)
    spectrum = total_transmission_spectrum(H, DecaySpec(gamma=0.2), inputs, grid)
    center = np.argmin(np.abs(grid))
    assert spectrum[center] < spectrum[np.abs(grid + 2.0) < 0.3].max()
    assert spectrum[center] < spectrum[np.abs(grid - 2.0) < 0.3].max()
