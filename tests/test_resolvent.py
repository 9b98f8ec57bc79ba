"""Resolvent-engine tests: block solves, oracles, identities, call counts, errors."""

import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from oamphoton import scattering

from oamphoton.lattice import (
    Boundary, LatticeSpec, SiteIndex, flat_index, l_of_index, site_of,
)
from oamphoton.hamiltonians import (
    HamiltonianMatrix,
    build_dirac,
    build_landau_hofstadter,
    build_qsh,
)
from oamphoton.scattering import (
    DecaySpec,
    Resolvent,
    eig_transmission_vector,
    greens_apply,
    spectral_factorization,
    total_transmission_spectrum,
    transmission,
)
from oamphoton.edge import EdgeRegion, Side, displacement_spectrum, oam_displacement

GAMMA = 0.2


def _lattices():
    open_spec = LatticeSpec(n_x=4, l_min=-3, l_max=3)
    wrap_spec = LatticeSpec(n_x=4, l_min=-4, l_max=4, bc_y=Boundary.PERIODIC)
    qsh_spec = LatticeSpec(n_x=4, l_min=-3, l_max=3, spin_dim=2)
    dirac_spec = LatticeSpec(n_x=3, l_min=-3, l_max=3, spin_dim=2,
                             bc_y=Boundary.PERIODIC)
    return {
        "scalar-open": build_landau_hofstadter(open_spec, 1.0 / 6.0),
        "scalar-periodic": build_landau_hofstadter(wrap_spec, 1.0 / 4.0),
        "qsh": build_qsh(qsh_spec, 0.05, 0.6),
        "dirac": build_dirac(dirac_spec, 1.0 / 6.0),
    }


LATTICES = _lattices()


def as_csr(H):
    return HamiltonianMatrix(H.spec, scipy.sparse.csr_matrix(H.data))


def per_mode(H, seed=7):
    rng = np.random.default_rng(seed)
    return DecaySpec.per_mode(GAMMA * (1.0 + 0.5 * rng.random(H.dim)))


def dense_columns(H, decay, omega, rows):
    """Column-by-column dense reference for ``(omega - H + i G/2)^{-1} e_r``."""
    A = omega * np.eye(H.dim) - H.toarray() + 0.5j * np.diag(decay.rate_vector(H.dim))
    columns = []
    for r in rows:
        e = np.zeros(H.dim, dtype=complex)
        e[r] = 1.0
        columns.append(scipy.linalg.solve(A, e))
    return np.stack(columns, axis=1)


def edge_rows(H):
    spec = H.spec
    return [flat_index(spec, SiteIndex(j, 0, s))
            for j in (0, spec.n_x - 1) for s in range(spec.spin_dim)]


# ------------------------------------------------------------- block solves

@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("rates", ["uniform", "per-mode"])
def test_block_solve_matches_dense_columns(name, storage, rates):
    H = LATTICES[name]
    decay = DecaySpec.uniform(GAMMA) if rates == "uniform" else per_mode(H)
    engine = Resolvent(as_csr(H) if storage == "csr" else H, decay)
    rows = edge_rows(H)
    first = None
    for omega in (-2.2, 0.3, 1.7):
        x = engine.solve(omega, rows)
        ref = dense_columns(H, decay, omega, rows)
        assert x.shape == (H.dim, len(rows))
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        if first is None:
            first = x
    # Rewriting the diagonal slots leaves no trace of earlier frequencies.
    np.testing.assert_array_equal(engine.solve(-2.2, rows), first)
    assert engine.factorizations == 4
    assert 0.0 <= engine.worst_residual <= 1e-10


def test_single_port_functions_use_the_block_engine():
    H = LATTICES["qsh"]
    decay = per_mode(H)
    site = SiteIndex(0, 1, 1)
    r = flat_index(H.spec, site)
    ref = dense_columns(H, decay, -1.6, [r])[:, 0]
    np.testing.assert_allclose(greens_apply(H, decay, -1.6, site), ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())
    rates = decay.rate_vector(H.dim)
    amplitudes = transmission(as_csr(H), decay, -1.6, site).amplitudes
    np.testing.assert_allclose(amplitudes, -1j * np.sqrt(rates * rates[r]) * ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())


# ------------------------------------------------------------------ oracles

@pytest.mark.parametrize("name", sorted(LATTICES))
def test_displacement_matches_eigenbasis_oracle(name):
    H = LATTICES[name]
    region = EdgeRegion(Side.RIGHT, 1)
    grid = np.array([-2.2, -1.1, 0.4])
    evals, evecs = spectral_factorization(H)
    l_out = l_of_index(H.spec).astype(float)
    rows = [flat_index(H.spec, SiteIndex(j, 0, s))
            for j in region.columns(H.spec) for s in range(H.spec.spin_dim)]
    power = np.array([
        [np.abs(eig_transmission_vector(evals, evecs, GAMMA, w, r)) ** 2 for r in rows]
        for w in grid
    ]).sum(axis=1)
    expected = power @ l_out
    # The qsh displacement vanishes by symmetry: scale by the |l|-weighted power.
    scale = np.max(power @ np.abs(l_out))
    for H_in in (H, as_csr(H)):
        got = displacement_spectrum(H_in, DecaySpec.uniform(GAMMA), grid, region)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_optical_theorem_on_both_paths(name):
    H = LATTICES[name]
    decay = DecaySpec.uniform(GAMMA)
    grid = np.array([-2.5, -0.7, 0.0, 1.3])
    for r in edge_rows(H):
        site = site_of(H.spec, r)
        expected = np.array([
            -2.0 * GAMMA * greens_apply(H, decay, float(w), site)[r].imag for w in grid
        ])
        eigenbasis = total_transmission_spectrum(H, decay, [site], grid)
        sparse_lu = total_transmission_spectrum(as_csr(H), decay, [site], grid)
        np.testing.assert_allclose(eigenbasis, expected, rtol=1e-11)
        np.testing.assert_allclose(sparse_lu, expected, rtol=1e-11)


# ------------------------------------------------------------- call counts

@pytest.fixture
def sweeps(monkeypatch):
    """Every chunk sweep of the engine, as ``(frequencies, ports)``."""
    calls = []
    original = Resolvent._sweep

    def counting(self, omegas, rows):
        calls.append((omegas.size, rows.size))
        return original(self, omegas, rows)

    monkeypatch.setattr(Resolvent, "_sweep", counting)
    return calls


def test_one_sweep_per_frequency_for_a_region(sweeps):
    H = LATTICES["qsh"]
    region = EdgeRegion(Side.LEFT, 2)
    grid = np.array([-1.6, -1.2, 0.5])
    displacement_spectrum(H, DecaySpec.uniform(GAMMA), grid, region)
    # Two columns times two polarizations: four ports share every sweep.
    assert sweeps == [(grid.size, 4)]


def test_one_sweep_per_frequency_for_a_spectrum(sweeps):
    H = LATTICES["scalar-open"]
    inputs = [SiteIndex(j, 0, 0) for j in range(H.spec.n_x)]
    grid = np.linspace(-3.0, 3.0, 5)
    total_transmission_spectrum(H, per_mode(H), inputs, grid)
    assert sweeps == [(grid.size, len(inputs))]


def test_chunked_sweeps_cover_the_grid_once(sweeps, monkeypatch):
    H = LATTICES["dirac"]
    inputs = [SiteIndex(0, 0, 1), SiteIndex(2, -2, 0), SiteIndex(1, 3, 1)]
    grid = np.linspace(-3.0, 3.0, 11)
    whole = total_transmission_spectrum(H, per_mode(H), inputs, grid)
    # A budget of one frequency's working memory forces one sweep per omega.
    monkeypatch.setattr(scattering, "_CHUNK_BYTES", 1)
    chunked = total_transmission_spectrum(H, per_mode(H), inputs, grid)
    np.testing.assert_allclose(chunked, whole, rtol=1e-13)
    assert sweeps[0] == (grid.size, len(inputs))
    assert sweeps[1:] == [(1, len(inputs))] * grid.size


# ---------------------------------------------------------- loud failures

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_omega_rejected(bad):
    H = LATTICES["scalar-open"]
    site = SiteIndex(0, 0, 0)
    decay = DecaySpec.uniform(GAMMA)
    region = EdgeRegion(Side.RIGHT, 1)
    for H_in in (H, as_csr(H)):
        with pytest.raises(ValueError, match="finite"):
            transmission(H_in, decay, bad, site)
        with pytest.raises(ValueError, match="finite"):
            greens_apply(H_in, decay, bad, site)
        with pytest.raises(ValueError, match="finite"):
            total_transmission_spectrum(H_in, decay, [site], np.array([0.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            displacement_spectrum(H_in, decay, np.array([bad]), region)


def test_empty_port_lists_rejected():
    H = LATTICES["qsh"]
    grid = np.array([0.0])
    for decay in (DecaySpec.uniform(GAMMA), per_mode(H)):
        for H_in in (H, as_csr(H)):
            with pytest.raises(ValueError, match="nonempty"):
                total_transmission_spectrum(H_in, decay, [], grid)
    with pytest.raises(ValueError, match="polarization"):
        displacement_spectrum(H, DecaySpec.uniform(GAMMA), grid,
                              EdgeRegion(Side.LEFT, 1), input_spins=[])


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_failed_factorization_raises_instead_of_returning_nan():
    H = LATTICES["scalar-open"]
    broken = H.toarray()
    broken[3, 3] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        transmission(HamiltonianMatrix(H.spec, broken), DecaySpec.uniform(GAMMA),
                     0.0, SiteIndex(0, 0, 0))


def test_nan_in_a_coupling_block_raises_on_both_storages():
    H = LATTICES["qsh"]
    broken = H.toarray().copy()
    i = flat_index(H.spec, SiteIndex(1, 0, 0))
    j = flat_index(H.spec, SiteIndex(1, 1, 1))
    broken[i, j] = broken[j, i] = np.nan
    for data in (broken, scipy.sparse.csr_matrix(broken)):
        with pytest.raises(RuntimeError, match="residual"):
            transmission(HamiltonianMatrix(H.spec, data), per_mode(H), -1.6,
                         SiteIndex(0, 0, 0))


def test_vanishing_loss_at_an_eigenvalue_raises():
    H = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-3, l_max=3), 1.0 / 6.0)
    evals, evecs = spectral_factorization(H)
    row = int(np.argmax(np.abs(evecs[:, 5])))
    with pytest.raises(RuntimeError, match="residual"):
        greens_apply(H, DecaySpec.uniform(1e-13), float(evals[5]), site_of(H.spec, row))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_coupling_that_skips_a_slice_is_kept(storage, caplog):
    H = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-3, l_max=3), 1.0 / 6.0)
    skewed = H.toarray().copy()
    i = flat_index(H.spec, SiteIndex(1, -1, 0))
    j = flat_index(H.spec, SiteIndex(2, 1, 0))
    skewed[i, j] = 0.3 + 0.2j
    skewed[j, i] = 0.3 - 0.2j
    H2 = HamiltonianMatrix(H.spec, skewed if storage == "dense"
                           else scipy.sparse.csr_matrix(skewed))
    decay = per_mode(H)
    rows = edge_rows(H) + [i]
    engine = Resolvent(H2, decay)
    # l and l + 2 coupled: blocks join two slices, so none is dropped.
    assert (engine.width, engine.slices, engine.block_size) == (2, 4, 8)
    x = engine.solve(0.7, rows)
    ref = dense_columns(H2, decay, 0.7, rows)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        greens_apply(H2, decay, 0.7, SiteIndex(0, 0, 0))
    assert "2 apart" in caplog.records[-1].solver_reason


# ------------------------------------------------------------ observability

def test_each_engine_call_logs_one_record(caplog):
    H = LATTICES["scalar-periodic"]
    decay = DecaySpec.uniform(GAMMA)
    inputs = [SiteIndex(0, 0, 0), SiteIndex(3, 1, 0)]
    grid = np.array([-1.0, 0.2, 1.5])
    quiet = total_transmission_spectrum(as_csr(H), decay, inputs, grid)
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        loud = total_transmission_spectrum(as_csr(H), decay, inputs, grid)
        total_transmission_spectrum(H, decay, inputs, grid)
        oam_displacement(H, decay, -2.0, EdgeRegion(Side.RIGHT, 2))
    np.testing.assert_array_equal(loud, quiet)
    records = [r for r in caplog.records if r.name == "oamphoton"]
    assert [r.solver_path for r in records] == ["oam-rgf"] * 3
    assert [r.factorizations for r in records] == [3, 3, 1]
    assert all(0.0 <= r.worst_residual <= 1e-10 for r in records)
    assert all(r.levelno == logging.DEBUG and r.solver_reason for r in records)
    # Nine OAM slices on a ring fold into five blocks of two 4-cavity slices.
    assert [(r.slices, r.block_size) for r in records] == [(5, 8)] * 3
    assert [r.omega_chunk for r in records] == [3, 3, 1]
