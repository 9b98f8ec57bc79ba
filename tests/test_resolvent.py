"""Resolvent-engine tests: block solves, oracles, identities, call counts, errors,
storage, bits, Monte Carlo trials and memory."""

import logging
import tracemalloc

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
    default_omega_grid,
    eig_transmission_vector,
    greens_apply,
    spectral_factorization,
    total_transmission_spectrum,
    transmission,
)
from oamphoton.edge import (
    EdgeRegion, Side, displacement_spectrum, oam_displacement, transmission_map,
)
from oamphoton.disorder import (
    DisorderModel, displacement_robustness, sample_disordered_hamiltonian,
)

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

    def counting(self, trials, omegas, rows):
        calls.append((omegas.size, rows.size))
        return original(self, trials, omegas, rows)

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


def test_empty_frequency_grids_rejected():
    H = LATTICES["qsh"]
    decay = DecaySpec.uniform(GAMMA)
    region = EdgeRegion(Side.LEFT, 1)
    with pytest.raises(ValueError, match="nonempty"):
        displacement_spectrum(H, decay, np.array([]), region)
    engine = Resolvent(H, decay)
    with pytest.raises(ValueError, match="nonempty"):
        engine.transmitted_power(np.array([]), [0])
    with pytest.raises(ValueError, match="nonempty"):
        next(engine.columns(np.array([]), [0]))
    assert engine.factorizations == 0


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


def test_each_engine_record_explains_its_storage(caplog):
    decay = DecaySpec.uniform(GAMMA)
    grid = np.array([-1.0, 0.2, 1.5])
    scalar = LATTICES["scalar-open"]
    skewed = scalar.toarray().copy()
    i = flat_index(scalar.spec, SiteIndex(1, -1, 0))
    j = flat_index(scalar.spec, SiteIndex(2, 1, 0))
    skewed[i, j], skewed[j, i] = 0.3 + 0.2j, 0.3 - 0.2j
    dirac_open = build_dirac(LatticeSpec(n_x=3, l_min=-3, l_max=3, spin_dim=2), 1.0 / 6.0)
    dirac_even_ring = build_dirac(LatticeSpec(n_x=3, l_min=-3, l_max=4, spin_dim=2,
                                              bc_y=Boundary.PERIODIC), 1.0 / 6.0)
    cases = [scalar, LATTICES["qsh"], dirac_open, dirac_even_ring, LATTICES["dirac"],
             HamiltonianMatrix(scalar.spec, skewed)]
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        for H in cases:
            total_transmission_spectrum(H, decay, [SiteIndex(0, 0, 0)], grid)
    records = [r for r in caplog.records if r.name == "oamphoton"]
    # OAM hops stay in their cavity: scalar hops (the qsh hops keep the
    # polarization too) or 2x2 Jones blocks, also on a folded even ring.
    # The middle slice of a folded odd ring couples to both halves of its
    # neighbour block, and a hop that joins two cavities two slices apart
    # widens the blocks: the couplings then fill whole blocks.
    assert [r.coupling_block for r in records] == [1, 1, 2, 2, 12, 8]
    assert [r.block_size for r in records] == [4, 8, 6, 12, 12, 8]
    for r in records:
        assert r.work_bytes == 16 * r.slices * r.omega_chunk * r.block_size ** 2
        assert f"{r.coupling_block}x{r.coupling_block} coupling blocks" in r.getMessage()
        assert f"{r.work_bytes}-byte work array" in r.getMessage()


def test_each_engine_record_counts_trials_and_solves(caplog):
    H = LATTICES["qsh"]
    Hs, decays = _trials(H)
    grid = np.array([-1.0, 0.2])
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        for stack, decay in ((Hs, decays), (Hs[0], decays[0])):
            engine = Resolvent(stack, decay)
            engine.transmitted_power(grid, edge_rows(H))
            engine.log("edge ports")
        displacement_robustness(H, DisorderModel.cavity_detuning(0.1),
                                DecaySpec.uniform(GAMMA), grid, EdgeRegion(Side.LEFT, 2),
                                trials=3, seed=1, input_l_values=(0, 1))
    records = [r for r in caplog.records if r.name == "oamphoton"]
    # One factorization per trial and frequency.  Seven OAM slices: ports
    # on the middle one take three sweep steps and the port solve.  The
    # Monte Carlo driver makes one engine for its three trials and calls it
    # once for the ports of both input OAM values: ports on the middle
    # slice and the next take four steps (the left sweep alone for the
    # last) and one port solve.
    assert [r.trials for r in records] == [3, 1, 3]
    assert [r.factorizations for r in records] == [6, 2, 6]
    assert [r.solves for r in records] == [4, 4, 5]
    for r in records:
        message = r.getMessage()
        assert f"{r.trials} trial(s) in {r.solves} solve call(s)" in message
        assert r.work_bytes == 16 * r.slices * r.omega_chunk * r.block_size ** 2


def test_every_engine_solve_stacks_its_right_hand_sides(monkeypatch):
    # NumPy 1.x reads a right-hand side with one dimension fewer than its
    # matrices as a stack of vectors, NumPy 2.x as one matrix: each solve
    # passes one right-hand side per side, trial and frequency, which both
    # read alike.
    solve, calls = np.linalg.solve, []

    def stacked(a, b):
        calls.append(b.shape)
        assert b.ndim == a.ndim and b.shape[:-1] == a.shape[:-1]
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", stacked)
    H = LATTICES["dirac"]
    sites = [SiteIndex(1, 2, 1), SiteIndex(0, 0, 0), SiteIndex(2, 1, 0)]
    rows = [flat_index(H.spec, s) for s in sites]
    engine = Resolvent(H, per_mode(H))
    x = engine.solve(0.9, rows)
    ref = dense_columns(H, per_mode(H), 0.9, rows)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # Ports on blocks 1, 2 and 3 of four, so only the left sweep runs: one
    # solve on block 0, one on each of blocks 1 and 2 for the transfer
    # matrix and the ports carried up together ([U_k | carried(k)]), then
    # one solve on block 3.  Each solve is for one trial and one frequency.
    b, p = engine.block_size, len(rows)
    assert calls == [(1, 1, 1, b, b), (1, 1, 1, b, b + p), (1, 1, 1, b, b + p),
                     (1, 1, b, p)]
    assert engine.solves == 4


def test_ports_on_one_block_take_one_solve_per_sweep_step(monkeypatch):
    solve, calls = np.linalg.solve, []

    def counted(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    H = LATTICES["qsh"]
    rows = edge_rows(H)
    engine = Resolvent(H, per_mode(H))
    assert len({int(engine._block_of[r]) for r in rows}) == 1
    omegas = np.array([-0.4, 0.9])
    x = np.concatenate([x for _, x in engine.columns(omegas, rows)], axis=1)
    for i, omega in enumerate(omegas):
        ref = dense_columns(H, per_mode(H), omega, rows)
        np.testing.assert_allclose(x[:, i], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # Seven OAM slices, the ports on the middle one: both sweeps take three
    # steps toward it, each step one solve for both sides, then one solve
    # at the port block for every port at once.
    b = engine.block_size
    assert engine.slices == 7
    assert calls == [(2, 1, omegas.size, b, b)] * 3 + [(1, omegas.size, b, len(rows))]
    assert engine.solves == 4


# ---------------------------------------------------------------- port rows

@pytest.mark.parametrize("bad", [[-1], [1.7], [0, 3.0], ["1"], [True]])
def test_port_rows_must_be_integer_indices(bad):
    H = LATTICES["qsh"]
    engine = Resolvent(H, DecaySpec.uniform(GAMMA))
    for call in (lambda: engine.solve(0.3, bad),
                 lambda: engine.transmission(0.3, bad),
                 lambda: engine.transmitted_power(np.array([0.3]), bad)):
        with pytest.raises(ValueError, match="port row"):
            call()
    with pytest.raises(ValueError, match="outside"):
        engine.solve(0.3, [0, H.dim])
    assert engine.factorizations == 0


# ------------------------------------------------------------------- bits

def _spin_sites(H):
    return [SiteIndex(j, 0, s) for j in range(H.spec.n_x) for s in range(H.spec.spin_dim)]


@pytest.mark.parametrize("name", ["scalar-open", "qsh"])
def test_power_bits_do_not_depend_on_the_chunk(name, monkeypatch):
    # Larger lattices than LATTICES, so that a default chunk holds the grid.
    if name == "qsh":
        H = build_qsh(LatticeSpec(n_x=4, l_min=-10, l_max=10, spin_dim=2), 0.05, 0.6)
    else:
        H = build_landau_hofstadter(LatticeSpec(n_x=6, l_min=-12, l_max=12), 1.0 / 6.0)
    grid = np.linspace(-3.0, 3.0, 41)
    region = EdgeRegion(Side.RIGHT, 2)
    runs = []
    for budget in (scattering._CHUNK_BYTES, 1):
        monkeypatch.setattr(scattering, "_CHUNK_BYTES", budget)
        runs.append([
            total_transmission_spectrum(H, DecaySpec.uniform(GAMMA), _spin_sites(H), grid),
            total_transmission_spectrum(H, per_mode(H), _spin_sites(H), grid),
            displacement_spectrum(H, DecaySpec.uniform(GAMMA), grid, region),
        ])
    for whole, chunked in zip(*runs):
        np.testing.assert_array_equal(chunked, whole)


@pytest.mark.parametrize("blocks", [1, 3])
def test_one_engine_called_twice_returns_the_same_bits(blocks):
    H = LATTICES["dirac"]
    decay = per_mode(H)
    # Ports on one OAM block, or on three (out of order, so the port span
    # between them is copied aside and the columns are put back in order).
    sites = ([SiteIndex(0, 1, 0), SiteIndex(2, 1, 1)] if blocks == 1 else
             [SiteIndex(1, 2, 1), SiteIndex(0, 0, 0), SiteIndex(2, 1, 0), SiteIndex(0, 2, 0)])
    rows = [flat_index(H.spec, s) for s in sites]
    engine = Resolvent(H, decay)
    assert np.unique(engine._block_of[rows]).size == blocks
    grid = np.array([-2.2, -0.4, 0.9])
    first = np.concatenate([x for _, x in engine.columns(grid, rows)], axis=1)
    again = np.concatenate([x for _, x in engine.columns(grid, rows)], axis=1)
    np.testing.assert_array_equal(again, first)
    ref = dense_columns(H, decay, 0.9, rows)
    np.testing.assert_allclose(first[:, 2], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    one, two, three = (engine.solve(w, rows) for w in (-2.2, 0.9, -2.2))
    np.testing.assert_array_equal(three, one)
    assert not np.array_equal(two, one)


# ------------------------------------------------------------------ trials

def _trials(H, count=3):
    """Disordered copies of ``H`` with their own per-mode rates.  The first
    trial is ``H`` itself: where ``H`` has no on-site terms it lacks the
    others' detuning entries, so the engine joins two patterns."""
    model = DisorderModel(sigma_detuning=0.3, sigma_coupling_mag=0.1,
                          sigma_coupling_phase=0.1)
    Hs = [H] + [sample_disordered_hamiltonian(H, model, seed) for seed in range(1, count)]
    return Hs, [per_mode(H, seed) for seed in range(count)]


def _multi_block_rows(H):
    # Edge ports on the OAM-0 block plus one port two slices below it.
    return edge_rows(H) + [flat_index(H.spec, SiteIndex(1, -2, 0))]


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("ports", ["one block", "several blocks"])
def test_trials_in_one_engine_equal_one_trial_engines_bitwise(name, ports):
    H = LATTICES[name]
    Hs, decays = _trials(H)
    rows = edge_rows(H) if ports == "one block" else _multi_block_rows(H)
    grid = np.array([-1.6, -0.3, 0.9])
    weights = l_of_index(H.spec)
    for shared in (False, True):
        rates = decays[0] if shared else decays
        engine = Resolvent(Hs, rates)
        singles = [Resolvent(h, decays[0] if shared else d) for h, d in zip(Hs, decays)]
        power = engine.transmitted_power(grid, rows, weights)
        assert power.shape == (len(Hs), grid.size)
        for t, single in enumerate(singles):
            np.testing.assert_array_equal(
                power[t], single.transmitted_power(grid, rows, weights))
            np.testing.assert_array_equal(
                engine.transmission(0.4, rows)[:, t], single.transmission(0.4, rows))
        (part, x), = engine.columns(grid, rows)
        assert part == slice(0, len(Hs) * grid.size)
        for t, single in enumerate(singles):
            (_, alone), = single.columns(grid, rows)
            np.testing.assert_array_equal(x[:, t * grid.size:(t + 1) * grid.size], alone)
        ref = dense_columns(Hs[2], decays[0] if shared else decays[2], 0.9, rows)
        np.testing.assert_allclose(x[:, 2 * grid.size + 2], ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())


def test_trial_bits_do_not_depend_on_the_chunk(sweeps, monkeypatch):
    H = LATTICES["qsh"]
    Hs, decays = _trials(H, count=4)
    rows, grid = edge_rows(H), np.linspace(-2.0, 2.0, 3)
    engine = Resolvent(Hs, decays)
    row_bytes = scattering._row_bytes(engine.slices, engine.block_size, len(rows))
    runs = []
    # The whole batch, two trials per chunk, one trial per chunk, a trial
    # split in two chunks, and one (trial, frequency) row per chunk.
    for budget in (scattering._CHUNK_BYTES, 7 * row_bytes, 5 * row_bytes,
                   2 * row_bytes, 1):
        monkeypatch.setattr(scattering, "_CHUNK_BYTES", budget)
        sweeps.clear()
        runs.append((Resolvent(Hs, decays).transmitted_power(grid, rows), list(sweeps)))
    for power, _ in runs[1:]:
        np.testing.assert_array_equal(power, runs[0][0])
    assert [calls for _, calls in runs] == [
        [(3, 4)], [(3, 4)] * 2, [(3, 4)] * 4, [(2, 4), (1, 4)] * 4, [(1, 4)] * 12]


def test_nan_in_one_trial_names_that_trial():
    H = LATTICES["scalar-open"]
    values = H.values.copy()
    values[5] = np.nan
    broken = HamiltonianMatrix.from_entries(H.spec, H.rows, H.cols, values)
    engine = Resolvent([H, broken, H], DecaySpec.uniform(GAMMA))
    with pytest.raises(RuntimeError, match="residual .* in trial 1 "):
        engine.transmitted_power(np.array([0.3, 1.1]), edge_rows(H))


def test_a_stack_of_hamiltonians_is_checked():
    H, other = LATTICES["scalar-open"], LATTICES["scalar-periodic"]
    decay = DecaySpec.uniform(GAMMA)
    with pytest.raises(ValueError, match="at least one"):
        Resolvent([], decay)
    with pytest.raises(ValueError, match="one lattice"):
        Resolvent([H, other], decay)
    with pytest.raises(ValueError, match="2 decay specs for 3"):
        Resolvent([H, H, H], [decay, decay])


# ----------------------------------------------------------------- memory

def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_edge_map_memory_grows_with_h_not_dense_slices():
    # 30 x 301 sites: dense (slices, b, b) copies of H's blocks took 22.8 MB.
    spec = LatticeSpec(n_x=30, l_min=-150, l_max=150)
    decay = DecaySpec.uniform(GAMMA)
    peak = _traced_peak_mb(lambda: transmission_map(
        build_landau_hofstadter(spec, 1.0 / 6.0), decay, -2.2, SiteIndex(0, 0, 0)))
    assert peak <= 10.0


def test_desk_spectrum_memory_holds_one_work_array_per_chunk():
    # 10 x 101 sites, 400 frequencies, 10 ports: the dense-block engine took 11.7 MB.
    spec = LatticeSpec(n_x=10, l_min=-50, l_max=50)
    inputs = [SiteIndex(j, 0, 0) for j in range(spec.n_x)]
    peak = _traced_peak_mb(lambda: total_transmission_spectrum(
        build_landau_hofstadter(spec, 1.0 / 6.0), DecaySpec.uniform(0.1), inputs,
        default_omega_grid()))
    assert peak <= 9.0
