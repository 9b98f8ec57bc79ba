"""Resolvent-engine tests: block solves, oracles, identities, call counts, errors,
storage, bits, Monte Carlo trials and memory."""

import hashlib
import logging
import re
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
    build_oam_gauge_hofstadter,
    build_qsh,
)
from oamphoton.scattering import (
    DecaySpec,
    Resolvent,
    default_omega_grid,
    eig_transmission_vector,
    spectral_factorization,
    total_transmission_spectrum,
    transmission,
)
from oamphoton.edge import (
    EdgeRegion, Side, displacement_spectrum, transmission_map,
)
from oamphoton.disorder import (
    DisorderModel, displacement_robustness, loss_perturbed_decay,
    sample_disordered_hamiltonian,
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


def sparse_columns(H, decay, omega, rows):
    """The same reference from one sparse LU of the CSR export."""
    A = (omega * scipy.sparse.identity(H.dim) - H.tocsr()
         + 0.5j * scipy.sparse.diags(decay.rate_vector(H.dim))).tocsc()
    e = np.zeros((H.dim, len(rows)), dtype=complex)
    e[rows, np.arange(len(rows))] = 1.0
    return scipy.sparse.linalg.spsolve(A, e)


#: Storage -> the reference columns solved from that export of ``H``.
REFERENCES = {"dense": dense_columns, "csr": sparse_columns}


def _from_dense(spec, A):
    rows, cols = np.nonzero(A)
    return HamiltonianMatrix.from_entries(spec, rows, cols, A[rows, cols])


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
    engine = Resolvent(H, decay)
    rows = edge_rows(H)
    first = None
    for omega in (-2.2, 0.3, 1.7):
        x = engine.solve(omega, rows)
        ref = REFERENCES[storage](H, decay, omega, rows)
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
    np.testing.assert_allclose(Resolvent(H, decay).solve(-1.6, [r])[:, 0], ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())
    rates = decay.rate_vector(H.dim)
    amplitudes = transmission(H, decay, -1.6, site).amplitudes
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
    got = displacement_spectrum(H, DecaySpec.uniform(GAMMA), grid, region)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_optical_theorem_on_both_paths(name):
    H = LATTICES[name]
    decay = DecaySpec.uniform(GAMMA)
    grid = np.array([-2.5, -0.7, 0.0, 1.3])
    engine = Resolvent(H, decay)
    for r in edge_rows(H):
        site = site_of(H.spec, r)
        expected = np.array([
            -2.0 * GAMMA * engine.solve(float(w), [r])[r, 0].imag for w in grid
        ])
        power = total_transmission_spectrum(H, decay, [site], grid)
        np.testing.assert_allclose(power, expected, rtol=1e-11)


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
    # The chiral lattice's omega mirror solves -3, -1.5 and 0 and copies
    # the other two; every port shares each of those sweeps.
    assert sweeps == [(3, len(inputs))]


def test_chunked_sweeps_cover_the_grid_once(sweeps, monkeypatch):
    H = LATTICES["dirac"]
    inputs = [SiteIndex(0, 0, 1), SiteIndex(2, -2, 0), SiteIndex(1, 3, 1)]
    grid = np.linspace(-3.0, 3.0, 11)
    whole = total_transmission_spectrum(H, per_mode(H), inputs, grid)
    # A budget of one frequency's working memory forces one sweep per omega.
    monkeypatch.setattr(scattering, "_CHUNK_BYTES", 1)
    chunked = total_transmission_spectrum(H, per_mode(H), inputs, grid)
    np.testing.assert_allclose(chunked, whole, rtol=1e-13)
    # Every hop of dirac flips the polarization, so the odd ring is chiral
    # and the omega mirror solves the 6 points at and below 0.
    assert sweeps[0] == (6, len(inputs))
    assert sweeps[1:] == [(1, len(inputs))] * 6


# ---------------------------------------------------------- loud failures

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_omega_rejected(bad):
    H = LATTICES["scalar-open"]
    site = SiteIndex(0, 0, 0)
    decay = DecaySpec.uniform(GAMMA)
    region = EdgeRegion(Side.RIGHT, 1)
    with pytest.raises(ValueError, match="finite"):
        transmission(H, decay, bad, site)
    with pytest.raises(ValueError, match="finite"):
        Resolvent(H, decay).solve(bad, [flat_index(H.spec, site)])
    with pytest.raises(ValueError, match="finite"):
        total_transmission_spectrum(H, decay, [site], np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        displacement_spectrum(H, decay, np.array([bad]), region)


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
        with pytest.raises(ValueError, match="nonempty"):
            total_transmission_spectrum(H, decay, [], grid)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_failed_factorization_raises_instead_of_returning_nan():
    H = LATTICES["scalar-open"]
    broken = H.toarray()
    broken[3, 3] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        transmission(_from_dense(H.spec, broken), DecaySpec.uniform(GAMMA),
                     0.0, SiteIndex(0, 0, 0))


def test_nan_in_a_coupling_block_raises_on_both_storages():
    H = LATTICES["qsh"]
    broken = H.toarray().copy()
    i = flat_index(H.spec, SiteIndex(1, 0, 0))
    j = flat_index(H.spec, SiteIndex(1, 1, 1))
    broken[i, j] = broken[j, i] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        transmission(_from_dense(H.spec, broken), per_mode(H), -1.6, SiteIndex(0, 0, 0))


def test_vanishing_loss_at_an_eigenvalue_raises():
    H = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-3, l_max=3), 1.0 / 6.0)
    evals, evecs = spectral_factorization(H)
    row = int(np.argmax(np.abs(evecs[:, 5])))
    with pytest.raises(RuntimeError, match="residual"):
        Resolvent(H, DecaySpec.uniform(1e-13)).solve(float(evals[5]), [row])


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_coupling_that_skips_a_slice_is_kept(storage, caplog):
    H = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-3, l_max=3), 1.0 / 6.0)
    skewed = H.toarray().copy()
    i = flat_index(H.spec, SiteIndex(1, -1, 0))
    j = flat_index(H.spec, SiteIndex(2, 1, 0))
    skewed[i, j] = 0.3 + 0.2j
    skewed[j, i] = 0.3 - 0.2j
    H2 = _from_dense(H.spec, skewed)
    decay = per_mode(H)
    rows = edge_rows(H) + [i]
    engine = Resolvent(H2, decay)
    # l and l + 2 coupled: blocks join two slices, so none is dropped.
    assert (engine.width, engine.slices, engine.block_size) == (2, 4, 8)
    x = engine.solve(0.7, rows)
    ref = REFERENCES[storage](H2, decay, 0.7, rows)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        transmission(H2, decay, 0.7, SiteIndex(0, 0, 0))
    assert "2 apart" in caplog.records[-1].solver_reason


# ------------------------------------------------------------ observability

def test_each_engine_call_logs_one_record(caplog):
    H = LATTICES["scalar-periodic"]
    decay = DecaySpec.uniform(GAMMA)
    inputs = [SiteIndex(0, 0, 0), SiteIndex(3, 1, 0)]
    grid = np.array([-1.0, 0.2, 1.5])
    quiet = total_transmission_spectrum(H, decay, inputs, grid)
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        loud = total_transmission_spectrum(H, decay, inputs, grid)
        total_transmission_spectrum(H, decay, inputs, grid)
        displacement_spectrum(H, decay, [-2.0], EdgeRegion(Side.RIGHT, 2))
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
             _from_dense(scalar.spec, skewed)]
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        for H in cases:
            total_transmission_spectrum(H, decay, [SiteIndex(0, 0, 0)], grid)
        # Eight ports on two slices, more than the block holds: the work
        # array's slots widen to the ports, and the ports below the last
        # port block keep their partial columns in one more block.
        total_transmission_spectrum(scalar, decay, [SiteIndex(j, l, 0) for j in range(4)
                                                    for l in (0, 1)], grid)
    records = [r for r in caplog.records if r.name == "oamphoton"]
    # OAM hops stay in their cavity: scalar hops, or one site per cavity
    # and slice in a sector of qsh or dirac (two slices on a folded even
    # ring), so the swept sector's blocks hold half the sites and couple
    # 1x1.  A folded odd ring joins dirac's two sectors: its middle slice
    # couples to both halves of its neighbour block, and a hop that joins
    # two cavities two slices apart widens the blocks: the couplings then
    # fill whole blocks.
    assert [r.sectors for r in records] == [1, 2, 2, 2, 1, 1, 1]
    assert [r.coupling_block for r in records] == [1, 1, 1, 1, 12, 8, 1]
    assert [r.block_size for r in records] == [4, 4, 3, 6, 12, 8, 4]
    # One chunk of the three frequencies, one work array of
    # max(block_size, ports) columns per slot.
    assert [r.omega_chunk for r in records] == [3] * 7
    for r, ports, carried in zip(records, [1] * 6 + [8], [0] * 6 + [1]):
        assert r.chunks == 1
        assert r.work_bytes == (16 * r.slices * r.omega_chunk * r.block_size
                                * max(r.block_size, ports))
        assert r.chunk_bytes == r.work_bytes + 16 * carried * r.omega_chunk * r.block_size * ports
        message = r.getMessage()
        assert f"{r.coupling_block}x{r.coupling_block} coupling blocks" in message
        assert f"in 1 chunk(s) of up to {r.omega_chunk} row(s)" in message
        assert f"{r.work_bytes}-byte work array ({r.chunk_bytes} live bytes)" in message


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
    # last) and one port solve.  qsh splits into two sectors and the ports
    # of both polarizations reach both, so each sector takes those solves.
    assert [r.trials for r in records] == [3, 1, 3]
    assert [r.factorizations for r in records] == [6, 2, 6]
    assert [r.sectors_swept for r in records] == [2, 2, 2]
    assert [r.solves for r in records] == [2 * 4, 2 * 4, 2 * 5]
    # Two ports per sector for the edge, four for the region at two input
    # OAM values, whose lower slice keeps its partial columns in one block.
    for r, ports, carried in zip(records, [2, 2, 4], [0, 0, 1]):
        message = r.getMessage()
        assert f"{r.trials} trial(s) in {r.solves} solve call(s)" in message
        assert r.work_bytes == (16 * r.slices * r.omega_chunk * r.block_size
                                * max(r.block_size, ports))
        assert r.chunk_bytes == r.work_bytes + 16 * carried * r.omega_chunk * r.block_size * ports


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
    # at the port block for every port at once.  The ports sit two in each
    # of qsh's two sectors, which are swept in turn on half-width blocks.
    b = engine.block_size
    assert (engine.slices, engine.sectors, b) == (7, 2, H.spec.n_x)
    sector = [(2, 1, omegas.size, b, b)] * 3 + [(1, omegas.size, b, len(rows) // 2)]
    assert calls == sector * 2
    assert engine.solves == 8


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


def _perturbed_columns(monkeypatch, block, sector=0):
    """Let the engine add 1e-8 to the first column, at the first site of
    ``block`` in ``sector``'s layout, after back-substitution."""
    original = Resolvent._block_columns

    def perturbed(self, layout, trials, omegas, rows):
        X = original(self, layout, trials, omegas, rows)
        if layout is self._layout(sector):
            real = np.flatnonzero(layout.blocks[block] >= 0)
            X[block, 0, 0, real[0], 0] += 1e-8
        return X

    monkeypatch.setattr(Resolvent, "_block_columns", perturbed)


@pytest.mark.parametrize("tile", ["default", "one block"])
@pytest.mark.parametrize("name, block", [("scalar-open", 0), ("scalar-open", 6),
                                         ("scalar-open", "port"), ("scalar-periodic", 0),
                                         ("qsh", "port"), ("qsh", 6)])
def test_a_perturbed_column_fails_the_check(name, block, tile, monkeypatch):
    # The end blocks, the port block, block 0 of a folded ring (slices -4
    # and 4), and the port block and last block of the second sector of
    # two-sector qsh; the check in one tile, or in tiles of one block and
    # their halos.
    if tile == "one block":
        monkeypatch.setattr(scattering, "_TILE_BYTES", 1)
    H = LATTICES[name]
    rows, grid = edge_rows(H), np.array([-1.2, 0.3])
    engine = Resolvent(H, DecaySpec.uniform(GAMMA))
    sector = engine.sectors - 1
    engine.transmitted_power(grid, rows)
    assert engine.worst_residual <= 1e-14
    if block == "port":
        block = int(engine._block_of[rows[0]])
    _perturbed_columns(monkeypatch, block, sector)
    for call in (lambda: Resolvent(H, DecaySpec.uniform(GAMMA)).transmitted_power(grid, rows),
                 lambda: Resolvent(H, DecaySpec.uniform(GAMMA)).solve(0.3, rows)):
        with pytest.raises(RuntimeError, match="residual .* in trial 0 "):
            call()


def test_trials_per_chunk_follow_the_widest_sector():
    # qsh sweeps sectors of 12 sites per slice, not the 24 of a slice, and
    # trials grouped by that count fill one engine chunk.
    H = build_qsh(LatticeSpec(12, -50, 50, 2), 0.0, 0.6)
    rows = [flat_index(H.spec, SiteIndex(j, 0, s)) for j in range(12) for s in range(2)]
    trial = 3 * (H.rows.nbytes + H.cols.nbytes + H.values.nbytes)
    group = scattering._trials_per_chunk(H, len(rows), 1)
    assert group == scattering._CHUNK_BYTES // (scattering._row_bytes(101, 12, 24) + trial)
    assert group > scattering._CHUNK_BYTES // (scattering._row_bytes(101, 24, 24) + trial)
    engine = Resolvent([H] * group, DecaySpec.uniform(GAMMA))
    engine.transmitted_power(np.array([-1.6]), rows)
    assert (engine.sectors, engine.block_size) == (2, 12)
    assert (engine.chunks, engine.omega_chunk) == (1, group)


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


def test_desk_spectrum_memory_holds_one_work_array_per_chunk(caplog):
    # 10 x 101 sites, 400 frequencies, 10 ports: the dense-block engine took
    # 11.7 MB, and with the columns gathered beside the work array 7.6 MB
    # in chunks of 14 rows.
    spec = LatticeSpec(n_x=10, l_min=-50, l_max=50)
    inputs = [SiteIndex(j, 0, 0) for j in range(spec.n_x)]
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        peak = _traced_peak_mb(lambda: total_transmission_spectrum(
            build_landau_hofstadter(spec, 1.0 / 6.0), DecaySpec.uniform(0.1), inputs,
            default_omega_grid()))
    assert peak <= 7.6
    record, = [r for r in caplog.records if r.name == "oamphoton"]
    assert record.omega_chunk >= 28


# ------------------------------------------------------------------ mirror

def _graded_oam_hops(H):
    """``H`` with each OAM hop scaled by ``1 + 0.3 m^2`` at its midpoint
    ``m``: couplings that change along the OAM axis, symmetric about 0."""
    cavity = H.spec.n_l * H.spec.spin_dim
    hop = (H.rows // cavity == H.cols // cavity) & (H.rows != H.cols)
    m = (l_of_index(H.spec)[H.rows] + l_of_index(H.spec)[H.cols]) / 2
    return HamiltonianMatrix.from_entries(H.spec, H.rows, H.cols,
                                          np.where(hop, H.values * (1 + 0.3 * m**2), H.values))


def _mirror_lattices():
    symmetric = build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-3, l_max=3), 1.0 / 6.0)
    return {
        "landau-symmetric": symmetric,
        "landau-graded-hops": _graded_oam_hops(symmetric),
        "landau-asymmetric": build_landau_hofstadter(LatticeSpec(n_x=4, l_min=-2, l_max=6),
                                                     2.0 / 7.0),
        "oam-gauge-symmetric": build_oam_gauge_hofstadter(
            LatticeSpec(n_x=4, l_min=-4, l_max=4), 2.0 / 7.0),
        "dirac": build_dirac(LatticeSpec(n_x=3, l_min=-3, l_max=3, spin_dim=2), 1.0 / 6.0),
        # A folded even ring: block k holds slices k and n_l - 1 - k.
        "landau-even-ring": build_landau_hofstadter(
            LatticeSpec(n_x=4, l_min=-4, l_max=3, bc_y=Boundary.PERIODIC), 1.0 / 4.0),
    }


MIRROR_LATTICES = _mirror_lattices()


def _block_rows(engine, k):
    """Flat indices of the sites on sweep block ``k``, by their position."""
    rows = np.flatnonzero(engine._block_of == k)
    return rows[np.argsort(engine._pos_of[rows])]


def _mirror_ports(engine):
    """Ports on the middle block, one port past it, and ports on three blocks."""
    centre = (engine.slices - 1) // 2
    return {
        "centred": _block_rows(engine, centre),
        "off-centre": _block_rows(engine, centre + 1)[:1],
        "several blocks": np.concatenate([_block_rows(engine, 1)[:1],
                                          _block_rows(engine, centre)[-1:],
                                          _block_rows(engine, centre - 1)[1:2]]),
    }


@pytest.mark.parametrize("name", sorted(MIRROR_LATTICES) + ["model-A trials"])
def test_mirrored_engine_matches_dense_columns(name):
    if name == "model-A trials":
        model = DisorderModel.cavity_detuning(0.3)
        Hs = [sample_disordered_hamiltonian(MIRROR_LATTICES["landau-symmetric"], model, seed)
              for seed in range(3)]
    else:
        Hs = [MIRROR_LATTICES[name]]
    decay = DecaySpec.uniform(GAMMA)
    engine = Resolvent(Hs, decay)
    assert engine.mirrored, engine.mirror_reason
    grid = np.array([-1.7, 0.4])
    for label, rows in _mirror_ports(engine).items():
        (_, x), = engine.columns(grid, rows)
        for t, h in enumerate(Hs):
            for i, omega in enumerate(grid):
                ref = dense_columns(h, decay, omega, rows)
                np.testing.assert_allclose(x[:, t * grid.size + i], ref, rtol=0,
                                           atol=1e-12 * np.abs(ref).max(), err_msg=label)
    assert 0.0 <= engine.worst_residual <= 1e-10


@pytest.mark.parametrize("name", sorted(MIRROR_LATTICES))
def test_mirrored_resolvent_obeys_the_mirror_identity(name):
    # J M J = M^T gives G[J c, J r] = G[r, c], J reversing the sweep blocks.
    engine = Resolvent(MIRROR_LATTICES[name], DecaySpec.uniform(GAMMA))
    n = engine.slices
    # Ports off the end blocks, so that the engine mirrors a step.
    blocks = sorted({k for k in (1, (n - 1) // 2) for k in (k, n - 1 - k)})
    rows = np.concatenate([_block_rows(engine, k) for k in blocks])
    image = np.concatenate([_block_rows(engine, n - 1 - k) for k in blocks])
    port = {int(r): a for a, r in enumerate(rows)}
    J = np.array([port[int(r)] for r in image])  # port J[a] is the image of port a
    G = engine.solve(0.7, rows)[rows]  # G[a, b] = G[rows[a], rows[b]]
    np.testing.assert_allclose(G[np.ix_(J, J)], G.T, rtol=0, atol=1e-13 * np.abs(G).max())


def _zero_hop_cavity(H, j=1):
    """``H`` without the OAM hops of cavity ``j``: mirror-symmetric, with a
    zero in every coupling block."""
    cavity = H.spec.n_l * H.spec.spin_dim
    hop = (H.rows // cavity == j) & (H.cols // cavity == j) & (H.rows != H.cols)
    return HamiltonianMatrix.from_entries(H.spec, H.rows[~hop], H.cols[~hop], H.values[~hop])


def _named_entry(engine):
    """The sites ``(a, b)`` of the entry ``H[a, b]`` that a one-sector
    engine's ``mirror_reason`` names, and whether it is a coupling."""
    a, b = map(int, re.search(r"H\[(\d+), (\d+)\]", engine.mirror_reason).groups())
    return a, b, engine._block_of[a] != engine._block_of[b]


def _unmatched(engine, Hs, a, b):
    """Whether ``H[a, b]`` equals neither its mirror image ``H[Jb, Ja]`` nor
    its negative with one sign in every trial (``J`` keeps a site's
    position and reverses the blocks; a pad's image entry is 0)."""
    blocks = engine._layout(0).blocks
    ja, jb = (blocks[engine.slices - 1 - engine._block_of[x], engine._pos_of[x]]
              for x in (a, b))
    pairs = [(h.toarray()[a, b], h.toarray()[jb, ja] if min(ja, jb) >= 0 else 0.0)
             for h in Hs]
    return not any(all(v == sign * w for v, w in pairs) for sign in (1, -1))


def test_mirror_needs_symmetric_slice_blocks_and_invertible_couplings():
    H = MIRROR_LATTICES["landau-symmetric"]
    decay = DecaySpec.uniform(GAMMA)
    shifted = Resolvent(build_oam_gauge_hofstadter(LatticeSpec(n_x=4, l_min=-2, l_max=4),
                                                   2.0 / 7.0), decay)
    assert not shifted.mirrored
    # The reason names an entry of a slice block D_k that is not +- its image.
    a, b, coupling = _named_entry(shifted)
    assert "is not +- its mirror image" in shifted.mirror_reason
    assert not coupling and _unmatched(shifted, shifted._Hs, a, b)
    # A Hermitian pair on the first slice whose image on the last is empty.
    a, b = (flat_index(H.spec, SiteIndex(j, -3, 0)) for j in (0, 2))
    unpaired = HamiltonianMatrix.from_entries(H.spec, np.r_[H.rows, a, b],
                                              np.r_[H.cols, b, a], np.r_[H.values, 0.3, 0.3])
    engine = Resolvent(unpaired, decay)
    assert not engine.mirrored
    assert engine.mirror_reason == f"not mirrored: H[{a}, {b}] is not +- its mirror image"
    singular = Resolvent(_zero_hop_cavity(H), decay)
    assert not singular.mirrored
    assert "singular" in singular.mirror_reason
    # Both take the unmirrored steps and stay exact.
    for engine, h in ((shifted, shifted._Hs[0]), (singular, _zero_hop_cavity(H))):
        rows = _mirror_ports(engine)["centred"]
        ref = dense_columns(h, decay, 0.3, rows)
        np.testing.assert_allclose(engine.solve(0.3, rows), ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.fixture
def solve_shapes(monkeypatch):
    """The matrix stack of every ``np.linalg.solve`` call."""
    solve, shapes = np.linalg.solve, []

    def recorded(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    return shapes


def test_centred_mirrored_ports_factorize_one_block_per_step(solve_shapes):
    engine = Resolvent(MIRROR_LATTICES["landau-symmetric"], DecaySpec.uniform(GAMMA))
    grid = np.array([-1.2, 0.1, 2.0])
    engine.transmitted_power(grid, _mirror_ports(engine)["centred"])
    # Seven slices, ports on the middle one: three steps each factorize
    # their left block alone, then the port block.
    b, w = engine.block_size, grid.size
    assert solve_shapes == [(1, 1, w, b, b)] * 3 + [(1, w, b, b)]
    assert engine.block_factorizations == 4 * w


def _unmirrored_case(name):
    """``(Hamiltonians, decay, ports, why the mirror fails)``: the pads, the
    decay rates, or a coupling that is not +- its mirror image."""
    H = MIRROR_LATTICES["landau-symmetric"]
    centred = _mirror_ports(Resolvent(H, DecaySpec.uniform(GAMMA)))["centred"]
    if name == "per-mode rates":
        return H, per_mode(H), centred, "decay rates"
    if name.startswith("model B"):
        # Model B: per-OAM-link coupling and loss errors; its couplings
        # alone, under uniform loss, fail at a coupling entry.
        model = DisorderModel.oam_link_errors(sigma_mag=0.05, sigma_loss=0.02, width=2.0)
        Hs = [sample_disordered_hamiltonian(H, model, seed) for seed in range(3)]
        if name == "model B couplings":
            return Hs, DecaySpec.uniform(GAMMA), centred, "coupling"
        return (Hs, [loss_perturbed_decay(GAMMA, H.spec, model, seed) for seed in range(3)],
                centred, "decay rates")
    if name == "qsh":
        # qsh mirrors with S = (-1)^s under uniform loss, so it takes
        # per-mode rates; its ports on the middle slice, all in the sector
        # of (j + s) even.
        qsh = LATTICES["qsh"]
        rows = [flat_index(qsh.spec, SiteIndex(j, 0, j % 2)) for j in range(qsh.spec.n_x)]
        return qsh, per_mode(qsh), rows, "decay rates"
    # Nine OAM slices on a ring fold into five blocks; OAM -2 lies on block 2.
    # The middle slice fills half of the last block, whose image is block 0.
    ring = LATTICES["scalar-periodic"]
    return (ring, DecaySpec.uniform(GAMMA),
            [flat_index(ring.spec, SiteIndex(j, -2, 0)) for j in range(4)], "pad sites")


@pytest.mark.parametrize("name", ["per-mode rates", "model B", "model B couplings", "qsh",
                                  "odd ring"])
def test_unmirrored_inputs_keep_both_sweeps(name, solve_shapes):
    Hs, decay, rows, why = _unmirrored_case(name)
    engine = Resolvent(Hs, decay)
    assert not engine.mirrored
    if why == "coupling":
        a, b, coupling = _named_entry(engine)
        assert "is not +- its mirror image" in engine.mirror_reason
        assert coupling and _unmatched(engine, engine._Hs, a, b)
    else:
        assert f"not mirrored: the {why}" in engine.mirror_reason
    grid = np.array([-1.2, 0.1])
    engine.transmitted_power(grid, rows)
    # Ports on the middle block: each step factorizes both sides' blocks.
    b, w, t, steps = engine.block_size, grid.size, engine.trials, (engine.slices - 1) // 2
    assert solve_shapes == [(2, t, w, b, b)] * steps + [(t, w, b, b)]
    assert engine.block_factorizations == (2 * steps + 1) * t * w


def test_mirrored_left_sweep_is_bitwise_the_unmirrored_one(monkeypatch):
    H = MIRROR_LATTICES["dirac"]
    grid = np.array([-0.8, 1.3])
    solve, results = np.linalg.solve, []

    def recorded(a, b):
        x = solve(a, b)
        if x.ndim == 5:  # a sweep step: (sides, trials, frequencies, b, columns)
            results[-1].append(x)
        return x

    monkeypatch.setattr(np.linalg, "solve", recorded)
    columns = []
    for mirrored in (True, False):
        engine = Resolvent(H, DecaySpec.uniform(GAMMA))
        assert engine.mirrored
        for g in range(engine.sectors):
            engine._layout(g).mirrored = mirrored
        results.append([])
        # Ports on several blocks, the middle one last in both of dirac's
        # sectors, so that every sweep step has a left block.
        ports = _mirror_ports(engine)
        rows = np.union1d(ports["several blocks"], ports["centred"])
        assert np.unique(engine._sector[rows]).size == 2
        (_, x), = engine.columns(grid, rows)
        columns.append(x)
    mirrored, unmirrored = results
    # Every sweep solve, in each sector, agrees on the left side.
    assert len(mirrored) == len(unmirrored) == 6
    for left, both in zip(mirrored, unmirrored):
        np.testing.assert_array_equal(left[0], both[0])
    np.testing.assert_allclose(columns[0], columns[1], rtol=0,
                               atol=1e-13 * np.abs(columns[1]).max())


def _assert_signature(engine, parity):
    """Every sector mirrors with a derived ``S = +-(-1)^parity`` on its
    sites, one sign per sector."""
    assert engine.mirrored
    for g in range(engine.sectors):
        layout = engine._layout(g)
        real = layout.blocks >= 0
        expected = 1 - 2 * (parity[layout.blocks[real]] % 2)
        assert layout.signature == f"S = -1 on {np.count_nonzero(layout.sign < 0)} of " \
                                   f"{layout.size} sites"
        assert (np.array_equal(layout.sign[real], expected)
                or np.array_equal(layout.sign[real], -expected))


def _polarization(H):
    return np.arange(H.dim) % H.spec.spin_dim


def test_engine_record_reports_the_mirror(caplog):
    desk = build_landau_hofstadter(LatticeSpec(n_x=10, l_min=-50, l_max=50), 1.0 / 6.0)
    grid = np.array([-2.0, 0.3, 1.1])
    inputs = [SiteIndex(j, 0, 0) for j in range(10)]
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        total_transmission_spectrum(desk, DecaySpec.uniform(0.1), inputs, grid)
        total_transmission_spectrum(desk, per_mode(desk), inputs, grid)
        total_transmission_spectrum(LATTICES["qsh"], DecaySpec.uniform(GAMMA),
                                    [SiteIndex(0, 0, 0)], grid)
    records = [r for r in caplog.records if r.name == "oamphoton"]
    # 101 slices, ports on the middle one: 50 steps and the port block,
    # one block per step when mirrored and two otherwise.  qsh mirrors its
    # sector with the polarization signature: 3 steps and the port block.
    assert [r.mirrored for r in records] == [True, False, True]
    assert [r.block_factorizations for r in records] == [51 * 3, 101 * 3, 4 * 3]
    qsh = Resolvent(LATTICES["qsh"], DecaySpec.uniform(GAMMA))
    _assert_signature(qsh, _polarization(LATTICES["qsh"]))
    swept = qsh._layout(int(qsh._sector[flat_index(qsh._Hs[0].spec, SiteIndex(0, 0, 0))]))
    assert [r.signature for r in records] == ["S = 1", "none", swept.signature]
    assert "mirrored: J M J = M^T" in records[0].solver_reason
    assert "not mirrored: the decay rates" in records[1].solver_reason
    assert (f"mirrored: (J S) M (J S) = M^T with {swept.signature}"
            in records[2].solver_reason)
    for r in records:
        assert f"of {r.block_factorizations} slice block(s)" in r.getMessage()


@pytest.mark.parametrize("bc_y", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("window, factorizations", [((3, -3, 4), (10, 6)),
                                                    ((10, -50, 49), (102, 52))])
def test_dirac_on_an_even_number_of_blocks_mirrors_with_the_cavity_parity(
        bc_y, window, factorizations):
    # Neither S = 1 nor S = (-1)^s fits a dirac sector of an even window;
    # the derived signature is the cavity parity, S = +-(-1)^j.
    H = build_dirac(LatticeSpec(*window, spin_dim=2, bc_y=bc_y), 1.0 / 6.0)
    decay = DecaySpec.uniform(GAMMA)
    engine = Resolvent(H, decay)
    _assert_signature(engine, np.arange(H.dim) // (H.spec.n_l * H.spec.spin_dim))
    rows = _mirror_ports(engine)["centred"]
    x = engine.solve(0.3, rows)
    # Ports on the middle block: each step factorizes its left block alone.
    assert engine.block_factorizations == factorizations[bc_y is Boundary.PERIODIC]
    A = 0.3 * np.eye(H.dim) - H.toarray() + 0.5j * GAMMA * np.eye(H.dim)
    ref = scipy.linalg.solve(A, np.eye(H.dim)[:, rows])
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _frustrated():
    """``landau-symmetric`` with the Hermitian pair of one cavity hop on
    slice l = -2 negated, and that hop's sites: every entry stays +- its
    image, but the plaquettes through the hop hold one negated relation
    each, so no signature exists."""
    H = MIRROR_LATTICES["landau-symmetric"]
    a, b = (flat_index(H.spec, SiteIndex(j, -2, 0)) for j in (1, 2))
    pair = ((H.rows == a) & (H.cols == b)) | ((H.rows == b) & (H.cols == a))
    return HamiltonianMatrix.from_entries(H.spec, H.rows, H.cols,
                                          np.where(pair, -H.values, H.values)), a, b


def test_a_frustrated_mirror_is_refused_by_name():
    frustrated, a, b = _frustrated()
    decay = DecaySpec.uniform(GAMMA)
    engine = Resolvent(frustrated, decay)
    assert not engine.mirrored
    assert engine.mirror_reason.startswith("not mirrored: no signature fits every entry")
    # The signature derived along the OAM hops from slice -3 breaks the
    # negated pair itself.
    assert _named_entry(engine)[:2] == (a, b)
    rows = _mirror_ports(engine)["centred"]
    ref = dense_columns(frustrated, decay, 0.3, rows)
    np.testing.assert_allclose(engine.solve(0.3, rows), ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())


def test_bipartite_odd_dirac_ring_solves_one_of_each_omega_pair(caplog):
    # Every dirac hop flips the polarization, so C = (-1)^s gives C H C = -H
    # on an odd ring, where (-1)^(j+l) does not.  An on-site entry breaks it.
    H = LATTICES["dirac"]
    onsite = HamiltonianMatrix.from_entries(H.spec, np.r_[H.rows, 5], np.r_[H.cols, 5],
                                            np.r_[H.values, 0.3])
    inputs = [SiteIndex(0, 0, 1), SiteIndex(2, -2, 0)]
    rows = [flat_index(H.spec, s) for s in inputs]
    grid = np.linspace(-3.0, 3.0, 12)
    for h, computed in ((H, 6), (onsite, 12)):
        decay = per_mode(h)
        with caplog.at_level(logging.DEBUG, logger="oamphoton"):
            power = total_transmission_spectrum(h, decay, inputs, grid)
        record = [r for r in caplog.records if r.name == "oamphoton"][-1]
        full = Resolvent(h, decay).transmitted_power(grid, rows)
        np.testing.assert_allclose(power, full, rtol=0, atol=1e-13 * full.max())
        assert record.factorizations == computed
    assert "omega mirror: H is chiral" in caplog.records[0].solver_reason
    assert ("no omega mirror: H joins two sites of one sublattice in every bipartition"
            in record.solver_reason)


def _signature_cases():
    """Every lattice of this file whose engine decides a mirror signature."""
    cases = {f"mirror {name}": H for name, H in MIRROR_LATTICES.items()}
    cases.update({f"sector {name}": H for name, H in _sector_lattices().items()})
    cases.update({f"lattice {name}": H for name, H in LATTICES.items()})
    cases["qsh q12"] = build_qsh(LatticeSpec(12, -50, 50, 2), 0.0, 0.6)
    for bc_y in (Boundary.OPEN, Boundary.PERIODIC):
        for window in ((3, -3, 4), (10, -50, 49)):
            cases[f"dirac {window} {bc_y.value}"] = build_dirac(
                LatticeSpec(*window, spin_dim=2, bc_y=bc_y), 1.0 / 6.0)
    cases["frustrated"] = _frustrated()[0]
    return cases


def _signatures(H):
    """Per sector: the signature's name (why there is none, if so), and a
    digest of the places where it is -1 (None for S = 1 or none)."""
    engine = Resolvent(H, DecaySpec.uniform(GAMMA))
    found = []
    for layout in engine._all_layouts():
        minus = None if layout.sign is None else np.flatnonzero(layout.sign.ravel() < 0)
        found.append((layout.signature or layout.mirror_reason, None if minus is None else
                      hashlib.sha256(str(minus.tolist()).encode()).hexdigest()[:16]))
    return found


#: ``_signatures`` of each case as the pass over every entry and its image
#: derived them, before each relation went in once each way.
SIGNATURES = {
    'mirror landau-symmetric': [('S = 1', None)],
    'mirror landau-graded-hops': [('S = 1', None)],
    'mirror landau-asymmetric': [('S = 1', None)],
    'mirror oam-gauge-symmetric': [('S = 1', None)],
    'mirror dirac': [('S = 1', None), ('S = 1', None)],
    'mirror landau-even-ring': [('S = 1', None)],
    'sector qsh': [
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
    ],
    'sector qsh beta0 0': [
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
    ],
    'sector qsh even ring': [
        ('S = -1 on 16 of 32 sites', '4bef3a0ea4d4b803'),
        ('S = -1 on 16 of 32 sites', '4bef3a0ea4d4b803'),
    ],
    'sector dirac': [('S = 1', None), ('S = 1', None)],
    'sector dirac even ring': [
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
    ],
    'lattice scalar-open': [('S = 1', None)],
    'lattice scalar-periodic': [('not mirrored: the pad sites are not mirror images', None)],
    'lattice qsh': [
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
        ('S = -1 on 14 of 28 sites', 'e2bb20ac0f24107f'),
    ],
    'lattice dirac': [('not mirrored: the pad sites are not mirror images', None)],
    'qsh q12': [
        ('S = -1 on 606 of 1212 sites', '9ce1f092be25b678'),
        ('S = -1 on 606 of 1212 sites', '9ce1f092be25b678'),
    ],
    'dirac (3, -3, 4) open': [
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
    ],
    'dirac (10, -50, 49) open': [
        ('S = -1 on 500 of 1000 sites', 'f8976dbadc6802e6'),
        ('S = -1 on 500 of 1000 sites', 'f8976dbadc6802e6'),
    ],
    'dirac (3, -3, 4) periodic': [
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
        ('S = -1 on 8 of 24 sites', '3455ca7842a5e852'),
    ],
    'dirac (10, -50, 49) periodic': [
        ('S = -1 on 500 of 1000 sites', 'f8976dbadc6802e6'),
        ('S = -1 on 500 of 1000 sites', 'f8976dbadc6802e6'),
    ],
    'frustrated': [
        ("not mirrored: no signature fits every entry (some cycle holds an odd number "
         "of negated mirror images; H[8, 15] breaks the one derived)", None),
    ],
}


def test_signatures_equal_those_of_the_pass_over_every_entry():
    assert {name: _signatures(H) for name, H in _signature_cases().items()} == SIGNATURES


def test_each_mirror_relation_goes_in_once_each_way(monkeypatch):
    # An entry and its image H[Jc, Jr] give one relation the other way
    # round, and so do their transposes.  On the middle block an entry's
    # image is its transpose, so its entries go in as they are: the q12
    # sector passes (5834 + 34) / 2 relations, not 5834.
    counts = []
    signing = scattering._signing

    def counted(dim, rows, cols, negative=False):
        if isinstance(negative, np.ndarray):
            counts.append(rows.size)
        return signing(dim, rows, cols, negative)

    monkeypatch.setattr(scattering, "_signing", counted)
    H = build_qsh(LatticeSpec(12, -50, 50, 2), 0.0, 0.6)
    engine = Resolvent(H, DecaySpec.uniform(GAMMA))
    assert all(engine._layout(g).mirrored for g in range(engine.sectors))
    entries, middle = (
        [np.count_nonzero(inside & (engine._sector[H.rows] == g)) for g in range(engine.sectors)]
        for inside in (True, (engine._block_of[H.rows] == engine.slices // 2)
                       & (engine._block_of[H.cols] == engine.slices // 2)))
    assert entries == [5834, 5834] and middle == [34, 34]
    assert counts == [2934, 2934]


# ----------------------------------------------------------------- sectors

def _sector_lattices():
    qsh = LatticeSpec(n_x=4, l_min=-3, l_max=3, spin_dim=2)
    dirac = LatticeSpec(n_x=3, l_min=-3, l_max=3, spin_dim=2)
    # Folded even rings: block k holds slices k and n_l - 1 - k.
    qsh_ring = LatticeSpec(n_x=4, l_min=-4, l_max=3, spin_dim=2, bc_y=Boundary.PERIODIC)
    dirac_ring = LatticeSpec(n_x=3, l_min=-3, l_max=4, spin_dim=2, bc_y=Boundary.PERIODIC)
    return {
        "qsh": build_qsh(qsh, 0.05, 0.6),
        "qsh beta0 0": build_qsh(qsh, 0.0, 0.6),
        "qsh even ring": build_qsh(qsh_ring, 0.05, 0.6),
        "dirac": build_dirac(dirac, 1.0 / 6.0),
        "dirac even ring": build_dirac(dirac_ring, 1.0 / 6.0),
    }


SECTOR_LATTICES = _sector_lattices()


def _sector_ports(engine, which):
    """Ports on the middle block and the one below it, in sector 0, in
    sector 1 or in both."""
    centre = (engine.slices - 1) // 2
    rows = np.concatenate([_block_rows(engine, k) for k in (centre - 1, centre)])
    return rows if which == "both" else rows[engine._sector[rows] == int(which[-1])]


def _assert_sector_columns(engine, Hs, decays, grid, rows):
    """The columns of every trial match dense solves, and are exactly 0
    on every site outside their port's sector."""
    (_, x), = engine.columns(grid, rows)
    for t, (h, decay) in enumerate(zip(Hs, decays)):
        for i, omega in enumerate(grid):
            ref = dense_columns(h, decay, omega, rows)
            np.testing.assert_allclose(x[:, t * grid.size + i], ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())
    unreached = engine._sector[:, None] != engine._sector[rows]
    assert unreached.any()
    assert np.all(x.transpose(1, 0, 2)[:, unreached] == 0)


@pytest.mark.parametrize("name", sorted(SECTOR_LATTICES))
@pytest.mark.parametrize("ports", ["sector 0", "sector 1", "both"])
def test_sector_columns_match_dense_columns(name, ports):
    H = SECTOR_LATTICES[name]
    decay = DecaySpec.uniform(GAMMA)
    engine = Resolvent(H, decay)
    # Two sectors of equal size, each holding half of every block.
    assert engine.sectors == 2
    assert np.bincount(engine._sector).tolist() == [H.dim // 2] * 2
    assert engine.block_size == H.spec.n_x * H.spec.spin_dim * (
        2 if "ring" in name else 1) // 2
    if name.startswith("qsh"):
        _assert_signature(engine, _polarization(H))
    elif name == "dirac even ring":  # S = (-1)^j, the cavity parity
        _assert_signature(engine, np.arange(H.dim) // (H.spec.n_l * H.spec.spin_dim))
    else:  # an odd number of blocks
        assert engine.mirrored and engine.mirror_reason.startswith("mirrored: J M J = M^T")
    _assert_sector_columns(engine, [H], [decay], np.array([-1.7, 0.4]),
                           _sector_ports(engine, ports))


def test_sectors_on_a_monte_carlo_trial_stack():
    # Model B: per-OAM-link coupling errors and per-mode loss errors.
    H = SECTOR_LATTICES["qsh"]
    model = DisorderModel.oam_link_errors(sigma_mag=0.05, sigma_loss=0.02, width=2.0)
    Hs = [sample_disordered_hamiltonian(H, model, seed) for seed in range(3)]
    decays = [loss_perturbed_decay(GAMMA, H.spec, model, seed) for seed in range(3)]
    engine = Resolvent(Hs, decays)
    assert engine.sectors == 2 and not engine.mirrored
    _assert_sector_columns(engine, Hs, decays, np.array([-1.6, 0.3]),
                           _sector_ports(engine, "both"))


def test_engine_record_reports_its_sectors(caplog):
    decay = DecaySpec.uniform(GAMMA)
    q12 = build_qsh(LatticeSpec(n_x=12, l_min=-50, l_max=50, spin_dim=2), 0.0, 0.6)
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        transmission_map(LATTICES["scalar-open"], decay, -2.2, SiteIndex(0, 0, 0))
        transmission_map(q12, decay, -1.6, SiteIndex(0, 0, 1))
        displacement_spectrum(LATTICES["qsh"], decay, np.array([-1.6]),
                              EdgeRegion(Side.LEFT, 1))
    records = [r for r in caplog.records if r.name == "oamphoton"]
    assert [r.sectors for r in records] == [1, 2, 2]
    assert [r.sectors_swept for r in records] == [1, 1, 2]
    assert [(r.sites_solved, r.dim) for r in records] == [(28, 28), (1212, 2424), (56, 56)]
    # The qsh sectors mirror with S = +-(-1)^s, 606 of q12's 1212 sites at -1.
    assert [r.signature for r in records] == [
        "S = 1", "S = -1 on 606 of 1212 sites", "S = -1 on 14 of 28 sites"]
    _assert_signature(Resolvent(q12, decay), _polarization(q12))
    _assert_signature(Resolvent(LATTICES["qsh"], decay), _polarization(LATTICES["qsh"]))
    # The q12x101 map: 51 blocks of width 12 per frequency, not 101 of 24.
    assert (records[1].block_factorizations, records[1].block_size) == (51, 12)
    for r in records:
        assert (f"{r.sectors_swept} of {r.sectors} sector(s) swept, {r.sites_solved} "
                f"of {r.dim} sites solved, signature {r.signature}") in r.solver_reason
