"""Randomized differential tests of the resolvent engine on small lattices.

Hypothesis draws lattices of up to 6 cavities and OAM windows of up to 20
values, scalar or spinful, open or periodic on either axis, with random
Jones axes, uniform or per-mode loss, sometimes a coupling that skips OAM
slices, and ports on several slices.  The engine must reproduce the dense
``scipy.linalg.solve`` oracle, scalar lattices must be reciprocal,
bipartite zero-flux lattices must have a total spectrum symmetric under
``omega -> -omega``, on commensurate tori the Landau and OAM gauges must
give the same ``|T|``, and a mirror signature put in by a diagonal gauge
must come back out of the engine.  The diagonal path's total power must
equal the weighted column path's and the dense oracle's within the bounds
each gives on ``G``, over the same lattices plus ``qsh`` and ``dirac``
sectors and Monte Carlo trial stacks, and a wrong signature, a wrong sector,
a dropped coupling or a ``D_k`` entry the shared ``A_k`` builder leaves out
must break that agreement; the column check must catch that last one.
``derandomize=True`` and fixed example counts keep the runs identical and
short.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oamphoton import scattering
from oamphoton.disorder import DisorderModel, sample_disordered_hamiltonian
from oamphoton.hamiltonians import (
    GaugeConfig,
    HamiltonianMatrix,
    SpinAxis,
    build_dirac,
    build_landau_hofstadter,
    build_non_abelian,
    build_oam_gauge_hofstadter,
    build_qsh,
)
from oamphoton.lattice import (
    Boundary, LatticeSpec, SiteIndex, column_of_index, flat_index, l_of_index,
)
from oamphoton.scattering import DecaySpec, Resolvent, total_transmission_spectrum

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

#: Window lengths: 1 and 2, odd and even, up to 20.
WINDOWS = (1, 2, 3, 4, 5, 8, 13, 20)


@st.composite
def lattices(draw, spin_dims=(1, 2)):
    spin_dim = draw(st.sampled_from(spin_dims))
    n_l = draw(st.sampled_from(WINDOWS))
    l_min = draw(st.integers(-n_l + 1, 0))
    spec = LatticeSpec(
        n_x=draw(st.integers(1, 6)), l_min=l_min, l_max=l_min + n_l - 1,
        spin_dim=spin_dim,
        bc_x=draw(st.sampled_from(Boundary)), bc_y=draw(st.sampled_from(Boundary)),
    )
    return spec


def unit_axis(draw):
    vec = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(vec)
    return SpinAxis(tuple(vec / norm) if norm > 1e-3 else (0.0, 0.0, 1.0))


def per_cavity(draw, n_x, bound):
    values = draw(st.lists(st.floats(-bound, bound), min_size=n_x, max_size=n_x))
    return dict(enumerate(values))


@st.composite
def hamiltonians(draw):
    spec = draw(lattices())
    if spec.spin_dim == 1:
        builder = draw(st.sampled_from([build_landau_hofstadter, build_oam_gauge_hofstadter]))
        H = builder(spec, draw(st.floats(-0.5, 0.5)))
    else:
        config = GaugeConfig(
            phi_x=draw(st.floats(-0.5, 0.5)), alpha=draw(st.floats(-0.5, 0.5)),
            axis1=unit_axis(draw), axis2=unit_axis(draw),
            phi_y=per_cavity(draw, spec.n_x, 0.5), beta=per_cavity(draw, spec.n_x, 0.5),
            onsite=per_cavity(draw, spec.n_x, 1.0),
        )
        H = build_non_abelian(spec, config)
    data = H.toarray().copy()
    if draw(st.booleans()) and spec.dim > 1:
        # A Hermitian pair of entries anywhere: it may skip OAM slices.
        i, j = draw(st.lists(st.integers(0, spec.dim - 1), min_size=2, max_size=2,
                             unique=True))
        data[i, j] += 0.4 + 0.3j
        data[j, i] += 0.4 - 0.3j
    rows, cols = np.nonzero(data)
    return HamiltonianMatrix.from_entries(spec, rows, cols, data[rows, cols])


def decays(draw, dim):
    if draw(st.booleans()):
        return DecaySpec(gamma=draw(st.floats(0.05, 1.0)))
    rates = draw(st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim))
    return DecaySpec.per_mode(np.array(rates))


def dense_columns(H, decay, omega, rows):
    A = omega * np.eye(H.dim) - H.toarray() + 0.5j * np.diag(decay.rate_vector(H.dim))
    rhs = np.zeros((H.dim, len(rows)), dtype=complex)
    rhs[rows, np.arange(len(rows))] = 1.0
    return scipy.linalg.solve(A, rhs)


def layouts(engine):
    """Every sector's layout, each built on first use."""
    return [engine._layout(g) for g in range(engine.sectors)]


@SETTINGS
@given(data=st.data())
def test_engine_matches_dense_oracle(data):
    H = data.draw(hamiltonians())
    decay = decays(data.draw, H.dim)
    rows = data.draw(st.lists(st.integers(0, H.dim - 1), min_size=1, max_size=4))
    omegas = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3)))
    engine = Resolvent(H, decay)
    for part, x in engine.columns(omegas, rows):
        for i, omega in enumerate(omegas[part]):
            ref = dense_columns(H, decay, omega, rows)
            np.testing.assert_allclose(x[:, i], ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())
    assert engine.record.factorizations == omegas.size
    assert 0.0 <= engine.record.worst_residual <= 1e-10


@SETTINGS
@given(data=st.data())
def test_scalar_lattices_are_reciprocal(data):
    """``H(phi)^T = H(-phi)``, so ``T_{n'n}(phi) = T_{nn'}(-phi)``."""
    spec = data.draw(lattices(spin_dims=(1,)))
    builder = data.draw(st.sampled_from([build_landau_hofstadter,
                                         build_oam_gauge_hofstadter]))
    phi = data.draw(st.floats(-0.5, 0.5))
    decay = decays(data.draw, spec.dim)
    omega = data.draw(st.floats(-5.0, 5.0))
    every = range(spec.dim)
    forward = Resolvent(builder(spec, phi), decay).transmission(omega, every)
    backward = Resolvent(builder(spec, -phi), decay).transmission(omega, every)
    np.testing.assert_allclose(forward, backward.T, rtol=0,
                               atol=1e-12 * np.abs(forward).max())


@SETTINGS
@given(data=st.data())
def test_bipartite_zero_flux_spectrum_is_mirror_symmetric(data):
    """Chiral symmetry ``S H S = -H`` with ``S = (-1)^(j+l)`` gives
    ``G(-omega) = -S G(omega)^dagger S``; ``H`` is real, so ``G`` is
    symmetric and the total power is even in ``omega``."""
    spec = data.draw(lattices(spin_dims=(1,)))
    for name, length in (("bc_x", spec.n_x), ("bc_y", spec.n_l)):
        if length % 2:  # an odd ring is not bipartite
            spec = dataclasses.replace(spec, **{name: Boundary.OPEN})
    builder = data.draw(st.sampled_from([build_landau_hofstadter,
                                         build_oam_gauge_hofstadter]))
    H = builder(spec, 0.0)
    decay = decays(data.draw, spec.dim)
    inputs = [SiteIndex(j, l) for j, l in data.draw(st.lists(
        st.tuples(st.integers(0, spec.n_x - 1),
                  st.integers(spec.l_min, spec.l_max)), min_size=1, max_size=3))]
    omegas = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3)))
    grid = np.concatenate([omegas, -omegas])
    power = total_transmission_spectrum(H, decay, inputs, grid)
    np.testing.assert_allclose(power[omegas.size:], power[:omegas.size],
                               rtol=1e-10, atol=0)


@SETTINGS
@given(data=st.data())
def test_gauges_agree_on_commensurate_tori(data):
    """``H_oam = V H_landau V^dagger`` with ``V = diag(e^{-i 2 pi j l phi})``
    when both torus lengths are multiples of the flux denominator ``q``."""
    q = data.draw(st.integers(1, 4))
    phi = data.draw(st.integers(-q, q)) / q
    n_l = q * data.draw(st.integers(1, 2))
    l_min = data.draw(st.integers(-n_l, 0))
    spec = LatticeSpec(n_x=q * data.draw(st.integers(1, 2)), l_min=l_min,
                       l_max=l_min + n_l - 1, bc_x=Boundary.PERIODIC,
                       bc_y=Boundary.PERIODIC)
    decay = decays(data.draw, spec.dim)
    omega = data.draw(st.floats(-5.0, 5.0))
    rows = data.draw(st.lists(st.integers(0, spec.dim - 1), min_size=1, max_size=4))
    landau = Resolvent(build_landau_hofstadter(spec, phi), decay).transmission(omega, rows)
    oam = Resolvent(build_oam_gauge_hofstadter(spec, phi), decay).transmission(omega, rows)
    gauge = np.exp(-2j * np.pi * column_of_index(spec) * l_of_index(spec) * phi)
    scale = np.abs(landau).max()
    np.testing.assert_allclose(np.abs(oam), np.abs(landau), rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(oam, gauge[:, None] * landau * gauge[rows].conj(),
                               rtol=0, atol=1e-12 * scale)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_derived_signature_is_the_gauge_put_in(data):
    """On a lattice that mirrors with ``S = 1``, take a random +-1 diagonal
    ``D`` constant on every mirror orbit ``{a, Ja}``.  Conjugating by the
    unitary diagonal ``E`` with ``E^2 = D`` makes each entry ``D_a D_b``
    times its mirror image, so the engine must derive ``S = +-D`` on each
    sector and keep its columns exact; conjugating by ``D`` itself keeps
    ``S = 1``."""
    n_l = data.draw(st.sampled_from((3, 5, 6, 8)))
    builder = data.draw(st.sampled_from(["landau", "oam-gauge", "dirac"]))
    # Open windows, or a folded even ring of three or more blocks for landau;
    # oam-gauge mirrors on a symmetric window, dirac on an odd number of blocks.
    bc_y = Boundary.PERIODIC if builder == "landau" and n_l in (6, 8) else Boundary.OPEN
    if builder != "landau":
        n_l = 2 * (n_l // 2) + 1
    spec = LatticeSpec(n_x=data.draw(st.integers(1, 4)), l_min=-(n_l // 2),
                       l_max=n_l - 1 - n_l // 2, spin_dim=2 if builder == "dirac" else 1,
                       bc_x=data.draw(st.sampled_from(Boundary)), bc_y=bc_y)
    phi = data.draw(st.floats(-0.5, 0.5))
    H = {"landau": build_landau_hofstadter, "oam-gauge": build_oam_gauge_hofstadter,
         "dirac": build_dirac}[builder](spec, phi)
    decay = DecaySpec(gamma=data.draw(st.floats(0.05, 1.0)))
    base = Resolvent(H, decay)
    assert all(layout.mirrored and layout.mirror_reason.startswith("mirrored: J M J = M^T")
               for layout in layouts(base))
    D = np.ones(H.dim)
    for g in range(base.sectors):
        blocks = base._layout(g).blocks
        n = blocks.shape[0]
        orbit = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                            min_size=blocks[: (n + 1) // 2].size,
                                            max_size=blocks[: (n + 1) // 2].size)))
        orbit = orbit.reshape(-1, blocks.shape[1])[np.minimum(np.arange(n), np.arange(n)[::-1])]
        D[blocks[blocks >= 0]] = orbit[blocks >= 0]
    real = HamiltonianMatrix.from_entries(spec, H.rows, H.cols,
                                          D[H.rows] * H.values * D[H.cols])
    assert all(layout.mirror_reason.startswith("mirrored: J M J = M^T")
               for layout in layouts(Resolvent(real, decay)))
    E = np.where(D < 0, 1j, 1.0)
    gauged = HamiltonianMatrix.from_entries(spec, H.rows, H.cols,
                                            E[H.rows] * H.values * E[H.cols].conj())
    engine = Resolvent(gauged, decay)
    assert engine.sectors == base.sectors
    for layout in layouts(engine):
        assert layout.mirrored
        sites = layout.blocks[layout.blocks >= 0]
        sign = (np.ones(sites.size) if layout.sign is None
                else layout.sign[layout.blocks >= 0])
        assert np.array_equal(sign, D[sites]) or np.array_equal(sign, -D[sites])
    rows = data.draw(st.lists(st.integers(0, H.dim - 1), min_size=1, max_size=3))
    omega = data.draw(st.floats(-4.0, 4.0))
    ref = dense_columns(gauged, decay, omega, rows)
    (_, x), = engine.columns([omega], rows)
    np.testing.assert_allclose(x[:, 0], ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())


@st.composite
def trial_stacks(draw):
    """One to three trials on one lattice with their rates: a lattice of
    :func:`hamiltonians`, or ``qsh`` or ``dirac``, whose polarization
    sectors are swept apart (``qsh`` mirrors with ``S = +-(-1)^s`` under
    uniform loss); later trials add per-cavity detuning, and the trials
    share one rate spec or draw their own."""
    family = draw(st.sampled_from(["any", "qsh", "dirac"]))
    if family == "any":
        H = draw(hamiltonians())
    else:
        spec = draw(lattices(spin_dims=(2,)))
        H = (build_qsh(spec, draw(st.floats(0.0, 0.125)), draw(st.floats(0.0, 1.0)))
             if family == "qsh" else build_dirac(spec, draw(st.floats(-0.5, 0.5))))
    count = draw(st.integers(1, 3))
    model = DisorderModel.cavity_detuning(0.2)
    Hs = [H] + [sample_disordered_hamiltonian(H, model, seed) for seed in range(1, count)]
    if draw(st.booleans()):
        return Hs, [decays(draw, H.dim)] * count
    return Hs, [decays(draw, H.dim) for _ in Hs]


def dense_power(H, decay, omegas, rows):
    """``sum_r -2 gamma_r Im G_rr`` from dense solves, and the forward bound
    ``(2/gamma_min) max ||A G e_r - e_r||`` on each solve's ``G``."""
    rates = decay.rate_vector(H.dim)
    E = np.zeros((H.dim, len(rows)))
    E[rows, np.arange(len(rows))] = 1.0
    power, bound = [], []
    for omega in omegas:
        A = omega * np.eye(H.dim) - H.toarray() + 0.5j * np.diag(rates)
        G = scipy.linalg.solve(A, E)
        power.append(-2.0 * np.sum(rates[rows] * G[rows, np.arange(len(rows))].imag))
        bound.append(2.0 / rates.min() * np.linalg.norm(A @ G - E, axis=0).max())
    return np.array(power), np.array(bound)


def assert_total_power_agrees(Hs, decays, omegas, rows, engine=None):
    """``total_power`` of ``engine`` (by default a fresh one) equals the
    weighted column path and dense solves, within the bounds each gives on
    ``G``.  For input ``r``, a bound ``beta`` on ``|G_rr - G^_rr|`` moves the
    power ``-2 gamma_r Im G_rr`` by at most ``2 gamma_r beta``, and a bound
    ``beta`` on a column moves ``gamma_r sum_n gamma_n |x_n|^2`` by at most
    ``gamma_r gamma_max (4/gamma_min + beta) beta``."""
    engine = engine or Resolvent(Hs, decays)
    diagonal = engine.total_power(omegas, rows)
    columns = Resolvent(Hs, decays)
    column = columns.transmitted_power(omegas, rows, np.ones(Hs[0].dim))
    for t, (H, decay) in enumerate(zip(Hs, decays)):
        rates = decay.rate_vector(H.dim)
        oracle, oracle_bound = dense_power(H, decay, omegas, rows)
        port_rates = rates[rows].sum()
        beta = columns.record.error_bound
        assert np.all(np.abs(diagonal[t] - oracle)
                      <= 2.0 * port_rates * (engine.record.error_bound + oracle_bound)), t
        assert np.all(np.abs(diagonal[t] - column[t])
                      <= 2.0 * port_rates * engine.record.error_bound
                      + port_rates * rates.max() * (4.0 / rates.min() + beta) * beta), t
    assert 0.0 < engine.record.error_bound <= 2.0 / min(d.rate_vector(Hs[0].dim).min() for d in decays) \
        * scattering.RESIDUAL_RTOL


@SETTINGS
@given(data=st.data())
def test_total_power_matches_columns_and_dense_oracle(data):
    Hs, rates = data.draw(trial_stacks())
    rows = data.draw(st.lists(st.integers(0, Hs[0].dim - 1), min_size=1, max_size=4))
    omegas = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3)))
    assert_total_power_agrees(Hs, rates, omegas, rows)


# --------------------------------------------- corruptions of the diagonal path

def _qsh_case():
    """A qsh lattice under uniform loss, whose two sectors each mirror with
    ``S = +-(-1)^s``, and edge ports on the middle slice in both sectors."""
    H = build_qsh(LatticeSpec(n_x=4, l_min=-3, l_max=3, spin_dim=2), 0.05, 0.6)
    rows = [flat_index(H.spec, SiteIndex(j, 0, s)) for j in (0, 3) for s in (0, 1)]
    return [H], [DecaySpec(gamma=0.2)], np.array([-1.2, 0.3]), rows


def test_the_qsh_case_agrees_uncorrupted():
    Hs, rates, omegas, rows = _qsh_case()
    engine = Resolvent(Hs, rates)
    assert engine.sectors == 2
    assert all(layout.mirrored and layout.sign is not None for layout in layouts(engine))
    assert_total_power_agrees(Hs, rates, omegas, rows, engine)


def test_a_wrong_signature_fails_the_comparison():
    Hs, rates, omegas, rows = _qsh_case()
    engine = Resolvent(Hs, rates)
    for layout in layouts(engine):
        layout.sign = None  # S = 1 where S = +-(-1)^s holds
    with pytest.raises(AssertionError):
        assert_total_power_agrees(Hs, rates, omegas, rows, engine)


def test_a_wrong_sector_fails_the_comparison(monkeypatch):
    Hs, rates, omegas, rows = _qsh_case()
    with monkeypatch.context() as patch:
        # The polarization splits qsh in two, but not along its sectors.
        patch.setattr(scattering, "_sectors", lambda dim, rows, cols: np.arange(dim) % 2)
        engine = Resolvent(Hs, rates)
    assert engine.sectors == 2
    with pytest.raises(AssertionError):
        assert_total_power_agrees(Hs, rates, omegas, rows, engine)


def test_a_dropped_coupling_fails_the_comparison():
    Hs, rates, omegas, rows = _qsh_case()
    engine = Resolvent(Hs, rates)
    for layout in layouts(engine):
        layout.outer[0, 3] = 0.0  # L_2 = H[3, 2], into the port block
    with pytest.raises(AssertionError):
        assert_total_power_agrees(Hs, rates, omegas, rows, engine)


def _drop_a_d_k_entry(monkeypatch, *engines):
    """Let the shared ``A_k`` builder leave out one entry of ``D_k`` in
    every layout of ``engines``: the first hop within an OAM slice, which
    ``H`` itself still holds."""
    original = scattering._Layout.build
    corrupted = [layout for engine in engines for layout in layouts(engine)]

    def dropped(layout, into, blocks, trials, omegas):
        original(layout, into, blocks, trials, omegas)
        block, row, col, value = layout.diagonal
        e = np.flatnonzero(row != col)[0]
        if any(layout is c for c in corrupted) and blocks.start <= block[e] < blocks.stop:
            into[block[e] - blocks.start, :, :, row[e], col[e]] -= value[trials, e][:, None]

    monkeypatch.setattr(scattering._Layout, "build", dropped)


def test_a_dropped_d_k_entry_fails_the_check_and_the_oracle(monkeypatch):
    # The column check builds omega - H + i G/2 from each trial's own H, so
    # it catches the builder's error at run time; the diagonal path's chain
    # sees a consistent sweep, and only the dense oracle catches it.
    Hs, rates, omegas, rows = _qsh_case()
    columns, diagonal = Resolvent(Hs, rates), Resolvent(Hs, rates)
    _drop_a_d_k_entry(monkeypatch, columns, diagonal)
    with pytest.raises(RuntimeError, match="residual .* in trial 0 "):
        columns.transmitted_power(omegas, rows, np.ones(Hs[0].dim))
    with pytest.raises(AssertionError) as failure:
        assert_total_power_agrees(Hs, rates, omegas, rows, diagonal)
    assert "oracle" in str(failure.traceback[-1].statement)
