"""Randomized differential tests of the resolvent engine on small lattices.

Hypothesis draws lattices of up to 6 cavities and OAM windows of up to 20
values, scalar or spinful, open or periodic on either axis, with random
Jones axes, uniform or per-mode loss, sometimes a coupling that skips OAM
slices, and ports on several slices.  The engine must reproduce the dense
``scipy.linalg.solve`` oracle, scalar lattices must be reciprocal,
bipartite zero-flux lattices must have a total spectrum symmetric under
``omega -> -omega``, on commensurate tori the Landau and OAM gauges must
give the same ``|T|``, and a mirror signature put in by a diagonal gauge
must come back out of the engine.  ``derandomize=True`` and fixed example
counts keep the runs identical and short.
"""

import dataclasses

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oamphoton.hamiltonians import (
    GaugeConfig,
    HamiltonianMatrix,
    SpinAxis,
    build_dirac,
    build_landau_hofstadter,
    build_non_abelian,
    build_oam_gauge_hofstadter,
)
from oamphoton.lattice import (
    Boundary, LatticeSpec, SiteIndex, column_of_index, l_of_index,
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
        return DecaySpec.uniform(draw(st.floats(0.05, 1.0)))
    rates = draw(st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim))
    return DecaySpec.per_mode(np.array(rates))


def dense_columns(H, decay, omega, rows):
    A = omega * np.eye(H.dim) - H.toarray() + 0.5j * np.diag(decay.rate_vector(H.dim))
    rhs = np.zeros((H.dim, len(rows)), dtype=complex)
    rhs[rows, np.arange(len(rows))] = 1.0
    return scipy.linalg.solve(A, rhs)


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
    assert engine.factorizations == omegas.size
    assert 0.0 <= engine.worst_residual <= 1e-10


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
    decay = DecaySpec.uniform(data.draw(st.floats(0.05, 1.0)))
    base = Resolvent(H, decay)
    assert base.mirrored and base.mirror_reason.startswith("mirrored: J M J = M^T")
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
    assert Resolvent(real, decay).mirror_reason.startswith("mirrored: J M J = M^T")
    E = np.where(D < 0, 1j, 1.0)
    gauged = HamiltonianMatrix.from_entries(spec, H.rows, H.cols,
                                            E[H.rows] * H.values * E[H.cols].conj())
    engine = Resolvent(gauged, decay)
    assert engine.mirrored and engine.sectors == base.sectors
    for g in range(engine.sectors):
        layout = engine._layout(g)
        sites = layout.blocks[layout.blocks >= 0]
        sign = (np.ones(sites.size) if layout.sign is None
                else layout.sign[layout.blocks >= 0])
        assert np.array_equal(sign, D[sites]) or np.array_equal(sign, -D[sites])
    rows = data.draw(st.lists(st.integers(0, H.dim - 1), min_size=1, max_size=3))
    omega = data.draw(st.floats(-4.0, 4.0))
    ref = dense_columns(gauged, decay, omega, rows)
    np.testing.assert_allclose(engine.solve(omega, rows), ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())
