"""Randomized differential tests of the resolvent engine on small lattices.

Hypothesis draws lattices of up to 6 cavities and OAM windows of up to 20
values, scalar or spinful, open or periodic on either axis, with random
Jones axes, uniform or per-mode loss, dense or CSR storage, sometimes a
coupling that skips OAM slices, and ports on several slices.  The engine
must reproduce the dense ``scipy.linalg.solve`` oracle, and scalar lattices
must be reciprocal.  ``derandomize=True`` and fixed example counts keep the
runs identical and short.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from oamphoton.hamiltonians import (
    GaugeConfig,
    HamiltonianMatrix,
    SpinAxis,
    build_landau_hofstadter,
    build_non_abelian,
    build_oam_gauge_hofstadter,
)
from oamphoton.lattice import Boundary, LatticeSpec
from oamphoton.scattering import DecaySpec, Resolvent

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
    if draw(st.booleans()):
        data = scipy.sparse.csr_matrix(data)
    return HamiltonianMatrix(spec, data)


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
