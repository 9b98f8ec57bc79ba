"""Vectorized builders against a per-hop reference, and the storage contract.

The reference assembles each Hamiltonian one hop at a time from
:func:`oamphoton.lattice.neighbors`: every ``+x`` and ``+y`` neighbor of a
site is one hop ``src -> dst``, whose value (or 2x2 Jones block) is written
at ``H[dst, src]`` and whose conjugate transpose is written at
``H[src, dst]``, both added to what is there.  The hop values are spelled
out from the builders' docstrings.  Hypothesis draws the small lattices
(axes of length 1-3, open or periodic, where hops wrap onto themselves or
double up) with ``derandomize=True`` and a fixed example count.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from oamphoton.disorder import DisorderModel, DisorderScope, sample_disordered_hamiltonian
from oamphoton.edge import transmission_map
from oamphoton.hamiltonians import (
    DENSE_DIM_LIMIT,
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
from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex, flat_index, neighbors
from oamphoton.scattering import DecaySpec, _diagonal_product, _offset_diagonals

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def reference(spec, x_hop, y_hop, onsite=lambda j: 0.0):
    """Per-hop assembly: ``x_hop(site)`` / ``y_hop(site)`` give the block of
    the hop leaving ``site`` along ``+x`` / ``+y``."""
    sd = spec.spin_dim
    H = np.zeros((spec.dim, spec.dim), dtype=complex)
    for j in range(spec.n_x):
        for l in spec.l_values.tolist():
            site = SiteIndex(j, l, 0)
            src = flat_index(spec, site)
            H[src:src + sd, src:src + sd] += onsite(j) * np.eye(sd)
            for direction, other in neighbors(spec, site):
                if direction not in ("+x", "+y"):
                    continue
                block = np.atleast_2d((x_hop if direction == "+x" else y_hop)(site))
                dst = flat_index(spec, other)
                H[dst:dst + sd, src:src + sd] += block
                H[src:src + sd, dst:dst + sd] += block.conj().T
    return H


def check(H, expected):
    np.testing.assert_allclose(H.toarray(), expected, rtol=0, atol=1e-15)


@st.composite
def specs(draw, spin_dim):
    n_l = draw(st.integers(1, 3))
    l_min = draw(st.integers(-2, 1))
    return LatticeSpec(
        n_x=draw(st.integers(1, 3)), l_min=l_min, l_max=l_min + n_l - 1,
        spin_dim=spin_dim,
        bc_x=draw(st.sampled_from(Boundary)), bc_y=draw(st.sampled_from(Boundary)),
    )


phases = st.floats(-1.0, 1.0)


@st.composite
def per_cavity(draw, n_x):
    """A per-cavity value in every accepted form: absent, constant, mapping
    (possibly partial) or callable."""
    kind = draw(st.sampled_from(["none", "constant", "mapping", "callable"]))
    if kind == "none":
        return None
    if kind == "constant":
        return draw(phases)
    if kind == "mapping":
        keys = draw(st.sets(st.integers(0, n_x - 1)))
        return {j: draw(phases) for j in sorted(keys)}
    a, b = draw(phases), draw(phases)
    return lambda j: a + b * j


def cavity_value(values, j):
    if values is None:
        return 0.0
    if callable(values):
        return values(j)
    if isinstance(values, dict):
        return values.get(j, 0.0)
    return values


def unit_axes():
    return st.sampled_from([SpinAxis.x(), SpinAxis.y(), SpinAxis.z(),
                            SpinAxis((0.6, 0.0, 0.8)), SpinAxis((0.0, -0.6, 0.8))])


@SETTINGS
@given(spec=specs(1), phi=phases)
def test_landau_gauge_matches_reference(spec, phi):
    expected = reference(spec, lambda s: -1.0,
                         lambda s: -np.exp(2j * np.pi * s.j * phi))
    check(build_landau_hofstadter(spec, phi), expected)


@SETTINGS
@given(spec=specs(1), phi=phases)
def test_oam_gauge_matches_reference(spec, phi):
    expected = reference(spec, lambda s: -np.exp(-2j * np.pi * s.l * phi),
                         lambda s: -1.0)
    check(build_oam_gauge_hofstadter(spec, phi), expected)


@SETTINGS
@given(data=st.data())
def test_non_abelian_matches_reference(data):
    spec = data.draw(specs(2))
    cfg = GaugeConfig(
        phi_x=data.draw(phases), alpha=data.draw(phases),
        axis1=data.draw(unit_axes()), axis2=data.draw(unit_axes()),
        phi_y=data.draw(per_cavity(spec.n_x)), beta=data.draw(per_cavity(spec.n_x)),
        onsite=data.draw(per_cavity(spec.n_x)),
    )

    def y_hop(s):
        return -(np.exp(2j * np.pi * cavity_value(cfg.phi_y, s.j))
                 * jones_exp(cavity_value(cfg.beta, s.j), cfg.axis2))

    expected = reference(
        spec, lambda s: -np.exp(2j * np.pi * cfg.phi_x) * jones_exp(cfg.alpha, cfg.axis1),
        y_hop, lambda j: cavity_value(cfg.onsite, j),
    )
    check(build_non_abelian(spec, cfg), expected)


@SETTINGS
@given(spec=specs(2), phi=phases)
def test_dirac_matches_reference(spec, phi):
    expected = reference(spec, lambda s: -1j * SY,
                         lambda s: -1j * np.exp(2j * np.pi * s.j * phi) * SX)
    check(build_dirac(spec, phi), expected)


@SETTINGS
@given(spec=specs(2), beta0=phases, lambda0=phases)
def test_qsh_matches_reference(spec, beta0, lambda0):
    def y_hop(s):
        angle = np.pi * s.j / 2 + 2 * np.pi * beta0
        return -np.diag([np.exp(1j * angle), np.exp(-1j * angle)])

    expected = reference(spec, lambda s: -1j * SX, y_hop,
                         lambda j: lambda0 * ((j % 4) - 1.5))
    check(build_qsh(spec, beta0, lambda0), expected)


@SETTINGS
@given(data=st.data())
def test_onsite_disorder_matches_reference(data):
    """The sampler's detunings add one draw to every diagonal of its unit: a
    cavity under the link scopes, a site under ``PER_SITE``."""
    spec = data.draw(specs(2))
    beta0, lambda0 = data.draw(phases), data.draw(phases)
    sigma, seed = data.draw(st.floats(0.01, 1.0)), data.draw(st.integers(0, 2**64))
    scope = data.draw(st.sampled_from(DisorderScope))
    H = build_qsh(spec, beta0, lambda0)
    units = spec.n_x * spec.n_l if scope is DisorderScope.PER_SITE else spec.n_x
    draws = np.random.Generator(np.random.Philox(key=seed)).standard_normal(units)
    expected = H.toarray() + np.diag(np.repeat(sigma * draws, spec.dim // units))
    model = DisorderModel(sigma_detuning=sigma, scope=scope)
    check(sample_disordered_hamiltonian(H, model, seed), expected)


# ------------------------------------------------------------ storage contract

def test_copies_never_alias_the_stored_matrix():
    H = build_landau_hofstadter(LatticeSpec(n_x=3, l_min=-2, l_max=2), 1.0 / 6.0)
    before = H.toarray().copy()
    H.toarray()[0, 1] = 99.0
    H.data[0, 1] = 99.0
    np.testing.assert_array_equal(H.toarray(), before)
    H.tocsr().data[:] = 99.0
    np.testing.assert_array_equal(H.toarray(), before)


def test_sparse_view_does_not_alias_the_stored_matrix():
    spec = LatticeSpec(n_x=50, l_min=-50, l_max=50)
    H = build_landau_hofstadter(spec, 1.0 / 6.0)
    assert H.dim > DENSE_DIM_LIMIT and not H.is_dense
    view = H.data
    assert scipy.sparse.issparse(view)
    view.data[:] = 99.0
    assert (H.data - build_landau_hofstadter(spec, 1.0 / 6.0).data).nnz == 0


def test_dense_and_sparse_inputs_store_the_same_matrix():
    H = build_qsh(LatticeSpec(n_x=4, l_min=-2, l_max=2, spin_dim=2), 0.05, 0.6)
    dense = H.toarray()
    for matrix in (dense, scipy.sparse.coo_matrix(dense), H.tocsr()):
        stored = HamiltonianMatrix(H.spec, matrix).tocsr()
        assert stored.has_canonical_format
        assert (stored != H.tocsr()).nnz == 0
    assert H.tocsr().nnz == np.count_nonzero(dense)
    with pytest.raises(ValueError, match="dimension"):
        HamiltonianMatrix(H.spec, dense[1:, 1:])


@st.composite
def coo_triples(draw):
    """A small lattice and COO triples in random order, with duplicates,
    explicit zeros and duplicates that cancel to zero.

    Rows keep at most 16 entries: scipy sorts a row's indices with
    ``std::sort``, which keeps duplicates in input order only up to 16
    entries, so longer rows could sum their duplicates in another order.
    """
    spec = LatticeSpec(n_x=draw(st.integers(1, 3)), l_min=0,
                       l_max=draw(st.integers(0, 3)),
                       spin_dim=draw(st.integers(1, 2)))
    index = st.integers(0, spec.dim - 1)
    part = st.floats(-2.0, 2.0)
    value = st.one_of(st.just(0j), st.sampled_from([1.0, -1j, 0.5 + 0.25j]),
                      st.builds(complex, part, part))
    entries = draw(st.lists(st.tuples(index, index, value), max_size=3 * spec.dim))
    if entries:
        cancel = draw(st.lists(st.sampled_from(entries), max_size=4))
        entries += [(r, c, -v) for r, c, v in cancel]
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))
    entries = draw(st.permutations(entries))
    per_row = np.zeros(spec.dim, dtype=int)
    kept = []
    for entry in entries:
        per_row[entry[0]] += 1
        if per_row[entry[0]] <= 16:
            kept.append(entry)
    return (spec, np.array([e[0] for e in kept], dtype=int),
            np.array([e[1] for e in kept], dtype=int),
            np.array([e[2] for e in kept], dtype=complex))


@SETTINGS
@given(coo_triples())
def test_canonical_arrays_equal_scipy_csr(case):
    spec, rows, cols, values = case
    shape = (spec.dim, spec.dim)
    ref = scipy.sparse.csr_matrix((values, (rows, cols)), shape=shape)
    ref.sum_duplicates()
    ref.eliminate_zeros()
    coo = scipy.sparse.coo_matrix((values, (rows, cols)), shape=shape)
    for H in (HamiltonianMatrix.from_entries(spec, rows, cols, values),
              HamiltonianMatrix(spec, coo)):
        csr = H.tocsr()
        np.testing.assert_array_equal(csr.indptr, ref.indptr)
        np.testing.assert_array_equal(csr.indices, ref.indices)
        np.testing.assert_array_equal(csr.data, ref.data)
        assert csr.has_canonical_format
        np.testing.assert_array_equal(H.rows, np.repeat(np.arange(spec.dim),
                                                        np.diff(ref.indptr)))
        assert not any(a.flags.writeable for a in (H.rows, H.cols, H.values))


@SETTINGS
@given(coo_triples(), st.sampled_from([1, 5, 12]), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_diagonal_product_equals_the_csr_product(case, columns, halo, seed):
    """The residual check's kernel on non-Hermitian matrices coupling any
    two sites, against column blocks laid side by side in each row: rows
    ``start .. stop`` of the product, from the operand's rows within
    ``halo`` of them, the other rows counting as zero."""
    spec, rows, cols, values = case
    H = HamiltonianMatrix.from_entries(spec, rows, cols, values)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((spec.dim, columns)) + 1j * rng.standard_normal((spec.dim, columns))
    start = int(rng.integers(spec.dim))
    stop = int(rng.integers(start, spec.dim)) + 1
    lo, hi = max(0, start - halo), min(spec.dim, stop + halo)
    kept = np.zeros_like(X)
    kept[lo:hi] = X[lo:hi]
    y0 = rng.standard_normal((stop - start, columns)) + 0.5j
    y = y0.copy()
    offsets, diagonals = _offset_diagonals(spec.dim, H.rows, H.cols, H.values)
    _diagonal_product(y, X[lo:hi], offsets, diagonals, start, lo, np.empty_like(y))
    ref = y0 + (H.tocsr() @ kept)[start:stop]
    bound = np.abs(y0) + (np.abs(H.toarray()) @ np.abs(kept))[start:stop]
    assert np.all(np.abs(y - ref) <= 1e-14 * bound + 1e-300)


def test_edge_map_memory_stays_bounded():
    """A 20x201 build plus one edge map; a dense 20x201 ``H`` alone is 258 MB."""
    spec = LatticeSpec(n_x=20, l_min=-100, l_max=100)
    tracemalloc.start()
    try:
        H = build_landau_hofstadter(spec, 1.0 / 6.0)
        grid = transmission_map(H, DecaySpec.uniform(0.2), -2.2, SiteIndex(0, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (20, 201)
    assert peak < 64 * 2**20
