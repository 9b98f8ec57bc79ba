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
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from oamphoton import hamiltonians
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
quarter_turns = st.integers(-4, 4).map(lambda k: k / 4)
#: Phases and detunings far from binary fractions, whose sums round.
rounding = st.one_of(phases, st.integers(-10**6, 10**6).map(lambda k: k / 999_983))


@st.composite
def per_cavity(draw, n_x, values=phases):
    """A per-cavity value in every accepted form: absent, constant, mapping
    (possibly partial) or callable."""
    kind = draw(st.sampled_from(["none", "constant", "mapping", "callable"]))
    if kind == "none":
        return None
    if kind == "constant":
        return draw(values)
    if kind == "mapping":
        keys = draw(st.sets(st.integers(0, n_x - 1)))
        return {j: draw(values) for j in sorted(keys)}
    a, b = draw(values), draw(values)
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


# ------------------------------------------------------- entries as assembled

def hops_along(spec, direction):
    """``(src, dst)`` flat indices of every ``direction`` hop, in site order."""
    return [(flat_index(spec, site), flat_index(spec, other))
            for j in range(spec.n_x) for l in spec.l_values.tolist()
            for site in [SiteIndex(j, l, 0)]
            for way, other in neighbors(spec, site) if way == direction]


def per_hop_entries(spec, axes, onsite):
    """COO triples of every hop block, zeros included, in assembly order.

    ``axes`` holds the block stacks a builder hands the assembler for its
    ``+x`` and ``+y`` hops, one block for all hops or one per hop in site
    order.  Per axis, each block entry ``(i, k)`` goes to ``(dst + i, src +
    k)`` hop by hop, then each conjugate to ``(src + k, dst + i)`` in the
    same order; then every mode's detuning, zeros included.
    """
    sd = spec.spin_dim
    entries = []
    for direction, blocks in zip(("+x", "+y"), axes):
        hops = hops_along(spec, direction)
        blocks = np.broadcast_to(np.reshape(blocks, (-1, sd, sd)), (len(hops), sd, sd))
        for conjugate in (False, True):
            for (src, dst), block in zip(hops, blocks):
                for i in range(sd):
                    for k in range(sd):
                        entries.append((src + k, dst + i, block[i, k].conj()) if conjugate
                                       else (dst + i, src + k, block[i, k]))
    if onsite is not None:
        entries += [(site, site, onsite[site // (spec.n_l * sd)]) for site in range(spec.dim)]
    return ([e[0] for e in entries], [e[1] for e in entries],
            np.array([e[2] for e in entries], dtype=complex))


def check_bitwise(build):
    """``build()`` stores, bit for bit, what :meth:`HamiltonianMatrix.from_entries`
    stores from every per-hop entry of the blocks the builder assembles."""
    with mock.patch.object(hamiltonians, "_assemble", wraps=hamiltonians._assemble) as assemble:
        H = build()
    (spec, hops, *onsite), _ = assemble.call_args
    for (src, dst, _), direction in zip(hops, ("+x", "+y")):
        assert list(zip(src.tolist(), dst.tolist())) == hops_along(spec, direction)
    expected = HamiltonianMatrix.from_entries(
        spec, *per_hop_entries(spec, [blocks for _, _, blocks in hops],
                               onsite[0] if onsite else None))
    np.testing.assert_array_equal(H.rows, expected.rows)
    np.testing.assert_array_equal(H.cols, expected.cols)
    np.testing.assert_array_equal(H.values.view(np.uint64), expected.values.view(np.uint64))


@st.composite
def builds(draw, builder):
    """A call of one builder on a small lattice (see :func:`specs`); the
    ``quarter`` form of ``build_non_abelian`` turns by multiples of 1/4."""
    if builder in ("landau", "oam-gauge"):
        spec, phi = draw(specs(1)), draw(rounding)
        build = build_landau_hofstadter if builder == "landau" else build_oam_gauge_hofstadter
        return lambda: build(spec, phi)
    spec = draw(specs(2))
    if builder == "dirac":
        phi = draw(rounding)
        return lambda: build_dirac(spec, phi)
    if builder == "qsh":
        beta0 = draw(st.one_of(quarter_turns, rounding))
        lambda0 = draw(st.one_of(st.just(0.0), rounding))
        return lambda: build_qsh(spec, beta0, lambda0)
    angles = quarter_turns if builder == "quarter" else rounding
    cfg = GaugeConfig(
        phi_x=draw(rounding), alpha=draw(angles),
        axis1=draw(unit_axes()), axis2=draw(unit_axes()),
        phi_y=draw(per_cavity(spec.n_x, rounding)), beta=draw(per_cavity(spec.n_x, angles)),
        onsite=draw(per_cavity(spec.n_x, rounding)),
    )
    return lambda: build_non_abelian(spec, cfg)


@pytest.mark.parametrize("builder", ["landau", "oam-gauge", "quarter", "non-abelian",
                                     "dirac", "qsh"])
@SETTINGS
@given(data=st.data())
def test_builders_store_their_per_hop_entries_bit_for_bit(builder, data):
    """Assembling only the nonzero entries of the blocks changes no bit:
    hops that wrap onto themselves or double up still sum in order."""
    check_bitwise(data.draw(builds(builder)))


PROBE_LATTICES = {"s10x101": (10, 50, 1), "q12x101": (12, 50, 2), "s20x201": (20, 100, 1),
                  "s21x201": (21, 100, 1), "q24x101": (24, 50, 2), "s30x301": (30, 150, 1)}


@pytest.mark.parametrize("name", PROBE_LATTICES)
def test_probe_lattices_store_their_per_hop_entries_bit_for_bit(name):
    n_x, half, spin_dim = PROBE_LATTICES[name]
    spec = LatticeSpec(n_x, -half, half, spin_dim)
    if spin_dim == 1:
        check_bitwise(lambda: build_landau_hofstadter(spec, 1.0 / 6.0))
    else:
        check_bitwise(lambda: build_qsh(spec, 0.0, 0.6))


@pytest.mark.parametrize("build, stored", [
    (lambda: build_qsh(LatticeSpec(12, -50, 50, 2), 0.0, 0.6), 11668),
    (lambda: build_qsh(LatticeSpec(24, -50, 50, 2), 0.0, 0.6), 23740),
    (lambda: build_dirac(LatticeSpec(10, -50, 50, 2), 1 / 6), 7636),
])
def test_spinful_builders_pass_only_the_entries_they_store(build, stored):
    """The exact zeros of quarter-turn Jones blocks and of absent detunings
    never reach the sort (every 2x2 block would pass 20912, 42632 and 17292)."""
    with mock.patch.object(hamiltonians, "_canonical", wraps=hamiltonians._canonical) as canonical:
        H = build()
    (_, rows, cols, values), _ = canonical.call_args
    assert len(rows) == len(cols) == len(values) == H.values.size == stored


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


def test_from_entries_is_the_one_constructor():
    H = build_qsh(LatticeSpec(n_x=4, l_min=-2, l_max=2, spin_dim=2), 0.05, 0.6)
    with pytest.raises(TypeError):
        HamiltonianMatrix(H.spec, H.toarray())
    with pytest.raises(ValueError, match="dimension"):
        HamiltonianMatrix.from_entries(H.spec, [0], [H.dim], [1.0])
    with pytest.raises(ValueError, match="length"):
        HamiltonianMatrix.from_entries(H.spec, [0, 1], [1], [1.0])


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
    H = HamiltonianMatrix.from_entries(spec, rows, cols, values)
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
