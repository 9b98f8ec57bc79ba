"""Disorder sampling and Monte-Carlo robustness, against the draw protocol."""

import math

import numpy as np
import pytest

from oamphoton.disorder import (
    DisorderModel,
    DisorderScope,
    MonteCarloSummary,
    displacement_robustness,
    loss_perturbed_decay,
    sample_disordered_hamiltonian,
    saturating_oam_envelope,
)
from oamphoton.edge import EdgeRegion, Side, displacement_spectrum
from oamphoton.hamiltonians import build_landau_hofstadter, build_qsh
from oamphoton.lattice import Boundary, LatticeSpec, l_of_index
from oamphoton import disorder, scattering
from oamphoton.scattering import DecaySpec

SIXTH = 1.0 / 6.0


@pytest.fixture(scope="module")
def small_lattice():
    spec = LatticeSpec(n_x=8, l_min=-20, l_max=20, bc_y=Boundary.PERIODIC)
    return spec, build_landau_hofstadter(spec, SIXTH)


# ---------------------------------------------------------------------------
# envelope and model validation


def test_saturating_envelope_values():
    assert saturating_oam_envelope(0.0) == 0.0
    assert saturating_oam_envelope(0.5) == pytest.approx(2.777e-4, rel=2e-3)
    assert saturating_oam_envelope(45.0) == pytest.approx(
        1.0 - math.exp(-2.25), rel=1e-12
    )
    assert saturating_oam_envelope(45.0) == pytest.approx(0.8946, abs=5e-4)
    assert saturating_oam_envelope(1e6) == pytest.approx(1.0, abs=1e-15)
    values = saturating_oam_envelope(np.array([30.0]), width=30.0)
    assert values[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError, match="width"):
        saturating_oam_envelope(1.0, width=0.0)


def test_model_rejects_negative_sigmas():
    for name in (
        "sigma_detuning",
        "sigma_coupling_mag",
        "sigma_coupling_phase",
        "sigma_loss",
    ):
        with pytest.raises(ValueError, match=name):
            DisorderModel(**{name: -0.1})


def test_per_site_scope_rejects_coupling_errors():
    with pytest.raises(ValueError, match="link scope"):
        DisorderModel(sigma_coupling_mag=0.05, scope=DisorderScope.PER_SITE)
    # detuning-only is fine at any scope
    DisorderModel(sigma_detuning=0.1, scope=DisorderScope.PER_SITE)


def test_envelope_range_is_enforced():
    model = DisorderModel(
        sigma_coupling_mag=0.05,
        oam_envelope=lambda x: 2.0 * np.ones(np.shape(x)),
        scope=DisorderScope.PER_OAM_LINK,
    )
    spec = LatticeSpec(n_x=2, l_min=-2, l_max=2)
    H = build_landau_hofstadter(spec, SIXTH)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sample_disordered_hamiltonian(H, model, 0)


# ---------------------------------------------------------------------------
# sampling


def test_zero_disorder_returns_base_bitwise(small_lattice):
    _, H = small_lattice
    for scope in DisorderScope:
        sample = sample_disordered_hamiltonian(H, DisorderModel(scope=scope), 42)
        assert np.array_equal(sample.data, H.data)


def test_zero_disorder_preserves_sparse_matrices():
    spec = LatticeSpec(n_x=52, l_min=-40, l_max=40, bc_y=Boundary.PERIODIC)
    H = build_landau_hofstadter(spec, SIXTH)
    assert not H.is_dense
    sample = sample_disordered_hamiltonian(H, DisorderModel(), 1)
    assert not sample.is_dense
    assert (sample.data - H.data).nnz == 0


def test_same_seed_reproduces_sample(small_lattice):
    _, H = small_lattice
    model = DisorderModel.cavity_detuning(0.1)
    first = sample_disordered_hamiltonian(H, model, 9)
    second = sample_disordered_hamiltonian(H, model, 9)
    other = sample_disordered_hamiltonian(H, model, 10)
    assert np.array_equal(first.data, second.data)
    assert not np.array_equal(first.data, other.data)


def test_sample_accepts_builder_callable(small_lattice):
    spec, H = small_lattice
    model = DisorderModel.cavity_detuning(0.1)
    built = sample_disordered_hamiltonian(
        lambda: build_landau_hofstadter(spec, SIXTH), model, 9
    )
    direct = sample_disordered_hamiltonian(H, model, 9)
    assert np.array_equal(built.data, direct.data)
    with pytest.raises(TypeError, match="HamiltonianMatrix"):
        sample_disordered_hamiltonian(object(), model, 0)


def test_cavity_scope_matches_documented_draw_protocol(small_lattice):
    spec, H = small_lattice
    model = DisorderModel(
        sigma_detuning=0.1,
        sigma_coupling_mag=0.05,
        sigma_coupling_phase=0.02,
        scope=DisorderScope.PER_CAVITY_LINK,
    )
    sample = sample_disordered_hamiltonian(H, model, 77)

    rng = np.random.Generator(np.random.Philox(key=77))
    detuning = rng.standard_normal(spec.n_x)
    mag = rng.standard_normal(spec.n_x)
    phase = rng.standard_normal(spec.n_x)
    expected = H.toarray().copy()
    expected[np.diag_indices(spec.dim)] += np.repeat(0.1 * detuning, spec.n_l)
    for j in range(spec.n_x - 1):  # open cavity axis: links j -> j+1
        factor = (1.0 + 0.05 * mag[j]) * np.exp(1j * 0.02 * phase[j])
        for il in range(spec.n_l):
            src, dst = j * spec.n_l + il, (j + 1) * spec.n_l + il
            expected[dst, src] *= factor
            expected[src, dst] = np.conj(expected[dst, src])
    np.testing.assert_allclose(sample.toarray(), expected, atol=1e-15)


def test_oam_scope_applies_envelope_at_link_midpoints(small_lattice):
    spec, H = small_lattice
    model = DisorderModel(
        sigma_coupling_mag=0.05,
        oam_envelope=saturating_oam_envelope,
        scope=DisorderScope.PER_OAM_LINK,
    )
    sample = sample_disordered_hamiltonian(H, model, 5)

    rng = np.random.Generator(np.random.Philox(key=5))
    rng.standard_normal(spec.n_x)  # detuning draws come first
    mag = rng.standard_normal((spec.n_x, spec.n_l))
    rng.standard_normal((spec.n_x, spec.n_l))  # then the phase draws
    expected = H.toarray().copy()
    for j in range(spec.n_x):
        for il in range(spec.n_l):  # periodic OAM axis: n_l links per cavity
            l_src = spec.l_min + il
            factor = 1.0 + 0.05 * saturating_oam_envelope(l_src + 0.5) * mag[j, il]
            src = j * spec.n_l + il
            dst = j * spec.n_l + (il + 1) % spec.n_l
            expected[dst, src] *= factor
            expected[src, dst] = np.conj(expected[dst, src])
    np.testing.assert_allclose(sample.toarray(), expected, atol=1e-15)


@pytest.mark.parametrize("scope", [DisorderScope.PER_CAVITY_LINK,
                                   DisorderScope.PER_OAM_LINK])
def test_spinful_base_matches_documented_draw_protocol(scope):
    spec = LatticeSpec(n_x=5, l_min=-3, l_max=3, spin_dim=2,
                       bc_x=Boundary.PERIODIC, bc_y=Boundary.PERIODIC)
    H = build_qsh(spec, 0.05, 0.6)
    per_oam = scope is DisorderScope.PER_OAM_LINK
    model = DisorderModel(
        sigma_detuning=0.1,
        sigma_coupling_mag=0.05,
        sigma_coupling_phase=0.07,
        oam_envelope=saturating_oam_envelope if per_oam else None,
        scope=scope,
    )
    sample = sample_disordered_hamiltonian(H, model, 31)

    rng = np.random.Generator(np.random.Philox(key=31))
    detuning = rng.standard_normal(spec.n_x)
    links = (spec.n_x, spec.n_l) if per_oam else (spec.n_x,)
    mag = rng.standard_normal(links)
    phase = rng.standard_normal(links)
    expected = H.toarray().copy()
    expected[np.diag_indices(spec.dim)] += np.repeat(0.1 * detuning, 2 * spec.n_l)
    for j in range(spec.n_x):
        for il in range(spec.n_l):  # both axes periodic: every hop is a link
            if per_oam:
                envelope = saturating_oam_envelope(spec.l_min + il + 0.5)
                link = (j, il)
                dst = j * spec.n_l + (il + 1) % spec.n_l
            else:
                envelope, link = 1.0, j
                dst = (j + 1) % spec.n_x * spec.n_l + il
            factor = (1.0 + 0.05 * envelope * mag[link]) * np.exp(
                1j * 0.07 * envelope * phase[link])
            s, d = 2 * (j * spec.n_l + il), 2 * dst
            expected[d:d + 2, s:s + 2] *= factor
            expected[s:s + 2, d:d + 2] = expected[d:d + 2, s:s + 2].conj().T
    np.testing.assert_allclose(sample.toarray(), expected, rtol=0, atol=1e-15)
    assert sample.hermiticity_defect() == 0.0


@pytest.mark.parametrize("spec, scope", [
    (LatticeSpec(3, 0, 0, bc_y=Boundary.PERIODIC), DisorderScope.PER_OAM_LINK),
    (LatticeSpec(3, 0, 1, spin_dim=2, bc_y=Boundary.PERIODIC),
     DisorderScope.PER_OAM_LINK),
    (LatticeSpec(1, -2, 2, bc_x=Boundary.PERIODIC), DisorderScope.PER_CAVITY_LINK),
    (LatticeSpec(2, -2, 2, spin_dim=2, bc_x=Boundary.PERIODIC),
     DisorderScope.PER_CAVITY_LINK),
])
def test_coupling_errors_on_a_short_ring_raise_before_drawing(spec, scope):
    """On a periodic axis of length 1 or 2 a link is the diagonal, or two
    links share one entry, so a link has no entry of its own."""
    H = (build_landau_hofstadter(spec, 0.2) if spec.spin_dim == 1
         else build_qsh(spec, 0.2, 0.6))
    rng = np.random.Generator(np.random.Philox(key=4))
    with pytest.raises(ValueError, match="at least 3"):
        sample_disordered_hamiltonian(
            H, DisorderModel(sigma_coupling_phase=0.1, scope=scope), rng)
    fresh = np.random.Generator(np.random.Philox(key=4))
    assert np.array_equal(rng.standard_normal(4), fresh.standard_normal(4))
    # Detunings alone, and coupling errors on the other axis, are well defined.
    other = (DisorderScope.PER_CAVITY_LINK if scope is DisorderScope.PER_OAM_LINK
             else DisorderScope.PER_OAM_LINK)
    for model in (DisorderModel(sigma_detuning=0.1, scope=scope),
                  DisorderModel(sigma_coupling_mag=0.1, sigma_coupling_phase=0.3,
                                scope=other)):
        sample = sample_disordered_hamiltonian(H, model, 4)
        assert sample.hermiticity_defect() == 0.0
        assert not np.array_equal(sample.toarray(), H.toarray())


def test_sample_stays_exactly_hermitian(small_lattice):
    _, H = small_lattice
    model = DisorderModel(
        sigma_detuning=0.1,
        sigma_coupling_mag=0.2,
        sigma_coupling_phase=0.3,
        scope=DisorderScope.PER_CAVITY_LINK,
    )
    sample = sample_disordered_hamiltonian(H, model, 3)
    assert sample.hermiticity_defect() < 1e-15


# ---------------------------------------------------------------------------
# loss perturbation


def test_loss_zero_sigma_gives_uniform_rates():
    spec = LatticeSpec(n_x=3, l_min=-5, l_max=5)
    decay = loss_perturbed_decay(0.2, spec, DisorderModel(), 0)
    assert not decay.is_uniform
    assert np.all(decay.rates == 0.2)


def test_loss_envelope_pins_central_mode():
    spec = LatticeSpec(n_x=4, l_min=-10, l_max=10)
    model = DisorderModel.oam_link_errors(0.0, sigma_loss=0.5)
    decay = loss_perturbed_decay(0.2, spec, model, 8)
    rates = decay.rates.reshape(spec.n_x, spec.n_l)
    center = spec.l_values.tolist().index(0)
    assert np.all(rates[:, center] == 0.2)
    assert np.any(rates != 0.2)


def test_loss_effective_sigma_follows_envelope():
    # many cavities give many independent draws at the same OAM index
    spec = LatticeSpec(n_x=200, l_min=-30, l_max=30)
    model = DisorderModel.oam_link_errors(0.0, sigma_loss=0.02)
    decay = loss_perturbed_decay(1.0, spec, model, 21)
    rates = decay.rates.reshape(spec.n_x, spec.n_l)
    at_30 = rates[:, -1] - 1.0
    target = 0.02 * saturating_oam_envelope(30.0)
    assert np.std(at_30, ddof=1) == pytest.approx(target, rel=0.25)


def test_loss_determinism_and_positivity_error():
    spec = LatticeSpec(n_x=2, l_min=-7, l_max=7)
    model = DisorderModel(sigma_loss=0.3)
    first = loss_perturbed_decay(0.2, spec, model, 4)
    second = loss_perturbed_decay(0.2, spec, model, 4)
    assert np.array_equal(first.rates, second.rates)
    with pytest.raises(ValueError, match="positive loss rates"):
        loss_perturbed_decay(0.2, spec, DisorderModel(sigma_loss=50.0), 4)
    with pytest.raises(ValueError, match="base loss rate"):
        loss_perturbed_decay(-0.2, spec, model, 4)


# ---------------------------------------------------------------------------
# Monte-Carlo driver


def test_zero_disorder_summary_reproduces_clean_spectrum(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omegas = np.array([-2.2, -1.0])
    summary = displacement_robustness(
        H, DisorderModel(), decay, omegas, region, trials=3, seed=0
    )
    clean = displacement_spectrum(H, decay, omegas, region)
    assert np.array_equal(summary.mean, clean)
    assert np.all(summary.std == 0.0)
    assert summary.trials == 3


def test_summary_is_bitwise_deterministic(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omegas = np.array([-2.2])
    model = DisorderModel.cavity_detuning(0.1)
    first = displacement_robustness(H, model, decay, omegas, region, trials=5, seed=2)
    second = displacement_robustness(H, model, decay, omegas, region, trials=5, seed=2)
    other = displacement_robustness(H, model, decay, omegas, region, trials=5, seed=3)
    assert np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.std, second.std)
    assert not np.array_equal(first.mean, other.mean)


def test_detuning_disorder_spares_midgap_displacement(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omegas = np.array([-2.2, -1.5034])
    clean = displacement_spectrum(H, decay, omegas, region)
    summary = displacement_robustness(
        H,
        DisorderModel.cavity_detuning(0.1),
        decay,
        omegas,
        region,
        trials=16,
        seed=5,
    )
    assert abs(summary.mean[0] - clean[0]) < 0.1  # measured 0.028
    assert summary.std[0] < 0.1  # measured 0.050
    # the in-band probe scatters more than the mid-gap probe
    assert summary.std[0] < summary.std[1]  # measured 0.050 vs 0.088


def test_oam_linked_disorder_spares_midgap_displacement(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omega = np.array([-2.2])
    clean = displacement_spectrum(H, decay, omega, region)
    summary = displacement_robustness(
        H,
        DisorderModel.oam_link_errors(0.05, 0.02),
        decay,
        omega,
        region,
        trials=6,
        seed=3,
    )
    assert abs(summary.mean[0] - clean[0]) < 0.2  # measured 8e-4


def test_input_averaging_over_oam_window(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omega = np.array([-2.2])
    averaged = displacement_robustness(
        H,
        DisorderModel(),
        decay,
        omega,
        region,
        trials=2,
        seed=0,
        input_l_values=(-1, 0, 1),
    )
    spectra = [
        displacement_spectrum(H, decay, omega, region, input_l)
        for input_l in (-1, 0, 1)
    ]
    assert averaged.mean[0] == pytest.approx(np.mean(spectra), rel=1e-12)


def _trials(H0, model, decay, trials, seed):
    """Each trial's Hamiltonian and decay, drawn as the driver draws them."""
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(trial))
        H = sample_disordered_hamiltonian(H0, model, rng)
        yield H, (loss_perturbed_decay(decay.gamma, H0.spec, model, rng)
                  if model.sigma_loss > 0.0 else decay)


def _per_trial_loop(H0, model, decay, omegas, region, trials, seed, input_l_values):
    """The summary from one engine call per trial over every input OAM's ports."""
    spec = H0.spec
    ports = [r for l in input_l_values for r in region.ports(spec, l)]
    samples = np.array([
        scattering.Resolvent(H, trial_decay).transmitted_power(omegas, ports,
                                                               l_of_index(spec))
        / len(input_l_values)
        for H, trial_decay in _trials(H0, model, decay, trials, seed)])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1)


@pytest.mark.parametrize("model, input_l_values", [
    (DisorderModel.cavity_detuning(0.1), (0, 2)),
    (DisorderModel.oam_link_errors(0.05, 0.02), (0,)),
    (DisorderModel(sigma_detuning=0.1, sigma_coupling_phase=0.05, sigma_loss=0.05),
     (-1, 2)),
])
def test_summary_equals_the_per_trial_loop_bitwise(small_lattice, monkeypatch,
                                                    model, input_l_values):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omegas = np.array([-2.2, -1.5034, 0.4])
    mean, std = _per_trial_loop(H, model, decay, omegas, region, 7, 4, input_l_values)
    engines = []

    def recorded(Hs, decays):
        engines.append(len(Hs))
        return scattering.Resolvent(Hs, decays)

    monkeypatch.setattr(disorder, "Resolvent", recorded)
    # The default chunk holds all seven trials, a budget of one byte makes
    # one group per trial and splits its grid, and groups of two leave the
    # last trial alone.
    runs = [([7], lambda: None),
            ([1] * 7, lambda: monkeypatch.setattr(scattering, "_CHUNK_BYTES", 1)),
            ([2, 2, 2, 1], lambda: monkeypatch.setattr(disorder, "_trials_per_chunk",
                                                       lambda *args: 2))]
    for groups, setup in runs:
        setup()
        engines.clear()
        summary = displacement_robustness(H, model, decay, omegas, region, trials=7,
                                          seed=4, input_l_values=input_l_values)
        assert engines == groups
        np.testing.assert_array_equal(summary.mean, mean)
        np.testing.assert_array_equal(summary.std, std)


# Model A detunes the cavities under uniform loss; model B perturbs the OAM
# links and the loss of each mode.
MODELS = {"A": DisorderModel.cavity_detuning(0.1),
          "B": DisorderModel.oam_link_errors(0.05, 0.02)}


@pytest.mark.parametrize("name", MODELS)
def test_summary_is_the_mean_of_per_oam_spectra(small_lattice, name):
    _, H = small_lattice
    model, decay = MODELS[name], DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omegas = np.array([-2.2, -1.5034, 0.4])
    input_l_values = (-2, 0, 2)
    samples = np.array([
        np.mean([displacement_spectrum(H_t, decay_t, omegas, region, l)
                 for l in input_l_values], axis=0)
        for H_t, decay_t in _trials(H, model, decay, 6, 8)])
    summary = displacement_robustness(H, model, decay, omegas, region, trials=6,
                                      seed=8, input_l_values=input_l_values)
    for got, want in ((summary.mean, samples.mean(axis=0)),
                      (summary.std, samples.std(axis=0, ddof=1))):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("input_l_values", [(0,), (-2, 0, 2)])
def test_each_trial_group_makes_one_engine_call(small_lattice, monkeypatch,
                                                input_l_values):
    spec, H = small_lattice
    region = EdgeRegion(Side.RIGHT, depth=3)
    calls, sized = [], []

    class Counted(scattering.Resolvent):
        def __init__(self, Hs, decays):
            calls.append("engine")
            super().__init__(Hs, decays)

        def transmitted_power(self, *args):
            calls.append("power")
            return super().transmitted_power(*args)

    monkeypatch.setattr(disorder, "Resolvent", Counted)
    monkeypatch.setattr(disorder, "_trials_per_chunk",
                        lambda H0, ports, omegas: sized.append(ports) or 2)
    displacement_robustness(H, DisorderModel.cavity_detuning(0.1), DecaySpec.uniform(0.2),
                            np.array([-2.2, 0.4]), region, trials=5, seed=1,
                            input_l_values=input_l_values)
    assert calls == ["engine", "power"] * 3
    assert sized == [len(region.columns(spec)) * len(input_l_values)]


def test_driver_validation_errors(small_lattice):
    _, H = small_lattice
    decay = DecaySpec.uniform(0.2)
    region = EdgeRegion(Side.RIGHT, depth=3)
    omega = np.array([-2.2])
    with pytest.raises(ValueError, match="trials"):
        displacement_robustness(H, DisorderModel(), decay, omega, region, trials=1)
    with pytest.raises(ValueError, match="input OAM"):
        displacement_robustness(
            H, DisorderModel(), decay, omega, region, trials=2, input_l_values=()
        )
    per_mode = DecaySpec.per_mode(np.full(H.dim, 0.2))
    with pytest.raises(ValueError, match="uniform"):
        displacement_robustness(
            H,
            DisorderModel(sigma_loss=0.02),
            per_mode,
            omega,
            region,
            trials=2,
        )


def test_summary_validation():
    with pytest.raises(ValueError, match="share one shape"):
        MonteCarloSummary(np.zeros(3), np.zeros(2), np.zeros(3), 2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        MonteCarloSummary(np.zeros(2), np.zeros(2), np.array([0.1, -0.1]), 2, 0)
