import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    CheckReport,
    InvalidParameterError,
    ProbeSet,
    SteeringConfig,
    canonical_gaussian,
    check_mimo_energy,
    check_norm_identity,
    chirp_multiply,
    collinearity_check,
    cross_ambiguity,
    gen_gaussian,
    gen_rect,
    gen_subcarrier_set,
    gram_psd_check,
    heisenberg_shift,
    inner_product,
    make_report,
    mimo_inner_product,
    moyal_inner_product,
    random_probe_set,
    recover_scalar,
    surface_quadrature_inner,
    trace_psd_check,
    trace_reduction_check,
)
from mimoaf import properties
from mimoaf.signals import HeisenbergPoint

from conftest import DT, DT_G, family_waveforms, mixture_basis, random_mixture


def phase_family(u, m, seed=0):
    rng = np.random.default_rng(seed + 101)
    thetas = rng.uniform(0.0, 2 * np.pi, size=m)
    return [u.replace_samples(np.exp(1j * t) * u.samples) for t in thetas]


# ---------------------------------------------------------------- norm / energy

def test_norm_identity_unit_gaussian(gauss256):
    rep = check_norm_identity(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - 1.0) <= 1e-9
    assert rep.abs_err == 0.0  # quadrature is exact for a self pair


def test_norm_identity_scales_with_energy(gauss256):
    doubled = gauss256.replace_samples(2.0 * gauss256.samples)
    rep = check_norm_identity(doubled, doubled)
    assert rep.passed
    assert abs(rep.lhs - 16.0) <= 1e-8


def test_norm_identity_orthogonal_pair(subcarriers2):
    rep = check_norm_identity(subcarriers2[0], subcarriers2[1])
    assert rep.passed
    assert abs(rep.lhs - 1.0) <= 1e-9


def test_norm_identity_all_families():
    for name, u in family_waveforms().items():
        rep = check_norm_identity(u, u)
        assert rep.passed, name
        assert rep.rel_err <= 1e-10, name


def test_mimo_energy_two_orthonormal(subcarriers2):
    cfg = SteeringConfig(2, 1.0, 64)
    rep = check_mimo_energy(subcarriers2, cfg)
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-5


def test_mimo_energy_m1_matches_norm(gauss256):
    cfg = SteeringConfig(1, 1.0, 8)
    rep = check_mimo_energy([gauss256], cfg)
    norm_rep = check_norm_identity(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - norm_rep.lhs) <= 1e-12


def test_mimo_energy_three_random_mixtures():
    waves = gen_subcarrier_set(3, 1.0, DT)
    rng = np.random.default_rng(9)
    mixed = [random_mixture(mixture_basis(w), rng) for w in waves]
    cfg = SteeringConfig(3, 1.0, 64)
    rep = check_mimo_energy(mixed, cfg, n_doppler=512)
    assert rep.passed
    assert abs(rep.lhs - 9.0) <= 1e-5


def test_mimo_energy_gamma_two(subcarriers2):
    cfg = SteeringConfig(2, 2.0, 64)
    rep = check_mimo_energy(subcarriers2, cfg)
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-5


# ----------------------------------------------------------------------- moyal

def test_moyal_self_quadruple_matches_norm(gauss256):
    rep = moyal_inner_product(gauss256, gauss256, gauss256, gauss256)
    norm_rep = check_norm_identity(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - norm_rep.lhs) <= 1e-10


def test_moyal_orthogonal_factors_vanish(subcarriers2):
    u, v = subcarriers2
    rep = moyal_inner_product(u, v, u, u)
    assert rep.passed
    assert abs(rep.rhs) <= 1e-12
    assert abs(rep.lhs) <= 1e-9


def test_moyal_random_quadruple():
    basis = mixture_basis(gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0))
    rng = np.random.default_rng(3)
    quad = [random_mixture(basis, rng) for _ in range(4)]
    rep = moyal_inner_product(*quad)
    assert rep.passed
    assert rep.rel_err <= 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_moyal_randomized_invariant(seed):
    rng = np.random.default_rng(seed)
    basis = mixture_basis(gen_rect(1.0, DT_G))
    quad = [random_mixture(basis, rng) for _ in range(4)]
    rep = moyal_inner_product(*quad)
    assert rep.rel_err <= 1e-9


def test_mimo_moyal_norm_case(subcarriers2):
    cfg = SteeringConfig(2, 1.0, 8)
    rep = mimo_inner_product(subcarriers2, subcarriers2, cfg, 0.0, 0.0)
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-6


def test_mimo_moyal_m1_matches_scalar(gauss256):
    cfg = SteeringConfig(1, 1.0, 8)
    rep = mimo_inner_product([gauss256], [gauss256], cfg, 0.3, 0.7)
    scalar = moyal_inner_product(gauss256, gauss256, gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - scalar.lhs) <= 1e-12


def test_mimo_moyal_random_sets():
    us = gen_subcarrier_set(2, 1.0, DT)
    rng = np.random.default_rng(7)
    vs = [random_mixture(mixture_basis(w), rng) for w in us]
    cfg = SteeringConfig(2, 1.0, 8)
    rep = mimo_inner_product(list(us), vs, cfg, 0.3, 0.7, n_doppler=512)
    assert rep.passed
    assert rep.rel_err <= 1e-8


# ------------------------------------------------------------------------- psd

def test_single_probe_gram_is_energy(gauss256):
    probes = ProbeSet((HeisenbergPoint(0.0, 0.0),))
    rep = gram_psd_check(gauss256, probes)
    assert rep.passed
    assert rep.info["min_eig"] == pytest.approx(gauss256.energy(), rel=1e-9)


def test_gram_psd_eight_random_probes(gauss256):
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    probes = random_probe_set(u, n_points=8, seed=42)
    rep = gram_psd_check(u, probes)
    assert rep.passed
    assert rep.info["min_eig"] >= -1e-9 * rep.info["max_eig"]
    assert rep.info["path_gap"] <= 1e-8 * u.energy()
    assert rep.info["quadratic_form"] >= -1e-9


def test_probe_set_determinism(gauss256):
    a = random_probe_set(gauss256, seed=5)
    b = random_probe_set(gauss256, seed=5)
    assert a.points == b.points
    assert np.array_equal(a.coefficients, b.coefficients)


@pytest.mark.parametrize("kwargs", [
    {"n_points": 0}, {"n_points": -1}, {"seed": -1}, {"n_doppler": 0}, {"n_doppler": 1023},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_random_probe_set_rejects_bad_input(gauss256, kwargs):
    with pytest.raises(InvalidParameterError):
        random_probe_set(gauss256, **kwargs)


def test_probe_set_rejects_central_phase():
    with pytest.raises(InvalidParameterError):
        ProbeSet((HeisenbergPoint(0.0, 0.0, 0.5),))
    with pytest.raises(InvalidParameterError):
        ProbeSet((HeisenbergPoint(0.0, 0.0),), coefficients=np.ones(3))


def test_trace_psd_m1_matches_gram():
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    probes = random_probe_set(u, n_points=6, seed=1)
    single = gram_psd_check(u, probes)
    traced = trace_psd_check([u], probes)
    assert traced.passed
    assert abs(single.info["min_eig"] - traced.info["min_eig"]) <= 1e-12
    assert abs(single.info["quadratic_form"] - traced.info["quadratic_form"]) <= 1e-12


def test_trace_psd_two_waveforms():
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0)]
    probes = random_probe_set(base, n_points=8, seed=3)
    rep = trace_psd_check(waves, probes)
    assert rep.passed
    assert rep.info["min_eig"] >= -1e-9 * rep.info["max_eig"]


def test_psd_checks_shift_each_copy_once(monkeypatch):
    # route (a) needs each shifted copy T(x_p) w once, not once per Gram entry
    calls = []

    def counting_shift(w, p):
        calls.append(p)
        return heisenberg_shift(w, p)

    monkeypatch.setattr(properties, "heisenberg_shift", counting_shift)
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0)]
    probes = random_probe_set(base, n_points=5, seed=3)
    assert gram_psd_check(base, probes).passed
    assert len(calls) == 5
    calls.clear()
    assert trace_psd_check(waves, probes).passed
    assert len(calls) == 2 * 5


def test_trace_quadratic_form_is_additive():
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0), heisenberg_shift(base, HeisenbergPoint(4 * base.dt, 0.0))]
    probes = random_probe_set(base, n_points=5, seed=8)
    total = trace_psd_check(waves, probes).info["quadratic_form"]
    parts = sum(gram_psd_check(w, probes).info["quadratic_form"] for w in waves)
    assert abs(total - parts) <= 1e-8 * max(abs(total), 1.0)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gram_psd_seed_sweep(seed):
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    probes = random_probe_set(u, n_points=6, seed=seed)
    rep = gram_psd_check(u, probes)
    assert rep.passed


# ------------------------------------------------------------------ uniqueness

def test_recover_scalar_pure_phase(gauss256):
    theta = math.pi / 3
    v = gauss256.replace_samples(np.exp(1j * theta) * gauss256.samples)
    rep = recover_scalar(gauss256, v)
    lam = rep.info["lambda"]
    assert rep.passed
    assert rep.info["af_equal"] is True
    assert abs(lam - cmath.exp(-1j * theta)) <= 1e-12
    assert abs(abs(lam) - 1.0) <= 1e-12
    assert rep.info["residual"] <= 1e-12


def test_recover_scalar_identity(gauss256):
    rep = recover_scalar(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.info["lambda"] - 1.0) <= 1e-15


def test_recover_scalar_gate_rejects_scaling(gauss256):
    v = gauss256.replace_samples(2.0 * gauss256.samples)
    rep = recover_scalar(gauss256, v)
    assert rep.passed  # hypothesis void, vacuous pass
    assert rep.info["af_equal"] is False
    assert rep.info["af_distance"] == pytest.approx(3.0, rel=1e-6)
    assert abs(rep.info["lambda"] - 0.5) <= 1e-12


def test_recover_scalar_shifted_waveform_not_equal(gauss256):
    v = heisenberg_shift(gauss256, HeisenbergPoint(16 * gauss256.dt, 0.0))
    rep = recover_scalar(gauss256, v)
    # a pure delay keeps |chi| but not chi; the linear-phase mismatch is visible
    assert rep.info["af_equal"] is False


# ---------------------------------------------------------------- collinearity

def test_collinear_sum_collapses(gauss256):
    u2 = gauss256.replace_samples(3j * gauss256.samples)
    rep = collinearity_check(u2, gauss256)
    assert rep.passed
    assert abs(rep.info["alpha"] - 3j) <= 1e-12
    assert rep.info["sum_gap"] <= 1e-9
    # closed sum: (9 + 1) times the unit-direction surface
    s_unit = cross_ambiguity(gauss256)
    s2 = cross_ambiguity(u2)
    assert np.max(np.abs(s2.values + s_unit.values - 10.0 * s_unit.values)) <= 1e-8


def test_collinearity_identical_inputs(gauss256):
    rep = collinearity_check(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.info["alpha"] - 1.0) <= 1e-12


def test_collinearity_refuses_orthogonal(subcarriers2):
    rep = collinearity_check(subcarriers2[0], subcarriers2[1])
    assert not rep.passed
    assert rep.info["cs_ratio"] <= 1e-9
    assert "alpha" not in rep.info


# ------------------------------------------------------------- trace reduction

@pytest.mark.parametrize("m", [2, 3])
def test_trace_reduction_phase_family(gauss256, m):
    waves = phase_family(gauss256, m, seed=m)
    cfg = SteeringConfig(m, 1.0, 8)
    rep = trace_reduction_check(waves, cfg)
    assert rep.passed
    assert rep.info["reduced"] is True
    assert rep.info["gap"] <= 1e-8


def test_trace_reduction_refuses_orthonormal():
    waves = list(gen_subcarrier_set(3, 1.0, DT))
    cfg = SteeringConfig(3, 1.0, 8)
    rep = trace_reduction_check(waves, cfg, n_doppler=512)
    assert rep.passed  # dichotomy: refusal with witnesses is the correct outcome
    assert rep.info["reduced"] is False
    assert len(rep.info["failing_pairs"]) == 3
    assert all(not ok for ok in rep.info["pair_status"].values())


def test_trace_reduction_single_waveform(gauss256):
    cfg = SteeringConfig(1, 1.0, 8)
    rep = trace_reduction_check([gauss256], cfg)
    assert rep.passed
    assert rep.info["reduced"] is True
    assert rep.info["gap"] <= 1e-12


# -------------------------------------------------------------------- reports

def test_format_line_shape():
    rep = make_report("demo", 1.0 + 0j, 1.0 + 0j, 1e-6)
    line = rep.format_line()
    assert line.startswith("demo pass")
    assert len(line.split()) == 7  # name status lhs rhs abs rel tol
    complex_line = make_report("demo", 1j, 1j, 1e-6).format_line()
    assert len(complex_line.split()) == 7  # complex values stay one token


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1.0),
)
def test_report_pass_iff_within_tolerance(lhs, rhs, tol):
    rep = make_report("x", lhs, rhs, tol)
    assert rep.passed == (rep.rel_err <= rep.tol)
    assert rep.abs_err == abs(lhs - rhs)


def test_surface_quadrature_inner_matches_moyal(gauss256):
    v = chirp_multiply(gauss256, 2.0)
    s_uv = cross_ambiguity(gauss256, v)
    lhs = surface_quadrature_inner(s_uv, s_uv)
    rhs = inner_product(gauss256, gauss256) * inner_product(v, v)
    assert abs(lhs - rhs) <= 1e-9
