import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    CheckReport,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    ProbeSet,
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
    spatial_integral,
    surface_quadrature_inner,
    trace_psd_check,
    trace_reduction_check,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)
from mimoaf import ambiguity, properties
from mimoaf.ambiguity import mimo_beams
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


def test_norm_identity_past_float_range_fails_without_raising(gauss256):
    # every cell and every row sum of |chi|^2 is finite, but their total is
    # past the float range: the report fails on an infinite lhs, as numpy's
    # sum of the whole surface does, and math.fsum's OverflowError stays in
    big = gauss256.replace_samples(3e76 * gauss256.samples)
    with np.errstate(over="ignore"):
        rep = check_norm_identity(big, big)
    assert math.isfinite(rep.rhs.real)
    assert rep.lhs == math.inf and not rep.passed


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
    rep = check_mimo_energy(subcarriers2, 1.0)
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-5


def test_mimo_energy_m1_matches_norm(gauss256):
    rep = check_mimo_energy([gauss256], 1.0)
    norm_rep = check_norm_identity(gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - norm_rep.lhs) <= 1e-12


def test_mimo_energy_three_random_mixtures():
    waves = gen_subcarrier_set(3, 1.0, DT)
    rng = np.random.default_rng(9)
    mixed = [random_mixture(mixture_basis(w), rng) for w in waves]
    rep = check_mimo_energy(mixed, 1.0, n_doppler=512)
    assert rep.passed
    assert abs(rep.lhs - 9.0) <= 1e-5


def test_mimo_energy_gamma_two(subcarriers2):
    rep = check_mimo_energy(subcarriers2, 2.0)
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


def test_moyal_refuses_surfaces_on_different_grids(gauss256, surface_builds):
    # chi(u1, u3) and chi(u2, u4) are paired block by block: on different
    # grids the pairing is refused before any loop is set up
    fine = gen_gaussian(CANONICAL_SIGMA, DT_G / 2, 2.0)
    with pytest.raises(GridMismatchError):
        moyal_inner_product(gauss256, fine, gauss256, fine, n_doppler=1024)
    with pytest.raises(GridMismatchError):
        mimo_inner_product([gauss256], [fine], 1.0, 0.3, 0.7, n_doppler=1024)
    assert surface_builds == []
    with pytest.raises(GridMismatchError, match="waveform counts differ"):
        mimo_inner_product([gauss256, gauss256], [gauss256], 1.0, 0.3, 0.7)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_moyal_randomized_invariant(seed):
    rng = np.random.default_rng(seed)
    basis = mixture_basis(gen_rect(1.0, DT_G))
    quad = [random_mixture(basis, rng) for _ in range(4)]
    rep = moyal_inner_product(*quad)
    assert rep.rel_err <= 1e-9


def test_mimo_moyal_norm_case(subcarriers2):
    rep = mimo_inner_product(subcarriers2, subcarriers2, 1.0, 0.0, 0.0)
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-6


def test_mimo_moyal_m1_matches_scalar(gauss256):
    rep = mimo_inner_product([gauss256], [gauss256], 1.0, 0.3, 0.7)
    scalar = moyal_inner_product(gauss256, gauss256, gauss256, gauss256)
    assert rep.passed
    assert abs(rep.lhs - scalar.lhs) <= 1e-12


def test_mimo_moyal_random_sets():
    us = gen_subcarrier_set(2, 1.0, DT)
    rng = np.random.default_rng(7)
    vs = [random_mixture(mixture_basis(w), rng) for w in us]
    rep = mimo_inner_product(list(us), vs, 1.0, 0.3, 0.7, n_doppler=512)
    assert rep.passed
    assert rep.rel_err <= 1e-8


def test_mimo_moyal_is_moyal_on_the_beams():
    # each slice is chi of its beam pair, so the pairing is moyal's, bit for bit
    us = list(gen_subcarrier_set(2, 1.0, DT))
    rng = np.random.default_rng(7)
    vs = [random_mixture(mixture_basis(w), rng) for w in us]
    gamma = 1.0
    (U, V), (U2, V2) = mimo_beams(us, gamma, 0.3, 0.7), mimo_beams(vs, gamma, 0.3, 0.7)
    rep = mimo_inner_product(us, vs, gamma, 0.3, 0.7, n_doppler=512)
    assert rep.lhs == moyal_inner_product(U, U2, V, V2, n_doppler=512).lhs


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
    # seeds that are not non-negative integers: floats, bools, None, a string
    {"seed": 1.5}, {"seed": 2.0}, {"seed": np.float64(3.0)}, {"seed": True}, {"seed": False},
    {"seed": None}, {"seed": "4"},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_random_probe_set_rejects_bad_input(gauss256, kwargs):
    with pytest.raises(InvalidParameterError):
        random_probe_set(gauss256, **kwargs)


def test_random_probe_set_takes_any_natural_seed(gauss256):
    # no upper cap, as `verify --seed` takes large ints; a numpy integer is
    # the same seed as the Python one
    assert random_probe_set(gauss256, seed=2**70).points
    same = random_probe_set(gauss256, seed=5).points
    assert random_probe_set(gauss256, seed=np.int64(5)).points == same


def test_probe_set_rejects_central_phase():
    with pytest.raises(InvalidParameterError, match="at least one point"):
        ProbeSet(())
    with pytest.raises(InvalidParameterError):
        ProbeSet((HeisenbergPoint(0.0, 0.0, 0.5),))
    with pytest.raises(InvalidParameterError):
        ProbeSet((HeisenbergPoint(0.0, 0.0),), coefficients=np.ones(3))


def test_trace_psd_m1_matches_gram():
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    probes = random_probe_set(u, n_points=6, seed=1)
    single = gram_psd_check(u, probes)
    traced = trace_psd_check([u], probes, 1.0)
    assert traced.passed
    assert abs(single.info["min_eig"] - traced.info["min_eig"]) <= 1e-12
    assert abs(single.info["quadratic_form"] - traced.info["quadratic_form"]) <= 1e-12


def test_trace_psd_two_waveforms():
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0)]
    probes = random_probe_set(base, n_points=8, seed=3)
    rep = trace_psd_check(waves, probes, 1.0)
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
    assert trace_psd_check(waves, probes, 1.0).passed
    assert len(calls) == 2 * 5


@pytest.mark.parametrize("seed", [0, 5])
def test_dual_gram_matches_the_group_law_loop(seed):
    # the per-entry reference: inner products of the shifted copies, and the
    # surface read through the float group product z = x_j^{-1} x_i
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0)]
    # the streamed rows have the bits of the whole trace surface's rows
    surface = spatial_integral(waves, 1.0, 1024)
    probes = random_probe_set(base, 6, seed, 1024)
    G_a, G_b = properties._dual_gram(waves, 1024, probes)
    pts = probes.points
    roots = properties._unit_roots(1024)
    k = [surface.lag_index(p.tau) - 511 for p in pts]
    l = [surface.doppler_index(p.nu) - 512 for p in pts]
    for j, xj in enumerate(pts):
        for i, xi in enumerate(pts):
            total = 0j
            for w in waves:
                total += inner_product(heisenberg_shift(w, xj), heisenberg_shift(w, xi))
            assert G_a[i, j] == total  # the same products and sums
            z = xj.inverse().compose(xi)
            value = surface.value_at(z.tau, -z.nu)
            ref = cmath.exp(-2j * math.pi * z.x3) * value
            assert abs(G_b[i, j] - ref) <= 1e-14 * 2.0  # the summed energy
            # with the phase from the root table, to the bit: an array
            # multiply, as route (b)'s, which numpy rounds apart from a scalar
            root = roots[[k[j] * (l[i] - l[j]) % 1024]]
            assert G_b[i, j] == (root * np.array([value]))[0]


def _psd_pair():
    """(gram psd, trace psd) reports of the verify suites' setup."""
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = list(gen_subcarrier_set(2, 1.0, DT))
    return (
        gram_psd_check(base, random_probe_set(base, 8, 0, 1024), n_doppler=1024),
        trace_psd_check(waves, random_probe_set(waves[0], 8, 0, 1024),
                        1.0, n_doppler=1024),
    )


def test_psd_route_b_needs_the_group_phase(monkeypatch):
    # route (b) reads exp(-i 2 pi z3) from the shared root table; with the
    # conjugate table the central phase turns the wrong way and both fail
    roots = properties._unit_roots
    monkeypatch.setattr(properties, "_unit_roots", lambda n: np.conj(roots(n)))
    for rep in _psd_pair():
        assert not rep.passed
        assert rep.rel_err > 1e-3


def test_psd_route_b_needs_the_doppler_sign(monkeypatch):
    # reading the surface at nu_i - nu_j instead of nu_j - nu_i is the same
    # as reading the Doppler-mirrored surface, bin j -> N - j, here of each
    # streamed block
    blocks = ambiguity._SurfaceBlocks.__iter__

    def mirrored(self):
        for start, block in blocks(self):
            block[:] = np.roll(block[:, ::-1], 1, axis=1)
            yield start, block

    monkeypatch.setattr(ambiguity._SurfaceBlocks, "__iter__", mirrored)
    for rep in _psd_pair():
        assert not rep.passed
        assert rep.rel_err > 1e-3


@pytest.mark.parametrize("axis", ["lag", "doppler"])
def test_probe_differences_must_stay_on_the_surface(axis):
    # 512 samples: lags -511 .. 511 and 2048 Doppler bins, so differences
    # of up to 511 lags and 1023 bins are on the surface and one more is not
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    d_nu = 1.0 / (2048 * u.dt)

    def probes(*spans):
        return ProbeSet(tuple(
            HeisenbergPoint(s * u.dt, 0.0) if axis == "lag" else HeisenbergPoint(0.0, s * d_nu)
            for s in spans
        ))

    edge = 511 if axis == "lag" else 1023
    gram_psd_check(u, probes(0, edge))
    with pytest.raises(GridAlignmentError):
        gram_psd_check(u, probes(0, edge + 1))
    # both points on the surface, their difference past it
    half = edge // 2 + 1
    with pytest.raises(GridAlignmentError, match="leave the"):
        gram_psd_check(u, probes(-half, half))


def test_trace_quadratic_form_is_additive():
    base = gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)
    waves = [base, chirp_multiply(base, 2.0), heisenberg_shift(base, HeisenbergPoint(4 * base.dt, 0.0))]
    probes = random_probe_set(base, n_points=5, seed=8)
    total = trace_psd_check(waves, probes, 1.0).info["quadratic_form"]
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
    rep = trace_reduction_check(waves, 1.0)
    assert rep.passed
    assert rep.info["reduced"] is True
    assert rep.info["gap"] <= 1e-8


def test_trace_reduction_refuses_orthonormal():
    waves = list(gen_subcarrier_set(3, 1.0, DT))
    rep = trace_reduction_check(waves, 1.0, n_doppler=512)
    assert rep.passed  # dichotomy: refusal with witnesses is the correct outcome
    assert rep.info["reduced"] is False
    assert len(rep.info["failing_pairs"]) == 3
    assert all(not ok for ok in rep.info["pair_status"].values())


def test_trace_reduction_scaled_copy_is_a_void_hypothesis(gauss256):
    # u and 2u are collinear but not unimodular: the uniqueness pass fails
    # the pair, so the reduction is not claimed and the pair is the witness
    waves = [gauss256, gauss256.replace_samples(2.0 * gauss256.samples)]
    rep = trace_reduction_check(waves, 1.0)
    assert rep.passed
    assert rep.info["reduced"] is False
    assert rep.info["failing_pairs"] == [(0, 1)]
    assert rep.format_line() == "trace-reduction pass 1 0 0 0 1e-08"


def test_trace_reduction_single_waveform(gauss256):
    rep = trace_reduction_check([gauss256], 1.0)
    assert rep.passed
    assert rep.info["reduced"] is True
    assert rep.info["gap"] <= 1e-12


def test_trace_reduction_zero_energy_raises_before_any_surface(gauss256, surface_builds):
    waves = [gauss256, gauss256.replace_samples(np.zeros(gauss256.n))]
    with pytest.raises(InvalidParameterError):
        trace_reduction_check(waves, 1.0)
    assert surface_builds == []


@pytest.mark.parametrize("check", [
    lambda u, z: trace_reduction_check([z], 1.0),
    lambda u, z: recover_scalar(z, u),
    lambda u, z: recover_scalar(u, z),
], ids=["trace", "scalar-u", "scalar-v"])
def test_zero_waveform_is_refused_before_any_surface(check, gauss256, surface_builds):
    # a zero waveform has no unimodular scalar, and a zero set's gap would
    # be taken against a zero peak
    with pytest.raises(InvalidParameterError, match="zero energy|nonzero energy"):
        check(gauss256, gauss256.replace_samples(np.zeros(gauss256.n)))
    assert surface_builds == []


@pytest.mark.parametrize("check,scale", [
    (lambda w, v: recover_scalar(w, v), 1e160),
    (lambda w, v: trace_reduction_check([w, v], 1.0), 1e154),
    (lambda w, v: collinearity_check(w, v), 1e160),
], ids=["scalar", "trace", "collinearity"])
def test_overflowing_energy_is_refused_before_any_surface(check, scale, gauss256,
                                                          surface_builds):
    # an energy past the float range makes lambda and the fits nan, and a
    # nan passed uniqueness and trace-reduction as a void hypothesis
    w = gauss256.replace_samples(scale * gauss256.samples)
    with np.errstate(over="ignore", invalid="ignore"):
        assert w.energy() == math.inf
        with pytest.raises(InvalidParameterError, match="finite nonzero energy"):
            check(w, w.replace_samples(1j * w.samples))
    assert surface_builds == []


@pytest.mark.parametrize("check", [
    lambda w: check_norm_identity(w, w),
    lambda w: check_mimo_energy([w, w], 1.0),
    lambda w: moyal_inner_product(w, w, w, w),
    lambda w: mimo_inner_product([w, w], [w, w], 1.0, 0.3, 0.7),
    lambda w: verify_mirror(w, w),
    lambda w: verify_lfm_shear(w, w, rate=1.0),
    lambda w: gram_psd_check(w, random_probe_set(w)),
    lambda w: trace_psd_check([w, w], random_probe_set(w), 1.0),
], ids=["norm", "mimo-energy", "moyal", "mimo-moyal", "sym-mirror", "sym-lfm", "psd",
        "trace-psd"])
def test_surface_of_an_overflowing_energy_is_refused(check, gauss256):
    # |w|^2 is past the float range, so every surface of w is inf or nan:
    # a bad input, not a failed identity, and not numpy's LinAlgError
    w = gauss256.replace_samples(1e160 * gauss256.samples)
    with pytest.raises(InvalidParameterError, match="past the float range"):
        check(w)


def test_trace_reduction_decides_on_the_waveforms(gauss256, surface_builds):
    # |lambda| = 1 + 5e-7 is within the unimodular fit but puts the self
    # surfaces about 1e-6 apart, past uniqueness's surface distance: the
    # set is tested for the reduction, which misses by |lambda|^2 - 1 over 2
    v = gauss256.replace_samples((1 + 5e-7) * 1j * gauss256.samples)
    assert recover_scalar(gauss256, v).info["af_equal"] is False
    surface_builds.clear()
    rep = trace_reduction_check([gauss256, v], 1.0)
    assert rep.info["reduced"] is True
    assert not rep.passed
    assert rep.info["gap"] == pytest.approx(5e-7, rel=1e-3)
    assert len(surface_builds) == 2  # the trace and chi(u0, u0), nothing pairwise


# -------------------------------------------------------------------- reports


# every public check, on inputs it passes at its own tolerance; the two
# "-void" cases take the vacuous branch, whose hypothesis fails on them
_CHECKS = {
    "norm": lambda g, s, **kw: check_norm_identity(g, g, 256, **kw),
    "mimo-energy": lambda g, s, **kw: check_mimo_energy(s, 1.0, 256, **kw),
    "moyal": lambda g, s, **kw: moyal_inner_product(g, g, g, g, 256, **kw),
    "mimo-moyal": lambda g, s, **kw: mimo_inner_product(s, s, 1.0, 0.3, 0.7, 256, **kw),
    "psd": lambda g, s, **kw: gram_psd_check(
        s[0], random_probe_set(s[0], 4, 0, 256), 256, **kw),
    "trace-psd": lambda g, s, **kw: trace_psd_check(
        s, random_probe_set(s[0], 4, 0, 256), 1.0, 256, **kw),
    "uniqueness": lambda g, s, **kw: recover_scalar(
        g, g.replace_samples(1j * g.samples), 256, **kw),
    "uniqueness-void": lambda g, s, **kw: recover_scalar(
        g, g.replace_samples(2.0 * g.samples), 256, **kw),
    "collinearity": lambda g, s, **kw: collinearity_check(
        g, g.replace_samples(3j * g.samples), 256, **kw),
    "trace-reduction": lambda g, s, **kw: trace_reduction_check(
        phase_family(g, 2), 1.0, 256, **kw),
    "trace-reduction-void": lambda g, s, **kw: trace_reduction_check(s, 1.0, 256, **kw),
    "sym-J": lambda g, s, **kw: verify_fourier_rotation(
        gen_gaussian(CANONICAL_SIGMA, 1 / 16, 8.0), **kw),
    "sym-mirror": lambda g, s, **kw: verify_mirror(g, n_doppler=256, **kw),
    "sym-lfm": lambda g, s, **kw: verify_lfm_shear(g, rate=2.5, n_doppler=256, **kw),
    "sym-dilate": lambda g, s, **kw: verify_dilation(g, b=2.0, n_doppler=256, **kw),
    "sym-mimo": lambda g, s, **kw: verify_mimo_symmetry(
        s, 1.0, 0.3, 0.7, verify_mirror, n_doppler=256, **kw),
}


@pytest.mark.parametrize("tol", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("check", _CHECKS)
def test_no_report_passes_past_its_tolerance(check, tol, gauss256, subcarriers2):
    # CheckReport's promise holds in the vacuous branches too: a pass has
    # rel_err <= tol, so a negative or nan tol passes nothing
    assert _CHECKS[check](gauss256, subcarriers2).passed
    rep = _CHECKS[check](gauss256, subcarriers2, tol=tol)
    assert not rep.passed or rep.rel_err <= rep.tol
    assert rep.info.get("af_equal", rep.info.get("reduced")) is not check.endswith("-void")


@pytest.mark.parametrize("check", _CHECKS)
def test_a_report_derives_its_verdict(check, gauss256, subcarriers2):
    # passed is read off the report, its gate held and rel_err <= tol, so a
    # report moved past its tolerance, or with its gate failed, fails
    rep = _CHECKS[check](gauss256, subcarriers2)
    assert rep.passed and rep.gate
    assert not dataclasses.replace(rep, rel_err=2 * rep.tol).passed
    assert not dataclasses.replace(rep, gate=False).passed


def test_format_line_shape():
    rep = make_report("demo", 1.0 + 0j, 1.0 + 0j, 1e-6, scale=1.0)
    line = rep.format_line()
    assert line.startswith("demo pass")
    assert len(line.split()) == 7  # name status lhs rhs abs rel tol
    complex_line = make_report("demo", 1j, 1j, 1e-6, scale=1.0).format_line()
    assert len(complex_line.split()) == 7  # complex values stay one token


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1.0),
)
def test_report_pass_iff_within_tolerance(lhs, rhs, tol):
    rep = make_report("x", lhs, rhs, tol, scale=max(abs(lhs), abs(rhs)))
    assert rep.passed == (rep.rel_err <= rep.tol)
    assert rep.abs_err == abs(lhs - rhs)


def test_surface_quadrature_inner_matches_moyal(gauss256):
    v = chirp_multiply(gauss256, 2.0)
    s_uv = cross_ambiguity(gauss256, v)
    lhs = surface_quadrature_inner(s_uv, s_uv)
    rhs = inner_product(gauss256, gauss256) * inner_product(v, v)
    assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("family", ["rect", "gaussian", "lfm", "subcarrier"])
def test_whole_surfaces_integrate_by_the_streamed_rule(family):
    # energy() and surface_quadrature_inner sum a held surface as the
    # streamed checks sum its blocks, so they agree to the bit
    u = family_waveforms()[family]
    v, u3 = chirp_multiply(u, 2.0), chirp_multiply(u, -1.0)
    for a, b in ((u, u), (u, v)):
        assert cross_ambiguity(a, b).energy() == check_norm_identity(a, b).lhs
    for q in ((u, v, u3, u), (u, u, v, v)):
        whole = surface_quadrature_inner(cross_ambiguity(q[0], q[2]), cross_ambiguity(q[1], q[3]))
        assert whole == moyal_inner_product(*q).lhs


# ------------------------------------------------------- streamed block size

def _streamed_checks(g, sub):
    """Every check that streams its surfaces, on 512 Doppler bins."""
    basis = mixture_basis(g)
    rng = np.random.default_rng(3)
    mix = [random_mixture(basis, rng) for _ in range(6)]
    phased = phase_family(g, 2)
    return {
        "norm-self": lambda: check_norm_identity(g, g, 512),
        "norm-pair": lambda: check_norm_identity(sub[0], sub[1], 512),
        "mimo-energy": lambda: check_mimo_energy(mix[:2], 1.0, 512),
        "moyal-self": lambda: moyal_inner_product(g, g, g, g, 512),
        "moyal": lambda: moyal_inner_product(*mix[:4], 512),
        "mimo-moyal": lambda: mimo_inner_product(mix[:2], mix[2:4], 1.0, 0.3, 0.7, 512),
        "mimo-moyal-self": lambda: mimo_inner_product(sub, sub, 1.0, 0.3, 0.3, 512),
        "uniqueness": lambda: recover_scalar(g, phased[1], 512),
        "uniqueness-void": lambda: recover_scalar(g, mix[4], 512),
        "collinearity": lambda: collinearity_check(g, g.replace_samples(3j * g.samples), 512),
        "collinearity-self": lambda: collinearity_check(g, g, 512),
        "trace-reduction": lambda: trace_reduction_check(phased, 1.0, 512),
        "psd": lambda: gram_psd_check(g, random_probe_set(g, 8, 0, 512), 512),
        "trace-psd": lambda: trace_psd_check(sub, random_probe_set(sub[0], 8, 0, 512), 1.0, 512),
        "sym-mirror": lambda: verify_mirror(g, mix[5], 512),
        "sym-lfm": lambda: verify_lfm_shear(g, rate=1 / (512 * g.dt * g.dt), n_doppler=512),
        "sym-lfm-off-grid": lambda: verify_lfm_shear(g, rate=2.5, n_doppler=512),
        "sym-dilate": lambda: verify_dilation(g, b=2.0, n_doppler=512),
        "sym-dilate-reciprocal": lambda: verify_dilation(g, b=0.5, n_doppler=512),
    }


def _report_bits(rep):
    # 17 significant digits round-trip a double, so equal lines are equal bits
    info = {k: float(rep.info[k]).hex() for k in
            ("af_distance", "sum_gap", "gap", "path_gap") if k in rep.info}
    return rep.format_line(), rep.lhs, rep.rhs, rep.abs_err, rep.rel_err, rep.passed, info


@pytest.mark.parametrize("rows", [1, 7, None])
def test_streamed_checks_do_not_depend_on_block_size(rows, gauss256, subcarriers2, monkeypatch):
    # each row is summed on its own and the rows' total rounded once by
    # math.fsum, a maximum has no order, and a Gram entry is one cell:
    # blocks of 1 or 7 lag rows, or of the default size, give the bits of
    # one block that holds every surface whole
    checks = _streamed_checks(gauss256, subcarriers2)
    default = ambiguity._BLOCK_BYTES
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 2**30)
    want = {name: _report_bits(check()) for name, check in checks.items()}
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", default if rows is None else rows * 16 * 512)
    got = {name: _report_bits(check()) for name, check in checks.items()}
    assert got == want


# Report lines of the streamed entry points on pairs that hold an all-zero
# signal, where no loop has a live lag row or only one loop of a pairing
# has: an empty hull runs no block, and must read as all-zero blocks did.
# The symmetry checks refuse a zero signal before any surface instead
# (test_symmetry.py::test_zero_energy_is_refused_before_any_surface).
EMPTY_HULL_LINES = {
    "norm-zz": "norm pass 0 0 0 0 9.9999999999999995e-07",
    "norm-uz": "norm pass 0 0 0 0 9.9999999999999995e-07",
    "mimo-energy": "mimo-energy pass 1 1 0 0 1.0000000000000001e-05",
    "moyal": "moyal pass 0 0 0 0 9.9999999999999995e-07",
}


def test_empty_hull_reads_as_all_zero_blocks():
    u = gen_rect(1.0, DT)
    z = u.replace_samples(np.zeros(u.n, dtype=np.complex128))
    reports = {
        "norm-zz": check_norm_identity(z, z),
        "norm-uz": check_norm_identity(u, z),
        "mimo-energy": check_mimo_energy([u, z], 1.0),
        "moyal": moyal_inner_product(u, z, u, u),
    }
    assert {name: rep.format_line() for name, rep in reports.items()} == EMPTY_HULL_LINES
    # a loop of an all-zero pair has no live row, and does not pull the
    # hull of a pairing down to row 0
    uz, uu = (ambiguity._ambiguity_blocks([pair], None) for pair in ((u, z), (u, u)))
    assert ambiguity._live_hull([uz]) == (0, 0)
    assert ambiguity._live_hull([uz, uu]) == ambiguity._live_hull([uu]) == (128, 383)
    # collinearity and trace-reduction refuse zero energy, so no caller
    # hands _max_gap no block; if one did, it reads as all-zero blocks
    assert properties._max_gap([]) == 0.0
