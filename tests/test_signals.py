import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    AliasingError,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    SampledSignal,
    SteeringConfig,
    TruncationRiskError,
    canonical_gaussian,
    chirp_multiply,
    dilate,
    fourier,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
    inner_product,
)
from mimoaf.signals import HeisenbergPoint

from conftest import DT_G, mixture_basis, random_mixture


# ----------------------------------------------------------- SampledSignal

def test_signal_rejects_empty_and_nonfinite():
    with pytest.raises(InvalidParameterError):
        SampledSignal(np.array([], dtype=complex), 0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        SampledSignal(np.array([1.0, np.nan]), 0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        SampledSignal(np.array([1.0, np.inf * 1j]), 0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        SampledSignal(np.array([1.0]), -0.1, 0.0)
    for dt, t0 in [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, -math.inf),
                   (0.1, True), (0.1, 10**400)]:
        with pytest.raises(InvalidParameterError):
            SampledSignal(np.array([1.0]), dt, t0)


def test_signal_grid_compatibility_enforced():
    a = gen_rect(1.0, 1 / 64)
    b = gen_rect(1.0, 1 / 32)
    with pytest.raises(GridMismatchError):
        inner_product(a, b)


def test_signal_samples_are_immutable():
    u = gen_rect(1.0, 1 / 64)
    with pytest.raises(ValueError):
        u.samples[0] = 1.0


# -------------------------------------------------------------- generators

def test_rect_unit_energy_and_self_inner():
    u = gen_rect(1.0, 1 / 64)
    assert math.isclose(u.energy(), 1.0, abs_tol=1e-12)
    assert abs(inner_product(u, u) - 1.0) <= 1e-12


def test_rect_degenerate_width_single_sample():
    dt = 1 / 64
    u = gen_rect(dt, dt)
    nz = np.flatnonzero(u.samples)
    assert nz.size == 1
    assert math.isclose(abs(u.samples[nz[0]]), 1 / math.sqrt(dt), rel_tol=1e-12)


def test_rect_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        gen_rect(0.0, 1 / 64)
    with pytest.raises(InvalidParameterError):
        gen_rect(1.0, -1 / 64)


def test_gaussian_canonical_energy():
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 4.0)
    assert math.isclose(u.energy(), 1.0, abs_tol=1e-9)
    # amplitude convention: 2^{1/4} e^{-pi t^2} at t=0
    mid = np.argmin(np.abs(u.times))
    assert math.isclose(abs(u.samples[mid]), 2 ** 0.25, rel_tol=1e-12)


def test_gaussian_even_symmetry():
    # index i pairs with n-i; the leftmost sample has no mirror partner
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    inner = u.samples[1:]
    assert np.array_equal(inner, inner[::-1])


def test_gaussian_doubled_sigma_still_unit_energy():
    u = gen_gaussian(2 * CANONICAL_SIGMA, 1 / 64, 4.0)
    assert math.isclose(u.energy(), 1.0, abs_tol=1e-9)


def test_gaussian_narrow_window_refused():
    with pytest.raises(TruncationRiskError):
        gen_gaussian(1.0, 1 / 64, 2.0)


def test_lfm_zero_rate_is_rect():
    assert np.array_equal(
        gen_lfm(1.0, 0.0, 1 / 64).samples, gen_rect(1.0, 1 / 64).samples
    )


def test_lfm_constant_modulus_in_pulse():
    u = gen_lfm(1.0, 8.0, 1 / 64)
    nz = np.abs(u.samples) > 0
    assert np.allclose(np.abs(u.samples[nz]), 1.0, atol=1e-12)


def test_lfm_equals_chirped_rect():
    lfm = gen_lfm(1.0, 8.0, 1 / 64)
    chirped = chirp_multiply(gen_rect(1.0, 1 / 64), 8.0)
    assert np.array_equal(lfm.samples, chirped.samples)


def test_lfm_aliasing_refused():
    with pytest.raises(AliasingError):
        gen_lfm(1.0, 100.0, 1 / 64)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, True, 1j],
                         ids=["nan", "inf", "minus-inf", "bool", "complex"])
def test_chirp_rate_must_be_a_finite_real(rate):
    # the zero signal has no support edge, so the aliasing bound never saw
    # an infinite rate, which went on to a nan phase
    u = gen_rect(1.0, 1 / 64)
    for v in (u, u.replace_samples(np.zeros(u.n))):
        with pytest.raises(InvalidParameterError):
            chirp_multiply(v, rate)
    with pytest.raises(InvalidParameterError):
        gen_lfm(1.0, rate, 1 / 64)


def test_subcarriers_orthonormal_pair():
    u0, u1 = gen_subcarrier_set(2, 1.0, 1 / 64)
    assert abs(inner_product(u0, u1)) <= 1e-10
    assert abs(inner_product(u0, u0) - 1.0) <= 1e-10


def test_subcarriers_m1_reduces_to_rect():
    (u,) = gen_subcarrier_set(1, 1.0, 1 / 64)
    assert np.array_equal(u.samples, gen_rect(1.0, 1 / 64).samples)


def test_subcarriers_gram_identity():
    waves = gen_subcarrier_set(4, 1.0, 1 / 64)
    gram = np.array([[inner_product(a, b) for b in waves] for a in waves])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_subcarriers_aliasing_refused():
    with pytest.raises(AliasingError):
        gen_subcarrier_set(200, 1.0, 1 / 64)


def test_inner_product_sesquilinear():
    u = gen_rect(1.0, 1 / 64)
    v = u.replace_samples(1j * u.samples)
    assert abs(inner_product(u, v) - (-1j) * u.energy()) <= 1e-12


# --------------------------------------------------------------- operators

def test_shift_identity_point():
    u = gen_rect(1.0, 1 / 64)
    out = heisenberg_shift(u, HeisenbergPoint(0.0, 0.0, 0.0))
    assert np.array_equal(out.samples, u.samples)


def test_shift_energy_preserved_in_window():
    u = gen_rect(1.0, 1 / 64)
    out = heisenberg_shift(u, HeisenbergPoint(16 / 64, 3.0, 0.7))
    assert abs(out.energy() - u.energy()) <= 1e-12


def test_shift_composition_matches_group_product():
    u = gen_rect(1.0, 1 / 64)
    p = HeisenbergPoint(4 / 64, 1.0, 0.3)
    q = HeisenbergPoint(-6 / 64, 2.0, -0.1)
    two = heisenberg_shift(heisenberg_shift(u, q), p)
    one = heisenberg_shift(u, p.compose(q))
    assert np.max(np.abs(two.samples - one.samples)) <= 1e-10


def test_shift_rejects_offgrid_delay_and_aliased_doppler():
    u = gen_rect(1.0, 1 / 64)
    with pytest.raises(GridAlignmentError):
        heisenberg_shift(u, HeisenbergPoint(0.013, 0.0))
    with pytest.raises(AliasingError):
        heisenberg_shift(u, HeisenbergPoint(0.0, 64.0))


@pytest.mark.parametrize("tau", [1e308, -1e308])
def test_shift_by_a_delay_past_float_range_is_off_grid(tau):
    # tau / dt overflows to inf, which round() would turn into OverflowError
    with pytest.raises(GridAlignmentError):
        heisenberg_shift(gen_rect(1.0, 1 / 64), HeisenbergPoint(tau, 0.0))


@pytest.mark.parametrize(
    "args",
    [(math.nan, 0.0), (0.0, math.inf), (0.0, 0.0, -math.inf), (True, 0.0), (1j, 0.0),
     (10**400, 0.0)],
    ids=["tau-nan", "nu-inf", "x3-neginf", "tau-bool", "tau-complex", "tau-huge-int"],
)
def test_heisenberg_point_rejects_non_finite(args):
    # a NaN delay used to pass and then die in heisenberg_shift with a
    # bare ValueError from round(nan)
    with pytest.raises(InvalidParameterError):
        HeisenbergPoint(*args)


def test_chirp_zero_rate_identity():
    u = gen_rect(1.0, 1 / 64)
    assert np.array_equal(chirp_multiply(u, 0.0).samples, u.samples)


def test_chirp_unimodular_and_invertible():
    u = gen_lfm(1.0, 4.0, 1 / 64)
    c = chirp_multiply(u, 6.0)
    assert np.allclose(np.abs(c.samples), np.abs(u.samples), atol=1e-12)
    back = chirp_multiply(c, -6.0)
    assert np.max(np.abs(back.samples - u.samples)) <= 1e-12


def test_dilate_identity():
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    out = dilate(u, 1.0)
    assert np.max(np.abs(out.samples - u.samples)) <= 1e-12


def test_dilate_gaussian_halves_sigma():
    # u(2t) for the width-sigma Gaussian is the width-sigma/2 Gaussian
    # scaled by 1/sqrt(2); compression by 2 hits exact grid points here
    u = canonical_gaussian()
    out = dilate(u, 2.0)
    ref = gen_gaussian(CANONICAL_SIGMA / 2, u.dt, 4.0)
    assert np.max(np.abs(out.samples - ref.samples / math.sqrt(2))) <= 1e-6
    assert math.isclose(out.energy(), 0.5, abs_tol=1e-6)


def test_dilate_offgrid_factor_energy():
    u = canonical_gaussian()
    out = dilate(u, 1.25)
    assert math.isclose(out.energy(), 1 / 1.25, rel_tol=1e-4)


# sha256 of dilate(u, b).samples for the sym-dilate Gaussian and its rate-3
# chirp, taken when the 16 taps' Kaiser-sinc weights were built one tap at a
# time; building them as one (taps, n) array must keep every bit
DILATE_PINNED = {
    ("gauss", 0.5): "49ec5a917fe4e8b0def11fff5f5537636669f1c0af2ee13d78ab67950b1f0576",
    ("gauss", 1.25): "c4ed8916bf8e8e9d23530024b6f9524c6459d687c362820d79d870f1d16af299",
    ("gauss", 2.0): "7b8add687e3b776444e747cbbc35045615ad308c03cdc0ddd818810b02a58261",
    ("chirp", 0.5): "81b653e74d3e856b20bf55cae3b1890644d99a57f882fb680beeb27b4353cd9c",
    ("chirp", 1.25): "9a75a620df6c93c3a730ec35cf1395778205acfdf53092495d30d6de2537365f",
    ("chirp", 2.0): "8468095484c498de62da744fa030c57cada0acce6d6cf67c13b82f60e1b74f7e",
}


@pytest.mark.parametrize("name, b", sorted(DILATE_PINNED))
def test_dilate_bytes_pinned(name, b):
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    if name == "chirp":
        u = chirp_multiply(u, 3.0)
    digest = hashlib.sha256(dilate(u, b).samples.tobytes()).hexdigest()
    assert digest == DILATE_PINNED[(name, b)]


def test_dilate_rejects_bad_factor():
    u = canonical_gaussian()
    for b in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            dilate(u, b)


@pytest.mark.parametrize("x", [True, 1 + 0j], ids=["bool", "complex"])
@pytest.mark.parametrize("build", [
    lambda x: SampledSignal(np.ones(4), x, 0.0),
    lambda x: gen_rect(1.0, x),
    lambda x: SteeringConfig(2, x),
    lambda x: dilate(canonical_gaussian(), x),
], ids=["signal-dt", "rect-dt", "steering-gamma", "dilate-b"])
def test_positive_parameters_must_be_real(build, x):
    # True used to pass as 1, and a complex value died in a bare TypeError
    with pytest.raises(InvalidParameterError):
        build(x)


def test_dilate_compression_checks_bandwidth():
    # rect-envelope spectra decay too slowly to compress without aliasing
    with pytest.raises(AliasingError):
        dilate(gen_rect(1.0, 1 / 64), 2.0)


def test_fourier_parseval():
    for u in (gen_rect(1.0, 1 / 64), gen_lfm(1.0, 4.0, 1 / 64)):
        assert abs(fourier(u).energy() - u.energy()) <= 1e-10


def test_fourier_gaussian_self_dual():
    g = canonical_gaussian()
    F = fourier(g)
    xi = F.times
    target = 2 ** 0.25 * np.exp(-np.pi * xi ** 2)
    assert np.max(np.abs(F.samples - target)) <= 1e-6


def test_fourier_fourth_power_identity():
    u = gen_lfm(1.0, 4.0, 1 / 64)
    out = u
    for _ in range(4):
        out = fourier(out)
    assert np.max(np.abs(out.samples - u.samples)) <= 1e-8
    assert out.dt == u.dt


# ------------------------------------------------- randomized group algebra

grid_points = st.tuples(
    st.integers(min_value=-12, max_value=12),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(grid_points)
def test_heisenberg_inverse_cancels(pt):
    k, nu, x3 = pt
    p = HeisenbergPoint(k * DT_G, nu, x3)
    r = p.compose(p.inverse())
    assert abs(r.tau) <= 1e-12 and abs(r.nu) <= 1e-12 and abs(r.x3) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(grid_points, grid_points)
def test_shift_composition_randomized(pa, pb):
    # zero-padded family: shifts within the pad margin lose no samples
    u = gen_rect(1.0, DT_G)
    p = HeisenbergPoint(pa[0] * DT_G, pa[1], pa[2])
    q = HeisenbergPoint(pb[0] * DT_G, pb[1], pb[2])
    two = heisenberg_shift(heisenberg_shift(u, q), p)
    one = heisenberg_shift(u, p.compose(q))
    assert np.max(np.abs(two.samples - one.samples)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_unitarity_of_generators(seed):
    rng = np.random.default_rng(seed)
    base = mixture_basis(gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0))
    u = random_mixture(base, rng)
    v = random_mixture(base, rng)
    ip = inner_product(u, v)
    scale = u.norm() * v.norm()
    p = HeisenbergPoint(4 * DT_G, 2.0, 0.5)
    for op in (
        lambda s: heisenberg_shift(s, p),
        lambda s: chirp_multiply(s, 3.0),
        fourier,
    ):
        got = inner_product(op(u), op(v))
        assert abs(got - ip) <= 1e-9 * scale
